type result = {
  latency_ms_per_block : float;
  bursts : int;
  burst_blocks : int;
  idle_ms : float;
}

let file = "burstfile"
let block = 4096

let run ?(bursts = 12) ?(settle_ms = 5000.) ~file_mb ~burst_kb ~idle_ms ~prng
    (s : Rig.stack) =
  let fs = s.fs in
  let blocks = int_of_float (file_mb *. 1048576.) / block in
  let burst_blocks = burst_kb * 1024 / block in
  if blocks <= 0 || burst_blocks <= 0 then invalid_arg "Burst.run: sizes too small";
  let prng = Vlog_util.Prng.split prng in
  ignore (Fs.exn @@ Fs.create fs file);
  let chunk_blocks = 16 in
  let data = Bytes.make (chunk_blocks * block) 'f' in
  for c = 0 to (blocks / chunk_blocks) - 1 do
    ignore (Fs.exn @@ Fs.write fs file ~off:(c * chunk_blocks * block) data)
  done;
  ignore (Fs.sync fs);
  (* A short settle ages the file system; steady state then comes from
     running enough bursts that the supply it created is consumed. *)
  if settle_ms > 0. then Fs.idle fs ~clock:s.clock settle_ms;
  let payload = Bytes.make block 'b' in
  let foreground = ref 0. in
  for _ = 1 to bursts do
    let (), ms =
      Vlog_util.Clock.elapsed s.clock (fun () ->
          for _ = 1 to burst_blocks do
            let off = Vlog_util.Prng.int prng blocks * block in
            ignore (Fs.exn @@ Fs.write fs file ~off payload)
          done)
    in
    foreground := !foreground +. ms;
    if idle_ms > 0. then Fs.idle fs ~clock:s.clock idle_ms
  done;
  {
    latency_ms_per_block = !foreground /. float_of_int (bursts * burst_blocks);
    bursts;
    burst_blocks;
    idle_ms;
  }
