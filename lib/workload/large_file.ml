open Vlog_util

type phase =
  | Seq_write
  | Seq_read
  | Random_write_async
  | Random_write_sync
  | Seq_read_again
  | Random_read

let phase_name = function
  | Seq_write -> "Sequential Write"
  | Seq_read -> "Sequential Read"
  | Random_write_async -> "Random Write (Async.)"
  | Random_write_sync -> "Random Write (Sync.)"
  | Seq_read_again -> "Sequential Read Again"
  | Random_read -> "Random Read"

type result = (phase * float) list

let file = "bigfile"
let chunk = 64 * 1024
let block = 4096

let bandwidth ~bytes ~ms = if ms <= 0. then infinity else float_of_int bytes /. 1048576. /. (ms /. 1000.)

let run ?(mb = 10) ?(sync_phase = false) ~prng (s : Rig.stack) =
  let fs = s.fs in
  let total = mb * 1024 * 1024 in
  let blocks = total / block in
  let prng = Prng.split prng in
  ignore (Fs.exn @@ Fs.create fs file);
  let measure f =
    let (), ms = Clock.elapsed s.clock f in
    bandwidth ~bytes:total ~ms
  in
  let seq_write =
    measure (fun () ->
        let data = Bytes.make chunk 'w' in
        for c = 0 to (total / chunk) - 1 do
          ignore (Fs.exn @@ Fs.write fs file ~off:(c * chunk) data)
        done;
        ignore (Fs.sync fs))
  in
  Fs.drop_caches fs;
  let seq_read =
    measure (fun () ->
        for c = 0 to (total / chunk) - 1 do
          ignore (Fs.exn @@ Fs.read fs file ~off:(c * chunk) ~len:chunk)
        done)
  in
  Fs.drop_caches fs;
  let random_write_async =
    measure (fun () ->
        let data = Bytes.make block 'r' in
        for _ = 1 to blocks do
          ignore (Fs.exn @@ Fs.write fs file ~off:(Prng.int prng blocks * block) data)
        done;
        ignore (Fs.sync fs))
  in
  let random_write_sync =
    if not sync_phase then None
    else begin
      Fs.drop_caches fs;
      Some
        (measure (fun () ->
             let data = Bytes.make block 's' in
             for _ = 1 to blocks do
               let off = Prng.int prng blocks * block in
               ignore (Fs.exn @@ Fs.write fs file ~off data);
               ignore (Fs.sync fs)
             done))
    end
  in
  Fs.drop_caches fs;
  let seq_read_again =
    measure (fun () ->
        for c = 0 to (total / chunk) - 1 do
          ignore (Fs.exn @@ Fs.read fs file ~off:(c * chunk) ~len:chunk)
        done)
  in
  Fs.drop_caches fs;
  let random_read =
    measure (fun () ->
        for _ = 1 to blocks do
          let off = Prng.int prng blocks * block in
          ignore (Fs.exn @@ Fs.read fs file ~off ~len:block)
        done)
  in
  [ (Seq_write, seq_write); (Seq_read, seq_read); (Random_write_async, random_write_async) ]
  @ (match random_write_sync with Some b -> [ (Random_write_sync, b) ] | None -> [])
  @ [ (Seq_read_again, seq_read_again); (Random_read, random_read) ]
