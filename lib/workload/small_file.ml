type result = { create_ms : float; read_ms : float; delete_ms : float; files : int }

let name i = Printf.sprintf "small%05d" i

let run ?(files = 1500) (s : Rig.stack) =
  let fs = s.fs in
  let payload = Bytes.make 1024 'q' in
  let (), create_ms =
    Vlog_util.Clock.elapsed s.clock (fun () ->
        for i = 0 to files - 1 do
          ignore (Fs.exn @@ Fs.create fs (name i));
          ignore (Fs.exn @@ Fs.write fs (name i) ~off:0 payload)
        done;
        ignore (Fs.sync fs))
  in
  Fs.drop_caches fs;
  let (), read_ms =
    Vlog_util.Clock.elapsed s.clock (fun () ->
        for i = 0 to files - 1 do
          ignore (Fs.exn @@ Fs.read fs (name i) ~off:0 ~len:1024)
        done)
  in
  let (), delete_ms =
    Vlog_util.Clock.elapsed s.clock (fun () ->
        for i = 0 to files - 1 do
          ignore (Fs.exn @@ Fs.delete fs (name i))
        done;
        ignore (Fs.sync fs))
  in
  { create_ms; read_ms; delete_ms; files }

let normalize ~baseline r =
  ( baseline.create_ms /. r.create_ms,
    baseline.read_ms /. r.read_ms,
    baseline.delete_ms /. r.delete_ms )
