open Vlog_util

type txn_result = { transactions : int; mean_ms : float; p90_ms : float; max_ms : float }

let accounts_mb = 10.
let pages_per_txn = 3

let tpcb ?(transactions = 300) ~prng (s : Rig.stack) =
  let fs = s.fs in
  let prng = Prng.split prng in
  let pages = int_of_float (accounts_mb *. 1048576.) / 4096 in
  ignore (Fs.exn @@ Fs.create fs "accounts");
  ignore (Fs.exn @@ Fs.create fs "history");
  let chunk = Bytes.make (16 * 4096) '0' in
  for c = 0 to (pages / 16) - 1 do
    ignore (Fs.exn @@ Fs.write fs "accounts" ~off:(c * 16 * 4096) chunk)
  done;
  ignore (Fs.sync fs);
  let page = Bytes.make 4096 'p' in
  let history = Bytes.make 512 'h' in
  let latencies = ref [] in
  let hist_off = ref 0 in
  for _ = 1 to transactions do
    let (), ms =
      Clock.elapsed s.clock (fun () ->
          for _ = 1 to pages_per_txn do
            ignore
              (Fs.exn @@ Fs.write fs "accounts" ~off:(Prng.int prng pages * 4096) page)
          done;
          ignore (Fs.exn @@ Fs.write fs "history" ~off:!hist_off history);
          hist_off := !hist_off + 512;
          ignore (Fs.sync fs))
    in
    latencies := ms :: !latencies
  done;
  let s = Stats.summarize !latencies in
  {
    transactions;
    mean_ms = s.Stats.mean;
    p90_ms = s.Stats.p90;
    max_ms = s.Stats.max;
  }

type churn_result = { operations : int; total_ms : float; ops_per_sec : float }

let max_live = 300

let postmark ?(operations = 2000) ~prng (s : Rig.stack) =
  let fs = s.fs in
  let prng = Prng.split prng in
  let live = Queue.create () in
  let sizes : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 0 in
  let name id = Printf.sprintf "pm%06d" id in
  let deliver () =
    let id = !next_id in
    incr next_id;
    let body = Bytes.make (512 * (1 + Prng.int prng 16)) 'm' in
    ignore (Fs.exn @@ Fs.create fs (name id));
    ignore (Fs.exn @@ Fs.write fs (name id) ~off:0 body);
    Hashtbl.replace sizes id (Bytes.length body);
    Queue.add id live
  in
  let (), total_ms =
    Clock.elapsed s.clock (fun () ->
        for op = 1 to operations do
          (match Prng.int prng 100 with
          | r when r < 40 || Queue.is_empty live ->
            if Queue.length live < max_live then deliver ()
            else ignore (Fs.exn @@ Fs.read fs (name (Queue.peek live)) ~off:0 ~len:4096)
          | r when r < 65 ->
            ignore (Fs.exn @@ Fs.read fs (name (Queue.peek live)) ~off:0 ~len:4096)
          | r when r < 80 ->
            let id = Queue.peek live in
            let size = Hashtbl.find sizes id in
            ignore (Fs.exn @@ Fs.write fs (name id) ~off:size (Bytes.make 512 'a'));
            Hashtbl.replace sizes id (size + 512)
          | _ ->
            if Queue.length live > 5 then begin
              let id = Queue.pop live in
              Hashtbl.remove sizes id;
              ignore (Fs.exn @@ Fs.delete fs (name id))
            end
            else deliver ());
          if op mod 50 = 0 then ignore (Fs.sync fs)
        done;
        ignore (Fs.sync fs))
  in
  {
    operations;
    total_ms;
    ops_per_sec = float_of_int operations /. (total_ms /. 1000.);
  }
