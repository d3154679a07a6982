(* Mail-spool workload: a stream of small messages arrives, is read, and
   expires — the small-synchronous-write pattern of spool and queue
   directories.  Exercises all four configurations of the paper's
   Figure 5 with a mixed create/read/delete operation stream.

   Run with:  dune exec examples/mail_spool.exe *)

open Vlog_util

let operations = 2000
let max_live_messages = 300

let message_body prng =
  (* 1-8 KB messages. *)
  let len = 512 * (1 + Prng.int prng 16) in
  Bytes.init len (fun i -> Char.chr (32 + ((i * 7) mod 95)))

let run (label, spec) =
  let rig, prng = Experiments.Rigs.rig spec in
  let fs = rig.Workload.Rig.fs in
  let prng = Prng.split prng in
  let live = Queue.create () in
  let next_id = ref 0 in
  let name id = Printf.sprintf "msg%06d" id in
  let (), total_ms =
    Clock.elapsed rig.clock (fun () ->
        for _ = 1 to operations do
          match Prng.int prng 3 with
          | 0 when Queue.length live < max_live_messages ->
            let id = !next_id in
            incr next_id;
            ignore (Workload.Fs.exn @@ Workload.Fs.create fs (name id));
            ignore
              (Workload.Fs.exn
              @@ Workload.Fs.write fs (name id) ~off:0 (message_body prng));
            Queue.add id live
          | 1 when Queue.length live > 0 ->
            (* Read the oldest message (delivery). *)
            let id = Queue.peek live in
            ignore (Workload.Fs.exn @@ Workload.Fs.read fs (name id) ~off:0 ~len:4096)
          | 2 when Queue.length live > 10 ->
            let id = Queue.pop live in
            ignore (Workload.Fs.exn @@ Workload.Fs.delete fs (name id))
          | _ ->
            (* Fallback: deliver a new message. *)
            let id = !next_id in
            incr next_id;
            ignore (Workload.Fs.exn @@ Workload.Fs.create fs (name id));
            ignore
              (Workload.Fs.exn
              @@ Workload.Fs.write fs (name id) ~off:0 (message_body prng));
            Queue.add id live
        done;
        ignore (Workload.Fs.sync fs))
  in
  Format.printf "%-12s %8.1f ms total, %6.3f ms/op, utilization %4.1f%%@." label
    total_ms
    (total_ms /. float_of_int operations)
    (100. *. Workload.Fs.utilization fs)

let () =
  Format.printf "Mail spool: %d mixed create/deliver/expire operations@.@." operations;
  List.iter run Experiments.Rigs.the_four
