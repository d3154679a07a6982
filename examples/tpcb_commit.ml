(* Database-style commit workload: the application class that motivates
   the paper (recoverable virtual memory, persistent stores, TPC-B-style
   transactions).  Every transaction updates a few random 4 KB pages of
   an account "table" and must be durable before it commits.

   The same unmodified UFS runs on a regular disk and on a VLD; the
   per-transaction latency gap is the paper's headline result.

   Run with:  dune exec examples/tpcb_commit.exe *)

open Vlog_util

let table_file = "accounts.db"
let table_mb = 12.
let transactions = 200
let pages_per_txn = 3

let run_on (label, on) =
  let rig, prng =
    Experiments.Rigs.rig ~seed:7L ~profile:Disk.Profile.st19101 ~host:Host.sparc10
      { fs = F_ufs; on }
  in
  let fs = rig.fs in
  let prng = Prng.split prng in
  let pages = int_of_float (table_mb *. 1048576.) / 4096 in
  (* Load the table. *)
  ignore (Workload.Fs.exn @@ Workload.Fs.create fs table_file);
  let chunk = Bytes.make (64 * 4096) '0' in
  for c = 0 to (pages / 64) - 1 do
    ignore (Workload.Fs.exn @@ Workload.Fs.write fs table_file ~off:(c * 64 * 4096) chunk)
  done;
  ignore (Workload.Fs.sync fs);
  (* Commit transactions. *)
  let latencies = ref [] in
  let page_buf = Bytes.make 4096 'x' in
  for _ = 1 to transactions do
    let (), ms =
      Clock.elapsed rig.clock (fun () ->
          for _ = 1 to pages_per_txn do
            ignore
              (Workload.Fs.exn @@ Workload.Fs.write fs table_file
                 ~off:(Prng.int prng pages * 4096)
                 page_buf)
          done)
    in
    latencies := ms :: !latencies
  done;
  (label, Stats.summarize !latencies)

let () =
  let name_reg, reg = run_on ("UFS/regular", Workload.Rig.D_regular) in
  let name_vld, vld = run_on ("UFS/vld", Workload.Rig.D_vld) in
  Format.printf "%d transactions of %d synchronous 4 KB page updates each@.@."
    transactions pages_per_txn;
  Format.printf "%-12s %a@." name_reg Stats.pp_summary reg;
  Format.printf "%-12s %a@.@." name_vld Stats.pp_summary vld;
  Format.printf "mean commit speedup on the virtual log disk: %.1fx@."
    (reg.Stats.mean /. vld.Stats.mean)
