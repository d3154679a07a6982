(* The NVM staging-tier study (bench -- nvm): sync-small-write latency
   and burst absorption across four rigs x burst sizes x destager duty
   cycles, plus a sustained-overload phase per cell.

   The four rigs (printed label, then the {!Workload.Rig} spec) bracket
   the design space the paper's section 6 argues about:

   - vld        ufs/vld: UFS (sync) on the virtual log disk: every small
                write pays an eager disk write — the baseline the
                staging tier must beat;
   - nvram-lfs  lfs/regular: LFS with the paper's 6.1 MB NVRAM write
                buffer on a regular disk: writes land in the buffer at
                memory cost, durability rides on the buffer being
                non-volatile;
   - nvm-ufs    ufs/nvm-regular: the NVM write-ahead tier over UFS's
                regular disk;
   - nvm-vld    ufs/nvm-vld: the NVM write-ahead tier destaging onto a
                VLD — eager placement soaks up the destage stream.

   Each cell: warm a 64-block file, then [rounds] bursts of [burst]
   synchronous 4 KB overwrites, each burst followed by an idle gap of
   3 ms per write in which the destager may use [destage_util] of the
   window.  Then the overload phase: enough back-to-back writes to
   overflow the log, so every append pays the disk cost it was hiding
   — the degradation the 1.25x criterion bounds. *)

open Vlog_util
module Rig = Workload.Rig

let plain_vld : Rig.t = { fs = F_ufs; on = D_vld }
let nvm_vld : Rig.t = { fs = F_ufs; on = D_nvm W_vld }

(* The four rigs in table order, each with its printed label and the
   ordinal that salts its seeds. *)
let rigs =
  [
    (plain_vld, "vld", 1);
    ({ Rig.fs = F_lfs; on = D_regular }, "nvram-lfs", 2);
    ({ Rig.fs = F_ufs; on = D_nvm W_regular }, "nvm-ufs", 3);
    (nvm_vld, "nvm-vld", 4);
  ]

let rig_label rig = match List.find (fun (r, _, _) -> r = rig) rigs with _, l, _ -> l
let ordinal rig = match List.find (fun (r, _, _) -> r = rig) rigs with _, _, n -> n
let staged (rig : Rig.t) = match rig.on with D_nvm _ -> true | _ -> false

type cell = { rig : Rig.t; burst : int; destage_util : float }

let cell_label c = Printf.sprintf "%s/%d/%.2f" (rig_label c.rig) c.burst c.destage_util

type row = {
  r_cell : cell;
  n_sync : int;
  sync_mean_ms : float;
  sync_p50_ms : float;
  sync_p99_ms : float;
  sync_max_ms : float;
  burst_fit : bool;
  burst_mean_ms : float;
  overload_ops_s : float;
}

type criteria = {
  latency_ratio : float;
  latency_ok : bool;
  overload_ratio : float;
  overload_ok : bool;
}

let block_bytes = 4096
let file_blocks = 64
let vld_logical_blocks = 3000
let gap_ms_per_write = 3.0

let bursts = function
  | Rigs.Quick -> [ 8; 64 ]
  | Rigs.Full -> [ 8; 64; 256; 1024; 4096 ]

let utils = function Rigs.Quick -> [ 0.25; 1.0 ] | Rigs.Full -> [ 0.05; 0.25; 1.0 ]
let rounds = function Rigs.Quick -> 2 | Rigs.Full -> 4

(* Enough back-to-back writes to overflow the 8 MiB log (~2030 records)
   even if it starts empty, so the overload phase measures the
   degradation the 1.25x criterion bounds, not the NVM append rate. *)
let overload_ops = function Rigs.Quick -> 150 | Rigs.Full -> 4000

(* A steady-state overwrite of an already-allocated block stages one WAL
   record; the warmup's allocation metadata is drained before anything
   is measured. *)
let records_per_sync_write = 1

let cells ~scale =
  List.concat_map
    (fun (rig, _, _) ->
      let us = if staged rig then utils scale else [ 0. ] in
      List.concat_map
        (fun burst -> List.map (fun u -> { rig; burst; destage_util = u }) us)
        (bursts scale))
    rigs

let seed_of ~seed c =
  Int64.of_int
    ((0xA7 * (seed + 1))
    + (10_000 * ordinal c.rig)
    + (7 * c.burst)
    + int_of_float (c.destage_util *. 100.))

let run_cell ?(seed = 0) ~scale c =
  let clock = Clock.create () in
  (* [Lfs.default_config] already is the paper's NVRAM rig: a 1561-block
     (6.1 MB) write buffer treated as non-volatile. *)
  let s =
    Rig.format ~spare_blocks:8 ~ufs:Rig.small_ufs
      ~wal:{ Nvm.Nvm_wal.default_config with destage_util = c.destage_util }
      ~profile:Rigs.seagate ~logical_blocks:vld_logical_blocks ~clock
      ~prng:(Prng.split (Prng.create ~seed:(seed_of ~seed c)))
      c.rig
  in
  let fail what pp e =
    failwith
      (Format.asprintf "nvm bench [%s]: %s failed: %a" (rig_label c.rig) what pp e)
  in
  let die op = function Ok _ -> () | Error e -> fail op Blockdev.Fs_error.pp e in
  let version = ref 0 in
  (* One synchronous 4 KB overwrite of a slot of file "f". *)
  let write slot =
    incr version;
    let payload = Bytes.make block_bytes (Char.chr (33 + (!version mod 90))) in
    die "write" (Workload.Fs.write s.fs "f" ~off:(slot * block_bytes) payload)
  in
  die "create" (Workload.Fs.create s.fs "f");
  for slot = 0 to file_blocks - 1 do
    write slot
  done;
  (* Empty the staging tier after warmup. *)
  Option.iter
    (fun w ->
      match Nvm.Nvm_wal.drain w with
      | Ok () -> ()
      | Error e -> fail "warmup drain" Blockdev.Device.pp_io_error e)
    s.wal;
  let sprng = Prng.create ~seed:(Int64.add (seed_of ~seed c) 1L) in
  let lats = ref [] in
  let burst_times = ref [] in
  for _ = 1 to rounds scale do
    let b0 = Clock.now clock in
    for _ = 1 to c.burst do
      let t0 = Clock.now clock in
      write (Prng.int sprng file_blocks);
      lats := (Clock.now clock -. t0) :: !lats
    done;
    burst_times := (Clock.now clock -. b0) :: !burst_times;
    (* Only the device idles, never LFS's cleaner or flush: the open NVRAM-LFS bug. *)
    s.dev.Blockdev.Device.idle (gap_ms_per_write *. float_of_int c.burst)
  done;
  let o0 = Clock.now clock in
  let n_over = overload_ops scale in
  for _ = 1 to n_over do
    write (Prng.int sprng file_blocks)
  done;
  let over_ms = Clock.now clock -. o0 in
  let s_lat = Stats.summarize (List.rev !lats) in
  let log_capacity =
    match s.wal with
    | None -> 0
    | Some w -> (Nvm.Nvm_wal.status w).Nvm.Nvm_wal.st_log_capacity
  in
  let burst_fit =
    log_capacity = 0
    || 32
       + records_per_sync_write * c.burst
         * Nvm.Nvm_wal.Record.encoded_size ~payload_len:block_bytes
       <= log_capacity
  in
  {
    r_cell = c;
    n_sync = s_lat.Stats.n;
    sync_mean_ms = s_lat.Stats.mean;
    sync_p50_ms = s_lat.Stats.p50;
    sync_p99_ms = s_lat.Stats.p99;
    sync_max_ms = s_lat.Stats.max;
    burst_fit;
    burst_mean_ms = Stats.mean (List.rev !burst_times);
    overload_ops_s = float_of_int n_over /. Float.max over_ms 1e-6 *. 1000.;
  }

(* The acceptance criteria, read off the finished rows: plain VLD
   against the staged VLD at the destager's highest duty cycle. *)
let criteria_of ~scale rows =
  let find rig burst u =
    List.find_opt
      (fun r ->
        r.r_cell.rig = rig && r.r_cell.burst = burst && r.r_cell.destage_util = u)
      rows
  in
  let umax = List.fold_left Float.max 0. (utils scale) in
  let ratios =
    List.filter_map
      (fun burst ->
        match (find plain_vld burst 0., find nvm_vld burst umax) with
        | Some base, Some nvm when nvm.burst_fit && nvm.sync_mean_ms > 0. ->
          Some (base.sync_mean_ms /. nvm.sync_mean_ms)
        | _ -> None)
      (bursts scale)
  in
  let latency_ratio =
    match ratios with [] -> 0. | r :: rs -> List.fold_left Float.min r rs
  in
  let bmax = List.fold_left max 0 (bursts scale) in
  let overload_ratio =
    match (find plain_vld bmax 0., find nvm_vld bmax umax) with
    | Some base, Some nvm when nvm.overload_ops_s > 0. ->
      base.overload_ops_s /. nvm.overload_ops_s
    | _ -> infinity
  in
  {
    latency_ratio;
    latency_ok = latency_ratio >= 10.;
    overload_ratio;
    overload_ok = overload_ratio <= 1.25;
  }

let table_of rows =
  let t =
    Table.create
      ~title:
        "NVM staging tier: synchronous 4 KB writes in bursts (gap 3 ms/write), \
         then sustained overload"
      ~columns:
        [
          "rig"; "burst"; "util"; "mean"; "p50"; "p99"; "burst ms"; "fits";
          "overload ops/s";
        ]
  in
  List.iter
    (fun row ->
      Table.add_row t
        [
          rig_label row.r_cell.rig;
          string_of_int row.r_cell.burst;
          (if staged row.r_cell.rig then
             Table.cell_f ~decimals:2 row.r_cell.destage_util
           else "-");
          Table.cell_ms row.sync_mean_ms;
          Table.cell_ms row.sync_p50_ms;
          Table.cell_ms row.sync_p99_ms;
          Table.cell_f ~decimals:1 row.burst_mean_ms;
          (if row.burst_fit then "yes" else "no");
          Table.cell_f ~decimals:0 row.overload_ops_s;
        ])
    rows;
  t

let report ~scale rows =
  let c = criteria_of ~scale rows in
  let verdict ok = if ok then "ok" else "FAIL" in
  let cell row =
    Json.Obj
      [
        ("rig", String (rig_label row.r_cell.rig)); ("burst", Int row.r_cell.burst);
        ("destage_util", Float row.r_cell.destage_util); ("n_sync", Int row.n_sync);
        ("sync_mean_ms", Float row.sync_mean_ms); ("sync_p50_ms", Float row.sync_p50_ms);
        ("sync_p99_ms", Float row.sync_p99_ms); ("sync_max_ms", Float row.sync_max_ms);
        ("burst_fit", Bool row.burst_fit); ("burst_mean_ms", Float row.burst_mean_ms);
        ("overload_ops_s", Float row.overload_ops_s);
      ]
  in
  ( Table.render (table_of rows)
    ^ Printf.sprintf
        "\ncriteria: latency_ratio %.1fx (>=10: %s), overload_ratio %.2fx (<=1.25: %s)\n"
        c.latency_ratio (verdict c.latency_ok) c.overload_ratio (verdict c.overload_ok),
    Json.Obj
      [
        ("cells", List (List.map cell rows));
        ( "criteria",
          Obj
            [
              ("latency_ratio", Float c.latency_ratio); ("latency_ok", Bool c.latency_ok);
              ("overload_ratio", Float c.overload_ratio); ("overload_ok", Bool c.overload_ok);
            ] );
      ] )
