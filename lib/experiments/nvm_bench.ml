(* The NVM staging-tier study (bench -- nvm): sync-small-write latency
   and burst absorption across four rigs x burst sizes x destager duty
   cycles, plus a sustained-overload phase per cell.

   The four rigs bracket the design space the paper's section 6 argues
   about:

   - vld        UFS (sync) on the virtual log disk: every small write
                pays an eager disk write — the baseline the staging
                tier must beat;
   - nvram-lfs  LFS with the paper's 6.1 MB NVRAM write buffer on a
                regular disk: writes land in the buffer at memory cost,
                durability rides on the buffer being non-volatile;
   - nvm-ufs    the NVM write-ahead tier over UFS's regular disk;
   - nvm-vld    the NVM write-ahead tier destaging onto a VLD — eager
                placement soaks up the destage stream.

   Each cell: warm a 64-block file, then [rounds] bursts of [burst]
   synchronous 4 KB overwrites, each burst followed by an idle gap of
   3 ms per write in which the destager may use [destage_util] of the
   window.  Then the overload phase: enough back-to-back writes to
   overflow the log, so every append pays the disk cost it was hiding
   — the degradation the 1.25x criterion bounds. *)

open Vlog_util

type rig_kind = R_vld | R_nvram_lfs | R_nvm_ufs | R_nvm_vld

let rig_label = function
  | R_vld -> "vld"
  | R_nvram_lfs -> "nvram-lfs"
  | R_nvm_ufs -> "nvm-ufs"
  | R_nvm_vld -> "nvm-vld"

let staged = function
  | R_nvm_ufs | R_nvm_vld -> true
  | R_vld | R_nvram_lfs -> false

type cell = { rk : rig_kind; burst : int; destage_util : float }

let cell_label c = Printf.sprintf "%s/%d/%.2f" (rig_label c.rk) c.burst c.destage_util

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
    (fun rk ->
      let us = if staged rk then utils scale else [ 0. ] in
      List.concat_map
        (fun burst -> List.map (fun u -> { rk; burst; destage_util = u }) us)
        (bursts scale))
    [ R_vld; R_nvram_lfs; R_nvm_ufs; R_nvm_vld ]

let seed_of ~seed c =
  Int64.of_int
    ((0xA7 * (seed + 1))
    + (10_000
      * (match c.rk with
        | R_vld -> 1
        | R_nvram_lfs -> 2
        | R_nvm_ufs -> 3
        | R_nvm_vld -> 4))
    + (7 * c.burst)
    + int_of_float (c.destage_util *. 100.))

let ufs_cfg =
  { Ufs.sync_data = true; n_inodes = 64; cache_blocks = 64; readahead_blocks = 2 }

(* One built rig: a slot writer (synchronous 4 KB overwrite), the idle
   hook (where a staged rig's destager runs), and a settle hook that
   empties the staging tier after warmup. *)
type stack = {
  sk_clock : Clock.t;
  sk_write : int -> unit;
  sk_idle : float -> unit;
  sk_settle : unit -> unit;
  sk_log_capacity : int;  (* 0 = no staging tier *)
}

let make_stack c seed =
  let clock = Clock.create () in
  let prng = Prng.create ~seed in
  let mk_disk policy =
    Disk.Disk_sim.create ~buffer_policy:policy ~profile:Rigs.seagate ~clock ()
  in
  let mk_vld () =
    Blockdev.Vld.device
      (Blockdev.Vld.create ~disk:(mk_disk Disk.Track_buffer.Whole_track)
         ~logical_blocks:vld_logical_blocks ~prng:(Prng.split prng) ())
  in
  let mk_regular () =
    Blockdev.Regular_disk.device
      (Blockdev.Regular_disk.create
         ~disk:(mk_disk Disk.Track_buffer.Forward_discard)
         ~spare_blocks:8 ())
  in
  let mk_staged inner =
    let nvm = Nvm.Nvm_sim.create ~clock () in
    let config =
      { Nvm.Nvm_wal.default_config with Nvm.Nvm_wal.destage_util = c.destage_util }
    in
    let wal = Nvm.Nvm_wal.create ~config ~nvm ~inner () in
    (Nvm.Nvm_wal.device wal, Some wal)
  in
  let dev, wal =
    match c.rk with
    | R_vld -> (mk_vld (), None)
    | R_nvram_lfs -> (mk_regular (), None)
    | R_nvm_ufs -> mk_staged (mk_regular ())
    | R_nvm_vld -> mk_staged (mk_vld ())
  in
  let die op = function
    | Ok _ -> ()
    | Error (e : Blockdev.Fs_error.t) ->
      failwith
        (Format.asprintf "nvm bench [%s]: %s failed: %a" (rig_label c.rk) op
           Blockdev.Fs_error.pp e)
  in
  let version = ref 0 in
  let payload () =
    incr version;
    Bytes.make block_bytes (Char.chr (33 + (!version mod 90)))
  in
  let sk_write =
    match c.rk with
    | R_nvram_lfs ->
      (* [Lfs.default_config] already is the paper's NVRAM rig: a
         1561-block (6.1 MB) write buffer treated as non-volatile. *)
      let t = Lfs.format ~dev ~host:Host.free ~clock Lfs.default_config in
      die "create" (Lfs.create t "f");
      fun slot -> die "write" (Lfs.write t "f" ~off:(slot * block_bytes) (payload ()))
    | R_vld | R_nvm_ufs | R_nvm_vld ->
      let t = Ufs.format ~dev ~host:Host.free ~clock ufs_cfg in
      die "create" (Ufs.create t "f");
      fun slot -> die "write" (Ufs.write t "f" ~off:(slot * block_bytes) (payload ()))
  in
  {
    sk_clock = clock;
    sk_write;
    sk_idle = (fun dt -> dev.Blockdev.Device.idle dt);
    sk_settle =
      (fun () ->
        match wal with
        | None -> ()
        | Some w -> (
          match Nvm.Nvm_wal.drain w with
          | Ok () -> ()
          | Error e ->
            failwith
              (Format.asprintf "nvm bench [%s]: warmup drain failed: %a"
                 (rig_label c.rk) Blockdev.Device.pp_io_error e)));
    sk_log_capacity =
      (match wal with
      | None -> 0
      | Some w -> (Nvm.Nvm_wal.status w).Nvm.Nvm_wal.st_log_capacity);
  }

let run_cell ?(seed = 0) ~scale c =
  let st = make_stack c (seed_of ~seed c) in
  for slot = 0 to file_blocks - 1 do
    st.sk_write slot
  done;
  st.sk_settle ();
  let sprng = Prng.create ~seed:(Int64.add (seed_of ~seed c) 1L) in
  let lats = ref [] in
  let burst_times = ref [] in
  for _ = 1 to rounds scale do
    let b0 = Clock.now st.sk_clock in
    for _ = 1 to c.burst do
      let t0 = Clock.now st.sk_clock in
      st.sk_write (Prng.int sprng file_blocks);
      lats := (Clock.now st.sk_clock -. t0) :: !lats
    done;
    burst_times := (Clock.now st.sk_clock -. b0) :: !burst_times;
    st.sk_idle (gap_ms_per_write *. float_of_int c.burst)
  done;
  let o0 = Clock.now st.sk_clock in
  let n_over = overload_ops scale in
  for _ = 1 to n_over do
    st.sk_write (Prng.int sprng file_blocks)
  done;
  let over_ms = Clock.now st.sk_clock -. o0 in
  let s = Stats.summarize (List.rev !lats) in
  let burst_fit =
    st.sk_log_capacity = 0
    || 32
       + records_per_sync_write * c.burst
         * Nvm.Nvm_wal.Record.encoded_size ~payload_len:block_bytes
       <= st.sk_log_capacity
  in
  {
    r_cell = c;
    n_sync = s.Stats.n;
    sync_mean_ms = s.Stats.mean;
    sync_p50_ms = s.Stats.p50;
    sync_p99_ms = s.Stats.p99;
    sync_max_ms = s.Stats.max;
    burst_fit;
    burst_mean_ms = Stats.mean (List.rev !burst_times);
    overload_ops_s = float_of_int n_over /. Float.max over_ms 1e-6 *. 1000.;
  }

(* The acceptance criteria, read off the finished rows: plain VLD
   against the staged VLD at the destager's highest duty cycle. *)
let criteria_of ~scale rows =
  let find rk burst u =
    List.find_opt
      (fun r ->
        r.r_cell.rk = rk && r.r_cell.burst = burst && r.r_cell.destage_util = u)
      rows
  in
  let umax = List.fold_left Float.max 0. (utils scale) in
  let ratios =
    List.filter_map
      (fun burst ->
        match (find R_vld burst 0., find R_nvm_vld burst umax) with
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
    match (find R_vld bmax 0., find R_nvm_vld bmax umax) with
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
          rig_label row.r_cell.rk;
          string_of_int row.r_cell.burst;
          (if staged row.r_cell.rk then
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
        ("rig", String (rig_label row.r_cell.rk)); ("burst", Int row.r_cell.burst);
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
