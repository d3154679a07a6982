(* File-system-level crash/fault sweep: the generalization of
   [Vld_sweep] (which exercises the virtual log disk alone) one layer
   up.  Each cell of the (rig x fault kind x trigger) matrix runs a
   seeded metadata-heavy workload against a real file system stack with
   a fault plan installed, freezes the platters when the fault cuts the
   power (or after a clean shutdown when it does not), remounts from the
   frozen image on a fresh drive, and then holds the recovered system to
   account three ways:

   - fsck: the per-FS invariant checker must come back clean, except for
     honest media findings under single-copy damage;
   - durability oracle: the recovered namespace and content must be a
     legal post-crash state of the operation history (strict old-or-new
     for power cuts and torn writes; regression-tolerant but
     fabrication-free for bit rot and grown defects);
   - idempotence: remounting the recovered system's platters again must
     produce the same namespace, sizes, and degradation.

   Regular-disk rigs skip [Grown_defect]: a plain disk's remap table is
   volatile firmware state here, so the data behind a defect is honestly
   gone after remount — there is nothing to assert except loss. *)

open Vlog_util
module Rig = Workload.Rig
module Fs = Workload.Fs

let all_rigs : Rig.t list =
  [
    { fs = F_ufs; on = D_vld };
    { fs = F_ufs; on = D_regular };
    { fs = F_lfs; on = D_vld };
    { fs = F_lfs; on = D_regular };
    { fs = F_vlfs; on = D_direct };
  ]

type config = {
  seed : int64;
  triggers : int list;
  kinds : Fault.Plan.kind list;
  rigs : Rig.t list;
  vol_triggers : int list;
  vol_kinds : Fault.Plan.kind list;
  vol_rigs : Rig.t list;
      (** the volume slice of the matrix runs its own (rig x kind x
          trigger) product, since whole-drive faults only make sense
          against a multi-drive volume and need fewer triggers to cover
          the interesting phases *)
  wal_triggers : int list;
  wal_kinds : Fault.Plan.kind list;
  wal_rigs : Rig.t list;
      (** the NVM-WAL slice: staged rigs whose durability point is the
          NVM persist barrier, struck by the [Nvm_*] kinds *)
}

let default_vol_rigs : Rig.t list =
  [
    { fs = F_ufs; on = D_volume (V_mirror, VL_vld) };
    { fs = F_lfs; on = D_volume (V_mirror, VL_vld) };
    { fs = F_ufs; on = D_volume (V_mirror, VL_regular) };
    { fs = F_ufs; on = D_volume (V_raid10, VL_vld) };
  ]

let default =
  {
    seed = 9203L;
    triggers = [ 0; 2; 5; 9; 14; 20; 33 ];
    kinds =
      [
        Fault.Plan.Power_cut;
        Fault.Plan.Torn_write;
        Fault.Plan.Grown_defect;
        Fault.Plan.Bit_rot;
        Fault.Plan.Transient_read 2;
      ];
    rigs = all_rigs;
    vol_triggers = [ 0; 5; 14 ];
    vol_kinds =
      [
        Fault.Plan.Power_cut;
        Fault.Plan.Torn_write;
        Fault.Plan.Bit_rot;
        Fault.Plan.Drive_death;
        Fault.Plan.Drive_hang 40.;
        Fault.Plan.Drive_flaky 3;
        Fault.Plan.Latent_sectors 16;
      ];
    vol_rigs = default_vol_rigs;
    wal_triggers = [ 0; 2; 5; 9 ];
    wal_kinds =
      [
        Fault.Plan.Nvm_cut;
        Fault.Plan.Nvm_torn;
        Fault.Plan.Nvm_destage_cut;
        Fault.Plan.Nvm_full;
      ];
    wal_rigs =
      [ { fs = F_ufs; on = D_nvm W_vld }; { fs = F_ufs; on = D_nvm W_regular } ];
  }

(* CI smoke: one damaging kind, two triggers, one rig per file system,
   plus a mirrored volume losing a whole drive. *)
let smoke =
  {
    default with
    kinds = [ Fault.Plan.Torn_write ];
    triggers = [ 2; 9 ];
    rigs =
      [
        { fs = F_ufs; on = D_vld };
        { fs = F_lfs; on = D_vld };
        { fs = F_vlfs; on = D_direct };
      ];
    vol_triggers = [ 2; 9 ];
    vol_kinds = [ Fault.Plan.Drive_death ];
    vol_rigs = [ { fs = F_ufs; on = D_volume (V_mirror, VL_vld) } ];
    wal_triggers = [ 2; 9 ];
    wal_kinds = [ Fault.Plan.Nvm_torn; Fault.Plan.Nvm_destage_cut ];
    wal_rigs = [ { fs = F_ufs; on = D_nvm W_vld } ];
  }

(* ---- Rig plumbing ---- *)

(* Every cell runs [ops] workload operations on a [cylinders]-cylinder
   st19101 whose VLD exports [logical_blocks]. *)
let ops = 30
let cylinders = 3
let logical_blocks = 300
let disk_profile = Disk.Profile.with_cylinders Disk.Profile.st19101 cylinders
let sector_bytes = disk_profile.Disk.Profile.geometry.Disk.Geometry.sector_bytes

let spare_blocks = 8

let lfs_cfg =
  {
    Lfs.segment_blocks = 16;
    buffer_blocks = 8;
    cache_blocks = 32;
    checkpoint_interval = 2;
    n_inodes = 64;
  }

let vlfs_cfg =
  {
    Vlfs.n_inodes = 32;
    sync_writes = true;
    buffer_blocks = 16;
    cache_blocks = 32;
  }

(* Every sweep stack is formatted and remounted at the same sizes. *)
let format ?wal rig ~prng =
  Rig.format ~spare_blocks ~ufs:Rig.small_ufs ~lfs:lfs_cfg ~vlfs:vlfs_cfg ?wal
    ~profile:disk_profile ~logical_blocks ~clock:(Clock.create ()) ~prng rig

let recover ?(profile = disk_profile) ?wal ?arm rig ~prng frozen =
  Rig.recover ~spare_blocks ~ufs:Rig.small_ufs ~lfs:lfs_cfg ~vlfs:vlfs_cfg ?wal ?arm
    ~profile ~logical_blocks ~clock:(Clock.create ()) ~prng rig frozen

(* The one fsck dispatch: each file system's own invariant checker. *)
let fsck = function
  | Fs.Ufs t -> Ufs_check.check t
  | Fs.Lfs t -> Lfs_check.check t
  | Fs.Vlfs t -> Vlfs_check.check t

(* ---- The sweep itself ---- *)

(* Distinct committed-content tag per write: identifies which attempted
   version a recovered sector carries, never '\000' (= hole/absent). *)
let tag ~version = Char.chr (1 + (version * 53 mod 255))

let workload_time = function
  | Fault.Plan.Torn_write | Fault.Plan.Bit_rot | Fault.Plan.Grown_defect
  | Fault.Plan.Power_cut ->
    true
  (* drive-level faults strike a running volume leg; recovery-time
     injection would miss the degraded-mode machinery entirely *)
  | Fault.Plan.Drive_death | Fault.Plan.Drive_hang _ | Fault.Plan.Drive_flaky _
  | Fault.Plan.Latent_sectors _ ->
    true
  (* NVM kinds cut the power while the staged workload runs, whether the
     strike lands on the persist barrier or on a destage write *)
  | Fault.Plan.Nvm_cut | Fault.Plan.Nvm_torn | Fault.Plan.Nvm_destage_cut
  | Fault.Plan.Nvm_full ->
    true
  | Fault.Plan.Transient_read _ -> false

(* A regular disk's grown-defect remap table is volatile here: after a
   remount the data behind the defect is honestly gone, so the cell has
   nothing to assert and is excluded from the matrix — also per leg of a
   volume, where the stale pre-remap sector would poison the resync.
   Drive-level kinds conversely need a multi-drive volume to mean
   anything, so single-spindle rigs skip them. *)
let excluded (rig : Rig.t) kind =
  match rig.on with
  | D_regular ->
    kind = Fault.Plan.Grown_defect || Fault.Plan.is_nvm_kind kind
  | D_vld | D_direct ->
    Fault.Plan.is_drive_kind kind || Fault.Plan.is_nvm_kind kind
  | D_volume (_, VL_regular) ->
    kind = Fault.Plan.Grown_defect || Fault.Plan.is_nvm_kind kind
  | D_volume (_, VL_vld) -> Fault.Plan.is_nvm_kind kind
  (* the WAL slice is about the staging tier's persistence boundary;
     media and drive kinds stay with the plain and volume slices *)
  | D_nvm _ -> not (Fault.Plan.is_nvm_kind kind)

let view_of fs =
  let bb = Fs.block_bytes fs in
  {
    Oracle.v_files = (fun () -> Fs.files fs);
    v_size =
      (fun n ->
        match Fs.size fs n with
        | Ok s -> Some s
        | Error _ -> None
        | exception Blockdev.Device.Io_error _ -> None);
    v_read_block =
      (fun n fb ->
        match Fs.read fs n ~off:(fb * bb) ~len:bb with
        | Ok (buf, _) -> if Bytes.length buf = 0 then Error `Gone else Ok buf
        | Error (`Io _) -> Error `Io
        | Error _ -> Error `Gone
        | exception Blockdev.Device.Io_error _ -> Error `Io);
  }

(* Metadata-heavy seeded workload: creates, deletes, small (fragment-
   sized) and block-sized writes over a handful of names.  The model
   is updated around each operation; a raised [Power_cut] freezes the
   workload mid-operation, a raised [Io_error] stops it (the way a
   kernel remounts a failing disk read-only). *)
let run_workload fs oracle ~wprng ~cut =
  let bb = Fs.block_bytes fs in
  let version = ref 0 in
  let sync_each = Fs.sync_each fs in
  let barrier_if_sync () = if sync_each then Oracle.barrier oracle in
  try
     for opi = 1 to ops do
       let small = Prng.int wprng 5 < 2 in
       let name =
         if small then "s" ^ string_of_int (Prng.int wprng 2)
         else "b" ^ string_of_int (Prng.int wprng 3)
       in
       (if not (Oracle.exists oracle name) then begin
          Oracle.begin_create oracle name;
          match Fs.create fs name with
          | Ok _ ->
            Oracle.commit_create oracle name;
            barrier_if_sync ()
          | Error _ -> ()
        end
        else if Prng.int wprng 10 < 2 then begin
          Oracle.begin_delete oracle name;
          match Fs.delete fs name with
          | Ok _ ->
            Oracle.commit_delete oracle name;
            barrier_if_sync ()
          | Error _ -> ()
        end
        else begin
          incr version;
          let tg = tag ~version:!version in
          let fblock = if small then 0 else Prng.int wprng 3 in
          let len = if small then 1024 else bb in
          let off = fblock * bb in
          Oracle.begin_write oracle name ~fblock ~tag:tg ~size:(off + len);
          match Fs.write fs name ~off (Bytes.make len tg) with
          | Ok _ ->
            Oracle.commit_write oracle name ~fblock ~tag:tg ~size:(off + len);
            barrier_if_sync ()
          | Error _ -> ()
        end);
       if (not sync_each) && opi mod 4 = 0 then begin
         ignore (Fs.sync fs);
         Oracle.barrier oracle
       end
     done;
     Fs.shutdown fs;
     Oracle.barrier oracle
  with
  | Disk.Disk_sim.Power_cut -> cut := true
  | Blockdev.Device.Io_error _ | Disk.Disk_sim.Media_failure _ -> ()

(* ---- How each rig is judged ---- *)

(* Every rig runs the same pipeline; a rig only decides where the plan
   strikes, how a clean shutdown parks it, which fsck findings its media
   may honestly show, and which oracle mode applies.  A power cut skips
   the parking: the frozen platters keep their mid-flight state.

   - A plain rig (one drive: the file system on a VLD, a regular disk or
     — VLFS — the platters themselves) takes the plan on its drive, and
     recovery-time kinds strike the first remount instead.
   - A volume rig takes the plan on one victim leg, rotating with the
     case number.  A mirrored volume must mask the fault completely: fsck
     and the volume's own mirror-consistency walk may show nothing beyond
     [Unflushed], and the oracle runs in [Redundant] mode (strict plus
     reread stability across legs).  A stripe has no redundancy, so it is
     judged like single-copy media.  A clean shutdown parks the volume
     too: suspects resolve or retire, rebuilds finish, dirty regions
     drain.
   - A WAL rig's device is an [Nvm_wal] staging tier over the logical
     disk, and the plan watches the tier's own counters — NVM persist
     barriers for [Nvm_cut]/[Nvm_torn], backing-disk writes for
     [Nvm_destage_cut]/[Nvm_full] — in both failure domains, which the
     freeze captures together; the remount replays the NVM log over the
     disk before the FS's own recovery runs.  Every NVM kind is a
     power-cut flavor (no media damage), so fsck owes a clean bill and
     the oracle runs strict: a write that returned [Ok] crossed the
     persist barrier and must survive, while volatile-front residue
     belongs to operations that never returned.  A clean shutdown drains
     the tier. *)

(* Honest media findings are owed where the plan hurt a sole copy. *)
let media_findings = [ Report.Io_unreadable; Report.Bad_checksum ]

let oracle_mode = function
  | Fault.Plan.Power_cut | Fault.Plan.Torn_write | Fault.Plan.Transient_read _
  | Fault.Plan.Drive_hang _ | Fault.Plan.Drive_flaky _ | Fault.Plan.Nvm_cut
  | Fault.Plan.Nvm_torn | Fault.Plan.Nvm_destage_cut | Fault.Plan.Nvm_full ->
    Oracle.Strict
  | Fault.Plan.Bit_rot | Fault.Plan.Grown_defect | Fault.Plan.Drive_death
  | Fault.Plan.Latent_sectors _ ->
    Oracle.Lax

let plain (rig : Rig.t) =
  match rig.on with D_vld | D_regular | D_direct -> true | D_volume _ | D_nvm _ -> false

let mirrored (rig : Rig.t) =
  match rig.on with D_volume ((V_mirror | V_raid10), _) -> true | _ -> false

(* Findings tolerated beyond [Unflushed]. *)
let allowed (rig : Rig.t) kind =
  match rig.on with
  | D_nvm _ -> []
  | D_volume _ -> if mirrored rig then [] else media_findings
  | D_vld | D_regular | D_direct -> (
    match kind with
    | Fault.Plan.Bit_rot | Fault.Plan.Grown_defect | Fault.Plan.Torn_write ->
      media_findings
    | _ -> [])

let mode rig kind = if mirrored rig then Oracle.Redundant else oracle_mode kind

(* The WAL rig's log is deliberately small so destaging happens inline
   (backpressure) during the short sweep workload — otherwise the
   crash-mid-destage cells would find no backing-disk writes to strike.
   [Nvm_full] cells shrink it to a handful of records so nearly every
   append pays the drain. *)
let wal_config kind =
  {
    Nvm.Nvm_wal.default_config with
    Nvm.Nvm_wal.log_bytes =
      Some (match kind with Fault.Plan.Nvm_full -> 20 * 1024 | _ -> 64 * 1024);
  }

let arm (s : Rig.stack) ~case plan =
  Fault.Plan.install plan s.disks.(case mod Array.length s.disks);
  Option.iter (Fault.Plan.install_nvm plan) s.nvm

let park (s : Rig.stack) fail =
  Option.iter Volume.settle s.volume;
  Option.iter
    (fun w ->
      match Nvm.Nvm_wal.drain w with
      | Ok () -> ()
      | Error e ->
        fail
          (Format.asprintf "clean-shutdown drain failed: %a" Blockdev.Device.pp_io_error e))
    s.wal

(* fsck first, then the volume's own mirror-consistency walk. *)
let checks (s : Rig.stack) =
  let report = fsck s.fs in
  ("fsck", report)
  :: (match s.volume with Some v -> [ ("volume", Volume_check.check v) ] | None -> [])

(* ---- The judge ---- *)

type cell = { rig : Rig.t; kind : Fault.Plan.kind; trigger : int; case : int }

let degraded fs = match Fs.mode fs with `Degraded _ -> true | `Rw -> false

(* One cell: build the rig, run the workload under the plan, freeze,
   remount, then fsck (plus the volume checker), the durability oracle,
   and remount idempotence. *)
let judge (c : config) { rig; kind; trigger; case } log =
  let failf fmt = Cells.failf log fmt in
  let scenario_seed = Int64.add c.seed (Int64.of_int (case * 6029)) in
  let prng = Prng.create ~seed:scenario_seed in
  let wal = wal_config kind in
  (* A WAL rig's device gets a generator of its own; the others split
     theirs off the scenario's, ahead of the workload's. *)
  let s =
    format ~wal rig
      ~prng:
        (match rig.on with
        | D_nvm _ -> Prng.create ~seed:scenario_seed
        | _ -> Prng.split prng)
  in
  let remount ?arm frozen =
    recover ~wal ?arm rig ~prng:(Prng.create ~seed:scenario_seed) frozen
    |> Result.map_error (( ^ ) "mount aborted: ")
  in
  let plan = Fault.Plan.create kind ~trigger ~seed:(Int64.add scenario_seed 1L) in
  let at_recovery = plain rig && not (workload_time kind) in
  if not at_recovery then arm s ~case plan;
  let oracle = Oracle.create ~sector_bytes in
  let cut = ref false in
  run_workload s.fs oracle ~wprng:(Prng.split prng) ~cut;
  Fault.Plan.flush plan;
  if not !cut then park s (failf "%s");
  let frozen = Rig.freeze s in
  let recovery_plan =
    if at_recovery then
      Some (Fault.Plan.create kind ~trigger ~seed:(Int64.add scenario_seed 2L))
    else None
  in
  let was_degraded = ref false in
  let oracle_checks = ref 0 in
  (match remount ?arm:(Option.map Fault.Plan.install recovery_plan) frozen with
  | Error e -> failf "%s" e
  | Ok m -> (
    was_degraded := degraded m.fs;
    (* [Unflushed] is informational everywhere: a freshly recovered FS
       legitimately holds state the next checkpoint will persist. *)
    let allowed = Report.Unflushed :: allowed rig kind in
    List.iter
      (fun (label, (report : Report.t)) ->
        List.iter
          (fun (f : Report.finding) ->
            if not (List.mem f.Report.category allowed) then
              failf "%s: [%s] %s" label
                (Report.category_to_string f.Report.category)
                f.Report.detail)
          report.Report.findings)
      (checks m);
    incr oracle_checks;
    List.iter (failf "oracle: %s")
      (Oracle.check oracle ~mode:(mode rig kind) (view_of m.fs));
    (* Recovery idempotence: remounting the recovered platters changes
       nothing. *)
    match remount (Rig.freeze m) with
    | Error e -> failf "%s" e
    | Ok m3 ->
      let signature fs =
        List.map
          (fun n -> (n, match Fs.size fs n with Ok s -> s | Error _ -> -1))
          (List.sort compare (Fs.files fs))
      in
      if signature m.fs <> signature m3.fs then
        failf "remount is not idempotent (namespace or sizes changed)";
      if degraded m.fs <> degraded m3.fs then
        failf "degraded mode is not idempotent"));
  let injected =
    Fault.Plan.fired plan
    || Option.fold ~none:false ~some:Fault.Plan.fired recovery_plan
  in
  {
    Cells.tallies =
      [ Bool.to_int injected; Bool.to_int !cut; Bool.to_int !was_degraded;
        !oracle_checks ];
    verdict = "ok";
  }

(* The matrix in canonical order: the single-spindle slice, then the
   volume slice, then the NVM-WAL slice, so existing case numbers (and
   saved repro strings) stay stable as slices grow.  Excluded rig/kind
   pairs are skipped before numbering. *)
let cells (c : config) =
  let slice rigs kinds triggers =
    List.concat_map
      (fun rig ->
        List.concat_map
          (fun kind ->
            if excluded rig kind then []
            else List.map (fun trigger case -> { rig; kind; trigger; case }) triggers)
          kinds)
      rigs
  in
  slice c.rigs c.kinds c.triggers
  @ slice c.vol_rigs c.vol_kinds c.vol_triggers
  @ slice c.wal_rigs c.wal_kinds c.wal_triggers

let sweep =
  {
    Cells.keys = [ "rig"; "seed"; "kind"; "trigger"; "case" ];
    coords =
      (fun c x ->
        [ Rig.to_string x.rig; Int64.to_string c.seed;
          Fault.Plan.kind_to_string x.kind; string_of_int x.trigger;
          string_of_int x.case ]);
    cell_of =
      (fun get ->
        let ( let* ) = Result.bind in
        let* rig = Rig.of_string (get "rig") in
        let* kind = Fault.Plan.kind_of_string (get "kind") in
        let* trigger = Cells.int_value "trigger" (get "trigger") in
        let* case = Cells.int_value "case" (get "case") in
        Ok { rig; kind; trigger; case });
    with_seed = (fun c seed -> { c with seed });
    cells;
    tallies =
      [ "faults injected"; "power cuts"; "degraded recoveries"; "oracle checks" ];
    judge;
  }

(* ---- Images and seeded degraded-mount demonstrations ---- *)

(* The single-drive rig an image or a demonstration runs on. *)
let image_rig fs : Rig.t =
  { fs; on = (match fs with F_vlfs -> D_direct | F_ufs | F_lfs -> D_regular) }

(* Where [name]'s on-disk inode (its part 0, for LFS and VLFS) lives:
   the sector it starts in, its byte offset there, and its length. *)
let inode_extent fs name =
  let sb = sector_bytes in
  let entries =
    match fs with
    | Fs.Ufs t -> Ufs.dir_entries t
    | Fs.Lfs t -> Lfs.dir_entries t
    | Fs.Vlfs t -> Vlfs.dir_entries t
  in
  match List.assoc_opt name entries with
  | None -> Error (Printf.sprintf "file %s vanished" name)
  | Some inum -> (
    match fs with
    | Fs.Ufs t ->
      let bb = Ufs.block_bytes t and ib = Ufs.Inode.bytes_per_inode in
      let it_start, _ = Ufs.inode_table_span t in
      let byte = ((it_start + (inum / (bb / ib))) * bb) + (inum mod (bb / ib) * ib) in
      Ok (byte / sb, byte mod sb, ib)
    | Fs.Lfs t -> (
      match Lfs.imap_parts t inum with
      | None | Some [||] -> Error (Printf.sprintf "file %s has no inode parts" name)
      | Some parts -> Ok (parts.(0) * Lfs.block_bytes t / sb, 0, Lfs.block_bytes t))
    | Fs.Vlfs t -> (
      let vl = Vlfs.vlog t in
      let max_parts =
        (Vlog.Virtual_log.config vl).Vlog.Virtual_log.logical_blocks
        / (Vlfs.config t).Vlfs.n_inodes
      in
      match Vlog.Virtual_log.lookup vl (inum * max_parts) with
      | None -> Error (Printf.sprintf "file %s's inode part 0 is not mapped" name)
      | Some pba ->
        Ok
          ( Vlog.Freemap.lba_of_block (Vlog.Virtual_log.freemap vl) pba,
            0,
            Vlog.Virtual_log.block_bytes vl )))

let or_die which = function
  | Ok _ -> ()
  | Error e ->
    failwith (Format.asprintf "%s: setup failed: %a" which Blockdev.Fs_error.pp e)

(* Each demonstration damages the sole copy of one live inode's metadata
   on an otherwise healthy image and shows the remount (a) comes up
   [`Degraded], (b) refuses writes with [`Read_only], (c) still serves
   reads of unaffected files. *)

let demo_prng () = Prng.create ~seed:0xDE6AL

let expect_degraded which keep fs =
  match Fs.mode fs with
  | `Rw -> Error (which ^ ": mount came up read-write despite damage")
  | `Degraded _ -> (
    match Fs.create fs "zz-new" with
    | Ok _ -> Error (which ^ ": degraded mount accepted a create")
    | Error `Read_only -> (
      match Fs.read fs keep ~off:0 ~len:512 with
      | Ok _ -> Ok ()
      | Error e ->
        Error
          (Format.asprintf "%s: degraded mount refused a read of %S: %a"
             which keep Blockdev.Fs_error.pp e))
    | Error e ->
      Error
        (Format.asprintf "%s: degraded mount refused create with %a, not \
                          `Read_only"
           which Blockdev.Fs_error.pp e))

let degraded_demo fsk : (unit, string) result =
  let rig = image_rig fsk in
  let which = Rig.fs_name fsk in
  let s = format rig ~prng:(demo_prng ()) in
  let write name ch =
    or_die which (Fs.create s.fs name);
    or_die which (Fs.write s.fs name ~off:0 (Bytes.make 1024 ch))
  in
  write "keep" 'k';
  (* UFS packs 32 inodes to a table block: push the victim's into the
     second one so the damage cannot touch "keep". *)
  if fsk = F_ufs then
    for i = 1 to 31 do
      or_die which (Fs.create s.fs (Printf.sprintf "pad%d" i))
    done;
  write "victim" 'v';
  Fs.shutdown s.fs;
  match inode_extent s.fs "victim" with
  | Error e -> Error (which ^ ": " ^ e)
  | Ok (lba, _, _) -> (
    Disk.Sector_store.rot (Disk.Disk_sim.store s.disks.(0)) ~lba ~sectors:1 (demo_prng ());
    match recover rig ~prng:(demo_prng ()) (Rig.freeze s) with
    | Error e -> Error (which ^ ": mount aborted: " ^ e)
    | Ok m -> expect_degraded which "keep" m.fs)

(* ---- Image generation and fsck (vlsim mkimage / vlsim fsck) ---- *)

type corruption = C_none | C_dangling | C_checksum | C_rot

let corruption_of_string = function
  | "none" -> Ok C_none
  | "dangling" -> Ok C_dangling
  | "checksum" -> Ok C_checksum
  | "rot" -> Ok C_rot
  | s -> Error (Printf.sprintf "unknown corruption %S (none|dangling|checksum|rot)" s)

let profile_string = Printf.sprintf "st19101:%d" cylinders

let parse_profile s =
  match String.split_on_char ':' s with
  | [ "st19101"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 ->
      Ok (Disk.Profile.with_cylinders Disk.Profile.st19101 n)
    | _ -> Error (Printf.sprintf "bad cylinder count in profile %S" s))
  | [ "hp97560"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 ->
      Ok (Disk.Profile.with_cylinders Disk.Profile.hp97560 n)
    | _ -> Error (Printf.sprintf "bad cylinder count in profile %S" s))
  | _ -> Error (Printf.sprintf "unknown profile %S" s)

(* Build a small healthy file system (three files), then damage the sole
   copy of file "b"'s metadata the requested way:

   - [C_dangling] zeroes b's inode, which each FS reads as "entry names
     nothing" (UFS: an unused inode slot; LFS/VLFS: an inode part the
     checksum rejects);
   - [C_checksum] physically writes garbage with valid ECC, so only the
     content checksum catches it (UFS: both superblock slots, the one
     piece of metadata it checksums);
   - [C_rot] decays a metadata sector so the ECC itself fails on read. *)
let make_image ~fs ~corrupt : (Image.header * Disk.Sector_store.t, string) result
    =
  let rig = image_rig fs in
  let prng = Prng.create ~seed:0x13A6EL in
  let s = format rig ~prng in
  let store = Disk.Disk_sim.store s.disks.(0) in
  let sb = sector_bytes in
  List.iter
    (fun (n, len, ch) ->
      or_die "mkimage" (Fs.create s.fs n);
      or_die "mkimage" (Fs.write s.fs n ~off:0 (Bytes.make len ch)))
    [ ("a", 1024, 'a'); ("b", 4096, 'b'); ("c", 8192, 'c') ];
  Fs.shutdown s.fs;
  let damage_inode (lba, off, len) = function
    | C_none -> ()
    | C_dangling ->
      let buf = Disk.Sector_store.read store ~lba ~sectors:((off + len + sb - 1) / sb) in
      Bytes.fill buf off len '\000';
      Disk.Sector_store.write store ~lba buf
    | C_checksum -> Disk.Sector_store.corrupt store ~lba ~sectors:1 prng
    | C_rot -> Disk.Sector_store.rot store ~lba ~sectors:1 prng
  in
  let damage =
    match (corrupt, s.fs) with
    | C_none, _ -> Ok ()
    | C_checksum, Fs.Ufs t ->
      (* Both superblock slots (device blocks 0 and 1): losing both
         degrades the mount. *)
      Disk.Sector_store.corrupt store ~lba:0 ~sectors:1 prng;
      Disk.Sector_store.corrupt store ~lba:(Ufs.block_bytes t / sb) ~sectors:1 prng;
      Ok ()
    | _ -> Result.map (fun ext -> damage_inode ext corrupt) (inode_extent s.fs "b")
  in
  match damage with
  | Error e -> Error ("mkimage: " ^ e)
  | Ok () ->
    Ok
      ( { Image.fs = Rig.fs_name rig.fs; dev = Rig.dev_name rig.on;
          profile = profile_string },
        store )

(* ---- vlsim fsck: remount an image and hold it to account ---- *)

type fsck_result = {
  fr_header : Image.header;
  fr_mode : [ `Rw | `Degraded of string ];
  fr_report : Report.t;
  fr_notes : (string * int) list;
}

(* What the mount itself had to repair or drop is part of the diagnosis:
   a dangling entry the mount silently discarded must still make fsck
   exit non-zero, so the recovery counters become findings. *)
let findings_of_notes notes =
  List.concat_map
    (fun (k, n) ->
      if n <= 0 then []
      else
        match k with
        | "dangling_dropped" ->
          [ Report.findf Report.Dangling_dirent
              "mount dropped %d dangling directory entr%s" n
              (if n = 1 then "y" else "ies") ]
        | "orphans_cleared" ->
          [ Report.findf Report.Orphan_inode
              "mount cleared %d orphan inode%s" n (if n = 1 then "" else "s") ]
        | "inodes_skipped" ->
          [ Report.findf Report.Bad_checksum
              "mount skipped %d unreadable or corrupt inode%s" n
              (if n = 1 then "" else "s") ]
        | "corrupt_items" ->
          [ Report.findf Report.Bad_checksum
              "recovery skipped %d corrupt log item%s" n
              (if n = 1 then "" else "s") ]
        | _ -> [])
    notes

let fsck_image (h : Image.header) store : (fsck_result, string) result =
  let ( let* ) = Result.bind in
  let* profile = parse_profile h.Image.profile in
  let* rig = Rig.of_string (h.Image.fs ^ "/" ^ h.Image.dev) in
  let* m =
    if plain rig then
      recover ~profile rig ~prng:(Prng.create ~seed:0x5EC7L)
        { stores = [| store |]; nvm_image = None }
    else Error "volume and nvm rigs span more than one drive image"
  in
  let report = fsck m.fs in
  let report =
    {
      report with
      Report.findings = findings_of_notes m.notes @ report.Report.findings;
    }
  in
  Ok { fr_header = h; fr_mode = Fs.mode m.fs; fr_report = report;
       fr_notes = m.notes }
