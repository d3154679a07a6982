open Vlog_util

type t = {
  disk : Disk.Disk_sim.t;
  vlog : Vlog.Virtual_log.t;
  compactor : Vlog.Compactor.t;
  sectors_per_block : int;
  block_bytes : int;
}

let of_vlog ~compaction_policy ~prng vlog =
  let disk = Vlog.Virtual_log.disk vlog in
  let cfg = Vlog.Virtual_log.config vlog in
  let sectors_per_block = cfg.Vlog.Virtual_log.sectors_per_block in
  {
    disk;
    vlog;
    compactor = Vlog.Compactor.create ~policy:compaction_policy ~vlog ~prng ();
    sectors_per_block;
    block_bytes = Vlog.Virtual_log.block_bytes vlog;
  }

(* Every VLD formats 4 KB blocks: [Virtual_log.recover]'s scan fallback
   probes 8-sector blocks. *)
let sectors_per_block = 8

let export_blocks geometry =
  let total = Disk.Geometry.total_sectors geometry / sectors_per_block in
  total - (1 + (total / 900)) - 8

let create ?(eager_mode = Vlog.Eager.Sweep)
    ?(compaction_policy = Vlog.Compactor.Random_target) ~disk ~logical_blocks ~prng () =
  let cfg =
    {
      (Vlog.Virtual_log.default_config ~logical_blocks) with
      Vlog.Virtual_log.sectors_per_block;
      eager_mode;
    }
  in
  of_vlog ~compaction_policy ~prng (Vlog.Virtual_log.format ~disk cfg)

let recover ~disk ~prng () =
  match Vlog.Virtual_log.recover ~disk () with
  | Error _ as e -> e
  | Ok (vlog, report) ->
    Ok (of_vlog ~compaction_policy:Vlog.Compactor.Random_target ~prng vlog, report)

let disk t = t.disk
let vlog t = t.vlog
let compactor t = t.compactor
let power_down t = Vlog.Virtual_log.power_down t.vlog

let logical_blocks t = (Vlog.Virtual_log.config t.vlog).Vlog.Virtual_log.logical_blocks

let check t block count =
  if block < 0 || count <= 0 || block + count > logical_blocks t then
    invalid_arg "Vld: logical block range out of bounds"

let clock t = Disk.Disk_sim.clock t.disk
let sink t = Disk.Disk_sim.trace t.disk

let dev_span t name block count = Device.span (sink t) name block count

(* The command-processing charge of a request the map answers without
   touching the platters; a leaf span so parents fold it exactly. *)
let scsi_only t =
  let o = (Disk.Disk_sim.profile t.disk).Disk.Profile.scsi_overhead_ms in
  let sp = if Trace.enabled (sink t) then Trace.enter (sink t) "vld.scsi" else Io.no_span in
  Clock.advance (clock t) o;
  let bd = Breakdown.of_scsi o in
  Trace.exit (sink t) ~bd sp;
  bd

let max_realloc = 8

let read_result t block =
  check t block 1;
  let sp = dev_span t "dev.read" block 1 in
  match Vlog.Virtual_log.lookup t.vlog block with
  | None ->
    (* Unmapped: the map answers without touching the platters. *)
    let bd = scsi_only t in
    Trace.exit (sink t) ~bd sp;
    Ok (Bytes.make t.block_bytes '\000', Io.make ~span:sp bd)
  | Some pba ->
    let buf = Bytes.create t.block_bytes in
    Result.map
      (fun c -> (buf, c))
      (Device.read_retrying t.disk ~span:sp ~block
         ~lba:(Vlog.Freemap.lba_of_block (Vlog.Virtual_log.freemap t.vlog) pba)
         ~sectors:t.sectors_per_block buf ~pos:0)

(* Group consecutive logical blocks whose physical locations are also
   consecutive into single platter requests. *)
let read_into_result t block count buf ~pos =
  check t block count;
  Device.check_window ~block_bytes:t.block_bytes count buf ~pos;
  let sp = dev_span t "dev.read_run" block count in
  (* Every block of the window is either read into place or, unmapped,
     zero-filled: no per-run buffer, no up-front fill. *)
  let bd = ref Breakdown.zero in
  let first_op = ref true in
  let issue ~off ~pba ~blocks =
    let scsi = !first_op in
    first_op := false;
    let r, cost =
      Disk.Disk_sim.read_checked_into ~scsi t.disk
        ~lba:(Vlog.Freemap.lba_of_block (Vlog.Virtual_log.freemap t.vlog) pba)
        ~sectors:(blocks * t.sectors_per_block)
        buf ~pos:(pos + (off * t.block_bytes))
    in
    bd := Breakdown.add !bd cost;
    match r with
    | Ok () -> Ok ()
    | Error e -> Error (Device.err ~op:`Read ~block:(block + off) ~e ~retries:0)
  in
  let rec go i run_start run_pba run_len =
    let flush () =
      if run_len > 0 then issue ~off:run_start ~pba:run_pba ~blocks:run_len else Ok ()
    in
    if i >= count then flush ()
    else
      match Vlog.Virtual_log.lookup t.vlog (block + i) with
      | None -> (
        Bytes.fill buf (pos + (i * t.block_bytes)) t.block_bytes '\000';
        match flush () with
        | Ok () -> go (i + 1) (i + 1) 0 0
        | Error _ as e -> e)
      | Some pba ->
        if run_len > 0 && pba = run_pba + run_len then go (i + 1) run_start run_pba (run_len + 1)
        else (
          match flush () with
          | Ok () -> go (i + 1) i pba 1
          | Error _ as e -> e)
  in
  match go 0 0 0 0 with
  | Error e ->
    Trace.exit (sink t) ~bd:!bd sp;
    Error e
  | Ok () ->
    if !first_op then bd := scsi_only t;
    Trace.exit (sink t) ~bd:!bd sp;
    Ok (Io.make ~span:sp !bd)

let allocate ?(lead_time = 0.) t =
  match Vlog.Eager.choose ~lead_time (Vlog.Virtual_log.eager t.vlog) with
  | Some pba -> pba
  | None -> failwith "Vld: out of physical space (allocation reserve exhausted)"

let scsi_lead t = (Disk.Disk_sim.profile t.disk).Disk.Profile.scsi_overhead_ms

(* Eager-allocate a home for one data block and write it.  A grown
   defect retires the block in the freemap (the VLD's defect list) and
   reallocates: with eager writing, the entire free space is the spare
   pool.  [Error] only when the media refuses [max_realloc] fresh homes
   in a row. *)
let put_data t ~scsi ~lead_time buf =
  let freemap = Vlog.Virtual_log.freemap t.vlog in
  (* A group span per eager put keeps the parent's fold exact even when
     a defect forces reallocation: the retries fold inside this span,
     and the parent folds the span's total as a single child. *)
  let sp = if Trace.enabled (sink t) then Trace.enter (sink t) "vld.put" else Io.no_span in
  let bd = ref Breakdown.zero in
  (* [held] is an already-occupied home being retried after a transient
     failure (a hung or flaky drive, not a defect): the media there is
     fine, so it must not be marked bad — and a fresh home would not help. *)
  let rec go attempts held =
    let pba =
      match held with
      | Some pba -> pba
      | None ->
        let pba = allocate ~lead_time:(if attempts = 0 then lead_time else 0.) t in
        Trace.incr (sink t) "vld.eager_choices";
        Vlog.Freemap.occupy freemap pba;
        pba
    in
    let r, cost =
      Disk.Disk_sim.write_checked ~scsi:(scsi && attempts = 0) t.disk
        ~lba:(Vlog.Freemap.lba_of_block freemap pba)
        buf
    in
    bd := Breakdown.add !bd cost;
    match r with
    | Ok () ->
      if attempts > 0 then Trace.incr (sink t) ~by:attempts "vld.reallocs";
      Trace.exit (sink t) ~bd:!bd sp;
      Ok (pba, attempts, !bd)
    | Error e when attempts >= max_realloc ->
      if e.Disk.Disk_sim.transient then Vlog.Freemap.release freemap pba
      else Vlog.Freemap.mark_bad freemap pba;
      if attempts > 0 then
        Trace.incr (sink t) ~by:attempts "dev.failed_retries";
      Trace.exit (sink t) ~bd:!bd sp;
      Error (e, attempts, !bd)
    | Error e when e.Disk.Disk_sim.transient -> go (attempts + 1) (Some pba)
    | Error _ ->
      Vlog.Freemap.mark_bad freemap pba;
      go (attempts + 1) None
  in
  go 0 None

let realloc_counters attempts = if attempts > 0 then [ ("reallocs", attempts) ] else []

let write_result t block buf =
  check t block 1;
  if Bytes.length buf <> t.block_bytes then
    invalid_arg "Vld.write: buffer must be exactly one block";
  let sp = dev_span t "dev.write" block 1 in
  (* The head keeps moving while the SCSI command is processed; the
     allocator must aim past that. *)
  match put_data t ~scsi:true ~lead_time:(scsi_lead t) buf with
  | Error (e, retries, bd) ->
    Trace.exit (sink t) ~bd sp;
    Error (Device.err ~op:`Write ~block ~e ~retries)
  | Ok (pba, reallocs, bd) ->
    let map_bd = Vlog.Virtual_log.update t.vlog [ (block, Some pba) ] in
    let total = Breakdown.add bd map_bd in
    Trace.exit (sink t) ~bd:total sp;
    Ok (Io.make ~span:sp ~counters:(realloc_counters reallocs) total)

let write_run_result t block buf =
  if Bytes.length buf = 0 || Bytes.length buf mod t.block_bytes <> 0 then
    invalid_arg "Vld.write_run: buffer must be whole blocks";
  let count = Bytes.length buf / t.block_bytes in
  check t block count;
  let sp = dev_span t "dev.write_run" block count in
  let bd = ref Breakdown.zero in
  let reallocs = ref 0 in
  let entries = ref [] in
  let rec go i =
    if i >= count then Ok ()
    else
      let piece = Bytes.sub buf (i * t.block_bytes) t.block_bytes in
      match
        put_data t ~scsi:(i = 0) ~lead_time:(if i = 0 then scsi_lead t else 0.) piece
      with
      | Error (e, retries, cost) ->
        bd := Breakdown.add !bd cost;
        Error (Device.err ~op:`Write ~block:(block + i) ~e ~retries)
      | Ok (pba, re, cost) ->
        bd := Breakdown.add !bd cost;
        reallocs := !reallocs + re;
        entries := (block + i, Some pba) :: !entries;
        go (i + 1)
  in
  match go 0 with
  | Error e ->
    Trace.exit (sink t) ~bd:!bd sp;
    Error e
  | Ok () ->
    (* One transaction: the whole run commits atomically. *)
    let map_bd = Vlog.Virtual_log.update t.vlog (List.rev !entries) in
    let total = Breakdown.add !bd map_bd in
    Trace.exit (sink t) ~bd:total sp;
    Ok (Io.make ~span:sp ~counters:(realloc_counters !reallocs) total)

let trim t block =
  check t block 1;
  match Vlog.Virtual_log.lookup t.vlog block with
  | None -> ()
  | Some _ -> ignore (Vlog.Virtual_log.update t.vlog [ (block, None) ])

let idle t dt =
  if dt > 0. then begin
    let sp = if Trace.enabled (sink t) then Trace.enter (sink t) "vld.idle" else Io.no_span in
    ignore (Vlog.Compactor.run t.compactor ~deadline:(Clock.now (clock t) +. dt));
    Trace.exit (sink t) sp
  end

let device t =
  Device.make ~name:"vld" ~block_bytes:t.block_bytes ~n_blocks:(logical_blocks t)
    ~trace:(sink t) ~read:(read_result t) ~read_into:(read_into_result t)
    ~write:(write_result t) ~write_run:(write_run_result t) ~trim:(trim t) ~idle:(idle t)
    ~utilization:(fun () -> Vlog.Freemap.utilization (Vlog.Virtual_log.freemap t.vlog))

(* --- Native drive-side queue --------------------------------------------

   Unlike the generic host-side FIFO in [device], this front hands the
   commands to a reordering {!Disk.Disk_queue} inside the drive.  Writes
   go down as [Hosted] commands: the eager allocator binds each to a
   physical block only at dispatch time — the later the binding, the
   nearer the head the block can be, which is exactly what SATF exploits
   (the command's cost is the allocator's preview, its cylinder wherever
   the head is).
   Map updates are batched and committed every [map_batch] completed
   writes (and at [drain]), the lazy-checkpoint story of Section 3.2:
   the data is on the platter when the tag completes, and the virtual
   log's recovery scan covers the not-yet-checkpointed tail. *)

module Queued = struct
  type vld = t

  type t = {
    vld : vld;
    dq : Disk.Disk_queue.t;
    map_batch : int;
    mutable map_backlog : (int * int option) list; (* newest first *)
  }

  let create ?(policy = Disk.Disk_queue.Satf) ?(map_batch = 16) vld =
    {
      vld;
      dq = Disk.Disk_queue.create ~policy ~disk:vld.disk ();
      map_batch;
      map_backlog = [];
    }

  let queue t = t.dq
  let vld t = t.vld

  let commit_map t =
    match t.map_backlog with
    | [] -> ()
    | entries -> (
      t.map_backlog <- [];
      (* If the checkpoint write itself blows up, the backlog must
         survive for the next commit attempt — clearing it first and
         losing the entries would silently unmap acknowledged writes. *)
      try ignore (Vlog.Virtual_log.update t.vld.vlog (List.rev entries))
      with e ->
        t.map_backlog <- entries;
        raise e)

  let submit_read ?at t block =
    check t.vld block 1;
    match Vlog.Virtual_log.lookup t.vld.vlog block with
    | None -> None
    | Some pba ->
      let lba = Vlog.Freemap.lba_of_block (Vlog.Virtual_log.freemap t.vld.vlog) pba in
      Some
        (Disk.Disk_queue.submit ?at t.dq
           (Disk.Disk_queue.Read { lba; sectors = t.vld.sectors_per_block }))

  let submit_write ?at t block buf =
    check t.vld block 1;
    if Bytes.length buf <> t.vld.block_bytes then
      invalid_arg "Vld.Queued.submit_write: buffer must be exactly one block";
    let v = t.vld in
    let eager = Vlog.Virtual_log.eager v.vlog in
    let cost () =
      (* A full disk still has to be dispatched to report its failure. *)
      match Vlog.Eager.choose ~lead_time:(scsi_lead v) eager with
      | Some pba -> Vlog.Eager.locate_cost eager pba
      | None -> 0.
    in
    let service () =
      match put_data v ~scsi:true ~lead_time:(scsi_lead v) buf with
      | Ok (pba, _reallocs, bd) ->
        t.map_backlog <- (block, Some pba) :: t.map_backlog;
        if List.length t.map_backlog >= t.map_batch then commit_map t;
        (Disk.Disk_queue.Wrote pba, bd)
      | Error (e, _retries, bd) -> (Disk.Disk_queue.Failed e, bd)
    in
    Disk.Disk_queue.submit ?at t.dq
      (Disk.Disk_queue.Hosted
         {
           cost;
           (* eager placement can land near the head wherever it is *)
           cylinder = (fun () -> Disk.Disk_sim.current_cylinder v.disk);
           service;
         })

  let poll t = Disk.Disk_queue.poll t.dq
  let step t = Disk.Disk_queue.step t.dq

  let drain t =
    (* The barrier must flush pending map commits no matter how the
       queue empties — including when the last completion is an error or
       the drain itself raises: the data of every already-completed
       write is on the platter, so its mapping must reach the map. *)
    match Disk.Disk_queue.drain t.dq with
    | cs ->
      commit_map t;
      cs
    | exception e ->
      commit_map t;
      raise e
end
