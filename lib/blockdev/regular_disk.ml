open Vlog_util

type t = {
  disk : Disk.Disk_sim.t;
  sectors_per_block : int;
  block_bytes : int;
  n_blocks : int;
  spare_count : int;
  remap : (int, int) Hashtbl.t; (* logical block -> spare block (absolute) *)
  mutable spares : int list; (* unused spare blocks, absolute indices *)
  ever_written : Bytes.t;
  mutable written_count : int;
}


(* 4 KB blocks, like the VLD's. *)
let sectors_per_block = 8

let create ?spare_blocks ~disk () =
  let g = Disk.Disk_sim.geometry disk in
  if g.Disk.Geometry.sectors_per_track mod sectors_per_block <> 0 then
    invalid_arg "Regular_disk.create: block must divide the track";
  let total_blocks = Disk.Geometry.total_sectors g / sectors_per_block in
  (* Optional spare pool: blocks at the end of the disk, hidden from the
     logical space — the remap targets drive firmware uses for grown
     defects.  Zero by default so the logical capacity matches the
     paper's experiments exactly; fault-tolerance tests reserve some. *)
  let spare_count = match spare_blocks with Some n -> n | None -> 0 in
  if spare_count < 0 || spare_count >= total_blocks then
    invalid_arg "Regular_disk.create: bad spare pool size";
  let n_blocks = total_blocks - spare_count in
  {
    disk;
    sectors_per_block;
    block_bytes = sectors_per_block * g.Disk.Geometry.sector_bytes;
    n_blocks;
    spare_count;
    remap = Hashtbl.create 8;
    spares = List.init spare_count (fun i -> n_blocks + i);
    ever_written = Bytes.make n_blocks '\000';
    written_count = 0;
  }

let disk t = t.disk
let written t block = Bytes.get t.ever_written block <> '\000'
let remapped_blocks t = Hashtbl.length t.remap
let spares_left t = List.length t.spares

let sink t = Disk.Disk_sim.trace t.disk

let dev_span t name block count = Device.span (sink t) name block count

let check t block count =
  if block < 0 || count <= 0 || block + count > t.n_blocks then
    invalid_arg "Regular_disk: block range out of bounds"

let phys t block =
  match Hashtbl.find_opt t.remap block with Some s -> s | None -> block

let err = Device.err

(* Bounded-retry read of one logical block at its current physical
   home, into [buf] at [pos]. *)
let read_block_into t block buf ~pos =
  check t block 1;
  let sp = dev_span t "dev.read" block 1 in
  Device.read_retrying t.disk ~span:sp ~block ~lba:(phys t block * t.sectors_per_block)
    ~sectors:t.sectors_per_block buf ~pos

let read_result t block =
  let buf = Bytes.create t.block_bytes in
  Result.map (fun c -> (buf, c)) (read_block_into t block buf ~pos:0)

let note_written t block =
  if Bytes.get t.ever_written block = '\000' then begin
    Bytes.set t.ever_written block '\001';
    t.written_count <- t.written_count + 1
  end

(* Write one logical block; a grown defect retires the current physical
   home and remaps the logical block to a spare, exactly like drive
   firmware.  The spare itself may be defective, so keep going while
   spares remain. *)
let write_result t block buf =
  check t block 1;
  if Bytes.length buf <> t.block_bytes then
    invalid_arg "Regular_disk.write: buffer must be exactly one block";
  let sp = dev_span t "dev.write" block 1 in
  let bd = ref Breakdown.zero in
  let rec go attempts remaps =
    let lba = phys t block * t.sectors_per_block in
    let r, cost =
      Disk.Disk_sim.write_checked ~scsi:(attempts = 0 && remaps = 0) t.disk ~lba buf
    in
    bd := Breakdown.add !bd cost;
    match r with
    | Ok () ->
      note_written t block;
      if attempts > 0 then Trace.incr (sink t) ~by:attempts "dev.write_retries";
      if remaps > 0 then Trace.incr (sink t) ~by:remaps "dev.remaps";
      Trace.exit (sink t) ~bd:!bd sp;
      let counters =
        Device.retry_counters attempts @ if remaps > 0 then [ ("remaps", remaps) ] else []
      in
      Ok (Io.make ~span:sp ~counters !bd)
    | Error e when e.Disk.Disk_sim.transient && attempts < Device.max_retries ->
      go (attempts + 1) remaps
    | Error e when e.Disk.Disk_sim.transient ->
      (* Retries exhausted on a transient error: the drive is hung or
         flaky, not defective — remapping to a spare would not help and
         would burn the pool. *)
      Trace.incr (sink t) ~by:attempts "dev.failed_retries";
      Trace.exit (sink t) ~bd:!bd sp;
      Error (err ~op:`Write ~block ~e ~retries:attempts)
    | Error e -> (
      match t.spares with
      | [] ->
        if attempts > 0 then
          Trace.incr (sink t) ~by:attempts "dev.failed_retries";
        Trace.exit (sink t) ~bd:!bd sp;
        Error (err ~op:`Write ~block ~e ~retries:attempts)
      | spare :: rest ->
        t.spares <- rest;
        Hashtbl.replace t.remap block spare;
        go 0 (remaps + 1))
  in
  go 0 0

let run_remapped t block count =
  let rec go i = i < count && (Hashtbl.mem t.remap (block + i) || go (i + 1)) in
  go 0

let merge_counters = Device.merge_counters

(* Multi-block requests stream as one disk command when nothing in the
   range is remapped or faulty; otherwise fall back to per-block service
   so one bad sector cannot take down the whole transfer. *)
let read_into_result t block count buf ~pos =
  check t block count;
  Device.check_window ~block_bytes:t.block_bytes count buf ~pos;
  let sp = dev_span t "dev.read_run" block count in
  (* [acc] carries the cost of a failed streaming attempt into the
     per-block fallback so the fold stays strictly chronological. *)
  let per_block acc =
    let bd = ref acc in
    let counters = ref [] in
    let rec go i =
      if i >= count then begin
        Trace.exit (sink t) ~bd:!bd sp;
        Ok (Io.make ~span:sp ~counters:!counters !bd)
      end
      else
        match read_block_into t (block + i) buf ~pos:(pos + (i * t.block_bytes)) with
        | Ok c ->
          bd := Breakdown.add !bd c.Io.breakdown;
          counters := merge_counters !counters c.Io.counters;
          go (i + 1)
        | Error e ->
          Trace.exit (sink t) ~bd:!bd sp;
          Error e
    in
    go 0
  in
  if run_remapped t block count then per_block Breakdown.zero
  else
    let r, bd =
      Disk.Disk_sim.read_checked_into t.disk ~lba:(block * t.sectors_per_block)
        ~sectors:(count * t.sectors_per_block) buf ~pos
    in
    match r with
    | Ok () ->
      Trace.exit (sink t) ~bd sp;
      Ok (Io.make ~span:sp bd)
    | Error _ -> per_block bd

let write_run_result t block buf =
  if Bytes.length buf = 0 || Bytes.length buf mod t.block_bytes <> 0 then
    invalid_arg "Regular_disk.write_run: buffer must be whole blocks";
  let count = Bytes.length buf / t.block_bytes in
  check t block count;
  let sp = dev_span t "dev.write_run" block count in
  let per_block acc =
    let bd = ref acc in
    let counters = ref [] in
    let rec go i =
      if i >= count then begin
        Trace.exit (sink t) ~bd:!bd sp;
        Ok (Io.make ~span:sp ~counters:!counters !bd)
      end
      else
        let piece = Bytes.sub buf (i * t.block_bytes) t.block_bytes in
        match write_result t (block + i) piece with
        | Ok c ->
          bd := Breakdown.add !bd c.Io.breakdown;
          counters := merge_counters !counters c.Io.counters;
          go (i + 1)
        | Error e ->
          Trace.exit (sink t) ~bd:!bd sp;
          Error e
    in
    go 0
  in
  if run_remapped t block count then per_block Breakdown.zero
  else
    let r, bd =
      Disk.Disk_sim.write_checked t.disk ~lba:(block * t.sectors_per_block) buf
    in
    match r with
    | Ok () ->
      for i = block to block + count - 1 do
        note_written t i
      done;
      Trace.exit (sink t) ~bd sp;
      Ok (Io.make ~span:sp bd)
    | Error _ -> per_block bd

let device t =
  Device.make ~name:"regular" ~block_bytes:t.block_bytes ~n_blocks:t.n_blocks
    ~trace:(sink t) ~read:(read_result t) ~read_into:(read_into_result t)
    ~write:(write_result t) ~write_run:(write_run_result t)
    ~trim:(fun block -> check t block 1)
    ~idle:(fun _ -> ())
    ~utilization:(fun () -> float_of_int t.written_count /. float_of_int t.n_blocks)
