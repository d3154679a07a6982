open Vlog_util

type stats = {
  reads : int;
  writes : int;
  sectors_read : int;
  sectors_written : int;
  buffer_hits : int;
  read_faults : int;
  write_faults : int;
  busy_ms : float;
}

(* Counters live in individually mutable fields so the hot path never
   copies a record; [reset_stats] must therefore audit every field —
   including [busy_ms], which background work (a VLD compactor running
   inside an idle window) keeps accumulating between foreground ops. *)
type counters = {
  mutable c_reads : int;
  mutable c_writes : int;
  mutable c_sectors_read : int;
  mutable c_sectors_written : int;
  mutable c_buffer_hits : int;
  mutable c_read_faults : int;
  mutable c_write_faults : int;
  mutable c_busy_ms : float;
}

type read_fault = Transient_read | Unreadable of int
type write_fault = Torn_write of int | Unwritable of int | Transient_write

type injector = {
  on_read : lba:int -> sectors:int -> read_fault option;
  on_write : lba:int -> sectors:int -> write_fault option;
}

type drive_health = Ok_drive | Hung of float | Flaky_drive | Dead_drive

exception Power_cut

type media_error = { error_lba : int; transient : bool }

exception Media_failure of media_error

type t = {
  profile : Profile.t;
  sector_ms : float;
  clock : Clock.t;
  store : Sector_store.t;
  buffer : Track_buffer.t;
  trace : Trace.sink;
  mutable cyl : int;
  mutable head : int;
  mutable injector : injector option;
  mutable health_probe : (unit -> drive_health) option;
  st : counters;
}

let create ?(buffer_policy = Track_buffer.Forward_discard) ?store ?(trace = Trace.null)
    ~profile ~clock () =
  let store =
    match store with
    | None -> Sector_store.create profile.Profile.geometry
    | Some s ->
      if Sector_store.geometry s <> profile.Profile.geometry then
        invalid_arg "Disk_sim.create: store geometry does not match profile";
      s
  in
  {
    profile;
    sector_ms = Profile.sector_ms profile;
    clock;
    store;
    buffer = Track_buffer.create buffer_policy;
    trace;
    cyl = 0;
    head = 0;
    injector = None;
    health_probe = None;
    st =
      {
        c_reads = 0;
        c_writes = 0;
        c_sectors_read = 0;
        c_sectors_written = 0;
        c_buffer_hits = 0;
        c_read_faults = 0;
        c_write_faults = 0;
        c_busy_ms = 0.;
      };
  }

let set_injector t injector = t.injector <- injector
let set_health_probe t probe = t.health_probe <- probe

let health t =
  match t.health_probe with None -> Ok_drive | Some probe -> probe ()

let profile t = t.profile
let geometry t = t.profile.Profile.geometry
let clock t = t.clock
let store t = t.store
let trace t = t.trace
let current_cylinder t = t.cyl
let current_track t = t.head

let stats t =
  {
    reads = t.st.c_reads;
    writes = t.st.c_writes;
    sectors_read = t.st.c_sectors_read;
    sectors_written = t.st.c_sectors_written;
    buffer_hits = t.st.c_buffer_hits;
    read_faults = t.st.c_read_faults;
    write_faults = t.st.c_write_faults;
    busy_ms = t.st.c_busy_ms;
  }

let reset_stats t =
  t.st.c_reads <- 0;
  t.st.c_writes <- 0;
  t.st.c_sectors_read <- 0;
  t.st.c_sectors_written <- 0;
  t.st.c_buffer_hits <- 0;
  t.st.c_read_faults <- 0;
  t.st.c_write_faults <- 0;
  t.st.c_busy_ms <- 0.

let sectors_per_track t = (geometry t).Geometry.sectors_per_track

let move_cost t ~cyl ~track =
  let p = t.profile in
  let seek = if cyl <> t.cyl then Profile.seek_ms p (abs (cyl - t.cyl)) else 0. in
  let switch = if track <> t.head then p.Profile.head_switch_ms else 0. in
  if cyl <> t.cyl then Float.max seek switch else switch

(* Rotational frame: sector s of global track T is under the head when the
   platter phase (in sector units) equals (s + skew * T) mod n.  Split in
   two steps: the phase depends only on the arrival time, the skew step
   only on the track, so a caller costing every track of a cylinder at
   one arrival time can take the phase once. *)
let[@inline] platter_phase t ~at =
  Float.rem (at /. t.sector_ms) (float_of_int (sectors_per_track t))

let[@inline] position_of_phase t ~track_index phase =
  let n = sectors_per_track t in
  let skewed = phase -. float_of_int (t.profile.Profile.track_skew * track_index mod n) in
  let pos = Float.rem skewed (float_of_int n) in
  if pos < 0. then pos +. float_of_int n else pos

let[@inline] sector_position_at t ~track_index ~at =
  position_of_phase t ~track_index (platter_phase t ~at)

(* Delay from a known rotational position: one subtraction, one
   remainder, one multiply — the closed form the eager allocator
   evaluates per candidate after computing the track's position once. *)
let[@inline] rotational_delay_from t ~pos ~sector =
  let n = float_of_int (sectors_per_track t) in
  let dist = Float.rem (float_of_int sector -. pos) n in
  let dist = if dist < 0. then dist +. n else dist in
  dist *. t.sector_ms

let rotational_delay_to t ~track_index ~sector ~at =
  rotational_delay_from t ~pos:(sector_position_at t ~track_index ~at) ~sector

(* Split [lba, lba+sectors) into per-track contiguous pieces. *)
let track_pieces t ~lba ~sectors =
  let g = geometry t in
  let n = g.Geometry.sectors_per_track in
  let rec go lba sectors acc =
    if sectors = 0 then List.rev acc
    else
      let addr = Geometry.addr_of_lba g lba in
      let in_track = n - addr.Geometry.sector in
      let piece = min sectors in_track in
      go (lba + piece) (sectors - piece) ((addr, piece) :: acc)
  in
  go lba sectors []

(* Mechanically access one within-track piece at the current clock time:
   position, rotate, transfer.  Advances the clock and moves the head.
   Returns the breakdown (no SCSI).  Traced as a leaf "disk.access" span;
   the seek share is in [seek_ms], the rotation share is the span's
   locate minus it. *)
let access_piece t (addr, piece) =
  let g = geometry t in
  let mv = move_cost t ~cyl:addr.Geometry.cyl ~track:addr.Geometry.track in
  let sp =
    if Trace.enabled t.trace then
      Trace.enter t.trace
        ~attrs:
          [
            ("cyl", string_of_int addr.Geometry.cyl);
            ("track", string_of_int addr.Geometry.track);
            ("sector", string_of_int addr.Geometry.sector);
            ("sectors", string_of_int piece);
            ("seek_ms", Printf.sprintf "%.6f" mv);
          ]
        "disk.access"
    else Io.no_span
  in
  let locate_start = Clock.now t.clock in
  Clock.advance t.clock mv;
  t.cyl <- addr.Geometry.cyl;
  t.head <- addr.Geometry.track;
  let track_index = Geometry.track_index g addr in
  let rot =
    rotational_delay_to t ~track_index ~sector:addr.Geometry.sector ~at:(Clock.now t.clock)
  in
  Clock.advance t.clock rot;
  let locate = Clock.now t.clock -. locate_start in
  let xfer = float_of_int piece *. t.sector_ms in
  Clock.advance t.clock xfer;
  let bd = Breakdown.add (Breakdown.of_locate locate) (Breakdown.of_transfer xfer) in
  Trace.exit t.trace ~bd sp;
  bd

let estimate_access t ~lba ~sectors =
  (* Simulate the pieces without committing: only the first piece's
     position matters for the estimate; later pieces stream with skew.  We
     estimate conservatively as first-piece positioning + total transfer +
     head switches between pieces. *)
  let g = geometry t in
  match track_pieces t ~lba ~sectors with
  | [] -> 0.
  | (addr, _) :: rest_pieces as pieces ->
    let mv = move_cost t ~cyl:addr.Geometry.cyl ~track:addr.Geometry.track in
    let track_index = Geometry.track_index g addr in
    let rot =
      rotational_delay_to t ~track_index ~sector:addr.Geometry.sector
        ~at:(Clock.now t.clock +. mv)
    in
    let xfer = float_of_int sectors *. t.sector_ms in
    let switches =
      float_of_int (List.length rest_pieces) *. t.profile.Profile.head_switch_ms
    in
    ignore pieces;
    mv +. rot +. xfer +. switches

let charge_scsi t scsi =
  if scsi then begin
    let o = t.profile.Profile.scsi_overhead_ms in
    let sp = if Trace.enabled t.trace then Trace.enter t.trace "disk.scsi" else Io.no_span in
    Clock.advance t.clock o;
    let bd = Breakdown.of_scsi o in
    Trace.exit t.trace ~bd sp;
    bd
  end
  else Breakdown.zero

let bump_busy t start = t.st.c_busy_ms <- t.st.c_busy_ms +. (Clock.now t.clock -. start)

(* Mechanical work of touching a range without any buffer interaction:
   what a faulted request costs — the head still seeks, rotates and
   attempts the transfer before the drive can report anything. *)
let mechanics t ~lba ~sectors bd =
  List.iter
    (fun piece -> bd := Breakdown.add !bd (access_piece t piece))
    (track_pieces t ~lba ~sectors)

let request_span t name ~lba ~sectors ~scsi =
  if Trace.enabled t.trace then
    Trace.enter t.trace
      ~attrs:
        [
          ("lba", string_of_int lba);
          ("sectors", string_of_int sectors);
          ("scsi", if scsi then "true" else "false");
        ]
      name
  else Io.no_span

(* Read into [buf] at [pos]; [ok] is the success value, so both public
   readers build their result with no extra tuple. *)
let read_into_as ~ok ~scsi t ~lba ~sectors buf ~pos =
  if sectors <= 0 then invalid_arg "Disk_sim.read: sectors must be positive";
  let g = geometry t in
  if not (Geometry.valid_lba g lba) || lba + sectors > Geometry.total_sectors g then
    invalid_arg "Disk_sim.read: range out of bounds";
  if pos < 0 || pos + (sectors * g.Geometry.sector_bytes) > Bytes.length buf then
    invalid_arg "Disk_sim.read: buffer too small";
  let sp = request_span t "disk.read" ~lba ~sectors ~scsi in
  let start = Clock.now t.clock in
  let bd = ref (charge_scsi t scsi) in
  let fault =
    match t.injector with None -> None | Some i -> i.on_read ~lba ~sectors
  in
  let finish outcome =
    t.st.c_reads <- t.st.c_reads + 1;
    t.st.c_sectors_read <- t.st.c_sectors_read + sectors;
    bump_busy t start;
    Trace.exit t.trace ~bd:!bd sp;
    (outcome, !bd)
  in
  match fault with
  | Some fault ->
    (* The drive retries internally for a revolution before giving up. *)
    t.st.c_read_faults <- t.st.c_read_faults + 1;
    Trace.incr t.trace "disk.read_faults";
    mechanics t ~lba ~sectors bd;
    Clock.advance t.clock (Profile.revolution_ms t.profile);
    let err =
      match fault with
      | Transient_read -> { error_lba = lba; transient = true }
      | Unreadable bad -> { error_lba = bad; transient = false }
    in
    finish (Error err)
  | None ->
    let pieces = track_pieces t ~lba ~sectors in
    let serve (addr, piece) =
      let track_index = Geometry.track_index g addr in
      if Track_buffer.hit t.buffer ~track_index ~sector:addr.Geometry.sector ~sectors:piece
      then begin
        (* Buffer hit: only the transfer off the buffer is paid. *)
        let hsp =
          if Trace.enabled t.trace then Trace.enter t.trace "disk.buffer_hit"
          else Io.no_span
        in
        let xfer = float_of_int piece *. t.sector_ms in
        Clock.advance t.clock xfer;
        t.st.c_buffer_hits <- t.st.c_buffer_hits + 1;
        Trace.incr t.trace "disk.buffer_hits";
        let hit_bd = Breakdown.of_transfer xfer in
        Trace.exit t.trace ~bd:hit_bd hsp;
        bd := Breakdown.add !bd hit_bd
      end
      else begin
        bd := Breakdown.add !bd (access_piece t (addr, piece));
        Track_buffer.note_read t.buffer ~track_index ~sector:addr.Geometry.sector
          ~sectors_per_track:g.Geometry.sectors_per_track
      end
    in
    List.iter serve pieces;
    (match Sector_store.ecc_error t.store ~lba ~sectors with
    | Some bad ->
      t.st.c_read_faults <- t.st.c_read_faults + 1;
      Trace.incr t.trace "disk.read_faults";
      finish (Error { error_lba = bad; transient = false })
    | None ->
      Sector_store.read_into t.store ~lba ~sectors buf ~pos;
      finish (Ok ok))

let read_checked_into ?(scsi = true) t ~lba ~sectors buf ~pos =
  read_into_as ~ok:() ~scsi t ~lba ~sectors buf ~pos

let read_checked ?(scsi = true) t ~lba ~sectors =
  let buf = Bytes.create (max 0 sectors * (geometry t).Geometry.sector_bytes) in
  read_into_as ~ok:buf ~scsi t ~lba ~sectors buf ~pos:0

let read ?scsi t ~lba ~sectors =
  match read_checked ?scsi t ~lba ~sectors with
  | Ok data, bd -> (data, bd)
  | Error e, _ -> raise (Media_failure e)

let max_retries = 3

let read_retrying ~scsi ~bd t ~lba ~sectors =
  let rec go bd retries =
    let r, cost = read_checked ~scsi:(scsi && retries = 0) t ~lba ~sectors in
    let bd = Breakdown.add bd cost in
    match r with
    | Error e when e.transient && retries < max_retries -> go bd (retries + 1)
    | r -> (r, retries, bd)
  in
  go bd 0

let write_checked ?(scsi = true) t ~lba buf =
  let g = geometry t in
  let sb = g.Geometry.sector_bytes in
  if Bytes.length buf = 0 || Bytes.length buf mod sb <> 0 then
    invalid_arg "Disk_sim.write: buffer must be a positive whole number of sectors";
  let sectors = Bytes.length buf / sb in
  if not (Geometry.valid_lba g lba) || lba + sectors > Geometry.total_sectors g then
    invalid_arg "Disk_sim.write: range out of bounds";
  let sp = request_span t "disk.write" ~lba ~sectors ~scsi in
  let start = Clock.now t.clock in
  let bd = ref (charge_scsi t scsi) in
  let fault =
    match t.injector with None -> None | Some i -> i.on_write ~lba ~sectors
  in
  let invalidate_all () =
    List.iter
      (fun (addr, _) ->
        Track_buffer.invalidate_track t.buffer ~track_index:(Geometry.track_index g addr))
      (track_pieces t ~lba ~sectors)
  in
  let finish outcome =
    t.st.c_writes <- t.st.c_writes + 1;
    t.st.c_sectors_written <- t.st.c_sectors_written + sectors;
    bump_busy t start;
    Trace.exit t.trace ~bd:!bd sp;
    (outcome, !bd)
  in
  match fault with
  | Some (Torn_write k) ->
    (* Power dies mid-transfer: the first [k] sectors reach the platter
       (each sector is atomic — written with its ECC or not at all), the
       rest keep their stale contents. *)
    t.st.c_write_faults <- t.st.c_write_faults + 1;
    Trace.incr t.trace "disk.write_faults";
    let k = max 0 (min k sectors) in
    invalidate_all ();
    if k > 0 then begin
      mechanics t ~lba ~sectors:k bd;
      Sector_store.write t.store ~lba (Bytes.sub buf 0 (k * sb))
    end;
    ignore (finish (Ok ()));
    raise Power_cut
  | Some (Unwritable bad) ->
    (* A grown defect surfaces during the write pass: sectors before the
       bad one are on the platter, the command fails. *)
    t.st.c_write_faults <- t.st.c_write_faults + 1;
    Trace.incr t.trace "disk.write_faults";
    invalidate_all ();
    let before = max 0 (min (bad - lba) sectors) in
    mechanics t ~lba ~sectors bd;
    if before > 0 then Sector_store.write t.store ~lba (Bytes.sub buf 0 (before * sb));
    finish (Error { error_lba = bad; transient = false })
  | Some Transient_write ->
    (* The command times out or is rejected before any sector lands: the
       platter is untouched, a retry may go through. *)
    t.st.c_write_faults <- t.st.c_write_faults + 1;
    Trace.incr t.trace "disk.write_faults";
    invalidate_all ();
    mechanics t ~lba ~sectors bd;
    finish (Error { error_lba = lba; transient = true })
  | None ->
    let pieces = track_pieces t ~lba ~sectors in
    let serve (addr, piece) =
      let track_index = Geometry.track_index g addr in
      Track_buffer.invalidate_track t.buffer ~track_index;
      bd := Breakdown.add !bd (access_piece t (addr, piece))
    in
    List.iter serve pieces;
    Sector_store.write t.store ~lba buf;
    finish (Ok ())

let write ?scsi t ~lba buf =
  match write_checked ?scsi t ~lba buf with
  | Ok (), bd -> bd
  | Error e, _ -> raise (Media_failure e)
