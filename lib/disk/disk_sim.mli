(** Mechanical disk simulator.

    Models a single drive: SCSI command overhead, seek, head switch,
    rotational position (a function of absolute simulated time — the
    platter never stops spinning), per-sector media transfer, track skew,
    and a track-buffer read-ahead cache.  All requests advance the shared
    {!Vlog_util.Clock.t} and return a {!Vlog_util.Breakdown.t} of where the
    time went.

    Requests may span tracks and cylinders; the simulator splits them
    internally and pays head switches / seeks between the pieces.  Thanks
    to track skew, a sequential transfer that crosses a track boundary
    keeps streaming instead of missing a revolution. *)

type t

val create :
  ?buffer_policy:Track_buffer.policy ->
  ?store:Sector_store.t ->
  ?trace:Trace.sink ->
  profile:Profile.t ->
  clock:Vlog_util.Clock.t ->
  unit ->
  t
(** A disk with zeroed platters, head parked at cylinder 0 track 0.
    [buffer_policy] defaults to [Forward_discard] (the conventional
    drive); [Workload.Rig.drive] picks [Whole_track] for a drive under a
    virtual log.  [store] supplies
    existing platter contents (e.g. a {!Sector_store.snapshot} taken at a
    simulated power failure) instead of zeroed ones; its geometry must
    match the profile's.  [trace] (default {!Trace.null}) observes every
    request as a span — [disk.read]/[disk.write] with
    [disk.scsi]/[disk.access]/[disk.buffer_hit] children — and is the
    sink every layer stacked on this disk inherits. *)

val profile : t -> Profile.t
val geometry : t -> Geometry.t
val clock : t -> Vlog_util.Clock.t
val store : t -> Sector_store.t

val trace : t -> Trace.sink
(** The sink given at {!create}; {!Trace.null} when tracing is off. *)

val current_cylinder : t -> int
val current_track : t -> int

val read : ?scsi:bool -> t -> lba:int -> sectors:int -> Bytes.t * Vlog_util.Breakdown.t
(** Service a read.  [scsi] (default true) controls whether the SCSI
    command overhead is charged — a VLD's internal second access within
    one host command does not pay it again.  A track-buffer hit costs
    only SCSI + transfer.  Raises {!Media_failure} if the read faults
    (injected error or media ECC mismatch): a drive never silently
    returns corrupt data. *)

val write : ?scsi:bool -> t -> lba:int -> Bytes.t -> Vlog_util.Breakdown.t
(** Service a write of a whole number of sectors starting at [lba].
    Raises {!Media_failure} on an injected write fault. *)

(** {2 Fault injection}

    A deterministic fault plan (see the [fault] library) can interpose on
    every media access.  Nothing is installed by default; a disk without
    an injector behaves exactly as before. *)

type read_fault =
  | Transient_read  (** the command fails; an immediate retry may succeed *)
  | Unreadable of int  (** permanent defect at the given absolute lba *)

type write_fault =
  | Torn_write of int
      (** power dies after this many sectors of the request are on the
          platter; the operation raises {!Power_cut} *)
  | Unwritable of int  (** grown defect at the given absolute lba *)
  | Transient_write
      (** the command fails without touching the platter; an immediate
          retry may succeed (a hung or flaky drive, not a media defect) *)

type injector = {
  on_read : lba:int -> sectors:int -> read_fault option;
  on_write : lba:int -> sectors:int -> write_fault option;
}
(** Consulted once per host request (including internal [scsi:false]
    accesses).  A hook may raise {!Power_cut} directly to cut power on an
    operation boundary. *)

exception Power_cut
(** Simulated power loss mid-operation.  The caller owning the simulation
    catches it, freezes the {!Sector_store} and brings up a fresh disk. *)

type media_error = { error_lba : int; transient : bool }

exception Media_failure of media_error
(** Raised by the non-[_checked] paths when a fault fires, so unmodified
    callers fail stop instead of consuming corrupt data. *)

val set_injector : t -> injector option -> unit

type drive_health =
  | Ok_drive  (** no whole-drive condition in effect *)
  | Hung of float
      (** the drive is stalled until the given simulated time (ms);
          commands submitted before then fail transiently *)
  | Flaky_drive  (** intermittent transient failures; retries may succeed *)
  | Dead_drive  (** the drive is gone for good; every command fails *)
(** Whole-drive condition, as distinct from per-sector faults.  Layers
    holding in-flight commands (the command queue, the volume manager)
    consult this to decide between stalling a tag, retrying with backoff,
    and aborting outright. *)

val set_health_probe : t -> (unit -> drive_health) option -> unit
(** Install a whole-drive health probe (a fault plan registers one in
    [Fault.Plan.install]).  [None] (the default) reads as {!Ok_drive}. *)

val health : t -> drive_health
(** Current whole-drive condition; {!Ok_drive} when no probe is set. *)

val read_checked :
  ?scsi:bool -> t -> lba:int -> sectors:int ->
  (Bytes.t, media_error) result * Vlog_util.Breakdown.t
(** Like {!read}, but returns faults instead of raising: an injected
    error, or an ECC mismatch on a rotted sector (the data is withheld).
    Mechanical time is charged either way — a failed read still seeks,
    rotates and retries for a revolution. *)

val read_checked_into :
  ?scsi:bool -> t -> lba:int -> sectors:int -> Bytes.t -> pos:int ->
  (unit, media_error) result * Vlog_util.Breakdown.t
(** {!read_checked} into [buf] from byte [pos] on, with no buffer of its
    own.  On [Error] the range of [buf] is left untouched. *)

val max_retries : int
(** 3: the transient-error retries every bounded-retry loop allows —
    {!read_retrying}, the block devices' read-into and write loops. *)

val read_retrying :
  scsi:bool -> bd:Vlog_util.Breakdown.t -> t -> lba:int -> sectors:int ->
  (Bytes.t, media_error) result * int * Vlog_util.Breakdown.t
(** {!read_checked}, retrying transient errors up to {!max_retries}
    times; permanent errors and ECC mismatches return at once.  [scsi]
    charges the command overhead on the first attempt only.  Returns the
    last attempt's outcome, the retries made (0 when the first attempt
    answered) and [bd] with every attempt's cost added to it in order,
    so a caller's running total stays one left-to-right sum. *)

val write_checked :
  ?scsi:bool -> t -> lba:int -> Bytes.t ->
  (unit, media_error) result * Vlog_util.Breakdown.t
(** Like {!write}, but reports grown defects as [Error] so firmware-level
    callers can remap and retry.  Sectors preceding the defect may have
    been written.  [Torn_write] still raises {!Power_cut} — there is no
    one to report to when the power is gone. *)

(** {2 Timing probes}

    Pure estimates used by the eager-writing allocator to compare
    candidate locations.  None of these move the head or advance time. *)

val move_cost : t -> cyl:int -> track:int -> float
(** Mechanical cost of positioning the head over the given track from its
    current position: seek for a cylinder change, head switch for a
    surface change, the max of the two when both change. *)

val sector_position_at : t -> track_index:int -> at:float -> float
(** The (continuous) sector coordinate — the rotational angle in sector
    units — of the given track that is under the head at absolute time
    [at], accounting for track skew.  Closed form: one evaluation, no
    iteration.  In [\[0, sectors_per_track)]. *)

val rotational_delay_to : t -> track_index:int -> sector:int -> at:float -> float
(** Milliseconds of rotation needed, starting at absolute time [at], for
    the start of [sector] on the given track to reach the head: the
    rotation from {!sector_position_at} to [sector]. *)

val estimate_access : t -> lba:int -> sectors:int -> float
(** Mechanical time (positioning + rotation + transfer, no SCSI) that a
    request would cost if issued now. *)

(** {2 Statistics} *)

type stats = {
  reads : int;
  writes : int;
  sectors_read : int;
  sectors_written : int;
  buffer_hits : int;
  read_faults : int;  (** injected read faults + ECC mismatches *)
  write_faults : int;  (** injected write faults (torn or defect) *)
  busy_ms : float;  (** total simulated time spent servicing requests *)
}

val stats : t -> stats
(** A snapshot of the counters at this instant. *)

val reset_stats : t -> unit
(** Zero {e every} counter, [busy_ms] included — also the busy time that
    background work (e.g. a VLD compactor running inside an idle window)
    accumulated since the last foreground operation. *)
