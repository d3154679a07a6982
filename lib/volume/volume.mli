(** Multi-disk volume manager: N independent {!Disk.Disk_sim} drives
    behind one {!Blockdev.Device.t}, with mirroring, whole-drive failure
    tolerance, degraded-mode I/O, and online rebuild onto hot spares.

    A volume is [k] groups of [m] mirror legs; each leg is a full
    logical-disk stack ({!Blockdev.Vld} or {!Blockdev.Regular_disk})
    formatted over its own drive.  Block [b] lives in group [b mod k] as
    group block [b / k] on every leg of that group.

    Failure model: a leg that fails an I/O turns [Suspect] (skipped
    while in backoff, its missed writes logged in a volatile per-leg
    dirty-region set); a suspect that keeps failing probes is retired to
    [Dead] and, when a hot spare is configured, resilvered in the
    background.  Reads fail over across legs; writes succeed as long as
    one leg takes them.  A leg only returns to [Healthy] once its
    dirty-region set has drained — the crash resync trusts healthy legs,
    so a stale one must never wear the label.

    Data path: each leg owns a tagged {!Disk.Disk_queue.t} (SATF on
    VLD legs, FIFO on regular legs) and a private
    [busy_until] timeline on the shared clock.  A volume operation
    scatters per-leg commands, runs each leg's queue in its own window
    — warping the shared clock to each leg's dispatch instant — and
    gathers completions; a mirror write therefore completes at the
    {e max} of the legs' service times, not their sum, and striped
    operations fan out across spindles concurrently.  Rebuild copies
    ride the target leg's queue as low-priority background tags with a
    duty-cycle throttle (half of the leg's time), so resilvering steals
    bounded bandwidth from foreground I/O instead of blocking it.
    Administrative paths (probe, resync, settle, {!rebuild_to_completion})
    stay sequential on the shared clock. *)

type layout =
  | Stripe of int  (** [k] groups of one leg: capacity, no redundancy *)
  | Mirror of int  (** one group of [m] legs *)
  | Stripe_of_mirrors of int * int  (** [k] groups of [m] legs (RAID-10) *)

type leg_kind = Regular_leg | Vld_leg

val n_legs : layout -> int
(** Drives the layout needs.  Raises [Invalid_argument] on degenerate
    shapes (stripe width < 1, mirror width < 2). *)

type t

val create :
  ?spare:(unit -> Disk.Disk_sim.t) ->
  layout:layout ->
  leg_kind:leg_kind ->
  logical_blocks:int ->
  disks:Disk.Disk_sim.t array ->
  prng:Vlog_util.Prng.t ->
  unit ->
  t
(** Format a fresh volume over exactly [n_legs layout] drives sharing
    one clock.  Failure handling runs on a 50 ms per-operation budget, a
    200 ms backoff, 2 probes to retire a leg and a rebuild duty cycle of
    0.5.  Every leg's tagged queue runs [Satf] on VLD legs, whose eager
    placement prices itself near the head, and [Fifo] on regular legs.
    [spare] supplies a blank drive whenever a leg dies, so rebuilds
    start automatically; without it dead legs stay dead until
    {!start_rebuild}.  [Workload.Rig.volume] builds the drives and
    calls this. *)

type recovery_report = {
  legs_recovered : int;
  legs_lost : int;  (** legs whose platters did not recover; volume degraded *)
  legs_used_tail : int;  (** VLD legs brought up via the landing-zone tail *)
  resync_fixed : int;  (** group-blocks converged onto the primary's content *)
  resync_lost : int;  (** group-blocks unreadable on every surviving leg *)
}

val recover :
  ?spare:(unit -> Disk.Disk_sim.t) ->
  layout:layout ->
  leg_kind:leg_kind ->
  logical_blocks:int ->
  disks:Disk.Disk_sim.t array ->
  prng:Vlog_util.Prng.t ->
  unit ->
  (t * recovery_report, string) result
(** Bring a volume back from [n_legs layout] post-crash drives: recover
    each leg independently (an unrecoverable leg becomes [Dead], not an
    error), resync every mirror group onto its first readable leg —
    writes go to legs in index order, so that leg is the newest
    surviving state — and start rebuilds for dead legs if [spare] is
    given.  [Error] only when some group has no surviving leg at all:
    honest data loss. *)

val device : t -> Blockdev.Device.t
(** The volume as a block device.  [submit]/[poll]/[drain] are native:
    each request is stamped with its arrival at [submit], and requests
    drain in submission order, each starting at its own arrival on
    whatever legs it touches, so requests on disjoint spindles overlap
    in simulated time.  [idle] pumps rebuild background copies and the
    VLD legs' compactors, each in its leg's own window. *)

(** {1 Timestamped batch I/O}

    The two batch engines every volume operation goes through — the
    device record's closures and host queue included.  Each call
    scatters a whole set of blocks arriving at [at] — every involved
    leg services its commands in one window (its queue policy reorders
    within), which is how a host drives the legs' queues to depth > 1 —
    and leaves the clock {e at the batch's completion}, so
    [Clock.now - at] is its wall latency.  [at] may lie anywhere on the
    timeline: a closed-loop driver submits each replacement op at its
    predecessor's completion instant.  A write batch's [owner] tags
    every disk command it scatters ({!Disk.Disk_queue.submit}), so the
    legs' trace sinks hold a [queue.<owner>.lat] latency histogram of
    just those commands.  Every block must lie inside the volume and
    every write buffer must be exactly one block, or the call raises
    [Invalid_argument] before anything is submitted.

    When a leg faults {e mid-window} the batch gathers partially — some
    blocks land (possibly degraded), others fail — and a degraded-mode
    retry must know exactly which, or it will re-submit commands that
    already completed.  The [_report] forms return that full per-block
    outcome; [write_batch]/[read_batch] and [write_result_at] report
    only the first failing block. *)

type block_error = { be_block : int; be_error : Blockdev.Device.io_error }

type write_report = {
  wr_written : int list;  (** blocks durably on ≥ 1 leg, in request order *)
  wr_failed : block_error list;
      (** blocks no leg took, in request order — the only ones a retry
          may re-submit *)
  wr_degraded : bool;
      (** some copy was skipped or failed and is owed via a DRL *)
  wr_bd : Vlog_util.Breakdown.t;
}

type read_report = {
  rr_data : (int * Bytes.t * Vlog_util.Breakdown.t) list;
      (** blocks read (block, payload, mechanical cost), request order *)
  rr_failed : block_error list;
}

val write_batch_report :
  t -> ?owner:string -> at:float -> (int * Bytes.t) list -> write_report

val read_batch_report : t -> at:float -> int list -> read_report

val write_batch :
  t ->
  ?owner:string ->
  at:float ->
  (int * Bytes.t) list ->
  (Vlog_util.Breakdown.t, Blockdev.Device.io_error) result
(** The result breakdown is the sum of the mechanical work of every
    successful leg command, while the clock ends at the batch
    completion (the latest awaited leg). *)

val read_batch :
  t ->
  at:float ->
  int list ->
  ((Bytes.t * Vlog_util.Breakdown.t) list, Blockdev.Device.io_error) result

val write_result_at :
  t ->
  at:float ->
  int ->
  Bytes.t ->
  (Vlog_util.Io.completion, Blockdev.Device.io_error) result
(** One block written as the device's [write] does — under a
    [vol.write] trace span — but arriving at [at]. *)

(** {1 Failure management} *)

val kill : t -> group:int -> leg:int -> unit
(** Administratively retire a leg (no spare swap, no probation). *)

val start_rebuild : t -> group:int -> leg:int -> (unit, string) result
(** Resilver a [Dead] leg onto a hot spare.  [Error] if the leg is not
    dead or no spare is configured. *)

val rebuild_active : t -> bool

val rebuild_to_completion : t -> unit
(** Drive every active rebuild to the end (foreground, simulated time
    advances).  Gives up on legs whose source blocks stay unreadable. *)

val rebuild_step : t -> copies:int -> unit
(** Foreground-blocking rebuild: copy up to [copies] group blocks of
    every rebuilding leg {e now}, sequentially on the shared clock — the
    pre-queue cursor-sweep behaviour, kept as the baseline the array
    bench compares throttled background rebuild against. *)

val idle : t -> float -> unit
(** Grant [dt] ms of idle time starting now: pump throttled background
    rebuild copies and the VLD legs' compactors, each in its own leg's
    window, never past the deadline.  The clock ends at the last
    background activity (at most [now + dt]). *)

val settle : t -> unit
(** Quiesce the failure machinery: probe suspects, finish rebuilds,
    drain dirty-region sets — and retire any leg that will not drain
    within a bounded number of rounds.  Afterwards every leg is either
    fully [Healthy] with an empty dirty-region set, or [Dead]. *)

(** {1 Introspection} *)

val layout : t -> layout

val leg_busy_until : t -> group:int -> leg:int -> float
(** End of the leg's last service window on its private timeline. *)

val n_groups : t -> int
val legs_per_group : t -> int
val group_blocks : t -> int
val logical_blocks : t -> int
val block_bytes : t -> int
val clock : t -> Vlog_util.Clock.t

val disks : t -> Disk.Disk_sim.t array
(** Current drive of every leg, group-major; spares appear in place of
    the drives they replaced. *)

val state_of :
  t -> group:int -> leg:int -> [ `Healthy | `Suspect | `Dead | `Rebuilding of int ]
(** [`Rebuilding c]: the resilver cursor has copied group blocks below [c]. *)

val state_to_string :
  [ `Healthy | `Suspect | `Dead | `Rebuilding of int ] -> string

val degraded : t -> bool
(** Some leg is not [`Healthy]. *)

val leg_read_raw :
  t -> group:int -> leg:int -> int -> (Bytes.t, Blockdev.Device.io_error) result
(** Read one group block from one specific leg, bypassing failover —
    how the volume checker cross-examines mirror copies. *)

val leg_drl_size : t -> group:int -> leg:int -> int
val leg_dirty : t -> group:int -> leg:int -> int -> bool

val pp_status : Format.formatter -> t -> unit
(** The [vlsim volume status] leg map. *)
