(** The logical-disk interface both file systems run on.

    A device exposes fixed-size logical blocks.  The two implementations —
    {!Regular_disk} (logical = physical, update in place) and {!Vld}
    (eager writing behind an indirection map) — export the same record, so
    an unmodified file system runs on either, exactly as the paper's
    experimental platform arranges (Figure 5).

    Every operation is result-typed and resolves to a
    {!Vlog_util.Io.completion} — the unified return of the I/O path:
    latency breakdown, covering trace span, and op-specific counter
    deltas.

    {2 Submission/completion interface}

    Alongside the synchronous closures, every device exposes an async
    triple: [submit] enqueues a request and returns a tag, [poll]
    collects finished (tag, ack) pairs, and [drain] is a barrier that
    services everything outstanding.  The exception-style wrappers
    ({!read}, {!read_run}, {!read_into}, {!write}, {!write_run}) are
    derived {e once} as submit-then-drain over this interface, so a file
    system calling {!read} is just a queue-depth-1 host of the async
    API.  Most devices are built with {!make} (host-side FIFO, service
    at the barrier — byte-identical to calling the sync closures
    directly); a device backed by a reordering drive queue
    ({!Disk.Disk_queue}) exposes its native batched front separately.

    {2 Buffer ownership}

    A write's buffer belongs to the caller again as soon as the write
    completes: when [write]/[write_run] return, when the request's
    completion is collected by [poll]/[drain], or, for the raising
    wrappers, when the call returns.  A device copies whatever it needs
    to keep (onto the platter, into a log, into a staging record) and
    never holds on to the buffer itself, so a caller may refill and
    resubmit one buffer for every write — LFS sends every full segment
    from one.

    A [read_into]'s buffer is the caller's too: the device writes
    exactly the window [[pos, pos + count * block_bytes)] of it, nothing
    outside, and keeps no reference once the request completes.  On
    [Error] the window's contents are unspecified.  Each device has one
    run-read implementation, its [read_into]; [read_run] is that read
    into a fresh buffer, with the same spans, counters and breakdown. *)

type io_error = {
  op : [ `Read | `Write ];
  block : int;   (** logical block of the failed request *)
  error_lba : int;  (** absolute sector the drive reported *)
  retries : int;  (** retry attempts made before giving up *)
}
(** An I/O failure that survived the device's own retry and remap
    policy.  Both implementations retry transient errors a bounded
    number of times and remap grown write defects (a spare-sector pool
    on the regular disk, freemap retirement plus reallocation on the
    VLD), so an [io_error] means the data is genuinely unavailable. *)

exception Io_error of io_error
(** Raised by {!exn} (and the derived raising wrappers) when a
    result-typed operation returns [Error] — unmodified file systems
    fail stop rather than consume corrupt data. *)

val pp_io_error : Format.formatter -> io_error -> unit

val parse_io_error : string -> io_error option
(** Inverse of {!pp_io_error}: parses exactly the string it prints back
    to the same [(op, block, error_lba, retries)], so error lines in
    sweep repro output stay machine-readable.  [None] on anything else. *)

val err :
  op:[ `Read | `Write ] ->
  block:int ->
  e:Disk.Disk_sim.media_error ->
  retries:int ->
  io_error
(** Build an {!io_error} from the drive's {!Disk.Disk_sim.media_error} —
    the one constructor every implementation's retry loop ends in. *)

val retry_counters : int -> (string * int) list
(** [["retries", n]] when [n > 0], else empty: the completion counters a
    bounded-retry loop reports. *)

val span : Trace.sink -> string -> int -> int -> Trace.span
(** [span tr name block count] opens a device request's span, tagged
    with its block range; {!Vlog_util.Io.no_span} when tracing is off. *)

val max_retries : int
(** 3: the transient-error retries a bounded-retry loop allows. *)

val read_retrying :
  Disk.Disk_sim.t -> span:Trace.span -> block:int -> lba:int -> sectors:int ->
  Bytes.t -> pos:int -> (Vlog_util.Io.completion, io_error) result
(** Read one block's [sectors] from [lba] into [buf] at [pos], retrying
    transients up to {!max_retries} times (SCSI overhead on the first
    attempt only), counting [dev.read_retries] or [dev.failed_retries],
    and closing [span] over the summed cost. *)

val check_window : block_bytes:int -> int -> Bytes.t -> pos:int -> unit
(** [check_window ~block_bytes count buf ~pos] raises [Invalid_argument]
    unless [count] blocks fit in [buf] from byte [pos] on: every
    [read_into] checks its window before touching the disk. *)

val merge_counters : (string * int) list -> (string * int) list -> (string * int) list
(** Pointwise sum of two counter deltas (multi-block operations fold
    their per-block completions with this). *)

type req =
  | Read of int
  | Read_run of int * int  (** block, count *)
  | Read_into of int * int * Bytes.t * int
      (** block, count, buf, pos; acked with [Done] *)
  | Write of int * Bytes.t
  | Write_run of int * Bytes.t

type reply =
  | Data of Bytes.t * Vlog_util.Io.completion  (** a read's payload *)
  | Done of Vlog_util.Io.completion  (** a write's completion *)

type ack = (reply, io_error) result

type t = {
  name : string;
  block_bytes : int;
  n_blocks : int;
  trace : Trace.sink;
      (** the sink every layer below this device reports to; file
          systems pick it up from here so one sink observes the whole
          stack *)
  read : int -> (Bytes.t * Vlog_util.Io.completion, io_error) result;
      (** [read block] returns the block's contents and the completion.
          Unwritten blocks read as zeroes. *)
  read_run : int -> int -> (Bytes.t * Vlog_util.Io.completion, io_error) result;
      (** [read_run block count] reads [count] consecutive logical
          blocks; the device exploits whatever physical contiguity it
          has. *)
  read_into :
    int -> int -> Bytes.t -> pos:int -> (Vlog_util.Io.completion, io_error) result;
      (** [read_into block count buf ~pos] is {!field-read_run} into [buf]
          from byte [pos] on (see the ownership rule above). *)
  write : int -> Bytes.t -> (Vlog_util.Io.completion, io_error) result;
      (** Synchronous single-block write: when it returns [Ok], the
          block is on the platter (and, for a VLD, its map update is
          committed). *)
  write_run : int -> Bytes.t -> (Vlog_util.Io.completion, io_error) result;
      (** Multi-block synchronous write, atomic on a VLD (one
          transaction). *)
  submit : req -> int;
      (** Enqueue a request, returning its tag.  Nothing is serviced
          until {!poll}'s producer runs — for a {!make} device
          that is the next [drain]. *)
  poll : unit -> (int * ack) list;
      (** Finished requests since the last poll, each tag exactly
          once. *)
  drain : unit -> (int * ack) list;
      (** Barrier: service every outstanding request, then [poll]. *)
  trim : int -> unit;
      (** Hint that a logical block's contents are dead.  Free on a VLD,
          a no-op on a regular disk.  The VLD also detects deletions by
          monitoring overwrites, so file systems that never trim still
          work (Section 4.2); trim merely reclaims space sooner. *)
  idle : float -> unit;
      (** [idle dt] grants the device [dt] ms of idle time starting now:
          a VLD runs its compactor, a regular disk does nothing.  The
          simulated clock never ends past [now + dt] by more than one
          in-flight operation. *)
  utilization : unit -> float;
      (** Physically occupied fraction of the device. *)
}

val make :
  name:string ->
  block_bytes:int ->
  n_blocks:int ->
  trace:Trace.sink ->
  read:(int -> (Bytes.t * Vlog_util.Io.completion, io_error) result) ->
  read_into:
    (int -> int -> Bytes.t -> pos:int -> (Vlog_util.Io.completion, io_error) result) ->
  write:(int -> Bytes.t -> (Vlog_util.Io.completion, io_error) result) ->
  write_run:(int -> Bytes.t -> (Vlog_util.Io.completion, io_error) result) ->
  trim:(int -> unit) ->
  idle:(float -> unit) ->
  utilization:(unit -> float) ->
  t
(** A device over its synchronous closures.  [read_run] is derived as
    allocate-then-[read_into], and [(submit, poll, drain)] is a
    host-side FIFO over the closures: submissions accumulate and are
    serviced in submission order at the [drain] barrier.
    Submit-then-drain of a single request is byte-identical to the
    direct synchronous call. *)

val sync_queue :
  read:(int -> (Bytes.t * Vlog_util.Io.completion, io_error) result) ->
  read_run:(int -> int -> (Bytes.t * Vlog_util.Io.completion, io_error) result) ->
  write:(int -> Bytes.t -> (Vlog_util.Io.completion, io_error) result) ->
  write_run:(int -> Bytes.t -> (Vlog_util.Io.completion, io_error) result) ->
  (req -> int) * (unit -> (int * ack) list) * (unit -> (int * ack) list)
(** The same FIFO as {!make}'s over four closures, serving [Read_into]
    as [read_run] plus a blit.  It exists only for
    [perfbench/meter.ml], which re-wraps a device's closures in timers
    and rebuilds its queue with this form; that directory is the
    repository benchmark's fixed source, so the form stays until a
    change to the benchmark moves the meter to {!make}. *)

val exn : ('a, io_error) result -> 'a
(** [exn r] is [v] when [r = Ok v]; raises {!Io_error} otherwise.  The
    single point all exception-style access is derived from. *)

(** The raising breakdown-typed wrappers, derived once for all devices
    as submit-then-drain over the queue interface: [Error] raises
    {!Io_error}. *)

val read : t -> int -> Bytes.t * Vlog_util.Breakdown.t
val read_run : t -> int -> int -> Bytes.t * Vlog_util.Breakdown.t
val read_into : t -> int -> int -> Bytes.t -> pos:int -> Vlog_util.Breakdown.t
val write : t -> int -> Bytes.t -> Vlog_util.Breakdown.t
val write_run : t -> int -> Bytes.t -> Vlog_util.Breakdown.t

val advance_idle : clock:Vlog_util.Clock.t -> t -> float -> unit
(** Grant [dt] ms of idle time and then advance the clock to the end of
    the window regardless of how much of it the device used. *)
