(** NVM write-ahead staging tier.

    Fronts any {!Blockdev.Device.t} with a byte-addressable NVM log
    ({!Nvm_sim}): a synchronous small write appends one CRC-sealed
    record to the log and completes once the NVM persist barrier
    returns — memory cost, not rotational cost.  A background destager
    drains staged blocks to the backing device through its queue
    interface (eager placement when the device is a VLD), throttled by a
    [destage_util] duty cycle exactly like the volume layer's
    [rebuild_util].  After a crash, {!recover} replays every committed
    record over the disk image {e before} the file system's own
    recovery mounts, so the FS never knows the staging tier exists.

    {2 Persistence boundary}

    A write's durability point is the persist barrier inside
    {!Blockdev.Device.t.write}: once the call returns [Ok], the record
    is in the NVM's persisted domain and survives any power cut.
    Records torn by a cut mid-persist belong to writes that never
    returned — losing them is legal, and the CRC scan truncates them.
    The log is reset (head advanced past every record) only after all
    its entries have destaged to the backing device, so replay after a
    crash mid-destage rewrites some blocks that already landed —
    harmless, because records replay in sequence order and the newest
    value wins.

    {2 Log layout}

    A 32-byte CRC-sealed header holds [base_seq]; records follow
    contiguously.  When every staged entry has destaged, the log resets:
    the header is rewritten with the next sequence number and appending
    restarts at the top.  Replay scans records from the top, skips any
    with [seq < base_seq] (stale, from before the last reset), stops on
    the first CRC/magic failure (torn tail) or sequence regression, and
    writes the survivors to the backing device in order.  A write that
    no longer fits the region first drains the log inline — NVM-full
    backpressure: under sustained overload every op pays the disk cost
    it was hiding, degrading to the backing device's own throughput. *)

(** The on-NVM record codec, exposed for property tests. *)
module Record : sig
  type t = { seq : int64; block : int; payload : Bytes.t }

  val encoded_size : payload_len:int -> int
  val encode : t -> Bytes.t

  val decode : Bytes.t -> pos:int -> (t * int) option
  (** [decode buf ~pos] is [Some (record, next_pos)], or [None] when the
      bytes at [pos] are not a whole, CRC-clean record (truncated tail,
      torn prefix, flipped bit, foreign data). *)
end

type config = {
  destage_util : float;
      (** fraction of an idle window the destager may consume (0
          disables background destaging; drain and backpressure still
          work) *)
  log_bytes : int option;
      (** cap the log region below the NVM size — [None] uses the whole
          device.  Tiny caps exercise the backpressure path. *)
}

val default_config : config
(** [destage_util = 0.5] and a whole-device log.  Every tier stages a
    multi-block write of at most 4 blocks (one record per block, a
    single persist); a larger run first drains the log, then bypasses it
    straight to the backing device.  The destager submits 8 staged
    entries per submit/drain window. *)

type t

val create : ?config:config -> nvm:Nvm_sim.t -> inner:Blockdev.Device.t -> unit -> t
(** Format a fresh (empty) log on [nvm] and stage writes for [inner]. *)

type replay_report = {
  rr_replayed : int;  (** committed records written back to the device *)
  rr_stale : int;  (** records from before the last reset, skipped *)
  rr_truncated : bool;
      (** the scan ended on an undecodable record — a torn tail — rather
          than cleanly *)
}

val recover :
  ?config:config ->
  nvm:Nvm_sim.t ->
  inner:Blockdev.Device.t ->
  unit ->
  (t * replay_report, Blockdev.Device.io_error) result
(** Bring the pair up after a crash: replay every committed record from
    [nvm]'s persisted image onto [inner] in sequence order, then reset
    the log.  Run this before mounting the file system.  Replay is
    idempotent: recovering twice leaves the same device image as
    recovering once. *)

val replay_scan : Bytes.t -> Record.t list * replay_report
(** Pure scan of a persisted NVM image (see {!Nvm_sim.snapshot}): the
    committed records replay would apply, in order.  Exposed for tests
    and [vlsim nvm status]. *)

val device : t -> Blockdev.Device.t
(** The staged device: same blocks as the backing device, write-ahead
    semantics as above.  [idle dt] first runs the destager inside its
    duty-cycle budget, then passes the remaining window down (a VLD
    still gets its compaction time). *)

val inner : t -> Blockdev.Device.t
val nvm : t -> Nvm_sim.t

val pump : t -> deadline:float -> unit
(** Give the destager the window from now until [deadline] (absolute
    simulated ms), of which it may use [destage_util].  It destages
    entries while its last-cost estimate fits the remaining budget —
    same deadline-fitting, halving-decay scheme as the volume rebuild. *)

val drain : t -> (unit, Blockdev.Device.io_error) result
(** Destage everything unthrottled and reset the log.  [Error] when the
    backing device permanently rejects a staged block (the entry stays
    in the log for the next recovery). *)

type status = {
  st_entries : int;  (** records currently staged in the log *)
  st_destaged : int;  (** of those, already written to the backing device *)
  st_log_used : int;  (** bytes of log region in use (header included) *)
  st_log_capacity : int;  (** bytes of log region *)
  st_base_seq : int64;
  st_next_seq : int64;
}

val status : t -> status
