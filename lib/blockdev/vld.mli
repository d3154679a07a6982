(** The Virtual Log Disk: eager writing behind an unmodified logical-disk
    interface (Sections 3.2 and 4.2).

    Every synchronous logical write becomes a data-block write to an
    eager-allocated location followed by one virtual-log map-node write —
    both near the head, so the whole operation costs little more than the
    transfer itself.  Deletions are detected by monitoring overwrites of
    logical addresses (plus an explicit [trim] hint for file systems that
    can give one); idle time drives the free-space compactor. *)

type t

val create :
  disk:Disk.Disk_sim.t ->
  logical_blocks:int ->
  prng:Vlog_util.Prng.t ->
  unit ->
  t
(** Format a fresh VLD of 4 KB (8-sector) blocks, with [Sweep] eager
    placement at its 25 % track-switch threshold and random compaction
    targets.  The disk should have been created with the [Whole_track]
    buffer policy (Section 4.2's read-ahead fix); this is the caller's
    choice so experiments can also measure the unfixed behaviour. *)

val export_blocks : Disk.Geometry.t -> int
(** The logical size a VLD exports over a whole drive of this geometry:
    every 8-sector physical block less the virtual log's map pieces
    ([1 + total/900]) and the 8-block allocation reserve. *)

val recover :
  disk:Disk.Disk_sim.t ->
  prng:Vlog_util.Prng.t ->
  unit ->
  (t * Vlog.Virtual_log.recovery_report, string) result
(** Bring up a VLD from the platters after a crash or power-down, with
    the same placement and compaction as {!create}. *)

val device : t -> Device.t
val disk : t -> Disk.Disk_sim.t
val vlog : t -> Vlog.Virtual_log.t
val compactor : t -> Vlog.Compactor.t

val power_down : t -> Vlog_util.Breakdown.t
(** Firmware park sequence: persist the log-tail record (best effort — a
    defective landing zone degrades the next recovery to the scan path). *)

val read_result : t -> int -> (Bytes.t * Vlog_util.Io.completion, Device.io_error) result
(** Defect-tolerant read: transient errors retried (bounded); a permanent
    defect or ECC failure on the data's only copy is an [Error] — never
    silently-returned corrupt bytes.  The completion reports a
    ["retries"] counter when retries happened. *)

val write_result : t -> int -> Bytes.t -> (Vlog_util.Io.completion, Device.io_error) result
(** Defect-tolerant write: a grown defect retires the eager-allocated
    block in the freemap (the VLD's defect list) and reallocates — the
    free space itself is the spare pool.  Map-node writes inside the
    commit get the same treatment in {!Vlog.Virtual_log}.  The
    completion reports a ["reallocs"] counter when defects forced
    reallocation. *)

val read_into_result :
  t -> int -> int -> Bytes.t -> pos:int -> (Vlog_util.Io.completion, Device.io_error) result
(** [read_into_result t block count buf ~pos] is the multi-block read,
    into [buf] from byte [pos] on; consecutive logical blocks whose
    physical homes are also consecutive stream as single platter
    requests, and unmapped blocks are zero-filled. *)

val write_run_result :
  t -> int -> Bytes.t -> (Vlog_util.Io.completion, Device.io_error) result
(** Multi-block write committed by one map transaction (atomic). *)

(** Native tagged-command-queue front: commands go to a reordering
    {!Disk.Disk_queue} inside the drive rather than the host-side FIFO
    behind {!device}.  Writes are submitted as [Hosted] commands — the
    eager allocator binds them to a physical block only at dispatch
    time, so SATF prices each queued write at the allocator's own
    best-candidate cost.  Map updates are batched: committed every
    [map_batch] completed writes and at {!Queued.drain} (lazy
    checkpointing; the virtual log's recovery scan covers the
    uncommitted tail). *)
module Queued : sig
  type vld := t
  type t

  val create :
    ?policy:Disk.Disk_queue.policy ->
    ?map_batch:int ->
    vld ->
    t
  (** Defaults: [policy = Satf], [map_batch = 16]. *)

  val queue : t -> Disk.Disk_queue.t
  val vld : t -> vld

  val submit_read : ?at:float -> t -> int -> int option
  (** Queue a read of a logical block; [None] when the block is unmapped
      (its contents are all zeroes — nothing to fetch). *)

  val submit_write : ?at:float -> t -> int -> Bytes.t -> int
  (** Queue an eager write of one logical block; returns its tag.  The
      completed tag's [Wrote pba] reports the physical block chosen at
      dispatch. *)

  val step : t -> bool
  val poll : t -> (int * Disk.Disk_queue.completion) list

  val drain : t -> (int * Disk.Disk_queue.completion) list
  (** Barrier: service everything, then commit the map backlog. *)
end
