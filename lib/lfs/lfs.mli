(** Log-structured file system (the paper's "LFS", after the MIT
    Log-structured Logical Disk + MinixUFS stack it ports).

    All writes accumulate in a memory buffer (the paper's 6.1 MB file
    buffer, optionally regarded as NVRAM) and reach the disk in 512 KB
    segments.  An explicit [fsync]/[sync] flushes the open segment using
    the {e partial-segment threshold} rule: a segment filled beyond the
    threshold is sealed as if full; below it, the current contents are
    written but the memory copy is retained — so the next flush rewrites
    them, which is exactly why frequent small synchronous writes hurt
    LFS (Section 4.4).

    The cleaner reclaims space at segment granularity, greedily choosing
    the least-utilized segments.  It runs forcibly when free segments
    fall to the reserve, and voluntarily during idle time via
    {!idle_clean} — the modification the paper made to the stock LLD
    cleaner. *)

type t

type config = {
  segment_blocks : int;            (** 128 blocks = 512 KB *)
  partial_segment_threshold : float; (** 0.75 in the paper's experiments *)
  buffer_blocks : int;             (** write buffer (a.k.a. NVRAM), 6.1 MB *)
  cache_blocks : int;              (** read cache capacity *)
  reserve_segments : int;          (** segments the cleaner may write into *)
  checkpoint_interval : int;       (** seals between checkpoint writes *)
  n_inodes : int;
}

val default_config : config

val format :
  dev:Blockdev.Device.t -> host:Host.t -> clock:Vlog_util.Clock.t -> config -> t

type error = Blockdev.Fs_error.t
(** The error type shared by all three file systems; LFS itself never
    returns [`Io]. *)

val pp_error : Format.formatter -> error -> unit

val create : t -> string -> (Vlog_util.Breakdown.t, error) result
val write : t -> string -> off:int -> Bytes.t -> (Vlog_util.Breakdown.t, error) result
val read :
  t -> string -> off:int -> len:int -> (Bytes.t * Vlog_util.Breakdown.t, error) result
val delete : t -> string -> (Vlog_util.Breakdown.t, error) result

val fsync : t -> string -> (Vlog_util.Breakdown.t, error) result
(** Flush buffered writes (the whole log buffer — LFS cannot flush one
    file's blocks without writing a segment). *)

val sync : t -> Vlog_util.Breakdown.t
(** Flush the log buffer under the partial-segment threshold rule. *)

val idle_clean : ?target_free:int -> t -> deadline:float -> int
(** Clean segments until the estimated time for the next one would pass
    the absolute simulated time [deadline], [target_free] free segments
    exist (default: enough to absorb a full buffer flush), or no
    fragmented segment remains; returns segments cleaned. *)

val idle_work : t -> deadline:float -> int
(** What LFS does with an idle interval: clean (as {!idle_clean}), then —
    if the remaining time allows — flush the write buffer in the
    background so the next burst finds it empty.  Returns segments
    cleaned. *)

val drop_caches : t -> unit

val exists : t -> string -> bool
val file_size : t -> string -> (int, error) result
val files : t -> string list

val free_segments : t -> int
val live_blocks : t -> int
val utilization : t -> float

type cleaner_stats = {
  segments_cleaned : int;
  blocks_copied : int;
  forced_cleans : int; (** cleans on the write path, not masked by idle time *)
}

val cleaner_stats : t -> cleaner_stats
val buffered_blocks : t -> int

val device : t -> Blockdev.Device.t
val block_bytes : t -> int
val config : t -> config

(** {2 Crash recovery}

    Every segment carries two alternating checksummed summary slots; a
    segment write lays down the data run first and the summary (which
    records a per-item block checksum) last, so a summary on the platter
    guarantees its data.  Two alternating checkpoint blocks at the
    device front record the layout and generation.  {!recover} scans
    both summary slots of every segment, replays the valid summaries in
    generation order (the newest imap chunk as the base image, newer
    inode-part items overriding), validates every metadata block it
    trusts against the recorded checksum, and rebuilds the directory
    from file 0.  Unverifiable damage puts the mount in [`Degraded]
    read-only mode rather than serving corrupt data. *)

val power_down : t -> Vlog_util.Breakdown.t
(** Flush the log buffer, then write a checkpoint — the clean-shutdown
    sequence. *)

type recovery_report = {
  checkpoint_used : bool;  (** a valid checkpoint block was found *)
  segments_scanned : int;
  summaries_valid : int;   (** summary slots that decoded and checksummed *)
  items_replayed : int;
  corrupt_items : int;     (** replayed blocks failing validation *)
  inodes_loaded : int;
  inodes_skipped : int;    (** inodes dropped for unverifiable parts *)
  files_found : int;
  dangling_dropped : int;  (** half-created files dropped (legal crash states) *)
  duration : Vlog_util.Breakdown.t;
}

val recover :
  dev:Blockdev.Device.t ->
  host:Host.t ->
  clock:Vlog_util.Clock.t ->
  config ->
  (t * recovery_report, string) result
(** Mount from the platters alone.  [Error] only for configuration
    mismatches (device too small, layout fields disagreeing with a valid
    checkpoint); media damage degrades the mount instead. *)

val mode : t -> [ `Rw | `Degraded of string ]
(** [`Degraded] mounts refuse [create]/[write]/[delete]/[fsync] with
    [`Read_only]; reads still work. *)

(** {2 Checker access}

    Read-only views for the fsck-style checker ([Check.Lfs_check]). *)

type blkid =
  | Data of int * int  (** inum, file block index *)
  | Inode_part of int * int  (** inum, part index *)
  | Imap_chunk of int
  | Summary of int  (** segment *)

(** Tables keyed by block id, with monomorphic [equal] and [hash]. *)
module Blkid_tbl : sig
  include Hashtbl.S with type key = blkid
  val equal : blkid -> blkid -> bool
  val hash : blkid -> int
end

val dir_entries : t -> (string * int) list
(** (name, inum), sorted. *)

val inode_in_use : t -> int -> bool
val inode_blocks : t -> int -> (int * int array) option
(** (size, device block per file block) for a live inode. *)

val imap_parts : t -> int -> int array option
(** Device blocks holding the inode's on-disk parts. *)

val imap_chunk_locations : t -> int array
val owner_of : t -> int -> blkid option
val n_segments : t -> int
val segment_area_start : t -> int
val seg_live : t -> int -> int
(** The segment's live-block counter: the number the cleaner picks its
    victim by and free space is counted from, kept up to date on every
    owner or pointer change rather than recomputed.  It includes the open
    segment's two summary slots.  [Check.Lfs_check] cross-checks it
    against the blocks reachable from the metadata. *)

val seg_live_scan : t -> int -> int
(** The same count recomputed by scanning the segment block by block:
    the reference {!seg_live} must always equal. *)

val recorded_digest : t -> int -> int64 option
(** The digest recorded for a device block once the write carrying it
    returned, which the platter bytes must match; [None] after {!recover}. *)

val generation : t -> int

val verify_media : t -> (string * string) list
(** Validate every live block against the checksum recorded by the
    summary item that logged it: [(category, detail)] findings with
    categories ["bad-reference"], ["bad-checksum"], ["io-unreadable"],
    or ["unflushed"] when the log is not quiescent. *)
