(** VLFS: the log-structured file system integrated with the virtual log
    (Section 3.3 of the paper — designed there, left unimplemented; the
    paper deduces its behaviour from file systems running on the VLD).

    Like LFS, inodes hold the physical addresses of data blocks and an
    inode map holds the physical addresses of inodes; unlike LFS the
    "log" need not be physically contiguous — every block is written by
    eager writing, and {e only the inode-map blocks belong to the
    virtual log} (the paper's Figure 4).  This kills the storage and
    I/O overhead of a per-block indirection map: the file system's own
    indirection structures do the work.

    Consequences the paper predicts, all of which hold here (see the
    [vlfs] bench):

    - small synchronous writes perform like UFS-on-VLD (no
      segment-sized flushes), because each one is a handful of eager
      writes committed by a single map-node write;
    - with write buffering it retains LFS's batching benefits;
    - the free-space compactor is an {e optimization}, not a necessity —
      there is no cleaner on the critical path, ever;
    - recovery bootstraps from the virtual-log tail (or the scan
      fallback) and then reloads inodes, with no roll-forward.

    A multi-block update is atomic: data blocks and inode blocks are
    written first, the inode-map transaction commits them all. *)

type t

type config = {
  n_inodes : int;
  sync_writes : bool;  (** flush after every write (the fsync-heavy mode) *)
  buffer_blocks : int; (** write-buffer capacity for the async mode *)
  cache_blocks : int;
}

val default_config : config
(** 2048 inodes, synchronous, 6.1 MB buffer when async, 6 MB cache.  The
    virtual log under it keeps {!Vlog.Virtual_log.default_config}'s
    placement (the 25 % track-switch threshold). *)

val format :
  disk:Disk.Disk_sim.t -> host:Host.t -> clock:Vlog_util.Clock.t -> config -> t
(** Lay VLFS directly onto the drive (it {e is} the disk's firmware; no
    logical-disk layer in between). *)

type error = Blockdev.Fs_error.t
(** The error type shared by all three file systems.  [`Io] carries the
    structured {!Blockdev.Device.io_error}: a media fault that survived
    bounded retry ([op], the failing physical [block], the sector the
    drive reported, the retries spent).  The operation had no effect
    beyond the time spent — VLFS never returns corrupt bytes. *)

val pp_error : Format.formatter -> error -> unit

val create : t -> string -> (Vlog_util.Breakdown.t, error) result
val write : t -> string -> off:int -> Bytes.t -> (Vlog_util.Breakdown.t, error) result
val read :
  t -> string -> off:int -> len:int -> (Bytes.t * Vlog_util.Breakdown.t, error) result
val delete : t -> string -> (Vlog_util.Breakdown.t, error) result
val fsync : t -> string -> (Vlog_util.Breakdown.t, error) result
val sync : t -> Vlog_util.Breakdown.t
val drop_caches : t -> unit

val exists : t -> string -> bool
val file_size : t -> string -> (int, error) result
val files : t -> string list

val idle : t -> float -> unit
(** Grant an idle window: the compactor empties tracks by hole-plugging
    (data blocks, inode blocks and map nodes alike), then buffered writes
    are flushed in the background if time remains.  Advances the clock to
    the end of the window. *)

val utilization : t -> float
val buffered_blocks : t -> int

type compaction_stats = { tracks_emptied : int; blocks_moved : int }

val compaction_stats : t -> compaction_stats

val power_down : t -> Vlog_util.Breakdown.t
(** Flush buffered writes, then write the virtual-log tail record. *)

type recovery_report = {
  vlog_report : Vlog.Virtual_log.recovery_report;
  inodes_loaded : int;
  inodes_skipped : int;  (** inodes dropped for unverifiable parts *)
  files_found : int;
  dangling_dropped : int;  (** dirents referencing missing inodes (corruption) *)
  duration : Vlog_util.Breakdown.t; (** total, inode reads included *)
}

val recover :
  disk:Disk.Disk_sim.t ->
  host:Host.t ->
  ?config:config ->
  unit ->
  (t * recovery_report, string) result
(** Rebuild the file system from the platters: recover the virtual log
    (tail record or scan), read the inode blocks it points to, re-derive
    block occupancy and the directory.  No roll-forward phase exists or
    is needed. *)

val check_invariants : t -> (unit, string) result

val mode : t -> [ `Rw | `Degraded of string ]
(** [`Degraded] mounts (entered when {!recover} finds unverifiable
    damage: a corrupt or unreadable inode part, a contradictory block
    claim, a malformed or dangling dirent) refuse
    [create]/[write]/[delete]/[fsync] with [`Read_only]; reads still
    work. *)

(** {2 Checker access}

    Read-only views for the fsck-style checker ([Check.Vlfs_check]). *)

val disk : t -> Disk.Disk_sim.t
val vlog : t -> Vlog.Virtual_log.t
val config : t -> config
val n_physical_blocks : t -> int
val dir_entries : t -> (string * int) list
(** (name, inum), sorted. *)

val live_inums : t -> int list
val inode_blocks : t -> int -> (int * int array) option
(** (size, physical data block per file block) for a live inode. *)

val owner_of : t -> int -> (int * int) option
(** (inum, file block) owning a physical data block. *)

val verify_media : t -> (string * string) list
(** Validate every live inode part against the virtual-log map and its
    block checksum: [(category, detail)] findings with categories
    ["bad-reference"], ["bad-checksum"], ["io-unreadable"], or
    ["unflushed"] when buffered writes are pending. *)
