(** Update-in-place file system (the paper's "UFS").

    An FFS-style layout on a logical disk: superblock, a fixed inode
    table, and a data region with a first-fit-near-predecessor block
    allocator (so sequentially written files end up contiguous and
    updates go back to the same place — the update-in-place property the
    paper's experiments stress).  Metadata writes are synchronous, as in
    Solaris UFS; data writes are synchronous or write-back per the
    [sync_data] mount flag.  Small files live in 1 KB fragments, four to
    a block.  Sequential reads trigger file-level read-ahead after two
    adjacent requests.

    Because the device interface is the standard logical-disk record,
    the same file system runs unmodified on a regular disk or on a VLD
    (Figure 5). *)

module Inode = Inode
(** Re-exported: the inode representation and its 128-byte codec. *)

module Buffer_cache = Buffer_cache
(** Re-exported: the LRU write-back cache (LFS shares it). *)

module Dir = Dir
(** Re-exported: the directory-entry format all three file systems
    share. *)

type t

type config = {
  sync_data : bool;       (** O_SYNC-style data writes *)
  n_inodes : int;
  cache_blocks : int;     (** buffer-cache capacity *)
  readahead_blocks : int; (** blocks prefetched once a sequential pattern is seen *)
}

val default_config : config
(** [sync_data = true], 4096 inodes, 6 MB cache, 8-block read-ahead. *)

val format :
  dev:Blockdev.Device.t -> host:Host.t -> clock:Vlog_util.Clock.t -> config -> t
(** Lay out a fresh file system on the device. *)

type error = Blockdev.Fs_error.t
(** The error type shared by all three file systems; UFS itself never
    returns [`Io] — device faults surface as
    {!Blockdev.Device.Io_error} from the raising device wrappers. *)

val pp_error : Format.formatter -> error -> unit

val create : t -> string -> (Vlog_util.Breakdown.t, error) result
(** Create an empty file; writes the inode and the directory block
    synchronously.  [`Bad_name] for a name {!Dir.valid_name} refuses. *)

val write :
  t -> string -> off:int -> Bytes.t -> (Vlog_util.Breakdown.t, error) result
(** Write bytes at an offset, extending the file as needed.  Synchronous
    when the mount is [sync_data] (data reaches the platter before
    return, newly-allocated metadata too); otherwise dirties the cache
    and returns host cost only. *)

val read : t -> string -> off:int -> len:int -> (Bytes.t * Vlog_util.Breakdown.t, error) result
(** Short reads at end of file return the available prefix. *)

val delete : t -> string -> (Vlog_util.Breakdown.t, error) result
(** Frees blocks in the allocator, clears the inode and directory entry
    synchronously.  The device is {e not} told (no trim) — an unmodified
    UFS can't; a VLD underneath only learns when blocks are reused. *)

val fsync : t -> string -> (Vlog_util.Breakdown.t, error) result
(** Flush the file's dirty data blocks, sorted by address. *)

val sync : t -> Vlog_util.Breakdown.t
(** Flush all dirty blocks, elevator-sorted — the best case for what
    disk-queue sorting of asynchronous writes can achieve (Section 5.2). *)

val drop_caches : t -> unit
(** Evict clean cached blocks (benchmark phase boundary). *)

val exists : t -> string -> bool
val file_size : t -> string -> (int, error) result
val files : t -> string list

val allocated_blocks : t -> int
(** Data + metadata blocks in use, superblock and inode table included. *)

val utilization : t -> float
(** {!allocated_blocks} over the device size — what [df] reports. *)

val device : t -> Blockdev.Device.t
val block_bytes : t -> int

(** {2 Crash recovery}

    UFS has no journal; crash safety rests on write ordering.  Namespace
    changes write the inode before the directory entry (create) and
    clear the inode before the entry (delete), so the only legal
    inconsistencies a crash can leave are orphan inodes and dangling
    directory entries — {!mount} clears and drops those silently.  Two
    alternating checksummed superblock slots (device blocks 0 and 1)
    list the directory's data blocks; new directory blocks are
    zero-filled on the platter before the superblock names them.
    Everything else — the free bitmap, indirect pointers, fragment
    occupancy — is rebuilt by reachability, and any contradiction found
    on the walk (double-allocated or out-of-range blocks, unreadable
    metadata, malformed entries) puts the mount in [`Degraded] read-only
    mode. *)

type mount_report = {
  superblock_found : bool;
  inodes_loaded : int;
  files_found : int;
  orphans_cleared : int;   (** create crash window: inode without a dirent *)
  dangling_dropped : int;  (** delete crash window: dirent without an inode *)
  duration : Vlog_util.Breakdown.t;
}

val mount :
  dev:Blockdev.Device.t ->
  host:Host.t ->
  clock:Vlog_util.Clock.t ->
  config ->
  (t * mount_report, string) result
(** Mount from the platters alone.  [Error] only for configuration
    mismatches (device too small, superblock disagreeing with the
    config); media damage degrades the mount instead. *)

val mode : t -> [ `Rw | `Degraded of string ]
(** [`Degraded] mounts refuse [create]/[write]/[delete]/[fsync] with
    [`Read_only]; reads still work. *)

(** {2 Checker access}

    Read-only views for the fsck-style checker ([Check.Ufs_check]). *)

val config : t -> config
val total_blocks : t -> int
val data_area_start : t -> int
val inode_table_span : t -> int * int
(** (first block, block count) of the on-disk inode table. *)

val block_marked : t -> int -> bool
(** Whether the allocator bitmap marks the block in use. *)

val dir_data_blocks : t -> int list
val inode_of : t -> int -> Inode.t option
val dir_entries : t -> (string * int) list
(** (name, inum), sorted. *)

val live_inums : t -> int list
val frag_occupancy : t -> (int * bool array) list
(** (frag block, per-slot occupancy), sorted. *)

val verify_media : t -> (string * string) list
(** Compare the platter against the in-memory state: [(category,
    detail)] findings with categories ["bad-checksum"],
    ["io-unreadable"], or ["unflushed"] when dirty blocks sit in the
    cache.  File data blocks carry no checksums and are not verified —
    that is the durability oracle's job. *)
