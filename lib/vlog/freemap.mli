(** Physical-block occupancy tracking for eager writing.

    The disk is divided into fixed-size allocation units ("physical
    blocks") of a whole number of sectors; blocks never straddle a track
    boundary (enforced at creation).  The freemap knows, per track and
    globally, which blocks are free — the eager allocator and the
    compactor both work against it.  It also knows the drive's track
    skew, so it can index free blocks by the platter angle at which
    they pass under the head (the rotational index below). *)

type t

val create : profile:Disk.Profile.t -> sectors_per_block:int -> t
(** All blocks free, laid out on [profile]'s geometry and track skew.
    Requires [sectors_per_track mod sectors_per_block = 0] and
    [tracks_per_cylinder <= Sys.int_size - 1] (a cylinder's surfaces
    form one [int] mask). *)

val geometry : t -> Disk.Geometry.t
val track_skew : t -> int
(** Sectors of skew between consecutive tracks, from the profile. *)

val sectors_per_block : t -> int
val blocks_per_track : t -> int
val n_blocks : t -> int
val n_tracks : t -> int

val lba_of_block : t -> int -> int
(** First sector of a block. *)

val block_of_lba : t -> int -> int
val track_of_block : t -> int -> int
val start_sector_of_block : t -> int -> int
(** Sector offset of the block within its track. *)

val cylinder_of_track : t -> int -> int
val track_in_cylinder : t -> int -> int
(** Surface index of a global track. *)

val is_free : t -> int -> bool
val occupy : t -> int -> unit
(** Raises [Invalid_argument] if the block is already occupied — callers
    must never double-allocate. *)

val release : t -> int -> unit
(** Raises [Invalid_argument] if the block is already free or is a grown
    defect ({!mark_bad}). *)

val mark_bad : t -> int -> unit
(** Record a grown media defect: the block becomes permanently occupied —
    never allocated, never released.  Idempotent.  This is the VLD's
    defect list: because every write is eager-allocated, retiring a block
    here and allocating another {e is} the remap a conventional drive
    does with a spare-sector pool. *)

val is_bad : t -> int -> bool
val n_bad : t -> int

val free_total : t -> int
val free_in_track : t -> int -> int

val free_in_cylinder : t -> int -> int
(** Free blocks in a whole cylinder; O(1).  The eager allocator skips
    fully-occupied cylinders with this before looking at any track. *)

val occupied_in_track : t -> int -> int
val utilization : t -> float
(** Occupied fraction of all blocks. *)

(** {2 Allocation index}

    A word-scanned free bitset answers positional queries in O(words)
    instead of O(blocks).  Invariants (checked by {!index_consistent}):
    a bit is set iff the block is neither occupied nor a grown defect
    ({!mark_bad} clears it permanently), per-track counts equal the
    bitset's per-track population, per-cylinder counts are the sum
    of their tracks' counts, and the rotational index holds exactly the
    free blocks. *)

val first_free_at_or_after : t -> track:int -> slot:int -> int option
(** First free block of [track] whose in-track index is >= [slot]
    ([slot] in [0, blocks_per_track]), or [None].  Word-level scan. *)

val nearest_free_in_track : t -> track:int -> slot:int -> int
(** Cyclically-first free block of [track] at or after [slot] ([slot] in
    [0, blocks_per_track)), wrapping to the track start: exactly the
    block whose start sector next passes under the head when the head
    sits at the rotational position of slot [slot].  [-1] iff the track
    has no free block.  Allocates nothing: it sits on the eager
    allocator's per-track path. *)

(** {2 Rotational index}

    Per cylinder and per absolute platter angle [a] in
    [[0, sectors_per_track)], a mask of the cylinder's surfaces (bit [s]
    for surface [s]) that have a free block starting at [a].  A block's
    absolute angle is [(slot * sectors_per_block + track_skew * track)
    mod sectors_per_track], with [track] the global track index: the
    platter phase, in sectors, at which the block's first sector is
    under the head ({!Disk.Disk_sim}'s rotational frame).  {!occupy},
    {!release} and {!mark_bad} keep it current in O(1). *)

val surfaces_free_at : t -> cyl:int -> angle:int -> int
(** The surface mask of cylinder [cyl] at absolute angle [angle]. *)

val first_angle_free : t -> cyl:int -> angle:int -> surfaces:int -> int
(** First absolute angle at or cyclically after [angle] at which one of
    [surfaces] (a surface mask) of cylinder [cyl] has a free block, or
    [-1] if none has.  At most one pass over the cylinder's angles;
    allocates nothing. *)

val index_consistent : t -> bool
(** Whole-structure audit of the index invariants above; test/debug
    only, O(blocks). *)

val fold_free_in_track : t -> track:int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Fold [f] over the free block indices of a track. *)

val empty_tracks : t -> int list
(** Tracks with every block free, ascending. *)

val random_occupy : t -> Vlog_util.Prng.t -> utilization:float -> unit
(** Occupy a uniformly random subset of the currently free blocks so the
    overall utilization reaches the target; used by the model-validation
    experiments to create random free-space distributions. *)
