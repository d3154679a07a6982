(** Eager-writing allocator: pick the free physical block that the head
    can reach soonest.

    Two search modes:

    - [Nearest]: consider the current cylinder, then cylinders at
      increasing distance in both directions, cutting off as soon as the
      bare seek cost exceeds the best candidate found.  This is the
      algorithm the Figure 1 validation simulates.
    - [Sweep]: the VLD production policy — cylinder changes go in one
      direction only (wrapping at the end) so the head cannot get trapped
      in a region of high utilization (Section 4.2).

    Independently of the mode, when the compactor has produced empty
    tracks the allocator fills the closest empty track until its free
    fraction drops to [switch_free_fraction] (the Figure 2 threshold,
    25 % free = 75 % full in the experiments), then moves to the next
    empty track; when no empty tracks remain it reverts to greedy search
    (Section 2.3 / 4.2). *)

type mode = Nearest | Sweep

type t

val create :
  ?mode:mode ->
  ?switch_free_fraction:float ->
  disk:Disk.Disk_sim.t ->
  freemap:Freemap.t ->
  unit ->
  t
(** Defaults: [mode = Sweep], [switch_free_fraction = 0.25].  Raises
    [Invalid_argument] if the freemap's track skew is not the disk's. *)

val mode : t -> mode
val freemap : t -> Freemap.t

val choose :
  ?exclude_tracks:(int -> bool) ->
  ?greedy_only:bool ->
  ?lead_time:float ->
  t ->
  int option
(** The physical block to write next, or [None] if the disk is full (or
    every free block is excluded).  Does not mark the block occupied and
    does not move the head.  [exclude_tracks] masks tracks the caller
    must avoid (the compactor excludes its own target); [greedy_only]
    bypasses the empty-track filling policy (the compactor plugs holes in
    partially-filled tracks rather than consuming fresh empty ones).
    [lead_time] (ms, default 0) is how long after "now" the mechanical
    access will actually begin — the SCSI command overhead for a host
    write.  The platter keeps spinning during it, so ignoring it would
    systematically pick sectors that have already passed the head. *)

val locate_cost : t -> int -> float
(** Mechanical positioning cost (move + rotation, no transfer) to reach
    the given block from the current head position — the "locate" the
    models of Section 2 predict. *)

val search : t -> exclude_tracks:(int -> bool) -> lead_time:float -> int option
(** The indexed greedy search {!choose} runs when the empty-track fill
    policy yields nothing: cylinders are generated incrementally in the
    mode's order and pruned by per-cylinder free counts, the seek lower
    bound, the hoisted per-cylinder move cost, and a rotational lower
    bound; the best block of a track comes from the freemap's free
    bitset in O(words), not from a fold over all blocks.  The platter
    phase is computed twice per cylinder (same surface, head switch),
    not once per track, and the freemap's rotational index narrows the
    head-switch tracks to those free at the first free angle at or
    after that phase (and at the angle just below it, which float
    rounding can make look due now).  Pure: does not advance the clock,
    move the head, or touch allocator state.  Allocates nothing but its [Some]
    result, and neither does {!choose} when it fills the active track. *)

val best_in_track : t -> lead_time:float -> int -> (float * int) option
(** Cheapest (cost, block) among the free blocks of one track, or [None]
    if it has none; the indexed evaluation behind both {!search} and the
    empty-track fill path. *)

(** The original O(cylinders x tracks x blocks) search kept verbatim as
    an equivalence oracle: for any allocator state, [Reference.search]
    and {!search} (and the two [best_in_track]s) must agree exactly —
    same block, same cost floats, same tie-breaks.  Property-tested; not
    on any hot path. *)
module Reference : sig
  val search : t -> exclude_tracks:(int -> bool) -> lead_time:float -> int option
  val best_in_track : t -> lead_time:float -> int -> (float * int) option
end

val active_track : t -> int option
(** The empty track currently being filled, if any. *)

val with_exclusion : t -> (int -> bool) -> (unit -> 'a) -> 'a
(** [with_exclusion t masked f] runs [f] with [masked] tracks excluded
    from every allocation made inside, including allocations by code that
    does not pass [exclude_tracks] itself (the compactor wraps a whole
    track relocation, map-node writes included, this way). *)

val with_soft_exclusion : t -> (int -> bool) -> (unit -> 'a) -> 'a
(** Like {!with_exclusion}, but allocations fall back to ignoring the
    mask when honoring it would leave no free block.  The compactor masks
    the empty-track supply this way: map-node writes should not consume
    freshly emptied tracks, yet must not fail when those are the only
    space left. *)

val note_empty_track : t -> int -> unit
(** The compactor reports a freshly emptied track. *)

val rescan_empty_tracks : t -> unit
(** Rebuild the empty-track list from the freemap (used after formatting
    or recovery). *)

val empty_track_count : t -> int
