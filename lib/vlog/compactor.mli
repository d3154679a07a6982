(** Free-space compactor (Sections 2.3 and 4.2).

    During idle periods the disk processor empties tracks by hole-plugging:
    it picks a target track, reads its live blocks, eager-writes them into
    holes in other (partially filled) tracks, and hands the emptied track
    to the allocator's empty-track list.  Unlike the LFS cleaner it moves
    data at small granularity, so it profits from short idle intervals —
    the property Figure 11 measures.

    Targets are chosen randomly among eligible tracks, as in the paper. *)

type t

type run_stats = {
  tracks_emptied : int;
  blocks_moved : int;
  map_nodes_moved : int;
  ms_used : float;
}

val create : vlog:Virtual_log.t -> prng:Vlog_util.Prng.t -> unit -> t

val run : t -> deadline:float -> run_stats
(** Compact until the next block move would not finish before the
    absolute simulated time [deadline], or until no eligible target
    remains.  Never advances the clock past [deadline].  A target
    interrupted mid-track is resumed by the next call. *)

val total : t -> run_stats
(** Cumulative statistics over all runs. *)
