(** Figure 8: latency of random small synchronous updates as a function
    of disk utilization.  Three systems: UFS on the regular disk, UFS on
    the VLD, and LFS (regular disk) with its 6.1 MB buffer treated as
    NVRAM.  One fresh rig per point, sized by the file being updated. *)

type point = {
  file_mb : float;
  utilization : float;
  latency_ms : float;
  p50_ms : float;  (** per-update wall-latency percentiles, observed in a *)
  p99_ms : float;  (** log-scale {!Trace.Histogram} during the measurement *)
}

type series = { label : string; points : point list }

type cell = { c_system : int;  (** index into the three systems *) c_file_mb : float }
(** One independent measurement of the (system × file size) grid.  A
    cell builds its rig from a constant seed, never from state another
    cell advanced, so cells run in any order — {!Suite} fans them out as
    parallel sub-jobs. *)

val cells : scale:Rigs.scale -> cell list
(** The grid in presentation order (system-major). *)

val cell_label : cell -> string

val run_cell : scale:Rigs.scale -> cell -> point option
(** [None] when the point is infeasible on that system (LFS cannot hold
    files near the raw device size). *)

val collate : (cell * point option) list -> series list
(** Regroup per-cell results (in {!cells} order) into the per-system
    series {!table_of} renders. *)

val table_of : series list -> Vlog_util.Table.t

val series : scale:Rigs.scale -> unit -> series list
