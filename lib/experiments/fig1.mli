(** Figure 1: average time to locate a free sector as a function of the
    free-space percentage — the single-cylinder analytical model (2)
    against a simulation of greedy eager writing, for both disks. *)

type point = {
  free_pct : float;
  model_ms : float;
  simulated_ms : float;
}

val series : scale:Rigs.scale -> Disk.Profile.t -> point list
val run : scale:Rigs.scale -> unit -> Vlog_util.Table.t
