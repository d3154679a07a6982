(** Figure 2: average latency to locate free sectors, for all writes
    performed into initially empty tracks, as a function of the
    track-switch threshold (the fraction of free sectors reserved per
    track before switching).  Model (13) against simulation, both
    disks. *)

type point = {
  threshold_pct : float;
  model_ms : float;
  simulated_ms : float;
}

val series : scale:Rigs.scale -> Disk.Profile.t -> point list
val run : scale:Rigs.scale -> unit -> Vlog_util.Table.t
