(** Table 2 and Figure 9: the update-in-place vs virtual-log gap across
    technology generations, and the latency breakdown behind it.

    The Figure 8 benchmark is repeated at 80 % utilization on three
    platforms — (HP97560, SPARCstation-10), (ST19101, SPARCstation-10),
    (ST19101, UltraSPARC-170) — with the VLD measured right after a
    compactor pass, as in the paper. *)

type platform = { name : string; profile : Disk.Profile.t; host : Host.t }

val platforms : platform list

type row = {
  platform : string;
  regular : Workload.Random_update.result;
  vld : Workload.Random_update.result;
  speedup : float;
}

val series : scale:Rigs.scale -> unit -> row list

val table2_of : row list -> Vlog_util.Table.t
(** Render precomputed rows; with {!fig9_of}, one measurement feeds both
    tables. *)

val fig9_of : row list -> Vlog_util.Table.t
(** Per-platform percentage breakdown (SCSI / locate / transfer / other)
    for the update-in-place (left bar) and virtual-log (right bar)
    systems. *)
