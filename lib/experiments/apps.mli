(** Application-level comparison across all five systems: the database
    (TPC-B-style) and mail-spool (Postmark-style) workloads of
    {!Workload.App_workloads}, on UFS/regular, UFS/VLD, LFS, and VLFS in
    both modes.  The end-to-end view a downstream adopter cares about. *)

val run : scale:Rigs.scale -> unit -> Vlog_util.Table.t
