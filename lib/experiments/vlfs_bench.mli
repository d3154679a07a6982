(** Testing the paper's VLFS speculation (Section 5.1): "by integrating
    LFS with the virtual log, the VLFS should approximate the
    performance of UFS on the VLD when we must write synchronously,
    while retaining the benefits of LFS when asynchronous buffering is
    acceptable."  The paper could not run this experiment — it never
    implemented VLFS; we did. *)

val sync_updates : scale:Rigs.scale -> unit -> Vlog_util.Table.t
(** Random 4 KB synchronous updates at 50 % and 80 % utilization:
    UFS/regular vs UFS/VLD vs VLFS (synchronous mode). *)

val buffered_small_files : scale:Rigs.scale -> unit -> Vlog_util.Table.t
(** The Figure 6 small-file workload under write buffering: LFS vs
    VLFS (buffered mode). *)

val recovery_cost : scale:Rigs.scale -> unit -> Vlog_util.Table.t
(** VLFS recovery time after a clean power-down (tail record) and after
    a crash (scan fallback), for a populated file system. *)
