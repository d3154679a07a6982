(** Figures 10 and 11: foreground latency per 4 KB block as a function
    of the idle-interval length between bursts of random updates, one
    curve per burst size, at 80 % disk utilization.  One experiment, two
    studies:

    - [Lfs_nvram] (Figure 10): LFS with its NVRAM buffer on the regular
      disk; the cleaner and the buffer flushes work the gaps, so latency
      improves in segment-sized steps.
    - [Ufs_vld] (Figure 11): UFS on the VLD; the compactor works the
      gaps, so latency improves along a continuum of much shorter idle
      intervals. *)

type study = Lfs_nvram | Ufs_vld

type point = { idle_s : float; latency_ms : float }
type curve = { burst_kb : int; points : point list }

type cell = { c_burst_kb : int; c_idle_s : float }
(** One independent (burst size × idle interval) measurement; cells
    share no state and run in any order. *)

val cells : scale:Rigs.scale -> study -> cell list
(** The study's grid in presentation order (burst-size-major). *)

val cell_label : cell -> string
val run_cell : scale:Rigs.scale -> study -> cell -> point

val collate : (cell * point) list -> curve list
(** Regroup per-cell results (in {!cells} order) into curves. *)

val series : scale:Rigs.scale -> study -> curve list
val table_of : study -> curve list -> Vlog_util.Table.t
