(** The 16-spindle array study ([bench -- array]).

    Aggregate small-write IOPS for three array organisations —
    striped-VLD ([svld]), striped regular legs ([sreg]) and
    striped-mirrors over VLD legs ([raid10]) — across spindle counts
    {1,2,4,8,16} and per-spindle queue depths {1,4,16}, driven closed
    loop: every round scatters [depth] random single-block writes per
    group arriving at the previous round's completion, so each leg's
    tagged queue holds a full window for its policy (SATF on VLD legs)
    to reorder.

    One companion study rides along: foreground p99 under rebuild
    (healthy vs. throttled background resilver vs. the blocking cursor
    sweep, with a stated p99 budget).  The fault-under-load curves
    ({!run_fault_mode}) are a separate experiment, [array-faults]. *)

type cell = { rig : Workload.Rig.array_kind; spindles : int; depth : int }

val cell_label : cell -> string

val cells : scale:Rigs.scale -> cell list
(** The study grid.  [Quick] shrinks it to spindles {1,2,4} × depths
    {1,4}; [raid10] rows exist only for even spindle counts. *)

type cell_result = {
  c_cell : cell;
  c_iops : float;  (** aggregate small-write IOPS over the whole run *)
  c_n : int;  (** logical writes completed *)
  c_mean_ms : float;
  c_p50_ms : float;
  c_p99_ms : float;
  c_max_ms : float;  (** per-command latencies from the legs' queues *)
}

type rebuild_row = {
  rb_mode : string;  (** ["healthy"] | ["throttled"] | ["blocking"] *)
  rb_n : int;
  rb_mean_ms : float;
  rb_p99_ms : float;
  rb_progress : int;  (** resilver cursor at the end of the run *)
  rb_completed : bool;
}

type fault_row = {
  fr_mode : string;  (** ["healthy"] | ["one-dead"] | ["rebuild-flaky"] *)
  fr_n : int;  (** logical writes completed *)
  fr_failed : int;  (** writes that reported a structured per-tag error *)
  fr_iops : float;
  fr_mean_ms : float;
  fr_p50_ms : float;
  fr_p99_ms : float;
  fr_max_ms : float;
  fr_rebuilt : bool;  (** rebuild-flaky: resilver finished during the run *)
}

val run_cell : ?seed:int -> scale:Rigs.scale -> cell -> cell_result

val run_fault_mode :
  ?seed:int ->
  scale:Rigs.scale ->
  [ `Healthy | `One_dead | `Rebuild_flaky ] ->
  fault_row
(** One degraded-mode service state of the fault-under-load study
    ([bench -- array-faults]): closed-loop small writes on a
    4-spindle raid10 with every leg healthy, one leg dead with no
    spare, or a resilver pumped in idle windows while the surviving
    source runs flaky bursts. *)

type part = Cell of cell_result | Rebuild of rebuild_row

val jobs : ?seed:int -> scale:Rigs.scale -> unit -> (string * (unit -> part)) list
(** The study as {!Suite} jobs: one per grid cell and one per rebuild
    mode.  Labels are the cell label and [rebuild/<mode>]. *)

val report : part list -> string * Vlog_util.Json.t
(** Merge the finished {!jobs}: the IOPS table plus the scalability and
    rebuild summaries, and the JSON object with keys [cells],
    [scalability] (with the ≥8× criterion) and [rebuild] (modes and the
    budget verdict). *)

val fault_modes : [ `Healthy | `One_dead | `Rebuild_flaky ] list
val fault_mode_label : [ `Healthy | `One_dead | `Rebuild_flaky ] -> string

val fault_report : fault_row list -> string * Vlog_util.Json.t
(** The fault-under-load section and [{"depth": ..., "modes": [...]}]. *)
