(** The bench suite as a deterministic parallel job plan.

    Decomposes each experiment into independent jobs — one per figure
    for monolithic experiments, one per cell for the big grids (fig8's
    utilization sweep, fig10/fig11's idle grids, the [qdepth], [array],
    [array-faults] and [nvm] studies) — runs the flat job list through
    {!Par.map}, and merges results in presentation order.  Output is
    byte-identical for every [jobs] value; only the wall-clock changes. *)

type timing = {
  t_name : string;  (** experiment CLI name *)
  t_output : string;  (** rendered tables, exactly as the sequential bench prints *)
  t_wall_s : float;
      (** parent-side span: first of its jobs dispatched → last finished *)
  t_elapsed_s : float;  (** summed in-worker compute seconds of its jobs *)
  t_sim_ms : float;  (** summed simulated-clock delta of its jobs *)
  t_result : Vlog_util.Json.t;
      (** the experiment's machine-readable result: fig8's per-cell
          latency percentiles, the studies' cells and verdicts; [Null]
          for table-only experiments and on failure.  [bench --json]
          writes it as the run record's [result]. *)
  t_failures : string list;
      (** worker crash/timeout/exception messages with job labels; empty
          on success.  When non-empty, [t_output] is a placeholder. *)
}

val names : string list
(** Every experiment the suite knows, in canonical run order. *)

val run :
  ?jobs:int ->
  ?timeout_s:float ->
  ?progress:(completed:int -> total:int -> label:string -> unit) ->
  ?seed:int ->
  scale:Rigs.scale ->
  names:string list ->
  unit ->
  timing list
(** [run ~jobs ~scale ~names ()] executes the named experiments and
    returns one {!timing} per name, in input order.  [progress] fires in
    the parent as each job completes (completion order).  [seed]
    (default 0) salts the seeded studies ([qdepth], [array],
    [array-faults], [nvm]); the paper's figures ignore it.  Raises
    [Invalid_argument] on an unknown name. *)
