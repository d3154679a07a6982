(** Ablation benches for the design choices DESIGN.md calls out. *)

val block_size : scale:Rigs.scale -> unit -> Vlog_util.Table.t
(** Formula (9) validation: expected locate cost of writing a 4 KB
    logical block using physical allocation units of 1-8 sectors, model
    vs simulation.  Lowest when the physical unit matches the logical
    block. *)

val map_batching : scale:Rigs.scale -> unit -> Vlog_util.Table.t
(** Cost of the paper's one-map-sector-per-update design vs an idealized
    lower bound that never writes map sectors at all (an upper bound on
    what batched map entries with GC could save). *)
