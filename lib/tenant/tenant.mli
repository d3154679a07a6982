(** Sharded multi-tenant load on the volume layer.

    [n] client streams (tenants) each offer an open-loop Poisson stream
    of small writes to one shared namespace.  A namespace hash maps
    every request onto one of [s] independent volume shards — each shard
    its own clock, spindles and {!Volume.t} — so the shard simulations
    share no state and run one after another.  Every disk command a request scatters carries its tenant as the
    queue [owner] tag, so the drives' trace sinks accumulate per-tenant
    latency histograms ({!Trace.pp_summary} renders them as a fairness
    table), while the driver records exact per-request wall latencies at
    the host for the merged fairness report. *)

type config = {
  shards : int;  (** independent volume shards *)
  ops_per_tenant : int;
}
(** Every study runs 4 tenants, each offering 150 requests/s, against
    128-block shards mirrored over two VLD legs, all seeded from one
    fixed seed. *)

type op = {
  o_tenant : int;
  o_at : float;  (** arrival (ms) *)
  o_block : int;  (** shard-local logical block *)
}

val plan : config -> op list array
(** The deterministic schedule: per shard, that shard's requests sorted
    by arrival.  Tenant streams are Poisson; the shard of each request
    is the namespace hash of (tenant, request index). *)

type tenant_stats = {
  tenant : int;
  ops : int;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  tput_iops : float;
      (** completed requests over the tenant's active span *)
}

type fairness = {
  p99_ratio : float;  (** max/min of the tenants' p99 latency *)
  tput_ratio : float;  (** max/min of the tenants' throughput *)
}

type result = {
  per_tenant : tenant_stats list;  (** by tenant id *)
  fairness : fairness;
  elapsed_ms : float;  (** slowest shard's simulated span *)
  total_ops : int;
  agg_iops : float;
}

val run_shard :
  ?trace:bool ->
  shard:int ->
  op list ->
  (int * float * float) list * Trace.sink
(** Simulate one shard: build its volume, replay its schedule in arrival
    order (each request's disk commands tagged with its tenant), and
    return [(tenant, arrival, latency)] per request.  With
    [~trace:true] one live sink (stamped by the shard's clock) is shared
    by all the shard's spindles and returned — it holds the per-tenant
    queue histograms {!Trace.pp_summary} renders as a fairness table;
    otherwise the returned sink is {!Trace.null}. *)

val run : config -> result
(** The full study: {!plan}, simulate every shard, merge and
    summarize.  Deterministic in [config]. *)
