(** Open-loop arrival processes.

    The paper's workloads are closed loops: one request at a time, the
    next issued when the last completes, so the drive never sees a
    queue.  An open-loop process instead fixes the {e offered load} —
    requests arrive on their own schedule whether or not earlier ones
    have finished — which is what exposes queueing behaviour: at low
    load the queue is empty, near saturation the wait explodes, and the
    in-drive scheduler's reordering gain shows up as extra sustainable
    throughput.

    Timestamps are simulated milliseconds.  Generation is pure and
    deterministic from the PRNG; it neither reads nor advances the
    clock. *)

type process =
  | Poisson
      (** memoryless: exponential interarrivals at the offered rate *)
  | Bursty of { burst : int; spread_ms : float }
      (** arrivals come in bursts of [burst] requests whose starts are
          Poisson at [rate / burst] (so the offered load matches), each
          burst's requests spread uniformly over [spread_ms] *)

val arrivals :
  prng:Vlog_util.Prng.t ->
  process:process ->
  rate_per_s:float ->
  start:float ->
  int ->
  float list
(** [arrivals ~prng ~process ~rate_per_s ~start n] is [n] arrival
    timestamps (ms), sorted non-decreasing, beginning at or after
    [start], with long-run rate [rate_per_s] requests per simulated
    second. *)
