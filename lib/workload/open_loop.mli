(** Open-loop Poisson arrivals.

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

val arrivals :
  prng:Vlog_util.Prng.t -> rate_per_s:float -> start:float -> int -> float list
(** [arrivals ~prng ~rate_per_s ~start n] is [n] Poisson arrival
    timestamps (ms): exponential interarrivals at [rate_per_s] requests
    per simulated second, sorted non-decreasing, beginning at or after
    [start]. *)
