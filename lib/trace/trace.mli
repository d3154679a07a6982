(** Tracing and metrics for the simulator: hierarchical spans, monotonic
    counters and log-scale latency histograms, with a JSONL exporter and
    a text flamegraph/summary renderer.

    All timestamps are simulated-clock milliseconds, so tracing never
    perturbs what it measures: a sink records time but never advances
    the {!Vlog_util.Clock.t}.  The {!null} sink makes every operation a
    no-op behind a single pattern match, so instrumented code costs
    nothing when tracing is off.

    {2 Span discipline}

    Spans nest like function calls: {!enter} pushes a frame, {!exit}
    pops it.  The sink keeps the stack itself — the simulation is
    single-threaded and synchronous, so the innermost open span is
    always the parent of the next one entered.  {!exit} is resilient to
    exceptions that unwind past open spans: exiting a span implicitly
    closes any deeper spans still open (each with the sum of its own
    children), and exiting a span that is no longer on the stack is
    ignored.

    {2 Exactness invariant}

    When a span is exited without an explicit breakdown it records the
    {e chronological left-fold} of its children's breakdowns — the same
    order in which instrumented code folds costs with
    [Breakdown.add].  Code that exits a span with an explicitly
    accumulated breakdown maintains the invariant that the parent's
    breakdown equals that fold of its children {e exactly} (float
    equality, not tolerance), which the trace test suite checks for
    every span in a workload. *)

type sink
type span = int

type span_record = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  start_ms : float;
  end_ms : float;
  bd : Vlog_util.Breakdown.t;
  child_sum : Vlog_util.Breakdown.t;
      (** chronological left-fold of the {e accounted} children's [bd]s *)
  n_children : int;  (** accounted children only *)
  unaccounted : bool;
      (** the enclosing operation deliberately does not bill this span's
          cost (e.g. a forced cleaner run on the write path): it appears
          in the tree but is excluded from the parent's child fold *)
  attrs : (string * string) list;
}

val null : sink
(** The disabled sink: every operation is a no-op. *)

val create : clock:Vlog_util.Clock.t -> unit -> sink
(** A recording sink stamping events with [clock]'s simulated time. *)

val enabled : sink -> bool

val enter :
  sink -> ?attrs:(string * string) list -> ?unaccounted:bool -> string -> span
(** Open a span as a child of the innermost open span.  Returns
    {!Vlog_util.Io.no_span} on the null sink.  [~unaccounted:true] marks
    a span whose cost the enclosing operation does not fold into the
    breakdown it returns (see {!span_record.unaccounted}). *)

val exit : sink -> ?bd:Vlog_util.Breakdown.t -> span -> unit
(** Close the span (implicitly closing any deeper spans still open).
    Without [?bd] the span records the fold of its children's
    breakdowns; leaf spans and spans whose code accumulates its own
    breakdown pass it explicitly.  The span's duration is observed in
    the histogram named after it. *)

val group :
  sink -> ?attrs:(string * string) list -> ?unaccounted:bool -> string ->
  (unit -> Vlog_util.Breakdown.t) -> Vlog_util.Breakdown.t
(** [group sink name f] runs [f] inside a span and exits it with the
    breakdown [f] returns.  Use it around any helper whose returned
    breakdown is a {e fold of several device operations}: the caller
    then adds a single child subtotal to its own accumulator, in the
    same grouping the sink folds, preserving the exactness invariant
    ([Breakdown.add] is not associative in floats).  On the null sink
    this is just [f ()].  If [f] raises, the span is closed with its
    child sum before the exception propagates. *)

val op :
  sink -> ?attrs:(string * string) list -> string ->
  bd_of:('a -> Vlog_util.Breakdown.t) ->
  (unit -> ('a, 'e) result) -> ('a, 'e) result
(** [op sink name ~bd_of f] wraps a result-returning operation in a
    span.  On [Ok v] the span exits with [bd_of v] (the breakdown the
    operation reports to its caller); on [Error _] or an exception it
    exits with its child sum. *)

val incr : sink -> ?by:int -> string -> unit
(** Bump a monotonic counter. *)

val counter : sink -> string -> int
val counters : sink -> (string * int) list
(** All counters, sorted by name. *)

val spans : sink -> span_record list
(** Recorded spans, in exit order. *)

(** Log-scale latency histogram: geometric buckets with ~5 % relative
    precision, plus exact count/sum/min/max. *)
module Histogram : sig
  type t

  val create : unit -> t
  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val min_value : t -> float
  val max_value : t -> float

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [0, 100]: the representative value of
      the bucket holding the [p]-th percentile observation, clamped to
      the exact observed min/max.  [0.] when empty. *)
end

val observe : sink -> string -> float -> unit
(** Record a value in the named histogram (spans do this automatically
    for their duration on exit). *)

val histogram : sink -> string -> Histogram.t option

val to_jsonl : sink -> string
(** The whole trace as JSON Lines: one [meta] line, then every span (in
    exit order), every counter and every histogram as its own event.
    Floats are printed shortest-round-trip, so parsing the values back
    reproduces the simulated times exactly. *)

val pp_summary : Format.formatter -> sink -> unit
(** Metrics summary: per-span-name latency table (count, mean, p50,
    p90, p99, max) and the counters. *)

val pp_flamegraph : Format.formatter -> sink -> unit
(** Text flamegraph: spans aggregated by name-path, indented by depth,
    with inclusive time, call count and self ("other-attributed")
    time. *)
