(** The sweep harness: one cell matrix, one failure type, one repro codec
    and one outcome for every crash/fault sweep.

    A sweep is a {e generator} plus a {e judge}.  The generator lists the
    cells of a configuration in canonical order; the harness numbers them
    (the [case] coordinate is the 1-based position), so a cell's seed is
    a function of its coordinates and never of which cells ran before it
    — the property that lets {!run} fan cells out across worker processes
    and still merge a byte-identical outcome.  The judge runs one cell
    and reports its tallies and verdict; anything it finds wrong it
    records with {!failf}, and the harness stamps the failure with the
    cell's coordinates.

    Coordinates print as ordered [key=value] pairs joined by commas, e.g.
    ["seed=7101,kind=torn,trigger=5,tail=true,case=37"]: the [--repro]
    vocabulary.  {!parse_repro} is strict — every field needs a [=], every
    key must be one the sweep declares, no key may repeat, and every key
    but [seed] must be present.  An omitted [seed] means "the
    configuration's". *)

type log
(** The failures one judged cell has recorded so far. *)

val failf : log -> ('a, unit, string, unit) format4 -> 'a
(** Record one invariant violation of the cell being judged. *)

val failed : log -> bool
(** Whether the cell has recorded any failure yet. *)

type judgement = {
  tallies : int list;  (** one count per {!sweep.tallies} label, same order *)
  verdict : string;
      (** the cell's verdict when it recorded no failure (["ok"],
          ["data-loss"], ...); a cell with failures is ["failed"] *)
}

type ('config, 'cell) sweep = {
  keys : string list;  (** coordinate keys, in print order *)
  coords : 'config -> 'cell -> string list;
      (** the cell's coordinate values, aligned with [keys] *)
  cell_of : (string -> string) -> ('cell, string) result;
      (** inverse of [coords]: rebuild a cell from its values by key
          (every key but ["seed"] is guaranteed present) *)
  with_seed : 'config -> int64 -> 'config;
  cells : 'config -> (int -> 'cell) list;
      (** the generator: one cell per entry, in canonical order, each
          waiting for its [case] number *)
  tallies : string list;  (** labels of the judge's counts, in report order *)
  judge : 'config -> 'cell -> log -> judgement;
}

type failure = {
  coords : (string * string) list;  (** the failing cell's [key=value] pairs *)
  message : string;
}

val repro_of_failure : failure -> string
(** The copy-pasteable [--repro] argument naming the failing cell. *)

val pp_failure : Format.formatter -> failure -> unit
(** ["<message> (--repro <spec>)"]. *)

type outcome = {
  cells : int;  (** cells judged *)
  tallies : (string * int) list;  (** the sweep's labelled counts, in its order *)
  verdicts : (string * string) list;
      (** per cell, in matrix order: (printed coordinates, verdict) *)
  failures : failure list;  (** in matrix order; empty on success *)
}

val merge : outcome -> outcome -> outcome

val tally : outcome -> string -> int
(** The count under one label; [0] for a label the sweep does not keep. *)

val cells : ('config, 'cell) sweep -> 'config -> 'cell list
(** The numbered matrix: the generator's cells with [case] = position. *)

val parse_repro :
  ('config, 'cell) sweep -> 'config -> string -> ('config * 'cell, string) result
(** Strict inverse of {!repro_of_failure}: the cell, and the configuration
    with the spec's seed (if any) applied. *)

val judge : ('config, 'cell) sweep -> 'config -> 'cell -> outcome
(** Judge one cell in the calling process. *)

val repro : ('config, 'cell) sweep -> 'config -> string -> (outcome, string) result
(** Parse a [--repro] spec and judge exactly that cell in process. *)

val run :
  ?jobs:int -> ?timeout_s:float -> ('config, 'cell) sweep -> 'config -> outcome
(** Judge the whole matrix through {!Par.map} on [jobs] workers (default
    [1]: in-process, no fork) and merge the per-cell outcomes in matrix
    order — identical for every [jobs] value.  A cell whose worker
    crashes, raises, or exceeds [timeout_s] (default 300 s, enforced only
    when [jobs > 1]) comes back as a ["failed"] cell carrying one
    structured {!failure} with its coordinates instead of killing the
    sweep. *)

(** {1 Coordinate values} *)

val int_value : string -> string -> (int, string) result
(** [int_value key v] parses a non-negative integer coordinate. *)

val bool_value : string -> string -> (bool, string) result
