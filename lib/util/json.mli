(** JSON values and the one printer every machine-readable output uses.

    The trace exporter ([Trace.to_jsonl]) and the bench run records
    ([bench --json]) build a {!t} and print it here, so escaping and
    float formatting are defined once. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** keys are printed in list order *)

val to_string : t -> string
(** Compact rendering: no whitespace between tokens.  Floats print as
    the shortest decimal that round-trips ([float_of_string] of the
    printed value returns the original float); integral floats keep a
    [.0].  Non-finite floats print as [null].  Strings escape the
    double quote, the backslash and every control character. *)
