(** Small statistics toolkit for experiment reporting. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0. on lists shorter than 2. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,1\]], nearest-rank on the sorted
    list.  Raises [Invalid_argument] on the empty list. *)

val summarize : float list -> summary
(** Full summary. Raises [Invalid_argument] on the empty list. *)

val pp_summary : Format.formatter -> summary -> unit

(** Online mean/variance accumulator (Welford). *)
module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val n : t -> int
  val mean : t -> float
  val stddev : t -> float
  val total : t -> float
end
