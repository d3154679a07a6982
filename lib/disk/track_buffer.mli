(** Track-buffer read-ahead model.

    After servicing a read, the drive keeps reading the rest of the track
    into its buffer for free (the head is there anyway).  Two retention
    policies are modeled, matching Section 4.2 of the paper:

    - {!policy} [Forward_discard]: the Dartmouth behaviour — keep sectors
      from the start of the current request through the read-ahead point,
      discard data at lower addresses.  Right for monotonically increasing
      sequential reads, but purges prematurely under a VLD, whose
      logical-to-physical translation breaks monotonicity.
    - {!policy} [Whole_track]: the paper's VLD fix — prefetch the entire
      track once the head reaches it and retain it until replaced. *)

type policy = Forward_discard | Whole_track

type t

val create : policy -> t
(** The drive's buffer holds two tracks under [Whole_track];
    [Forward_discard] keeps one range. *)

val policy : t -> policy

val hit : t -> track_index:int -> sector:int -> sectors:int -> bool
(** Is the whole range buffered? *)

val note_read : t -> track_index:int -> sector:int -> sectors_per_track:int -> unit
(** Record buffer contents after a mechanical read starting at [sector]:
    under [Forward_discard] the buffered range becomes
    [\[sector, sectors_per_track)] of that track; under [Whole_track] the
    full track enters the slot set (LRU eviction). *)

val invalidate_track : t -> track_index:int -> unit
(** A write to the track makes buffered contents stale. *)

val clear : t -> unit
