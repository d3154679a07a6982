(** 64-bit FNV-1a checksums.

    Used by the virtual log to validate the landing-zone tail record and to
    "cryptographically sign" map sectors so the full-scan recovery fallback
    can recognize them.  FNV-1a is obviously not a cryptographic hash; it
    stands in for one here exactly as the simulated disk stands in for
    hardware — the recovery logic only needs a detector for corrupt or
    foreign sectors. *)

type t = int64

val empty : t
(** The FNV-1a offset basis. *)

val add_bytes : t -> Bytes.t -> t

val add_sub_bytes : t -> Bytes.t -> pos:int -> len:int -> t
(** [add_bytes] over [buf.(pos .. pos+len-1)] without copying the slice. *)

val add_words : t -> Bytes.t -> pos:int -> len:int -> t
(** FNV-1a over the same region consumed as little-endian 64-bit words
    (any trailing bytes one at a time) — a {e different} checksum from
    {!add_sub_bytes}, one multiply per word instead of per byte.  The
    block codecs digest 4 KB bodies with this.  Any single corrupted
    word is still detected deterministically: each step is a bijection
    of the accumulator for fixed input, so states that diverge once
    never reconverge on an identical suffix.

    Words are read little-endian on every host, so the digest depends
    only on the bytes.  The range is checked once, up front; the loads
    inside are unchecked, and the hash stays in an unboxed local, so a
    call allocates only its boxed result.
    @raise Invalid_argument if the region is not inside [buf]. *)

val seal : Bytes.t -> pos:int -> len:int -> unit
(** [seal buf ~pos ~len] stores [add_words empty buf ~pos ~len],
    little-endian, in the 8 bytes at [pos + len].  Allocates nothing.
    @raise Invalid_argument if the region or its seal slot is not inside
    [buf]. *)

val sealed : Bytes.t -> pos:int -> len:int -> bool
(** [sealed buf ~pos ~len] is [true] iff the 8 bytes at [pos + len] hold
    the seal {!seal} would store there.  Allocates nothing.
    @raise Invalid_argument as {!seal}. *)

val add_string : t -> string -> t
val add_int : t -> int -> t
val add_int64 : t -> int64 -> t

val bytes : Bytes.t -> t
(** One-shot digest of a byte buffer. *)

val string : string -> t

val to_hex : t -> string
