(** Byte-addressed backing store for the simulated platters (the analogue
    of the paper's 24 MB kernel ramdisk).

    The store holds the raw contents of every sector and tracks which
    sectors have ever been written, which lets recovery code distinguish
    "never written" from "holds stale bytes" the way a real scan would
    (via checksums) without paying for one in every test. *)

type t

val create : Geometry.t -> t

val geometry : t -> Geometry.t

val write : t -> lba:int -> Bytes.t -> unit
(** [write t ~lba buf] stores [buf] starting at sector [lba].  [buf] must
    be a whole number of sectors and fit in the store. *)

val read : t -> lba:int -> sectors:int -> Bytes.t
(** Fresh buffer with the contents of [sectors] sectors from [lba].
    Never-written sectors read as zeroes. *)

val read_into : t -> lba:int -> sectors:int -> Bytes.t -> pos:int -> unit
(** Like {!read}, but into [buf] from byte [pos] on; every byte of the
    [sectors * sector_bytes] range is overwritten. *)

val written : t -> lba:int -> bool
(** Whether sector [lba] has ever been written. *)

val corrupt : t -> lba:int -> sectors:int -> Vlog_util.Prng.t -> unit
(** Overwrite the given range with random bytes — fault injection for
    recovery tests (models a torn multi-sector write).  The garbage was
    physically written by the head, so the per-sector media ECC is valid:
    only content-level checks (magic, checksum) can reject it. *)

val rot : t -> lba:int -> sectors:int -> Vlog_util.Prng.t -> unit
(** Silent media decay: flip one random bit in each sector of the range
    {e without} refreshing its ECC.  The drive detects the mismatch on the
    next read of the sector ({!ecc_error}); until then nothing notices. *)

val ecc_error : t -> lba:int -> sectors:int -> int option
(** First sector in the range whose ECC no longer matches its data
    (i.e. it has {!rot}ted since it was last written), if any. *)

val snapshot : t -> t
(** Deep copy; used by crash tests to freeze the platter state at the
    moment of a simulated power failure. *)

val save : t -> string -> unit
(** Serialize the store (geometry, written/rotten maps, touched tracks)
    to a file, for [vlsim fsck --image] and friends. *)

val load : string -> t
(** Inverse of {!save}.  Raises [Failure] on a malformed image. *)
