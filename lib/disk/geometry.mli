(** Disk geometry and address arithmetic.

    The simulator models a single density zone (as the paper's simulator
    does): every track holds the same number of sectors.  Physical
    addresses exist in two forms: a flat logical block address ([lba],
    counting sectors from zero) and the cylinder/track/sector triple the
    mechanical model works in. *)

type t = {
  sector_bytes : int;         (** bytes per sector (512 in all profiles) *)
  sectors_per_track : int;
  tracks_per_cylinder : int;  (** = number of recording surfaces *)
  cylinders : int;
}

type addr = { cyl : int; track : int; sector : int }

val v :
  sector_bytes:int ->
  sectors_per_track:int ->
  tracks_per_cylinder:int ->
  cylinders:int ->
  t
(** Validates that every component is positive. *)

val total_sectors : t -> int
val total_tracks : t -> int
val capacity_bytes : t -> int

val sectors_per_cylinder : t -> int

val addr_of_lba : t -> int -> addr
(** Raises [Invalid_argument] if the lba is out of range. *)

val lba_of_addr : t -> addr -> int

val track_index : t -> addr -> int
(** Global track index: [cyl * tracks_per_cylinder + track]; used for
    track-skew computation. *)

val valid_lba : t -> int -> bool

