(** The one error type all three file systems ([Ufs], [Lfs], [Vlfs])
    return, instead of three near-identical per-module variants.

    [`Io] carries the structured {!Device.io_error} — op, logical
    block, failing lba, retry count — so callers can see exactly what
    the media refused.  The operation that returned it had no effect
    beyond the time spent; no file system ever returns corrupt bytes. *)

type t =
  [ `No_space
  | `No_inodes
  | `Not_found of string
  | `Exists of string
  | `Bad_name of string
  | `Bad_offset
  | `Read_only
  | `Io of Device.io_error ]

val pp : Format.formatter -> t -> unit
