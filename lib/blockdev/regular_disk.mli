(** Conventional update-in-place logical disk: logical block [i] lives at
    physical block [i], forever.  The baseline every experiment compares
    the VLD against. *)

type t

val create : ?spare_blocks:int -> disk:Disk.Disk_sim.t -> unit -> t
(** 4 KB (8-sector) blocks.  [spare_blocks] (default 0) reserves
    that many blocks at the end of the disk as a spare pool, hidden from
    the logical space: grown write defects are remapped onto it, the way
    drive firmware handles bad sectors. *)

val disk : t -> Disk.Disk_sim.t
val device : t -> Device.t


val written : t -> int -> bool
(** Whether the logical block was ever written.  A volume rebuild skips
    never-written source blocks instead of copying zeroes. *)

val read_result : t -> int -> (Bytes.t * Vlog_util.Io.completion, Device.io_error) result
(** Defect-tolerant read: transient errors are retried (bounded), remapped
    blocks are fetched from their spare.  [Error] means the data is gone.
    The completion reports a ["retries"] counter when retries happened. *)

val write_result : t -> int -> Bytes.t -> (Vlog_util.Io.completion, Device.io_error) result
(** Defect-tolerant write: transient errors are retried; a grown defect
    retires the block's physical home and remaps it to a spare.  [Error]
    means the spare pool is exhausted.  The completion reports
    ["retries"] and ["remaps"] counters when either happened. *)

val read_run_result :
  t -> int -> int -> (Bytes.t * Vlog_util.Io.completion, Device.io_error) result
(** Multi-block read: one streamed disk command when the range is clean,
    per-block fallback when remapped or faulty. *)

val write_run_result :
  t -> int -> Bytes.t -> (Vlog_util.Io.completion, Device.io_error) result
(** Multi-block write, same streaming/fallback policy as
    {!read_run_result}. *)

val remapped_blocks : t -> int
(** Entries in the grown-defect list. *)

val spares_left : t -> int
