(** One face over a mounted file system: UFS, LFS or the integrated
    VLFS, whichever Figure 5 rig built it.  Operations return the file
    system's own result; a benchmark that treats an error as a
    configuration bug projects it through {!exn}. *)

type t = Ufs of Ufs.t | Lfs of Lfs.t | Vlfs of Vlfs.t

type 'a r = ('a, Blockdev.Fs_error.t) result

val exn : 'a r -> 'a
(** The benchmarks' projection of a result: raises [Failure "file system
    error: ..."] on an error — in a benchmark an error is a
    configuration bug. *)

val create : t -> string -> Vlog_util.Breakdown.t r
val write : t -> string -> off:int -> Bytes.t -> Vlog_util.Breakdown.t r
val read : t -> string -> off:int -> len:int -> (Bytes.t * Vlog_util.Breakdown.t) r
val delete : t -> string -> Vlog_util.Breakdown.t r
val sync : t -> Vlog_util.Breakdown.t

val shutdown : t -> unit
(** A clean stop: UFS syncs; LFS and VLFS power down (flush the buffer
    and write a checkpoint). *)

val idle : t -> clock:Vlog_util.Clock.t -> float -> unit
(** Grant an idle window of the given length and advance [clock] to its
    end.  LFS cleans and background-flushes first and hands whatever time
    remains to its device; VLFS compacts in-drive; UFS hands the whole
    window to its device (a VLD compacts). *)

val drop_caches : t -> unit
val files : t -> string list
val size : t -> string -> int r
val mode : t -> [ `Rw | `Degraded of string ]
val block_bytes : t -> int

val utilization : t -> float
(** The [df] number. *)

val sync_each : t -> bool
(** Every operation that returns is durable: UFS [sync_data], VLFS
    [sync_writes]; never for LFS, whose buffer flushes on [sync]. *)
