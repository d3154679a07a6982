(** Shared experiment plumbing: scales, the one builder of every paper
    rig, and the paper's constant parameters. *)

type scale = Quick | Full
(** [Quick] shrinks trial counts so the whole suite smoke-tests in
    seconds; [Full] uses paper-like sizes. *)

val seagate : Disk.Profile.t
val hp : Disk.Profile.t

val default_host : Host.t
(** SPARCstation-10: the paper's default platform. *)

val buffered_vlfs : Vlfs.config
(** VLFS with its write buffer: [sync_writes = false]. *)

val rig :
  ?seed:int64 ->
  ?profile:Disk.Profile.t ->
  ?host:Host.t ->
  ?trace:bool ->
  ?lfs:Lfs.config ->
  ?vlfs:Vlfs.config ->
  Workload.Rig.t ->
  Workload.Rig.stack * Vlog_util.Prng.t
(** A fresh stack on its own clock (default: the simulated Seagate slice,
    the SPARC host, seed [0x5EED]), and the generator the workload
    drivers split theirs from.  A VLD gets the whole exportable disk
    ({!Blockdev.Vld.export_blocks}) and a generator split from that one
    first.  UFS runs synchronously; LFS and VLFS take [lfs]/[vlfs]
    (default: each one's [default_config], which for LFS is the paper's
    6.1 MB NVRAM buffer).  [trace] (default [false]) records every layer
    on the stack's clock; read the sink with [Disk.Disk_sim.trace] on
    any of its drives. *)

val the_four : (string * Workload.Rig.t) list
(** The four configurations of Figure 5, labeled as in the paper:
    UFS/regular, UFS/VLD, LFS/regular, LFS/VLD. *)

val file_mb_for_utilization : Workload.Rig.stack -> float -> float
(** File size whose data blocks bring the stack's disk to roughly the
    given utilization. *)
