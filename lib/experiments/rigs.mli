(** Shared experiment plumbing: scales, standard rig constructors, and
    the paper's constant parameters. *)

type scale = Quick | Full
(** [Quick] shrinks trial counts so the whole suite smoke-tests in
    seconds; [Full] uses paper-like sizes. *)

val nvram_blocks : int
(** The paper's 6.1 MB write buffer in 4 KB blocks. *)

val seagate : Disk.Profile.t
val hp : Disk.Profile.t

val default_host : Host.t
(** SPARCstation-10: the paper's default platform. *)

val rig :
  ?seed:int64 ->
  ?profile:Disk.Profile.t ->
  ?host:Host.t ->
  fs:Workload.Setup.fs_choice ->
  dev:Workload.Setup.dev_choice ->
  unit ->
  Workload.Setup.t
(** A rig on the (default) simulated Seagate slice with the SPARC host. *)

val the_four :
  ?seed:int64 -> unit -> (string * Workload.Setup.t) list
(** The four configurations of Figure 5, labeled as in the paper:
    UFS/regular, UFS/VLD, LFS/regular, LFS/VLD. *)

val file_mb_for_utilization : Workload.Setup.t -> float -> float
(** File size whose data blocks bring the rig's disk to roughly the given
    utilization. *)
