(** Rig specs and the one builder behind every drive, volume and
    file-system stack.

    A spec names a file system and what it runs on — ["ufs/vld"],
    ["lfs/regular"], ["vlfs/direct"], ["ufs/mirror-vld"],
    ["ufs/nvm-vld"] — and {!format} / {!recover} turn it into a live
    stack: fresh drives, the logical device, the mounted file system.
    Rigs without a file system take their drives and volumes from
    {!drive}, {!volume} and {!recover_volume}, as the stacks do.  Sizes
    come in as values; the caller owns the clock and the PRNG (and so
    its own split order). *)

type fs_kind = F_ufs | F_lfs | F_vlfs

type vol_layout = V_stripe | V_mirror | V_raid10
(** Canonical small volume shapes: 2-group stripe, 2-way mirror,
    2 x 2 stripe of mirrors. *)

type vol_leg = VL_regular | VL_vld

type wal_backing = W_regular | W_vld
(** What an NVM-WAL rig's destager drains into. *)

type dev_kind =
  | D_vld
  | D_regular
  | D_direct  (** VLFS on the platters: the file system is the firmware *)
  | D_volume of vol_layout * vol_leg
      (** the file system runs on a {!Volume} over several drives *)
  | D_nvm of wal_backing
      (** an {!Nvm.Nvm_wal} staging tier fronts the logical disk: writes
          commit at the NVM persist barrier, a destager drains them to
          the backing device, and remount replays the NVM log first *)

type t = { fs : fs_kind; on : dev_kind }

val fs_name : fs_kind -> string
val dev_name : dev_kind -> string

val to_string : t -> string
(** ["ufs/vld"], ["vlfs/direct"], ["ufs/mirror-vld"], ["ufs/nvm-vld"], ... *)

val of_string : string -> (t, string) result
(** The inverse of {!to_string}, refusing every stack the builder cannot
    build: UFS and LFS need a logical disk, VLFS runs only directly on
    the platters. *)

(** {1 Drives and volumes}

    Every drive gets the track buffer of the device above it (Section
    4.2): whole-track read-ahead under a VLD, a VLD leg or VLFS,
    forward-discard under a regular disk. *)

val drive :
  ?trace:Trace.sink ->
  ?store:Disk.Sector_store.t ->
  profile:Disk.Profile.t ->
  clock:Vlog_util.Clock.t ->
  dev_kind ->
  Disk.Disk_sim.t
(** A drive for the device [dev_kind] puts on it (an NVM rig's backing
    device, a volume's legs); [store] supplies its platters. *)

val volume :
  ?trace:Trace.sink ->
  ?spare:bool ->
  profile:Disk.Profile.t ->
  clock:Vlog_util.Clock.t ->
  layout:Volume.layout ->
  leg_kind:Volume.leg_kind ->
  logical_blocks:int ->
  prng:Vlog_util.Prng.t ->
  unit ->
  Volume.t
(** A fresh volume over fresh drives.  [spare] (default [true]) supplies
    hot spares, so a dead leg starts rebuilding on its own. *)

val recover_volume :
  ?spare:bool ->
  ?arm:(Disk.Disk_sim.t -> unit) ->
  profile:Disk.Profile.t ->
  clock:Vlog_util.Clock.t ->
  layout:Volume.layout ->
  leg_kind:Volume.leg_kind ->
  logical_blocks:int ->
  prng:Vlog_util.Prng.t ->
  Disk.Sector_store.t array ->
  (Volume.t * Volume.recovery_report, string) result
(** A volume recovered from drives over the frozen platters, in leg
    order; [arm] sees each drive before any recovery I/O. *)

type array_kind = A_svld | A_sreg | A_raid10
(** The array study's and array sweep's shapes: a stripe of VLD legs, a
    stripe of regular legs, a stripe of 2-way VLD mirrors. *)

val array_to_string : array_kind -> string
val array_of_string : string -> (array_kind, string) result

val array_shape : array_kind -> spindles:int -> Volume.layout * Volume.leg_kind
(** The shape over [spindles] drives. *)

(** {1 File-system stacks} *)

val small_ufs : Ufs.config
(** The small synchronous UFS of the crash sweep and the NVM study: 64
    inodes, 64 cache blocks, 2-block read-ahead. *)

(** A built stack. *)
type stack = {
  fs : Fs.t;
  dev : Blockdev.Device.t;
      (** what the file system runs on; for VLFS a capacity stand-in
          over its drive, through which no I/O flows *)
  disks : Disk.Disk_sim.t array;  (** the drives, in leg order *)
  vld : Blockdev.Vld.t option;  (** the single-drive VLD, if any *)
  volume : Volume.t option;
  wal : Nvm.Nvm_wal.t option;
  nvm : Nvm.Nvm_sim.t option;
  notes : (string * int) list;
      (** what the mount repaired or dropped (orphans cleared, dangling
          entries dropped, inodes skipped); empty after {!format} *)
  clock : Vlog_util.Clock.t;  (** the clock every layer of the stack runs on *)
}

val format :
  ?host:Host.t ->
  ?trace:Trace.sink ->
  ?spare_blocks:int ->
  ?ufs:Ufs.config ->
  ?lfs:Lfs.config ->
  ?vlfs:Vlfs.config ->
  ?wal:Nvm.Nvm_wal.config ->
  profile:Disk.Profile.t ->
  logical_blocks:int ->
  clock:Vlog_util.Clock.t ->
  prng:Vlog_util.Prng.t ->
  t ->
  stack
(** Fresh drives, then the device (a VLD of [logical_blocks], a regular
    disk hiding [spare_blocks] remap spares, a volume, or an NVM-WAL
    over either single-drive device), then a freshly formatted file
    system.  Only the device draws from [prng] (a VLD or a volume).
    Drives and volumes come from {!drive} and {!volume}.  The file-system
    configs default to each file system's [default_config], [host] to
    {!Host.free}.  Raises [Invalid_argument] on a spec {!of_string}
    refuses. *)

type frozen = { stores : Disk.Sector_store.t array; nvm_image : Bytes.t option }
(** Both failure domains of a powered-off stack: every drive's platters
    (in leg order) and the NVM's persisted image. *)

val freeze : stack -> frozen
(** Snapshot the stack as it stands (a volume's current legs). *)

val recover :
  ?spare_blocks:int ->
  ?arm:(Disk.Disk_sim.t -> unit) ->
  ?ufs:Ufs.config ->
  ?lfs:Lfs.config ->
  ?vlfs:Vlfs.config ->
  ?wal:Nvm.Nvm_wal.config ->
  profile:Disk.Profile.t ->
  logical_blocks:int ->
  clock:Vlog_util.Clock.t ->
  prng:Vlog_util.Prng.t ->
  t ->
  frozen ->
  (stack, string) result
(** Drives over the frozen platters ([arm] sees each before any recovery
    I/O), then the device's own recovery (a VLD's map, a volume's
    resync, finished before the mount; an NVM log replayed onto its
    backing device), then the file system's mount with {!Host.free}.
    The sizes must be the ones the stack was formatted with.  [Error]
    names the layer that refused. *)
