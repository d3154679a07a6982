(** Experiment rigs: the four file-system/disk combinations of Figure 5
    (plus VLFS), built through {!Rig} and driven through the one {!Fs}
    face, so benchmark drivers are agnostic to what they drive. *)

type fs_choice =
  | UFS of { sync_data : bool }
  | LFS of { buffer_blocks : int }
      (** [buffer_blocks] is the write buffer ("NVRAM") size in 4 KB
          blocks; the paper uses 6.1 MB = 1561 blocks. *)
  | VLFS of { sync_writes : bool }
      (** the Section 3.3 file system, integrated with the drive; the
          [dev] choice is ignored (VLFS {e is} the disk firmware) *)

type dev_choice = Regular | VLD

type t = {
  label : string;  (** ["UFS/vld"], ["LFS/regular"], ["VLFS"], ["VLFS/buffered"] *)
  clock : Vlog_util.Clock.t;
  disk : Disk.Disk_sim.t;
  dev : Blockdev.Device.t;
      (** the logical disk; for VLFS a capacity stand-in over its drive *)
  fs : Fs.t;
  vld : Blockdev.Vld.t option;
  prng : Vlog_util.Prng.t;
}

val exn : ('a, Blockdev.Fs_error.t) result -> 'a
(** The benchmarks' projection of {!Fs} results: raises [Failure
    "file system error: ..."] on an error — in a benchmark an error is a
    configuration bug. *)

val make :
  ?seed:int64 ->
  ?cylinders:int ->
  ?vld_eager_mode:Vlog.Eager.mode ->
  ?vld_compaction:Vlog.Compactor.target_policy ->
  ?trace:bool ->
  profile:Disk.Profile.t ->
  host:Host.t ->
  fs:fs_choice ->
  dev:dev_choice ->
  unit ->
  t
(** Build a fresh rig.  [cylinders] overrides the simulated slice size
    (default: the profile's own — the paper's 24 MB); the [vld_*]
    parameters select allocator / compactor policy variants for the
    ablation benches.  [trace] (default [false]) attaches a recording
    {!Trace} sink to the rig's clock and threads it through every layer;
    retrieve it with {!trace}. *)

val trace : t -> Trace.sink
(** The rig's trace sink ({!Trace.null} unless [make ~trace:true]). *)

val elapsed : t -> (unit -> 'a) -> 'a * float
(** Run a closure and report the simulated milliseconds it consumed. *)
