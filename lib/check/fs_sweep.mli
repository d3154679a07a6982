(** File-system-level crash/fault sweep: the {!Vld_sweep} idea lifted
    one layer up.  Each cell runs a seeded metadata-heavy workload on a
    full stack (file system x logical-disk layer) with a fault plan
    installed, freezes the platters, remounts on fresh drives, and
    judges the result with the per-FS fsck checker, the durability
    {!Oracle}, and a remount-idempotence comparison. *)

type config = {
  seed : int64;
  triggers : int list;            (** I/O counts after which the fault arms *)
  kinds : Fault.Plan.kind list;
  rigs : Workload.Rig.t list;
      (** the single-spindle stacks: UFS and LFS on both the virtual log
          disk and a plain disk, VLFS directly on the drive *)
  vol_triggers : int list;
  vol_kinds : Fault.Plan.kind list;
  vol_rigs : Workload.Rig.t list;
      (** the volume slice of the matrix: its own (rig x kind x trigger)
          product, where the plan lands on one victim leg and whole-drive
          kinds ([death], [hang], [flaky], [latent]) become meaningful *)
  wal_triggers : int list;
  wal_kinds : Fault.Plan.kind list;
  wal_rigs : Workload.Rig.t list;
      (** the NVM-WAL slice: staged rigs judged at the staging tier's
          persistence boundary by the [Nvm_*] kinds (cut before the
          persist barrier, torn NVM record, crash mid-destage, power cut
          under NVM-full backpressure) *)
}

val default : config
(** The full matrix: 161 single-spindle scenarios (5 rigs x 5 kinds x 7
    triggers, minus the regular-disk grown-defect cells, whose remap
    table is volatile and so have nothing to assert) plus 84 volume
    scenarios (4 mirrored rigs x 7 kinds x 3 triggers) plus 32 NVM-WAL
    scenarios (2 staged rigs x 4 NVM kinds x 4 triggers). *)

val smoke : config
(** CI-sized: torn writes only, two triggers, one rig per file system,
    plus two mirrored-volume drive-death cells and four NVM-WAL cells
    (torn NVM record and crash mid-destage on the staged-VLD rig). *)

type cell = {
  rig : Workload.Rig.t;
  kind : Fault.Plan.kind;
  trigger : int;  (** I/O count after which the fault arms *)
  case : int;  (** position in the matrix; perturbs the scenario seed *)
}

val sweep : (config, cell) Cells.sweep
(** One cell: workload under fault, freeze, remount, fsck (plus the
    volume checker on volume rigs), oracle, idempotence.  The workload
    is 30 operations on a 3-cylinder st19101 whose VLD exports 300
    logical blocks.  Every rig runs
    the same judging pipeline on a stack {!Workload.Rig} formats,
    freezes and recovers; a rig only says where the plan strikes, how a
    clean shutdown parks it, which fsck findings its media may honestly
    show, and which oracle mode applies.

    Coordinates [rig,seed,kind,trigger,case]; tallies ["faults injected"],
    ["power cuts"], ["degraded recoveries"] (remounts that came up
    read-only) and ["oracle checks"]. *)

val degraded_demo : Workload.Rig.fs_kind -> (unit, string) result
(** Seeded corruption of one live inode's sole metadata copy on an
    otherwise healthy image; checks the remount comes up [`Degraded],
    refuses writes with [`Read_only], and still serves unaffected
    reads. *)

(** {1 Image generation and offline fsck (vlsim mkimage / vlsim fsck)} *)

type corruption = C_none | C_dangling | C_checksum | C_rot

val corruption_of_string : string -> (corruption, string) result

val make_image :
  fs:Workload.Rig.fs_kind ->
  corrupt:corruption ->
  (Image.header * Disk.Sector_store.t, string) result
(** A small healthy file system image, optionally with file "b"'s sole
    metadata copy damaged the requested way. *)

type fsck_result = {
  fr_header : Image.header;
  fr_mode : [ `Rw | `Degraded of string ];
  fr_report : Report.t;
  fr_notes : (string * int) list;  (** recovery counters from the mount *)
}

val fsck_image : Image.header -> Disk.Sector_store.t -> (fsck_result, string) result
(** Rebuild the stack named by the header around the platters, mount it,
    run the invariant checker, and fold what the mount itself had to
    drop or repair into the report's findings. *)
