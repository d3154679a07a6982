(** Systematic crash/fault sweep over the VLD, as a {!Cells} sweep.

    Generalizes the crash-point sweep: for every (fault kind × trigger
    boundary × tail mode) cell, run a seeded workload against a fresh
    VLD with a {!Fault.Plan} installed, freeze the platters at the crash (or
    at the end), bring up a new drive from the frozen image, recover,
    and check the durability invariants:

    - recovery never aborts — damaged map nodes are skipped and scanned
      around, not fatal;
    - no committed write is lost and no ghost appears, except that a
      fault which damages the {e only} copy of map state (bit rot of a
      map node) may regress the affected node's entries to an older
      committed version — never to fabricated contents, and never more
      entries than one node holds;
    - no read silently returns corrupt data: a block whose media was
      damaged reads back as an honest error, everything else reads back
      exactly as committed;
    - recovery is idempotent: crashing again immediately after recovery
      and recovering a second time reproduces the same logical state. *)

type config = {
  seed : int64;  (** master seed; every scenario derives from it *)
  triggers : int;  (** boundaries swept per kind: faults at accesses [0..triggers-1] *)
  kinds : Fault.Plan.kind list;
}
(** Every cell runs 20 writes and trims over the first 48 blocks of a
    300-block VLD (forcing overwrites) on a 3-cylinder st19101, once
    without and once with a power-down that writes the tail record
    before the freeze. *)

val default : config
(** 5 kinds × 22 triggers × 2 tail modes = 220 scenarios, of which
    comfortably over 200 actually inject their fault (a trigger can
    fall past the end of a short recovery's read sequence). *)

val smoke : config
(** Test-sized: torn writes and power cuts at three triggers, both tail
    modes — 12 cells. *)

type cell = {
  kind : Fault.Plan.kind;
  trigger : int;  (** the fault arms after this many accesses *)
  with_tail : bool;
  case : int;  (** position in the matrix; perturbs the workload seed *)
}

val sweep : (config, cell) Cells.sweep
(** Coordinates [seed,kind,trigger,tail,case], e.g.
    ["seed=7101,kind=torn,trigger=5,tail=true,case=37"]; tallies
    ["faults injected"] (cells whose fault fired), ["power cuts"]
    (workloads ended by simulated power loss) and ["degraded recoveries"]
    (recoveries that had to skip damaged map nodes). *)
