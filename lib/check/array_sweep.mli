(** Whole-drive fault sweep over the {e queued} array data path.

    {!Fs_sweep} proves the file-system stacks recover from crashes and
    media damage; this sweep aims lower and wider: it drives a
    {!Volume} — per-leg tagged command queues, batch scatter/gather,
    background rebuild — with windows of outstanding commands while a
    whole-drive fault plan (death, hang, flaky, latent range) fires {e
    mid-flight}, then judges the result three ways:

    - {!Volume_check.check}: surviving mirror legs agree byte-for-byte;
    - the durability {!Oracle} over a block-per-file model of the
      volume ([Redundant] mode when the shape tolerates the fault,
      [Lax] when honest loss is the correct answer);
    - a crash/remount through {!Workload.Rig.recover_volume}, asserting that losing
      data is {e reported} (a failed recover or erroring reads), never
      silent.

    Each cell is [(array shape, fault, queue depth, trigger phase)]:
    depth is the window of commands in flight when the fault fires, and
    the phase picks the moment — mid-batch, mid-drain of the native
    host queue, or mid-rebuild (fault on the resilver's {e source}
    leg).  Double-death cells kill both legs of one mirror group and
    require the sweep to see honest data loss — a cell that reads
    everything back cleanly after losing both copies is a {e failure}. *)

type fault =
  | F_drive of Fault.Plan.kind  (** one whole-drive plan on one victim leg *)
  | F_double_death
      (** both legs of one mirror group die in quick succession: the
          second death lands while the first one's rebuild is still
          running.  Only meaningful on [A_raid10]; the cell {e requires}
          honest data loss *)

type phase =
  | P_batch  (** fault fires inside [write_batch]/[read_batch] windows *)
  | P_drain  (** fault fires while the native host queue drains *)
  | P_rebuild
      (** a leg is administratively killed and resilvering when the
          fault fires on the rebuild's source peer ([A_raid10] only) *)

type config = {
  seed : int64;
  rounds : int;  (** write+read rounds per cell *)
  faults : fault list;
  depths : int list;  (** commands per window (queue depth driven) *)
}
(** Every configuration sweeps the three arrays (the two stripes at 2
    spindles, [raid10] at 2 x 2 with a hot spare) and all three phases,
    over a 48-block volume on 3-cylinder st19101 legs. *)

val default : config
(** The full matrix: {stripe-vld, stripe-regular, raid10} x
    {death, hang:40, flaky:3, latent:16, double-death} x depth
    {1, 4, 16} x {mid-batch, mid-drain, mid-rebuild}, minus the cells
    that need mirrors (rebuild and double-death on stripes); seed 9203. *)

val smoke : config
(** CI-sized slice: depth 4 only, no latent cells. *)

type cell = {
  array : Workload.Rig.array_kind;
  fault : fault;
  depth : int;  (** commands per window *)
  phase : phase;
  case : int;  (** position in the matrix; picks victims and triggers *)
}

val sweep : (config, cell) Cells.sweep
(** One cell: format the volume, prefill every block, install the fault
    per [phase], run [rounds] windows of [depth] writes then [depth]
    reads, settle, judge (volume fsck + oracle + loss honesty), then
    freeze, recover the volume on fresh drives and judge again.  The
    verdict is ["ok"], ["data-loss"] (honestly reported) or ["failed"].

    Coordinates [array,seed,fault,depth,phase,case]; tallies
    ["faults injected"] (cells whose plans fired), ["honest data losses"],
    ["recoveries"] (crash/remounts that came back [Ok]) and
    ["oracle checks"]. *)
