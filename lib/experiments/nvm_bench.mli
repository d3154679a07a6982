(** The NVM staging-tier study ([bench -- nvm]).

    Sync-small-write latency and burst-absorption curves across four
    rigs — plain VLD (UFS, every write pays the disk), NVRAM-LFS (the
    paper's 6.1 MB write buffer: durability deferred to the buffer
    flush), and the NVM write-ahead staging tier over a regular disk
    and over a VLD — crossed with burst sizes and destager duty cycles.
    Each cell runs bursts of synchronous 4 KB writes with an idle gap
    after each (where the destager runs inside its [destage_util]
    budget), then a sustained-overload phase with no idle at all, where
    a full log makes every append pay the disk cost it was hiding.

    The acceptance criteria ride along in the report: at burst sizes that
    fit the log, the staged-VLD rig's sync-write latency must be at
    least 10x below plain VLD's, and its sustained-overload throughput
    within 1.25x of plain VLD's. *)

type cell = { rig : Workload.Rig.t; burst : int; destage_util : float }
(** One of the four rigs — ["ufs/vld"], ["lfs/regular"],
    ["ufs/nvm-regular"], ["ufs/nvm-vld"] — at one burst size and duty
    cycle. *)

val cell_label : cell -> string
(** [rig/burst/util] with the rig's printed label (["vld"],
    ["nvram-lfs"], ["nvm-ufs"], ["nvm-vld"]), e.g. ["nvm-vld/64/1.00"]. *)

type row = {
  r_cell : cell;
  n_sync : int;  (** measured synchronous writes *)
  sync_mean_ms : float;
  sync_p50_ms : float;
  sync_p99_ms : float;
  sync_max_ms : float;
  burst_fit : bool;  (** one whole burst's records fit the NVM log *)
  burst_mean_ms : float;  (** mean simulated time to absorb one burst *)
  overload_ops_s : float;  (** sustained back-to-back throughput *)
}

type criteria = {
  latency_ratio : float;
      (** min over fitting burst sizes of plain-VLD mean latency over
          staged-VLD mean latency, at the highest duty cycle *)
  latency_ok : bool;  (** [latency_ratio >= 10.] *)
  overload_ratio : float;
      (** plain-VLD overload throughput over staged-VLD's *)
  overload_ok : bool;  (** [overload_ratio <= 1.25] *)
}

val cells : scale:Rigs.scale -> cell list
(** The rig x burst x duty-cycle matrix; unstaged rigs carry a single
    duty-cycle slot (the knob means nothing to them). *)

val run_cell : ?seed:int -> scale:Rigs.scale -> cell -> row
(** One cell: warmup, [rounds] bursts with their idle gaps, then the
    overload phase.  [seed] (default 0) salts the cell's PRNG seeds. *)

val report : scale:Rigs.scale -> row list -> string * Vlog_util.Json.t
(** The rows (in {!cells} order) with their {!criteria}: the rendered
    table plus a [criteria:] verdict line, and the JSON object
    [{"cells": [...], "criteria": {...}}]. *)
