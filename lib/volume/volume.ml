(* Multi-disk volume manager: N simulated spindles behind the one
   [Device.t] record the file systems already run on.

   A volume is k stripe groups of m mirror legs each ([Stripe] is k x 1,
   [Mirror] is 1 x m, [Stripe_of_mirrors] is k x m).  Logical block [b]
   lives at group [b mod k], group-block [b / k]; each leg is a complete
   logical disk of its own — a [Regular_disk] or a [Vld], so eager
   writing composes per-spindle, every leg keeping its own head-local
   free pool.

   Robustness model:
   - reads fail over across mirror legs; writes that cannot reach a leg
     record the block in that leg's dirty-region log (DRL) and succeed as
     long as one leg took the data;
   - a failing leg goes [Suspect] and is left alone for a backoff window;
     a later access probes it — success drains its DRL from a peer and
     revives it, [probes_to_kill] consecutive failures retire it;
   - a per-operation time budget bounds how long a hung leg can stall
     the volume: once one leg has the data, legs that would push the
     operation past [timeout_ms] are skipped (and DRL'd) instead;
   - a retired leg is resilvered onto a hot-spare drive in the background
     ([Rebuilding] cursor sweep + DRL for writes landing behind it) while
     foreground I/O continues;
   - [recover] brings every leg back from its platters and then resyncs
     mirror groups: writes go to legs in index order, so the lowest live
     leg is always newest and the group converges to its content.

   Data path: each leg owns a tagged command queue ([Disk.Disk_queue],
   SATF on VLD legs, FIFO on regular legs) and a local timeline cursor
   [busy_until].  A volume operation scatters commands to its legs at an
   arrival instant and services each leg inside its own time window —
   the shared clock is warped to [max at busy_until], the leg's queue
   drains, and the finish becomes the leg's new [busy_until].  Windows
   of different legs overlap in simulated time (spindles are
   independent), so a mirror write completes at the slowest leg's ack
   (max, not sum) and a stripe fans reads and writes across spindles
   concurrently.  Rebuild copies ride the same queues as low-priority
   background tags, throttled to [rebuild_util] of a spindle's time.
   Admin paths (probe, resync, settle) stay sequential on the shared
   clock. *)

open Vlog_util

type layout =
  | Stripe of int
  | Mirror of int
  | Stripe_of_mirrors of int * int

type leg_kind = Regular_leg | Vld_leg

type policy = {
  timeout_ms : float;  (** per-operation budget once one leg has the data *)
  backoff_ms : float;  (** how long a [Suspect] leg is left alone *)
  probes_to_kill : int;  (** consecutive probe failures that retire a leg *)
  rebuild_util : float;
      (** fraction of a spindle's time background rebuild may hold
          (duty cycle); 1.0 = unthrottled *)
}

let policy =
  { timeout_ms = 50.; backoff_ms = 200.; probes_to_kill = 2; rebuild_util = 0.5 }

let layout_shape = function
  | Stripe k ->
    if k < 1 then invalid_arg "Volume: stripe needs at least 1 leg";
    (k, 1)
  | Mirror m ->
    if m < 2 then invalid_arg "Volume: mirror needs at least 2 legs";
    (1, m)
  | Stripe_of_mirrors (k, m) ->
    if k < 1 || m < 2 then
      invalid_arg "Volume: stripe of mirrors needs k >= 1 groups of m >= 2 legs";
    (k, m)

let n_legs layout =
  let k, m = layout_shape layout in
  k * m

let layout_to_string = function
  | Stripe k -> Printf.sprintf "stripe:%d" k
  | Mirror m -> Printf.sprintf "mirror:%d" m
  | Stripe_of_mirrors (k, m) -> Printf.sprintf "raid10:%dx%d" k m

type leg_impl = Vld of Blockdev.Vld.t | Reg of Blockdev.Regular_disk.t

type leg = {
  idx : int;  (* flat leg index (group * copies + copy); keys per-batch tables *)
  mutable impl : leg_impl;
  mutable disk : Disk.Disk_sim.t;
  mutable q : Disk.Disk_queue.t;  (* the leg's tagged command queue *)
  mutable busy_until : float;  (* local timeline: end of the last window *)
  mutable gen : int;  (* bumped when the leg is killed or swapped *)
  mutable state : [ `Healthy | `Suspect | `Dead | `Rebuilding ];
  mutable cursor : int; (* rebuild sweep position, meaningful while `Rebuilding *)
  mutable copy_cost : float;
  (* last observed full cost of one background rebuild copy (service +
     throttle idle); the pump's estimate for not overrunning a window *)
  drl : (int, unit) Hashtbl.t; (* group-blocks this leg does not have yet *)
  mutable failed_probes : int;
  mutable retry_after : float; (* Suspect: do not touch before this time *)
}

type t = {
  layout : layout;
  leg_kind : leg_kind;
  logical_blocks : int;
  group_blocks : int;
  block_bytes : int;
  groups : leg array array;
  clock : Clock.t;
  trace : Trace.sink;
  prng : Prng.t;
  mutable spare : (unit -> Disk.Disk_sim.t) option;
  mutable host_next : int;  (* next host-level request tag *)
  mutable host_q : (int * float * Blockdev.Device.req) list;
      (* pending host requests (tag, arrival, request), reversed *)
  mutable host_done : (int * Blockdev.Device.ack) list;  (* reversed *)
}

let queue_policy = function
  | Vld_leg -> Disk.Disk_queue.Satf
  | Regular_leg -> Disk.Disk_queue.Fifo

let leg_spare_blocks = 8

let format_leg ~leg_kind ~group_blocks ~prng disk =
  match leg_kind with
  | Vld_leg ->
    Vld (Blockdev.Vld.create ~disk ~logical_blocks:group_blocks ~prng ())
  | Regular_leg ->
    Reg (Blockdev.Regular_disk.create ~disk ~spare_blocks:leg_spare_blocks ())

let leg_block_bytes leg =
  match leg.impl with
  | Vld v -> Vlog.Virtual_log.block_bytes (Blockdev.Vld.vlog v)
  | Reg r -> (Blockdev.Regular_disk.device r).Blockdev.Device.block_bytes

(* ---- Leg primitives ---- *)

let synth_err op gb = { Blockdev.Device.op; block = gb; error_lba = 0; retries = 0 }

let leg_read leg gb =
  match leg.impl with
  | Vld v -> Blockdev.Vld.read_result v gb
  | Reg r -> Blockdev.Regular_disk.read_result r gb

(* A wedged VLD leg (allocation reserve exhausted, persistent map-write
   failures) raises [Failure]; the volume degrades the leg instead of
   crashing.  [Power_cut] still propagates — power is volume-wide. *)
let leg_write leg gb buf =
  match
    match leg.impl with
    | Vld v -> Blockdev.Vld.write_result v gb buf
    | Reg r -> Blockdev.Regular_disk.write_result r gb buf
  with
  | r -> r
  | exception Failure _ -> Error (synth_err `Write gb)

let leg_trim leg gb =
  match leg.impl with
  | Reg _ -> ()
  | Vld v -> (
    let vl = Blockdev.Vld.vlog v in
    match Vlog.Virtual_log.lookup vl gb with
    | None -> ()
    | Some _ -> (
      try ignore (Vlog.Virtual_log.update vl [ (gb, None) ])
      with Failure _ -> ()))

(* Whether the leg provably holds nothing at [gb].  Only a VLD's answer
   is persistent (the indirection map survives remount); a regular leg's
   written bitmap is volatile, so it must never be used to skip blocks
   after a crash — callers copy everything instead. *)
let leg_skip_unmapped leg =
  match leg.impl with Vld _ -> true | Reg _ -> false

let leg_mapped leg gb =
  match leg.impl with
  | Vld v -> Vlog.Virtual_log.lookup (Blockdev.Vld.vlog v) gb <> None
  | Reg r -> Blockdev.Regular_disk.written r gb

let leg_utilization leg =
  match leg.impl with
  | Vld v -> Vlog.Freemap.utilization (Vlog.Virtual_log.freemap (Blockdev.Vld.vlog v))
  | Reg r -> (Blockdev.Regular_disk.device r).Blockdev.Device.utilization ()

(* A probe must touch the media (a VLD answers unmapped reads from its
   in-memory map), so read one raw sector — lba 0 always exists. *)
let probe_leg t leg =
  Trace.incr t.trace "vol.probes";
  match Disk.Disk_sim.read_checked ~scsi:true leg.disk ~lba:0 ~sectors:1 with
  | Ok _, _ -> true
  | Error _, _ -> false

(* ---- Concurrent leg engine ----

   The shared clock is one timeline, but the spindles are independent:
   to overlap them, every leg keeps [busy_until] — the end of the last
   window in which it serviced commands.  [run_leg] warps the clock to
   [max at busy_until], drains the leg's queue there (the drive
   mechanics advance the clock as usual), and records the finish.  The
   caller gathers completions and warps the clock to the operation's
   completion instant — the latest awaited leg. *)

let run_leg t leg ~at =
  Clock.warp t.clock (Float.max at leg.busy_until);
  let cs = Disk.Disk_queue.drain leg.q in
  leg.busy_until <- Clock.now t.clock;
  cs

(* (leg idx, tag) -> completion, for one scatter/gather batch *)
type ctbl = (int * int, Disk.Disk_queue.completion) Hashtbl.t

let run_legs t legs ~at : ctbl =
  let tbl : ctbl = Hashtbl.create 16 in
  List.iter
    (fun leg ->
      List.iter
        (fun (tag, c) -> Hashtbl.replace tbl (leg.idx, tag) c)
        (run_leg t leg ~at))
    legs;
  tbl

let dedup_legs legs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun leg ->
      if Hashtbl.mem seen leg.idx then false
      else begin
        Hashtbl.add seen leg.idx ();
        true
      end)
    legs

(* Pure mechanical previews for the leg queue's scheduler (SATF cost,
   elevator cylinder).  A VLD read prices the mapped physical location;
   a VLD write is eager — it lands near the head wherever that is, as
   does an unmapped VLD read (answered from the in-memory map, no
   seek).  A regular leg's remaps are rare; its home location is near
   enough to price. *)

let leg_spb t leg =
  t.block_bytes / (Disk.Disk_sim.geometry leg.disk).Disk.Geometry.sector_bytes

let target_lba t leg gb ~write =
  match leg.impl with
  | Vld _ when write -> None
  | Vld v -> (
    match Vlog.Virtual_log.lookup (Blockdev.Vld.vlog v) gb with
    | Some pba -> Some (pba * leg_spb t leg)
    | None -> None)
  | Reg _ -> Some (gb * leg_spb t leg)

let target_cost t leg = function
  | None -> 0.
  | Some lba -> Disk.Disk_sim.estimate_access leg.disk ~lba ~sectors:(leg_spb t leg)

let target_cylinder leg = function
  | None -> Disk.Disk_sim.current_cylinder leg.disk
  | Some lba ->
    (Disk.Geometry.addr_of_lba (Disk.Disk_sim.geometry leg.disk) lba).Disk.Geometry.cyl

(* Classify a leg failure for the queue's in-flight policy: while the
   drive reports itself hanging or flaky the error is transient — the
   queue stalls or retries the tag within its budget — whereas a dead
   drive (or plain media damage) fails the tag at once so the gather can
   fail over.  The health probe is the fault plan's, installed by
   [Fault.Plan.install]; an unprobed disk always reads [Ok_drive]. *)
let media_err leg (e : Blockdev.Device.io_error) =
  let transient =
    match Disk.Disk_sim.health leg.disk with
    | Disk.Disk_sim.Hung _ | Disk.Disk_sim.Flaky_drive -> true
    | Disk.Disk_sim.Ok_drive | Disk.Disk_sim.Dead_drive -> false
  in
  { Disk.Disk_sim.error_lba = e.Blockdev.Device.error_lba; transient }

(* Every leg queue gets the same in-flight failure machinery: the stall
   probe follows the drive's health (one hung tag parks behind the hang
   deadline instead of completing failed), flaky-drive transients retry
   with seeded backoff, and both are capped by the volume's per-op
   budget so no tag outlives [timeout_ms] of stalling. *)
let leg_queue ~leg_kind ~prng disk =
  Disk.Disk_queue.create ~policy:(queue_policy leg_kind)
    ~stall_probe:(fun () ->
      match Disk.Disk_sim.health disk with
      | Disk.Disk_sim.Hung until -> Some until
      | _ -> None)
    ~retry_backoff:(policy.timeout_ms /. 8.)
    ~retry_jitter:prng ~stall_budget_ms:policy.timeout_ms ~disk ()

(* One submitted leg command within a scatter. *)
type sub = {
  s_leg : leg;
  s_gen : int;  (* leg generation at submit; a swap orphans the sub *)
  s_suspect : bool;  (* leg was [`Suspect] at dispatch *)
  s_tag : int;
  s_err : Blockdev.Device.io_error option ref;
}

let failed_service leg err e =
  err := Some e;
  (Disk.Disk_queue.Failed (media_err leg e), Breakdown.zero)

(* Submit one leg command — a write of [buf], or a read when [buf] is
   [None]; the full device-level logic (VLD placement + map commit,
   regular-disk remap) runs as the command's service.  The structured
   io_error is smuggled out through [s_err]. *)
let submit_leg t leg ~at ?owner gb buf =
  let err = ref None in
  (* two literal records, so the preview closures need not capture the
     command's kind: a leg command's closures outlive minor collections *)
  let op =
    match buf with
    | Some buf ->
      Disk.Disk_queue.Hosted
        {
          cost = (fun () -> target_cost t leg (target_lba t leg gb ~write:true));
          cylinder = (fun () -> target_cylinder leg (target_lba t leg gb ~write:true));
          service =
            (fun () ->
              match leg_write leg gb buf with
              | Ok c -> (Disk.Disk_queue.Wrote gb, c.Io.breakdown)
              | Error e -> failed_service leg err e);
        }
    | None ->
      Disk.Disk_queue.Hosted
        {
          cost = (fun () -> target_cost t leg (target_lba t leg gb ~write:false));
          cylinder = (fun () -> target_cylinder leg (target_lba t leg gb ~write:false));
          service =
            (fun () ->
              match leg_read leg gb with
              | Ok (data, c) -> (Disk.Disk_queue.Data data, c.Io.breakdown)
              | Error e -> failed_service leg err e);
        }
  in
  {
    s_leg = leg;
    s_gen = leg.gen;
    s_suspect = leg.state = `Suspect;
    s_tag = Disk.Disk_queue.submit ~at ?owner leg.q op;
    s_err = err;
  }

(* ---- Failure handling, revival, rebuild ---- *)

let start_rebuild_on t leg disk =
  leg.disk <- disk;
  leg.impl <-
    format_leg ~leg_kind:t.leg_kind ~group_blocks:t.group_blocks
      ~prng:(Prng.split t.prng) disk;
  (* the replacement spindle gets a fresh queue and starts its timeline
     now; in-flight commands against the old drive are orphaned (their
     generation no longer matches) *)
  leg.q <-
    leg_queue ~leg_kind:t.leg_kind ~prng:(Prng.split t.prng) disk;
  leg.busy_until <- Clock.now t.clock;
  leg.gen <- leg.gen + 1;
  Hashtbl.reset leg.drl;
  leg.cursor <- 0;
  leg.copy_cost <- 0.;
  leg.failed_probes <- 0;
  leg.state <- `Rebuilding;
  Trace.incr t.trace "vol.rebuilds_started"

let group_of t leg =
  Option.get (Array.find_opt (Array.exists (fun l -> l == leg)) t.groups)

(* A retired resilver target must not survive a crash looking like a
   replica: its platters hold a half-built copy with no on-media record
   of which blocks are missing, so per-leg recovery would bring it up
   healthy — and a resync that picks it as primary would overwrite the
   real survivor with the husk's holes.  Real arrays invalidate the
   evicted member's superblock; the simulated equivalent is decaying the
   media so every later read of it fails ECC. *)
let evict_leg t leg =
  let store = Disk.Disk_sim.store leg.disk in
  let g = Disk.Sector_store.geometry store in
  Disk.Sector_store.rot store ~lba:0
    ~sectors:(Disk.Geometry.total_sectors g)
    t.prng;
  Trace.incr t.trace "vol.legs_evicted"

(* Mark a leg dead; the generation bump orphans its in-flight commands. *)
let retire t leg =
  leg.state <- `Dead;
  leg.gen <- leg.gen + 1;
  Trace.incr t.trace "vol.leg_deaths"

let kill_leg t leg =
  let was_rebuilding = leg.state = `Rebuilding in
  retire t leg;
  if was_rebuilding then evict_leg t leg;
  (* a spare can only help while some other leg of the group still holds
     a full copy to resilver from: a peer that is itself mid-resilver
     cannot seed one, and when this death leaves no complete peer,
     pulling a spare would park it in [`Rebuilding] forever *)
  let peers_alive =
    Array.exists
      (fun l -> l != leg && (l.state = `Healthy || l.state = `Suspect))
      (group_of t leg)
  in
  match t.spare with
  | None -> ()
  | Some factory ->
    if peers_alive then start_rebuild_on t leg (factory ())
    else Trace.incr t.trace "vol.rebuild_abandoned"

let note_failure t leg =
  let drive_dead () =
    Disk.Disk_sim.health leg.disk = Disk.Disk_sim.Dead_drive
  in
  match leg.state with
  | `Dead -> ()
  | `Healthy ->
    (* the drive telling us it is gone for good skips probation: every
       probe would fail anyway, and in-flight commands against it have
       already been aborted with structured errors *)
    if drive_dead () then kill_leg t leg
    else begin
      leg.state <- `Suspect;
      leg.failed_probes <- 1;
      leg.retry_after <- Clock.now t.clock +. policy.backoff_ms
    end
  | `Suspect ->
    if drive_dead () then kill_leg t leg
    else begin
      leg.failed_probes <- leg.failed_probes + 1;
      leg.retry_after <- Clock.now t.clock +. policy.backoff_ms;
      if leg.failed_probes > policy.probes_to_kill then kill_leg t leg
    end
  | `Rebuilding ->
    (* the replacement itself is failing: retire it and pull another spare *)
    kill_leg t leg

(* Copy one group-block onto [to_] from the best surviving peer.  A
   mapped source block's bytes are written; a provable source hole is
   propagated as a trim, so a fresh VLD leg is not flooded with zeroes. *)
let copy_block t group ~to_ ~counter gb =
  match
    Array.find_opt
      (fun leg -> leg != to_ && leg.state = `Healthy && not (Hashtbl.mem leg.drl gb))
      group
  with
  | None -> Error `No_source
  | Some src ->
    if leg_skip_unmapped src && not (leg_mapped src gb) then begin
      leg_trim to_ gb;
      Ok ()
    end
    else (
      let write_out data =
        match leg_write to_ gb data with
        | Ok _ ->
          Trace.incr t.trace counter;
          Ok ()
        | Error _ -> Error `Write_failed
      in
      match leg_read src gb with
      | Error _ -> (
        (* only a source that is genuinely gone loses the block: a hung
           or flaky source parks the copy for a later attempt, and a
           dead drive is retired now so the next attempt reconsiders
           its sources *)
        match Disk.Disk_sim.health src.disk with
        | Disk.Disk_sim.Dead_drive ->
          kill_leg t src;
          Error `Unreadable
        | Disk.Disk_sim.Hung _ | Disk.Disk_sim.Flaky_drive -> Error `Source_busy
        | Disk.Disk_sim.Ok_drive -> (
          (* the failure may be the tail of a hang/flaky window that
             closed while the command was in flight — the drive claims
             to be fine NOW, so one immediate retry separates that
             boundary race from a genuinely unreadable block *)
          match leg_read src gb with
          | Ok (data, _) -> write_out data
          | Error _ -> Error `Unreadable))
      | Ok (data, _) -> write_out data)

let drain_drl t group leg =
  let gbs = List.sort compare (Hashtbl.fold (fun gb () acc -> gb :: acc) leg.drl []) in
  List.iter
    (fun gb ->
      match copy_block t group ~to_:leg ~counter:"vol.resync_copies" gb with
      | Ok () -> Hashtbl.remove leg.drl gb
      | Error _ -> () (* stays dirty; reads keep avoiding it *))
    gbs

(* A leg may only return to [`Healthy] with an empty DRL: a healthy leg
   is trusted as a resync primary after a crash (the DRL itself is
   volatile), so reviving one that still holds stale blocks could
   resurrect old data.  If the drain cannot finish — the peer flaking,
   say — the leg stays suspect and retries after another backoff. *)
let revive t group leg =
  drain_drl t group leg;
  if Hashtbl.length leg.drl = 0 then begin
    leg.failed_probes <- 0;
    leg.state <- `Healthy;
    Trace.incr t.trace "vol.revives"
  end
  else leg.retry_after <- Clock.now t.clock +. policy.backoff_ms

(* A copy attempt that could not run: distinguish "the resilver target
   itself died mid-copy" — retire it now (a fresh spare is pulled when a
   source survives) — from "no usable source right now" (hung peer,
   flaky burst), which parks the copy for a later window. *)
let rebuild_blocked t leg =
  if Disk.Disk_sim.health leg.disk = Disk.Disk_sim.Dead_drive then begin
    kill_leg t leg;
    `Progress (* the state changed; the caller re-evaluates the leg *)
  end
  else `Blocked

(* One unit of rebuild work: advance the cursor sweep, then drain the
   DRL, then flip the leg healthy.  [copy] performs one block copy —
   either synchronously on the shared clock (admin paths) or as a
   queued background tag in the leg's own window (the online pump). *)
let rebuild_tick_with t leg ~copy =
  if leg.cursor < t.group_blocks then begin
    let gb = leg.cursor in
    match copy gb with
    | `Copied ->
      leg.cursor <- leg.cursor + 1;
      `Progress
    | `Unreadable ->
      (* no surviving copy of this block right now.  The target must
         not pass for a full replica: park the block in its DRL (reads
         keep avoiding the target and fail over to whatever the source
         honestly says) and keep sweeping — a later foreground write or
         a healed source repairs it, and a resilver whose DRL never
         drains is abandoned by the caller's bound rather than
         completed with fabricated content *)
      Trace.incr t.trace "vol.rebuild_lost";
      Hashtbl.replace leg.drl gb ();
      leg.cursor <- leg.cursor + 1;
      `Progress
    | `Blocked -> rebuild_blocked t leg
  end
  else
    match Hashtbl.fold (fun gb () _ -> Some gb) leg.drl None with
    | None ->
      leg.state <- `Healthy;
      leg.failed_probes <- 0;
      Trace.incr t.trace "vol.rebuilds_completed";
      `Done
    | Some gb -> (
      match copy gb with
      | `Copied ->
        Hashtbl.remove leg.drl gb;
        `Progress
      | `Unreadable | `Blocked ->
        (* still no copy to be had: the rebuild cannot finish honestly.
           Parking here (instead of dropping the entry) leaves the
           decision to the caller's progress bound — a source that
           comes back drains it, one that never does retires the leg *)
        rebuild_blocked t leg)

(* One rebuild copy, as the tick sees it. *)
let rebuild_copy t group ~to_ gb =
  match copy_block t group ~to_ ~counter:"vol.rebuild_copies" gb with
  | Ok () -> `Copied
  | Error `Unreadable -> `Unreadable
  | Error (`No_source | `Write_failed | `Source_busy) -> `Blocked

(* Blocking (foreground) rebuild unit — the admin path. *)
let rebuild_tick t group leg =
  rebuild_tick_with t leg ~copy:(rebuild_copy t group ~to_:leg)

(* One copy as a low-priority background tag on the target leg,
   serviced in the leg's own window starting at [at].  The source read
   runs inside that window too (a copy occupies both spindles; we
   charge the target — the throttled one).  The [rebuild_util] duty
   cycle is enforced by {!rebuild_pump}'s per-window budget, not here:
   a foreground arrival must never wait through synthetic throttle
   idle, only through real copy service. *)
let queued_copy t group ~to_ ~at gb =
  let res = ref `Blocked in
  let op =
    Disk.Disk_queue.Hosted
      {
        cost = (fun () -> 0.);
        cylinder = (fun () -> Disk.Disk_sim.current_cylinder to_.disk);
        service =
          (fun () ->
            res := rebuild_copy t group ~to_ gb;
            ( (match !res with
              | `Blocked ->
                Disk.Disk_queue.Failed { Disk.Disk_sim.error_lba = 0; transient = false }
              | `Copied | `Unreadable -> Disk.Disk_queue.Wrote gb),
              Breakdown.zero ));
      }
  in
  ignore (Disk.Disk_queue.submit ~at ~background:true to_.q op);
  ignore (run_leg t to_ ~at);
  !res

let iter_legs t f = Array.iter (fun group -> Array.iter (f group) group) t.groups
let exists_leg t p = Array.exists (Array.exists p) t.groups
let rebuild_active t = exists_leg t (fun leg -> leg.state = `Rebuilding)

(* Background resilvering during granted idle time: queued copies in
   each rebuilding leg's own window, [from] to [deadline], leaving the
   rest for the next window.  [rebuild_util] is a per-window duty
   cycle: copies may consume at most that fraction of the granted
   window.  A copy is started only when the leg's last observed copy
   cost fits both the duty budget and the deadline, so a foreground
   arrival at the deadline does not queue behind an overrunning
   background copy (a fresh resilver has no estimate yet and may
   overrun once).  A window skipped on the estimate halves it: one
   pathologically slow copy (cold cache, full-stroke seek) must not
   freeze the resilver when later cursor-sequential copies would be
   cheap — the decayed estimate retries within a few windows and the
   next real copy re-prices it. *)
let rebuild_pump t ~from ~deadline =
  let u = Float.min 1. (Float.max 0. policy.rebuild_util) in
  if u > 0. then
    iter_legs t (fun group leg ->
        (* clamp to the clock as well as the window: an earlier leg's
           copies advance the shared clock, and a copy may retire a
           source and pull a fresh spare whose timeline starts behind
           "now" — a queued copy must never arrive in the past *)
        let floor_at () =
          Float.max (Clock.now t.clock) (Float.max from leg.busy_until)
        in
        let start = floor_at () in
        let allow = (deadline -. start) *. u in
        let used = ref 0. in
        let copied = ref false in
        let continue_ = ref true in
        while !continue_ && leg.state = `Rebuilding do
          let at = floor_at () in
          if at +. leg.copy_cost >= deadline || !used +. leg.copy_cost > allow
          then continue_ := false
          else
            match
              rebuild_tick_with t leg ~copy:(fun gb ->
                  let r = queued_copy t group ~to_:leg ~at gb in
                  let cost = Float.max 0. (leg.busy_until -. at) in
                  used := !used +. cost;
                  leg.copy_cost <- cost;
                  copied := true;
                  r)
            with
            | `Progress -> ()
            | `Done | `Blocked -> continue_ := false
        done;
        if (not !copied) && leg.state = `Rebuilding && start < deadline then
          leg.copy_cost <- leg.copy_cost /. 2.)

(* Run up to [copies] blocking rebuild copies right now on the shared
   clock — the old-style cursor sweep, foreground I/O stalls behind it.
   Kept as the unthrottled comparison point for the array bench.  The
   sweep occupies the whole group (source reads + target writes), so
   every leg's window is pushed to the end of the sweep: foreground
   arrivals during it queue behind it. *)
let rebuild_step t ~copies =
  let left = ref copies in
  iter_legs t (fun group leg ->
      let continue_ = ref true in
      let swept = ref false in
      while !continue_ && leg.state = `Rebuilding && !left > 0 do
        swept := true;
        match rebuild_tick t group leg with
        | `Progress -> decr left
        | `Done -> ()
        | `Blocked -> continue_ := false
      done;
      if !swept then
        Array.iter
          (fun l -> l.busy_until <- Float.max l.busy_until (Clock.now t.clock))
          group)

let probe_suspects t =
  iter_legs t (fun group leg ->
      if leg.state = `Suspect && Clock.now t.clock >= leg.retry_after then
        if probe_leg t leg then revive t group leg else note_failure t leg)

let rebuild_to_completion t =
  let blocked = ref 0 in
  let rec go () =
    let progress = ref false and any = ref false in
    iter_legs t (fun group leg ->
        if leg.state = `Rebuilding then begin
          any := true;
          match rebuild_tick t group leg with
          | `Progress | `Done -> progress := true
          | `Blocked -> ()
        end);
    if !any then
      if !progress then begin
        blocked := 0;
        go ()
      end
      else if !blocked < 64 then begin
        (* no usable source right now: give hung peers a backoff window
           to come back, then retry *)
        incr blocked;
        Clock.advance t.clock policy.backoff_ms;
        probe_suspects t;
        go ()
      end
      else
        (* 64 backoff windows without a usable source anywhere: the data
           these resilver targets still need is not coming back.  Retire
           them honestly — a leg parked in [`Rebuilding] forever would
           survive a crash as a trusted-looking husk. *)
        iter_legs t (fun _ leg ->
            if leg.state = `Rebuilding then begin
              retire t leg;
              Trace.incr t.trace "vol.rebuild_abandoned";
              evict_leg t leg
            end)
  in
  go ()

(* Deterministic quiescence for harnesses: probe every suspect until it
   revives or dies (advancing simulated time through the backoff
   windows), run rebuilds to completion, and drain every DRL.  On
   return each leg is either fully healthy with an empty DRL, or dead
   (no spare available) — never a trusted leg holding stale blocks.  A
   leg that refuses to settle within the round bound is retired: it
   cannot be allowed to survive a crash as a resync primary. *)
let settle t =
  let unsettled () =
    exists_leg t (fun leg ->
        match leg.state with
        | `Suspect | `Rebuilding -> true
        | `Healthy -> Hashtbl.length leg.drl > 0
        | `Dead -> false)
  in
  let rec go n =
    probe_suspects t;
    rebuild_to_completion t;
    iter_legs t (fun group leg ->
        if leg.state = `Healthy && Hashtbl.length leg.drl > 0 then
          drain_drl t group leg);
    if unsettled () then
      if n > 0 then begin
        Clock.advance t.clock policy.backoff_ms;
        go (n - 1)
      end
      else begin
        iter_legs t (fun _ leg ->
            if
              leg.state = `Suspect
              || (leg.state = `Healthy && Hashtbl.length leg.drl > 0)
            then kill_leg t leg);
        rebuild_to_completion t
      end
  in
  go (4 * (policy.probes_to_kill + 2))

(* ---- Group operations ---- *)

let locate t b =
  let k = Array.length t.groups in
  (b mod k, b / k)

(* The write scatter of one group block. *)
type wtx = {
  wt_block : int;  (* logical block, for error reporting *)
  wt_gi : int;
  wt_gb : int;
  wt_subs : sub list;
  wt_degraded : bool;  (* some leg was skipped (and DRL'd) at dispatch *)
}

(* Mirror write scatter: every leg that can reasonably take the block
   gets a command at the arrival instant; legs skipped for backoff get
   the block in their DRL.  Nothing is serviced yet. *)
let submit_group_write t ~at ?owner gi gb ~block buf =
  let group = t.groups.(gi) in
  let subs = ref [] in
  let degraded = ref false in
  Array.iter
    (fun leg ->
      let dispatch () = subs := submit_leg t leg ~at ?owner gb (Some buf) :: !subs in
      match leg.state with
      | `Dead -> ()
      | `Rebuilding ->
        (* the cursor sweep will copy everything at or past it from a
           peer; only the already-rebuilt region must be kept current *)
        if gb < leg.cursor then dispatch ()
      | `Healthy -> dispatch ()
      | `Suspect ->
        if at < leg.retry_after then begin
          (* in backoff: leave it alone, log the miss.  A DRL entry
             means "a peer holds newer data than this leg"; with no
             peer (single-leg group) the op will simply fail and the
             old block stays valid — marking it dirty would wrongly
             block reads of content the platter still has. *)
          if Array.length group > 1 then Hashtbl.replace leg.drl gb ();
          degraded := true
        end
        else dispatch ())
    group;
  {
    wt_block = block;
    wt_gi = gi;
    wt_gb = gb;
    wt_subs = List.rev !subs;
    wt_degraded = !degraded;
  }

(* Gather one write scatter.  Completion rule: healthy legs are always
   awaited; a suspect whose service ran past the per-op budget is not
   awaited once the data is safe on an awaited leg — its write still
   lands (or fails into the DRL) on its own timeline, but it no longer
   stalls the operation.  Returns the result and the completion
   instant; leaves the clock parked there. *)
let gather_group_write t (ctbl : ctbl) ~at wtx =
  let find s = Hashtbl.find ctbl (s.s_leg.idx, s.s_tag) in
  let ok s =
    match (find s).Disk.Disk_queue.outcome with
    | Disk.Disk_queue.Wrote _ -> true
    | _ -> false
  in
  let in_budget s =
    (not s.s_suspect)
    || (find s).Disk.Disk_queue.finished -. at <= policy.timeout_ms
  in
  let safe = List.exists (fun s -> in_budget s && ok s) wtx.wt_subs in
  let awaited s = (not safe) || in_budget s in
  let completion =
    List.fold_left
      (fun acc s ->
        if awaited s then Float.max acc (find s).Disk.Disk_queue.finished else acc)
      at wtx.wt_subs
  in
  Clock.warp t.clock completion;
  let bd = ref Breakdown.zero in
  let wrote = ref 0 in
  let degraded = ref wtx.wt_degraded in
  let last_err = ref None in
  List.iter
    (fun s ->
      let leg = s.s_leg in
      if s.s_gen = leg.gen then begin
        let c = find s in
        match c.Disk.Disk_queue.outcome with
        | Disk.Disk_queue.Wrote _ ->
          bd := Breakdown.add !bd c.Disk.Disk_queue.bd;
          Hashtbl.remove leg.drl wtx.wt_gb;
          incr wrote;
          if s.s_suspect && leg.state = `Suspect then begin
            revive t t.groups.(wtx.wt_gi) leg;
            leg.busy_until <- Float.max leg.busy_until (Clock.now t.clock)
          end
        | Disk.Disk_queue.Failed _ | Disk.Disk_queue.Data _ ->
          (match !(s.s_err) with Some e -> last_err := Some e | None -> ());
          (* single-leg group: the write failed outright and the old
             block content is still the logical content — no peer holds
             anything newer to owe this leg (see the scatter path) *)
          if Array.length t.groups.(wtx.wt_gi) > 1 then
            Hashtbl.replace leg.drl wtx.wt_gb ();
          degraded := true;
          (* one escalation per backoff window, matching the cadence of
             the sequential path (a batch is one op per leg) *)
          if not (leg.state = `Suspect && Clock.now t.clock < leg.retry_after)
          then note_failure t leg
      end)
    wtx.wt_subs;
  if !degraded && !wrote > 0 then Trace.incr t.trace "vol.degraded_writes";
  let res =
    if !wrote > 0 then Ok !bd
    else
      Error
        (match !last_err with
        | Some e -> { e with Blockdev.Device.block = wtx.wt_block }
        | None -> synth_err `Write wtx.wt_block)
  in
  (res, completion, !degraded)

(* The read scatter of one group block: the first candidate is
   submitted into the batch; the rest fail over sequentially at gather
   time (failover is the rare path). *)
type rtx = {
  rt_block : int;
  rt_gi : int;
  rt_gb : int;
  rt_first : sub option;
  rt_rest : leg list;
}

(* Candidate order: healthy legs first, then the rebuilt region of a
   rebuilding leg, then suspects past their backoff (the read doubles
   as the probe).  Blocks in a leg's DRL are never read from it. *)
let submit_group_read t ~at ?owner gi gb ~block =
  let group = t.groups.(gi) in
  let eligible leg =
    (not (Hashtbl.mem leg.drl gb))
    &&
    match leg.state with
    | `Healthy -> true
    | `Rebuilding -> gb < leg.cursor
    | `Suspect -> at >= leg.retry_after
    | `Dead -> false
  in
  let tier leg =
    match leg.state with `Healthy -> 0 | `Rebuilding -> 1 | `Suspect -> 2 | `Dead -> 3
  in
  let candidates =
    let all = Array.to_list group in
    let first = List.filter eligible all in
    if first <> [] then first
    else
      (* last resort: suspects still in backoff — better a slow answer
         than none *)
      List.filter
        (fun leg -> leg.state = `Suspect && not (Hashtbl.mem leg.drl gb))
        all
  in
  let candidates =
    List.stable_sort (fun a b -> compare (tier a) (tier b)) candidates
  in
  let first, rest =
    match candidates with
    | [] -> (None, [])
    | leg :: rest -> (Some (submit_leg t leg ~at ?owner gb None), rest)
  in
  { rt_block = block; rt_gi = gi; rt_gb = gb; rt_first = first; rt_rest = rest }

(* Gather one read scatter, failing over through the remaining
   candidates in their own windows.  Once one candidate has been tried,
   the per-op budget stops further probing of suspects. *)
let gather_group_read t (ctbl : ctbl) ~at ?owner rtx =
  let err_of tried =
    match tried with
    | Some e -> { e with Blockdev.Device.block = rtx.rt_block }
    | None -> synth_err `Read rtx.rt_block
  in
  let book_failure s =
    let leg = s.s_leg in
    if s.s_gen = leg.gen then
      if not (leg.state = `Suspect && Clock.now t.clock < leg.retry_after) then
        note_failure t leg
  in
  (* Read-repair: a leg whose read failed while a later candidate
     supplied the block holds a provably bad (or stale) copy — park the
     block in its DRL so the next drain rewrites it from the good peer.
     Rewriting is what heals latent sectors.  Only a *successful*
     failover parks: when every copy fails there is no known-good peer,
     and DRL'ing all legs would starve [copy_block] of sources. *)
  let repair failed =
    List.iter
      (fun (fl, fgen) ->
        if fgen = fl.gen && fl.state <> `Dead then begin
          Hashtbl.replace fl.drl rtx.rt_gb ();
          Trace.incr t.trace "vol.read_repairs"
        end)
      failed
  in
  let rec attempt tried failed s (c : Disk.Disk_queue.completion) rest =
    Clock.warp t.clock c.Disk.Disk_queue.finished;
    match c.Disk.Disk_queue.outcome with
    | Disk.Disk_queue.Data data ->
      let leg = s.s_leg in
      repair failed;
      if s.s_suspect && s.s_gen = leg.gen && leg.state = `Suspect then begin
        revive t t.groups.(rtx.rt_gi) leg;
        leg.busy_until <- Float.max leg.busy_until (Clock.now t.clock)
      end;
      (Ok (data, c.Disk.Disk_queue.bd), c.Disk.Disk_queue.finished)
    | Disk.Disk_queue.Failed _ | Disk.Disk_queue.Wrote _ ->
      book_failure s;
      let tried =
        match !(s.s_err) with Some e -> Some e | None -> tried
      in
      let failed = (s.s_leg, s.s_gen) :: failed in
      if rest <> [] then Trace.incr t.trace "vol.failovers";
      failover tried failed c.Disk.Disk_queue.finished rest
  and failover tried failed start = function
    | [] -> (Error (err_of tried), start)
    | leg :: rest ->
      if leg.state = `Dead then failover tried failed start rest
      else if leg.state = `Suspect && start -. at > policy.timeout_ms then
        (* budget exhausted: no further probing of suspects (healthy
           candidates sort first, so none is being skipped here) *)
        (Error (err_of tried), start)
      else begin
        Clock.warp t.clock start;
        let s = submit_leg t leg ~at:start ?owner rtx.rt_gb None in
        let cs = run_leg t leg ~at:start in
        attempt tried failed s (List.assoc s.s_tag cs) rest
      end
  in
  match rtx.rt_first with
  | None -> (Error (err_of None), at)
  | Some s ->
    attempt None [] s (Hashtbl.find ctbl (s.s_leg.idx, s.s_tag)) rtx.rt_rest

(* ---- Scatter/gather execution of host requests ---- *)

(* Structured per-block outcome of one batch window.  A mid-window leg
   fault forces a partial gather: some blocks land (possibly degraded,
   their missed copies DRL'd), others fail outright.  The report names
   exactly which, so a degraded-mode retry re-submits only [*_failed] —
   never a command that already completed. *)

type block_error = { be_block : int; be_error : Blockdev.Device.io_error }

type write_report = {
  wr_written : int list;
  wr_failed : block_error list;
  wr_degraded : bool;
  wr_bd : Breakdown.t;
}

type read_report = {
  rr_data : (int * Bytes.t * Breakdown.t) list;
  rr_failed : block_error list;
}

let check t block count =
  if block < 0 || count <= 0 || block + count > t.logical_blocks then
    invalid_arg "Volume: logical block range out of bounds"

let check_write t (block, buf) =
  check t block 1;
  if Bytes.length buf <> t.block_bytes then
    invalid_arg "Volume.write: buffer must be exactly one block"

(* The write engine — every write enters the legs through here.  The
   whole batch is validated before anything is scattered, then all
   group blocks' commands are submitted at the arrival instant, every
   involved leg is serviced once in its own window (the leg's queue
   policy reorders within the window), and the gathers run in block
   order.  The batch completes at the latest awaited leg across all
   blocks, where the clock is left. *)
let write_batch_report t ?owner ~at items =
  List.iter (check_write t) items;
  Clock.warp t.clock at;
  let txs =
    List.map
      (fun (b, buf) ->
        let gi, gb = locate t b in
        submit_group_write t ~at ?owner gi gb ~block:b buf)
      items
  in
  let legs =
    dedup_legs (List.concat_map (fun tx -> List.map (fun s -> s.s_leg) tx.wt_subs) txs)
  in
  let ctbl = run_legs t legs ~at in
  let completion = ref at in
  let written = ref [] and failed = ref [] in
  let degraded = ref false in
  let bd = ref Breakdown.zero in
  List.iter
    (fun tx ->
      let r, fin, deg = gather_group_write t ctbl ~at tx in
      completion := Float.max !completion fin;
      if deg then degraded := true;
      match r with
      | Ok b ->
        bd := Breakdown.add !bd b;
        written := tx.wt_block :: !written
      | Error e -> failed := { be_block = tx.wt_block; be_error = e } :: !failed)
    txs;
  Clock.warp t.clock !completion;
  {
    wr_written = List.rev !written;
    wr_failed = List.rev !failed;
    wr_degraded = !degraded;
    wr_bd = !bd;
  }

(* The read engine: the first candidate of every block is submitted at
   the arrival instant; failover rounds run per block at gather time. *)
let read_batch_report t ?owner ~at blocks =
  List.iter (fun b -> check t b 1) blocks;
  Clock.warp t.clock at;
  let txs =
    List.map
      (fun b ->
        let gi, gb = locate t b in
        submit_group_read t ~at ?owner gi gb ~block:b)
      blocks
  in
  let legs =
    dedup_legs
      (List.filter_map (fun tx -> Option.map (fun s -> s.s_leg) tx.rt_first) txs)
  in
  let ctbl = run_legs t legs ~at in
  let completion = ref at in
  let data = ref [] and failed = ref [] in
  List.iter
    (fun tx ->
      let r, fin = gather_group_read t ctbl ~at ?owner tx in
      completion := Float.max !completion fin;
      match r with
      | Ok (d, bd) -> data := (tx.rt_block, d, bd) :: !data
      | Error e -> failed := { be_block = tx.rt_block; be_error = e } :: !failed)
    txs;
  Clock.warp t.clock !completion;
  { rr_data = List.rev !data; rr_failed = List.rev !failed }

let write_batch t ?owner ~at items =
  let r = write_batch_report t ?owner ~at items in
  match r.wr_failed with
  | [] -> Ok r.wr_bd
  | f :: _ -> Error f.be_error

let read_batch t ?owner ~at blocks =
  let r = read_batch_report t ?owner ~at blocks in
  match r.rr_failed with
  | [] -> Ok (List.map (fun (_, d, bd) -> (d, bd)) r.rr_data)
  | f :: _ -> Error f.be_error

let group_trim t gi gb =
  Array.iter
    (fun leg ->
      match leg.state with
      | `Dead -> ()
      | `Rebuilding | `Suspect | `Healthy -> leg_trim leg gb)
    t.groups.(gi)

(* ---- Construction ---- *)

let mk_leg_record ~leg_kind ~prng ~disk ~idx ~impl ~state =
  {
    idx;
    impl;
    disk;
    q = leg_queue ~leg_kind ~prng disk;
    busy_until = Clock.now (Disk.Disk_sim.clock disk);
    gen = 0;
    state;
    cursor = 0;
    copy_cost = 0.;
    drl = Hashtbl.create 8;
    failed_probes = 0;
    retry_after = 0.;
  }

let mk ?spare ~layout ~leg_kind ~logical_blocks ~(disks : Disk.Disk_sim.t array) ~prng
    ~mk_leg () =
  let k, m = layout_shape layout in
  if Array.length disks <> k * m then
    invalid_arg
      (Printf.sprintf "Volume: layout %s needs %d disks, got %d"
         (layout_to_string layout) (k * m) (Array.length disks));
  if logical_blocks < 1 then invalid_arg "Volume: need at least one logical block";
  let group_blocks = (logical_blocks + k - 1) / k in
  let groups =
    Array.init k (fun gi ->
        Array.init m (fun li ->
            let idx = (gi * m) + li in
            mk_leg ~group_blocks disks.(idx) idx))
  in
  {
    layout;
    leg_kind;
    logical_blocks;
    group_blocks;
    block_bytes = leg_block_bytes groups.(0).(0);
    groups;
    clock = Disk.Disk_sim.clock disks.(0);
    trace = Disk.Disk_sim.trace disks.(0);
    prng;
    spare;
    host_next = 0;
    host_q = [];
    host_done = [];
  }

let create ?spare ~layout ~leg_kind ~logical_blocks ~disks ~prng () =
  mk ?spare ~layout ~leg_kind ~logical_blocks ~disks ~prng
    ~mk_leg:(fun ~group_blocks disk idx ->
      mk_leg_record ~leg_kind ~prng:(Prng.split prng) ~disk ~idx
        ~impl:(format_leg ~leg_kind ~group_blocks ~prng:(Prng.split prng) disk)
        ~state:`Healthy)
    ()

(* ---- Recovery ---- *)

type recovery_report = {
  legs_recovered : int;
  legs_lost : int;  (** legs whose platters did not recover; volume degraded *)
  legs_used_tail : int;  (** VLD legs brought up via the landing-zone tail *)
  resync_fixed : int;  (** group-blocks converged onto the primary's content *)
  resync_lost : int;  (** group-blocks unreadable on every surviving leg *)
}

(* Converge every mirror group onto its lowest live leg: writes are
   issued to legs in index order, so that leg is always the newest
   surviving state, and per-leg recovery already rolled each leg back to
   a self-consistent transaction boundary.  Healing writes also repair
   single-leg media damage from the surviving copy. *)
let resync t report =
  let fixed = ref 0 and lost = ref 0 in
  Array.iter
    (fun group ->
      if Array.length group > 1 then
        for gb = 0 to t.group_blocks - 1 do
          let live =
            Array.to_list group |> List.filter (fun leg -> leg.state = `Healthy)
          in
          let skippable =
            live <> []
            && List.for_all
                 (fun leg -> leg_skip_unmapped leg && not (leg_mapped leg gb))
                 live
          in
          if (not skippable) && List.length live > 1 then begin
            let reads = List.map (fun leg -> (leg, leg_read leg gb)) live in
            match
              List.find_opt (fun (_, r) -> Result.is_ok r) reads
            with
            | None -> incr lost
            | Some (primary, pread) ->
              let pdata = match pread with Ok (d, _) -> d | Error _ -> assert false in
              let phole = leg_skip_unmapped primary && not (leg_mapped primary gb) in
              let mend = ref false in
              List.iter
                (fun (leg, r) ->
                  if leg != primary then
                    let differs =
                      match r with
                      | Error _ -> true
                      | Ok (d, _) -> not (Bytes.equal d pdata)
                    in
                    if differs then begin
                      mend := true;
                      if phole then leg_trim leg gb
                      else
                        match leg_write leg gb pdata with
                        | Ok _ -> Trace.incr t.trace "vol.resync_copies"
                        | Error _ -> Hashtbl.replace leg.drl gb ()
                    end)
                reads;
              if !mend then incr fixed
          end
        done)
    t.groups;
  { report with resync_fixed = !fixed; resync_lost = !lost }

let recover ?spare ~layout ~leg_kind ~logical_blocks ~disks ~prng () =
  let recovered = ref 0 and lost = ref 0 and used_tail = ref 0 in
  let t =
    mk ?spare ~layout ~leg_kind ~logical_blocks ~disks ~prng
      ~mk_leg:(fun ~group_blocks:_ disk idx ->
        let impl, state =
          match leg_kind with
          | Regular_leg ->
            (* a regular leg has no volatile metadata to rebuild: wrapping
               the platters is the whole recovery *)
            incr recovered;
            ( Reg
                (Blockdev.Regular_disk.create ~disk
                   ~spare_blocks:leg_spare_blocks ()),
              `Healthy )
          | Vld_leg -> (
            match Blockdev.Vld.recover ~disk ~prng:(Prng.split prng) () with
            | Ok (v, rep) ->
              incr recovered;
              if rep.Vlog.Virtual_log.used_tail then incr used_tail;
              (Vld v, `Healthy)
            | Error _ ->
              (* platters unrecoverable: dead on arrival.  The placeholder
                 impl never runs — `Dead gates every access — and wrapping
                 a regular disk writes nothing to the media. *)
              incr lost;
              (Reg (Blockdev.Regular_disk.create ~disk ()), `Dead))
        in
        mk_leg_record ~leg_kind ~prng:(Prng.split prng) ~disk ~idx
          ~impl ~state)
      ()
  in
  let orphaned = ref [] in
  Array.iteri
    (fun gi group ->
      if not (Array.exists (fun leg -> leg.state <> `Dead) group) then
        orphaned := gi :: !orphaned)
    t.groups;
  match !orphaned with
  | gi :: _ ->
    Error
      (Printf.sprintf
         "data loss: group %d has no surviving leg (every mirror copy is gone)"
         gi)
  | [] ->
    let report =
      {
        legs_recovered = !recovered;
        legs_lost = !lost;
        legs_used_tail = !used_tail;
        resync_fixed = 0;
        resync_lost = 0;
      }
    in
    let report = resync t report in
    (* a dead-on-arrival leg starts rebuilding immediately if a spare is
       on hand *)
    iter_legs t (fun _ leg ->
        if leg.state = `Dead then
          match t.spare with
          | Some factory -> start_rebuild_on t leg (factory ())
          | None -> ());
    Ok (t, report)

(* ---- The one I/O core ----

   Every host-level operation — the device record's synchronous
   closures, its native submit/drain queue and [write_result_at] — is
   one [Blockdev.Device.req] run by [exec]: it is validated before its
   [vol.*] device span opens, and it enters the legs through the
   first-error forms of the two batch engines at its own arrival
   instant.  The clock is left at the request's completion, so
   [Clock.now - at] is its latency. *)

let dev_span t name block count = Blockdev.Device.span t.trace name block count

let exec t ?owner ~at (req : Blockdev.Device.req) : Blockdev.Device.ack =
  let bb = t.block_bytes in
  let name, block, count =
    match req with
    | Read b -> ("vol.read", b, 1)
    | Read_run (b, n) -> ("vol.read_run", b, n)
    | Read_into (b, n, buf, pos) ->
      Blockdev.Device.check_window ~block_bytes:bb n buf ~pos;
      ("vol.read_run", b, n)
    | Write (b, buf) ->
      check_write t (b, buf);
      ("vol.write", b, 1)
    | Write_run (b, buf) ->
      if Bytes.length buf = 0 || Bytes.length buf mod bb <> 0 then
        invalid_arg "Volume.write_run: buffer must be whole blocks";
      ("vol.write_run", b, Bytes.length buf / bb)
  in
  check t block count;
  Clock.warp t.clock at;
  let sp = dev_span t name block count in
  let ack : Blockdev.Device.ack =
    match req with
    | Read _ | Read_run _ | Read_into _ -> (
      match read_batch t ?owner ~at (List.init count (fun i -> block + i)) with
      | Error e -> Error e
      | Ok pieces -> (
        let c =
          Io.make ~span:sp
            (List.fold_left (fun acc (_, cost) -> Breakdown.add acc cost) Breakdown.zero pieces)
        in
        let gather buf ~pos =
          List.iteri (fun i (d, _) -> Bytes.blit d 0 buf (pos + (i * bb)) bb) pieces
        in
        match (req, pieces) with
        | Read _, [ (d, _) ] -> Ok (Data (d, c))
        | Read_into (_, _, buf, pos), _ ->
          gather buf ~pos;
          Ok (Done c)
        | _ ->
          let buf = Bytes.create (count * bb) in
          gather buf ~pos:0;
          Ok (Data (buf, c))))
    | Write (_, buf) | Write_run (_, buf) -> (
      let piece i = if count = 1 then buf else Bytes.sub buf (i * bb) bb in
      match write_batch t ?owner ~at (List.init count (fun i -> (block + i, piece i))) with
      | Error e -> Error e
      | Ok bd -> Ok (Done (Io.make ~span:sp bd)))
  in
  (match ack with
  | Ok (Data (_, c) | Done c) -> Trace.exit t.trace ~bd:c.Io.breakdown sp
  | Error _ -> Trace.exit t.trace sp);
  ack

let data_of : Blockdev.Device.ack -> _ = function
  | Ok (Data (d, c)) -> Ok (d, c)
  | Ok (Done _) -> assert false
  | Error e -> Error e

let done_of : Blockdev.Device.ack -> _ = function
  | Ok (Done c) -> Ok c
  | Ok (Data _) -> assert false
  | Error e -> Error e

let write_result_at t ?owner ~at block buf =
  done_of (exec t ?owner ~at (Write (block, buf)))

(* ---- Native host queue ----

   Each request keeps the arrival stamped at [submit] (a
   [Device.sync_queue] FIFO would serve everything at the barrier):
   requests drain in submission order, each starting at its own arrival
   on whatever legs it touches, so requests on disjoint spindles
   overlap and requests on the same spindle pipeline through
   [busy_until]. *)

let host_submit t req =
  let tag = t.host_next in
  t.host_next <- tag + 1;
  t.host_q <- (tag, Clock.now t.clock, req) :: t.host_q;
  tag

let host_poll t =
  let acks = List.rev t.host_done in
  t.host_done <- [];
  acks

let host_drain t =
  let reqs = List.rev t.host_q in
  t.host_q <- [];
  let end_ = ref (Clock.now t.clock) in
  List.iter
    (fun (tag, at, req) ->
      let ack = exec t ~at req in
      end_ := Float.max !end_ (Clock.now t.clock);
      t.host_done <- (tag, ack) :: t.host_done)
    reqs;
  Clock.warp t.clock !end_;
  host_poll t

let trim t block =
  check t block 1;
  let gi, gb = locate t block in
  group_trim t gi gb

(* Idle time is granted per spindle: rebuilds pump throttled background
   copies in each rebuilding leg's own window, then each VLD leg's
   compactor runs in its window.  The clock ends at the end of the used
   window, never past the deadline. *)
let idle t dt =
  if dt > 0. then begin
    let from = Clock.now t.clock in
    let deadline = from +. dt in
    rebuild_pump t ~from ~deadline;
    iter_legs t (fun _ leg ->
        match (leg.state, leg.impl) with
        | (`Healthy | `Suspect), Vld v ->
          let at = Float.max from leg.busy_until in
          if at < deadline then begin
            Clock.warp t.clock at;
            ignore (Vlog.Compactor.run (Blockdev.Vld.compactor v) ~deadline);
            leg.busy_until <- Float.max leg.busy_until (Clock.now t.clock)
          end
        | _ -> ());
    let end_ = ref from in
    iter_legs t (fun _ leg ->
        end_ := Float.max !end_ (Float.min leg.busy_until deadline));
    Clock.warp t.clock !end_
  end

let utilization t =
  let sum = ref 0. and n = ref 0 in
  iter_legs t (fun _ leg ->
      if leg.state <> `Dead then begin
        sum := !sum +. leg_utilization leg;
        incr n
      end);
  if !n = 0 then 1. else !sum /. float_of_int !n

let device t =
  {
    Blockdev.Device.name = "volume:" ^ layout_to_string t.layout;
    block_bytes = t.block_bytes;
    n_blocks = t.logical_blocks;
    trace = t.trace;
    read = (fun b -> data_of (exec t ~at:(Clock.now t.clock) (Read b)));
    read_run = (fun b n -> data_of (exec t ~at:(Clock.now t.clock) (Read_run (b, n))));
    read_into =
      (fun b n buf ~pos -> done_of (exec t ~at:(Clock.now t.clock) (Read_into (b, n, buf, pos))));
    write = (fun b buf -> done_of (exec t ~at:(Clock.now t.clock) (Write (b, buf))));
    write_run =
      (fun b buf -> done_of (exec t ~at:(Clock.now t.clock) (Write_run (b, buf))));
    submit = host_submit t;
    poll = (fun () -> host_poll t);
    drain = (fun () -> host_drain t);
    trim = trim t;
    idle = idle t;
    utilization = (fun () -> utilization t);
  }

(* ---- Introspection (CLI, checkers, tests) ---- *)

let layout t = t.layout
let leg_busy_until t ~group ~leg = t.groups.(group).(leg).busy_until
let n_groups t = Array.length t.groups
let legs_per_group t = Array.length t.groups.(0)
let group_blocks t = t.group_blocks
let logical_blocks t = t.logical_blocks
let block_bytes t = t.block_bytes
let clock t = t.clock

let disks t =
  Array.concat (Array.to_list (Array.map (Array.map (fun leg -> leg.disk)) t.groups))

let state_of t ~group ~leg =
  let l = t.groups.(group).(leg) in
  match l.state with
  | `Healthy -> `Healthy
  | `Suspect -> `Suspect
  | `Dead -> `Dead
  | `Rebuilding -> `Rebuilding l.cursor

let state_to_string = function
  | `Healthy -> "healthy"
  | `Suspect -> "suspect"
  | `Dead -> "dead"
  | `Rebuilding c -> Printf.sprintf "rebuilding@%d" c

let degraded t = exists_leg t (fun leg -> leg.state <> `Healthy)

let kill t ~group ~leg =
  let l = t.groups.(group).(leg) in
  if l.state <> `Dead then retire t l

let start_rebuild t ~group ~leg =
  let l = t.groups.(group).(leg) in
  if l.state <> `Dead then Error "leg is not dead"
  else
    match t.spare with
    | None -> Error "no hot spare configured"
    | Some factory ->
      start_rebuild_on t l (factory ());
      Ok ()

let leg_read_raw t ~group ~leg gb = Result.map fst (leg_read t.groups.(group).(leg) gb)
let leg_drl_size t ~group ~leg = Hashtbl.length t.groups.(group).(leg).drl
let leg_dirty t ~group ~leg gb = Hashtbl.mem t.groups.(group).(leg).drl gb

let pp_status ppf t =
  let k = n_groups t and m = legs_per_group t in
  Format.fprintf ppf "layout %s, %d logical blocks, %d per group@\n"
    (layout_to_string t.layout) t.logical_blocks t.group_blocks;
  for gi = 0 to k - 1 do
    for li = 0 to m - 1 do
      let l = t.groups.(gi).(li) in
      Format.fprintf ppf "  group %d leg %d: %-14s drl=%d util=%.2f@\n" gi li
        (state_to_string (state_of t ~group:gi ~leg:li))
        (Hashtbl.length l.drl) (leg_utilization l)
    done
  done;
  Format.fprintf ppf "  volume: %s@\n"
    (if degraded t then "DEGRADED" else "healthy")
