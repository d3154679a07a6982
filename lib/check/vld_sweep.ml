open Vlog_util
module Plan = Fault.Plan

type config = {
  seed : int64;
  triggers : int;
  kinds : Plan.kind list;
}

let default =
  {
    seed = 7101L;
    triggers = 22;
    kinds =
      [ Plan.Power_cut; Plan.Torn_write; Plan.Grown_defect; Plan.Bit_rot;
        Plan.Transient_read 2 ];
  }

let smoke =
  { default with kinds = [ Plan.Torn_write; Plan.Power_cut ]; triggers = 3 }

(* Each workload runs [ops] operations over the first [hot_blocks] of a
   [logical_blocks] VLD (forcing overwrites) on a drive shrunk to three
   cylinders to stay fast. *)
let ops = 20
let logical_blocks = 300
let hot_blocks = 48
let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 3

(* Committed-content tag for (logical block, version): distinct within any
   realistic per-block history, so a recovered block identifies which
   committed version it carries — or that it carries none of them. *)
let tag ~logical ~version =
  Char.chr ((1 + (logical * 31) + (version * 7)) land 0xff)

let fresh_disk ?store clock =
  Workload.Rig.drive ?store ~profile ~clock Workload.Rig.D_vld

(* Fault kinds that strike while the workload runs; [Transient_read]
   instead strikes the recovery that follows the crash. *)
let workload_time = function
  | Plan.Torn_write | Plan.Bit_rot | Plan.Grown_defect | Plan.Power_cut -> true
  | Plan.Transient_read _ -> false
  | Plan.Drive_death | Plan.Drive_hang _ | Plan.Drive_flaky _
  | Plan.Latent_sectors _ ->
    (* drive kinds belong to volume legs, not this single-spindle sweep *)
    true
  | Plan.Nvm_cut | Plan.Nvm_torn | Plan.Nvm_destage_cut | Plan.Nvm_full ->
    (* NVM kinds belong to staged rigs; this sweep has no staging tier *)
    true

(* A map node holds at most this many entries, so damage to one node can
   regress at most this many logical blocks. *)
let max_blast_radius = 16

type cell = { kind : Plan.kind; trigger : int; with_tail : bool; case : int }

let judge (c : config) { kind; trigger; with_tail; case } log =
  let scenario_seed = Int64.add c.seed (Int64.of_int (case * 7919)) in
  let clock = Clock.create () in
  let disk = fresh_disk clock in
  let prng = Prng.create ~seed:scenario_seed in
  let vld = Blockdev.Vld.create ~disk ~logical_blocks ~prng:(Prng.split prng) () in
  let plan = Plan.create kind ~trigger ~seed:(Int64.add scenario_seed 1L) in
  if workload_time kind then Plan.install plan disk;
  let dev = Blockdev.Vld.device vld in
  let block_bytes = Vlog.Virtual_log.block_bytes (Blockdev.Vld.vlog vld) in
  (* Per-block committed history, newest first; [None] = absent.  Updated
     only after an operation returns, so a power cut mid-operation leaves
     the model at the last committed state — exactly what recovery owes. *)
  let hist = Array.make logical_blocks [ None ] in
  let wprng = Prng.split prng in
  let version = ref 0 in
  let cut = ref false in
  (try
     for _ = 1 to ops do
       let l = Prng.int wprng hot_blocks in
       if Prng.int wprng 6 = 0 then begin
         dev.Blockdev.Device.trim l;
         if List.hd hist.(l) <> None then hist.(l) <- None :: hist.(l)
       end
       else begin
         incr version;
         let tg = tag ~logical:l ~version:!version in
         match Blockdev.Vld.write_result vld l (Bytes.make block_bytes tg) with
         | Ok _ -> hist.(l) <- Some tg :: hist.(l)
         | Error _ -> ()
       end
     done;
     if with_tail then ignore (Blockdev.Vld.power_down vld)
   with Disk.Disk_sim.Power_cut -> cut := true);
  Plan.flush plan;
  let frozen = Disk.Sector_store.snapshot (Disk.Disk_sim.store disk) in
  let failf fmt = Cells.failf log fmt in
  (* Strict cells must recover the model exactly; only damage to the sole
     copy of map state (bit rot) is allowed to regress entries. *)
  let strict = match kind with Plan.Bit_rot -> false | _ -> true in
  let recovery_plan = ref None in
  let recover_from store ~faulty =
    let clock2 = Clock.create () in
    let disk2 = fresh_disk ~store clock2 in
    if faulty then begin
      let p = Plan.create kind ~trigger ~seed:(Int64.add scenario_seed 2L) in
      Plan.install p disk2;
      recovery_plan := Some p
    end;
    match
      Blockdev.Vld.recover ~disk:disk2 ~prng:(Prng.create ~seed:scenario_seed) ()
    with
    | Error e ->
      failf "recovery aborted: %s" e;
      None
    | Ok (vld2, report) -> Some (vld2, report, disk2)
  in
  let mapping vld2 =
    Array.init logical_blocks (fun l ->
        Vlog.Virtual_log.lookup (Blockdev.Vld.vlog vld2) l)
  in
  let degraded = ref false in
  (match recover_from frozen ~faulty:(not (workload_time kind)) with
  | None -> ()
  | Some (vld2, report, disk2) ->
    if report.Vlog.Virtual_log.corrupt_nodes > 0 then degraded := true;
    (match Vlog.Virtual_log.check_invariants (Blockdev.Vld.vlog vld2) with
    | Ok () -> ()
    | Error e -> failf "recovered map inconsistent: %s" e);
    let fm = Vlog.Virtual_log.freemap (Blockdev.Vld.vlog vld2) in
    let spb = Vlog.Freemap.sectors_per_block fm in
    let damaged = Plan.damaged_lbas plan in
    let overlaps_damage pba =
      let lba = Vlog.Freemap.lba_of_block fm pba in
      List.exists (fun d -> d >= lba && d < lba + spb) damaged
    in
    let divergent = ref 0 in
    for l = 0 to logical_blocks - 1 do
      let latest = List.hd hist.(l) in
      match Vlog.Virtual_log.lookup (Blockdev.Vld.vlog vld2) l with
      | None ->
        (* Absence is always in the history (blocks start absent), so a
           non-strict regression to absent is tolerated but counted. *)
        if latest <> None then
          if strict then failf "committed write to block %d lost" l
          else incr divergent
      | Some pba -> (
        match Blockdev.Vld.read_result vld2 l with
        | Error _ ->
          (* An honest error is owed only where the plan hurt the media. *)
          if strict || not (overlaps_damage pba) then
            failf "read error on undamaged block %d" l
          else incr divergent
        | Ok (data, _) ->
          let got = Some (Bytes.get data 0) in
          if got <> latest then begin
            incr divergent;
            if strict then
              failf "block %d holds stale data after recovery" l
            else if not (List.mem got hist.(l)) then
              failf "block %d holds fabricated data" l
          end)
    done;
    if (not strict) && !divergent > max_blast_radius then
      failf "damage to one node regressed %d blocks (max %d)" !divergent
        max_blast_radius;
    (* Idempotence: crash right after recovery, recover again, compare. *)
    let again = Disk.Sector_store.snapshot (Disk.Disk_sim.store disk2) in
    (match recover_from again ~faulty:false with
    | None -> ()
    | Some (vld3, _, _) ->
      if mapping vld2 <> mapping vld3 then failf "recovery is not idempotent"));
  let injected =
    Plan.fired plan
    || match !recovery_plan with Some p -> Plan.fired p | None -> false
  in
  {
    Cells.tallies =
      [ Bool.to_int injected; Bool.to_int !cut; Bool.to_int !degraded ];
    verdict = "ok";
  }

(* The matrix in canonical order: tail-major (without the tail record,
   then with it), then kind, then trigger. *)
let cells (c : config) =
  List.concat_map
    (fun with_tail ->
      List.concat_map
        (fun kind ->
          List.init c.triggers (fun trigger case ->
              { kind; trigger; with_tail; case }))
        c.kinds)
    [ false; true ]

let sweep =
  {
    Cells.keys = [ "seed"; "kind"; "trigger"; "tail"; "case" ];
    coords =
      (fun c x ->
        [ Int64.to_string c.seed; Plan.kind_to_string x.kind;
          string_of_int x.trigger; string_of_bool x.with_tail;
          string_of_int x.case ]);
    cell_of =
      (fun get ->
        let ( let* ) = Result.bind in
        let* kind = Plan.kind_of_string (get "kind") in
        let* trigger = Cells.int_value "trigger" (get "trigger") in
        let* with_tail = Cells.bool_value "tail" (get "tail") in
        let* case = Cells.int_value "case" (get "case") in
        Ok { kind; trigger; with_tail; case });
    with_seed = (fun c seed -> { c with seed });
    cells;
    tallies = [ "faults injected"; "power cuts"; "degraded recoveries" ];
    judge;
  }
