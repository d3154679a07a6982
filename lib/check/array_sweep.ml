open Vlog_util
module Rig = Workload.Rig

(* ---- Matrix axes ---- *)

type fault = F_drive of Fault.Plan.kind | F_double_death

let fault_to_string = function
  | F_drive k -> Fault.Plan.kind_to_string k
  | F_double_death -> "doubledeath"

let fault_of_string = function
  | "doubledeath" -> Ok F_double_death
  | s -> (
    match Fault.Plan.kind_of_string s with
    | Error _ as e -> e
    | Ok k when not (Fault.Plan.is_drive_kind k) ->
      Error
        (Printf.sprintf
           "fault %S is not a whole-drive kind \
            (death|hang[:ms]|flaky[:n]|latent[:n]|doubledeath)"
           s)
    | Ok k -> Ok (F_drive k))

type phase = P_batch | P_drain | P_rebuild

let phase_to_string = function
  | P_batch -> "batch"
  | P_drain -> "drain"
  | P_rebuild -> "rebuild"

let phase_of_string = function
  | "batch" -> Ok P_batch
  | "drain" -> Ok P_drain
  | "rebuild" -> Ok P_rebuild
  | s -> Error (Printf.sprintf "unknown phase %S (batch|drain|rebuild)" s)

type config = {
  seed : int64;
  rounds : int;
  faults : fault list;
  depths : int list;
}

let default =
  {
    seed = 9203L;
    rounds = 12;
    faults =
      [
        F_drive Fault.Plan.Drive_death;
        F_drive (Fault.Plan.Drive_hang 40.);
        F_drive (Fault.Plan.Drive_flaky 3);
        F_drive (Fault.Plan.Latent_sectors 16);
        F_double_death;
      ];
    depths = [ 1; 4; 16 ];
  }

let smoke =
  {
    default with
    rounds = 8;
    faults =
      [
        F_drive Fault.Plan.Drive_death;
        F_drive (Fault.Plan.Drive_hang 40.);
        F_drive (Fault.Plan.Drive_flaky 3);
        F_double_death;
      ];
    depths = [ 4 ];
  }

(* Rebuild needs a mirror peer as copy source and double-death needs a
   group of two; neither exists on a stripe.  Double-death during
   rebuild is the same scenario as [death] in [P_rebuild] (the rebuild's
   source peer dies — second failure while resilvering), so it is not a
   separate cell. *)
let included (array : Rig.array_kind) fault phase =
  match (array, fault, phase) with
  | (A_svld | A_sreg), F_double_death, _ -> false
  | (A_svld | A_sreg), _, P_rebuild -> false
  | A_raid10, F_double_death, P_rebuild -> false
  | _ -> true

(* ---- Rig plumbing ---- *)

(* Every cell's volume exports [logical_blocks] over 3-cylinder st19101
   legs. *)
let logical_blocks = 48
let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 3
let sector_bytes = profile.Disk.Profile.geometry.Disk.Geometry.sector_bytes

(* Two spindles per stripe, two mirror pairs for raid10. *)
let shape (array : Rig.array_kind) =
  Rig.array_shape array ~spindles:(match array with A_raid10 -> 4 | A_svld | A_sreg -> 2)

let bname b = Printf.sprintf "b%03d" b

let block_of_name n =
  match int_of_string_opt (String.sub n 1 (String.length n - 1)) with
  | Some b -> b
  | None -> invalid_arg ("Array_sweep: not a block file name: " ^ n)

(* The oracle's view of the live volume: one single-block file per
   logical block, always present, its content whatever the volume reads
   back (errors surface honestly as [`Io]). *)
let view_of vol =
  let dev = Volume.device vol in
  {
    Oracle.v_files = (fun () -> List.init logical_blocks bname);
    v_size = (fun _ -> Some (Volume.block_bytes vol));
    v_read_block =
      (fun name _fb ->
        match dev.Blockdev.Device.read (block_of_name name) with
        | Ok (data, _) -> Ok data
        | Error _ -> Error `Io);
  }

(* ---- One cell ---- *)

(* Judging matrix.  [loss_tolerated]: honest loss is a legal outcome
   (stripe hit by a permanent fault; mirror group that lost every
   copy).  [loss_required]: the fault destroys data beyond what any
   redundancy can cover, so the sweep must SEE the loss — reads failing
   or recovery refusing — or the stack is lying. *)
let loss_tolerated (array : Rig.array_kind) fault phase =
  match (array, fault, phase) with
  | A_raid10, F_double_death, _ -> true
  | A_raid10, F_drive Fault.Plan.Drive_death, P_rebuild -> true
  (* latent sectors on a live leg: reads fail over and read-repair heals
     what the workload touches, but blocks the workload never revisits
     stay unreadable on that one leg — and a latent range on the rebuild
     *source* is the classic unrecoverable-read-error-during-resilver,
     which may honestly cost the array the affected blocks *)
  | A_raid10, F_drive (Fault.Plan.Latent_sectors _), _ -> true
  | A_raid10, _, _ -> false
  | (A_svld | A_sreg), F_drive (Fault.Plan.Drive_hang _), _ -> false
  | (A_svld | A_sreg), _, _ -> true

let loss_required (array : Rig.array_kind) fault phase =
  match (array, fault, phase) with
  | A_raid10, F_double_death, _ -> true
  | A_raid10, F_drive Fault.Plan.Drive_death, P_rebuild -> true
  | (A_svld | A_sreg), F_drive Fault.Plan.Drive_death, _ -> true
  | _ -> false

type cell = {
  array : Rig.array_kind;
  fault : fault;
  depth : int;
  phase : phase;
  case : int;
}

let judge (c : config) { array; fault; depth; phase; case } log =
  let scenario_seed = Int64.add c.seed (Int64.of_int (case * 7919)) in
  let prng = Prng.create ~seed:scenario_seed in
  let layout, leg_kind = shape array in
  let n = Volume.n_legs layout in
  let spare = array = Rig.A_raid10 in
  let clock = Clock.create () in
  let vol =
    Rig.volume ~spare ~profile ~clock ~layout ~leg_kind ~logical_blocks
      ~prng:(Prng.split prng) ()
  in
  let disks = Volume.disks vol in
  let dev = Volume.device vol in
  let bb = Volume.block_bytes vol in
  let failf fmt = Cells.failf log fmt in
  let now () = Clock.now clock in
  (* Oracle model: block b <-> single-block file "b%03d". *)
  let oracle = Oracle.create ~sector_bytes in
  List.iter
    (fun b ->
      Oracle.begin_create oracle (bname b);
      Oracle.commit_create oracle (bname b))
    (List.init logical_blocks Fun.id);
  let buf tag = Bytes.make bb tag in
  (* Prefill every block before any fault exists: all must land. *)
  let prefill_tag = 'A' in
  List.iter
    (fun b ->
      Oracle.begin_write oracle (bname b) ~fblock:0 ~tag:prefill_tag ~size:bb)
    (List.init logical_blocks Fun.id);
  let pre =
    Volume.write_batch_report vol ~at:(now ())
      (List.init logical_blocks (fun b -> (b, buf prefill_tag)))
  in
  (match pre.Volume.wr_failed with
  | [] -> ()
  | e :: _ ->
    failf "prefill failed on block %d before any fault was installed"
      e.Volume.be_block);
  List.iter
    (fun b ->
      Oracle.commit_write oracle (bname b) ~fblock:0 ~tag:prefill_tag ~size:bb)
    pre.Volume.wr_written;
  Oracle.barrier oracle;
  (* Install the fault.  Victim selection and triggers are functions of
     the cell coordinates alone. *)
  let trigger = 2 + (case mod 5) in
  let plans =
    match phase with
    | P_batch | P_drain -> (
      match fault with
      | F_drive k ->
        let victim = case mod n in
        let p =
          Fault.Plan.create k ~trigger ~seed:(Int64.add scenario_seed 1L)
        in
        Fault.Plan.install p disks.(victim);
        [ p ]
      | F_double_death ->
        (* both legs of one mirror group, staggered so the second death
           lands while the first one's rebuild is still copying *)
        let g = case mod 2 in
        let mk i leg =
          let p =
            Fault.Plan.create Fault.Plan.Drive_death ~trigger:(trigger + (i * 2))
              ~seed:(Int64.add scenario_seed (Int64.of_int (1 + i)))
          in
          Fault.Plan.install p disks.((g * 2) + leg);
          p
        in
        [ mk 0 0; mk 1 1 ])
    | P_rebuild -> (
      match fault with
      | F_double_death -> [] (* excluded by [included] *)
      | F_drive k ->
        (* kill one leg, start its resilver, then aim the fault at the
           rebuild's only source: its mirror peer *)
        let g = case mod 2 and li = case / 2 mod 2 in
        Volume.kill vol ~group:g ~leg:li;
        (match Volume.start_rebuild vol ~group:g ~leg:li with
        | Ok () -> ()
        | Error e -> failf "start_rebuild refused: %s" e);
        let source = (g * 2) + (1 - li) in
        let p =
          Fault.Plan.create k ~trigger:(4 + (case mod 5))
            ~seed:(Int64.add scenario_seed 1L)
        in
        Fault.Plan.install p disks.(source);
        [ p ])
  in
  (* Workload: [rounds] windows of [depth] writes then [depth] reads,
     each window submitted at one arrival so every touched leg sees the
     full depth in its tagged queue. *)
  let wprng = Prng.split prng in
  let sample k =
    let a = Array.init logical_blocks Fun.id in
    for i = Array.length a - 1 downto 1 do
      let j = Prng.int wprng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list (Array.sub a 0 (min k (Array.length a)))
  in
  for r = 0 to c.rounds - 1 do
    let tag = Char.chr (Char.code 'B' + (r mod 24)) in
    let blocks = sample depth in
    List.iter
      (fun b -> Oracle.begin_write oracle (bname b) ~fblock:0 ~tag ~size:bb)
      blocks;
    let written =
      match phase with
      | P_drain ->
        (* native host queue: depth requests in flight, fault mid-drain *)
        let ids =
          List.map
            (fun b ->
              (b, dev.Blockdev.Device.submit (Blockdev.Device.Write (b, buf tag))))
            blocks
        in
        let acks = dev.Blockdev.Device.drain () in
        List.filter_map
          (fun (b, id) ->
            match List.assoc_opt id acks with
            | Some (Ok _) -> Some b
            | Some (Error _) | None -> None)
          ids
      | P_batch | P_rebuild ->
        let rep =
          Volume.write_batch_report vol ~at:(now ())
            (List.map (fun b -> (b, buf tag)) blocks)
        in
        rep.Volume.wr_written
    in
    List.iter
      (fun b -> Oracle.commit_write oracle (bname b) ~fblock:0 ~tag ~size:bb)
      written;
    (* volume writes are write-through: a committed batch is durable *)
    Oracle.barrier oracle;
    let rblocks = sample depth in
    (match phase with
    | P_drain ->
      List.iter
        (fun b -> ignore (dev.Blockdev.Device.submit (Blockdev.Device.Read b)))
        rblocks;
      ignore (dev.Blockdev.Device.drain ())
    | P_batch | P_rebuild ->
      ignore (Volume.read_batch_report vol ~at:(now ()) rblocks));
    if phase = P_rebuild then Volume.idle vol 8.
  done;
  (* Quiesce: suspects resolved, rebuilds finished or honestly
     abandoned, dirty-region sets drained.  Bounded — a cell that hangs
     here is a liveness bug the sweep must expose, not mask. *)
  Volume.settle vol;
  let injected = List.exists Fault.Plan.fired plans || phase = P_rebuild in
  let tolerated = loss_tolerated array fault phase in
  let required = loss_required array fault phase in
  (* Online judgement. *)
  let scan_failures v =
    let dev = Volume.device v in
    List.length
      (List.filter
         (fun b ->
           match dev.Blockdev.Device.read b with
           | Ok _ -> false
           | Error _ -> true)
         (List.init logical_blocks Fun.id))
  in
  let online_lost = scan_failures vol in
  if online_lost > 0 && not tolerated then
    failf "%d/%d blocks unreadable after settle on a shape that should \
           tolerate this fault"
      online_lost logical_blocks;
  let allowed =
    Report.Unflushed :: (if tolerated then [ Report.Io_unreadable ] else [])
  in
  let judge_volume which v =
    let rep = Volume_check.check v in
    List.iter
      (fun (f : Report.finding) ->
        if not (List.mem f.Report.category allowed) then
          failf "%s volume check: [%s] %s" which
            (Report.category_to_string f.Report.category)
            f.Report.detail)
      rep.Report.findings
  in
  let mode =
    if tolerated then Oracle.Lax
    else match array with Rig.A_raid10 -> Oracle.Redundant | _ -> Oracle.Strict
  in
  let oracle_checks = ref 0 in
  let judge_oracle which v =
    incr oracle_checks;
    List.iter (failf "%s oracle: %s" which) (Oracle.check oracle ~mode (view_of v))
  in
  judge_volume "online" vol;
  judge_oracle "online" vol;
  (* Crash and remount on fresh drives: recovery must either come back
     or refuse with an honest data-loss error — never hang, never
     fabricate. *)
  let stores =
    Array.map
      (fun d -> Disk.Sector_store.snapshot (Disk.Disk_sim.store d))
      (Volume.disks vol)
  in
  let recover_lost = ref false in
  let recovered = ref 0 in
  (match
     Rig.recover_volume ~spare ~profile ~clock:(Clock.create ()) ~layout ~leg_kind
       ~logical_blocks
       ~prng:(Prng.create ~seed:(Int64.add scenario_seed 3L))
       stores
   with
  | Error msg ->
    recover_lost := true;
    if not tolerated then failf "recover refused the platters: %s" msg
  | Ok (vol2, _rep) ->
    incr recovered;
    Volume.settle vol2;
    let remount_lost = scan_failures vol2 in
    if remount_lost > 0 then recover_lost := true;
    if remount_lost > 0 && not tolerated then
      failf "%d/%d blocks unreadable after crash recovery" remount_lost
        logical_blocks;
    judge_volume "remount" vol2;
    judge_oracle "remount" vol2);
  let loss_observed = online_lost > 0 || !recover_lost in
  if required && not loss_observed then
    failf
      "fault was masked: this cell destroys data beyond redundancy, yet \
       every block read back and recovery succeeded";
  {
    Cells.tallies =
      [
        Bool.to_int injected;
        Bool.to_int (loss_observed && not (Cells.failed log));
        !recovered;
        !oracle_checks;
      ];
    verdict = (if loss_observed then "data-loss" else "ok");
  }

(* ---- The matrix ---- *)

let cells (c : config) =
  List.concat_map
    (fun array ->
      List.concat_map
        (fun fault ->
          List.concat_map
            (fun depth ->
              List.filter_map
                (fun phase ->
                  if included array fault phase then
                    Some (fun case -> { array; fault; depth; phase; case })
                  else None)
                [ P_batch; P_drain; P_rebuild ])
            c.depths)
        c.faults)
    [ Rig.A_svld; A_sreg; A_raid10 ]

let sweep =
  {
    Cells.keys = [ "array"; "seed"; "fault"; "depth"; "phase"; "case" ];
    coords =
      (fun c x ->
        [ Rig.array_to_string x.array; Int64.to_string c.seed;
          fault_to_string x.fault; string_of_int x.depth;
          phase_to_string x.phase; string_of_int x.case ]);
    cell_of =
      (fun get ->
        let ( let* ) = Result.bind in
        let* array = Rig.array_of_string (get "array") in
        let* fault = fault_of_string (get "fault") in
        let* depth = Cells.int_value "depth" (get "depth") in
        let* phase = phase_of_string (get "phase") in
        let* case = Cells.int_value "case" (get "case") in
        Ok { array; fault; depth; phase; case });
    with_seed = (fun c seed -> { c with seed });
    cells;
    tallies =
      [ "faults injected"; "honest data losses"; "recoveries"; "oracle checks" ];
    judge;
  }
