open Vlog_util

type run_stats = {
  tracks_emptied : int;
  blocks_moved : int;
  map_nodes_moved : int;
  ms_used : float;
}

let zero_stats = { tracks_emptied = 0; blocks_moved = 0; map_nodes_moved = 0; ms_used = 0. }

let add_stats a b =
  {
    tracks_emptied = a.tracks_emptied + b.tracks_emptied;
    blocks_moved = a.blocks_moved + b.blocks_moved;
    map_nodes_moved = a.map_nodes_moved + b.map_nodes_moved;
    ms_used = a.ms_used +. b.ms_used;
  }

type t = {
  vlog : Virtual_log.t;
  prng : Prng.t;
  mutable current : int option; (* target track being emptied, resumable *)
  mutable totals : run_stats;
  scratch : Bytes.t; (* one block: every move passes through it *)
}

let create ~vlog ~prng () =
  {
    vlog;
    prng;
    current = None;
    totals = zero_stats;
    scratch = Bytes.create (Virtual_log.block_bytes vlog);
  }

let total t = t.totals

let fm t = Virtual_log.freemap t.vlog
let disk t = Virtual_log.disk t.vlog
let now t = Clock.now (Disk.Disk_sim.clock (disk t))

let landing_track = 0

let is_empty_track t tr = Freemap.free_in_track (fm t) tr = Freemap.blocks_per_track (fm t)

(* A rough upper bound on one block read or write: positioning plus a
   revolution plus the transfer; used only to decide whether another move
   fits before the deadline. *)
let per_access_estimate t =
  let p = Disk.Disk_sim.profile (disk t) in
  let xfer =
    float_of_int (Freemap.sectors_per_block (fm t)) *. Disk.Profile.sector_ms p
  in
  p.Disk.Profile.head_switch_ms +. Disk.Profile.revolution_ms p +. xfer

let eligible_targets t =
  let freemap = fm t in
  let active = Eager.active_track (Virtual_log.eager t.vlog) in
  let ok tr =
    tr <> landing_track
    && Some tr <> active
    && Freemap.occupied_in_track freemap tr > 0
    && not (is_empty_track t tr)
  in
  List.filter ok (List.init (Freemap.n_tracks freemap) Fun.id)

let pick_target t =
  match eligible_targets t with
  | [] -> None
  | candidates -> Some (Prng.pick t.prng (Array.of_list candidates))

(* Occupied blocks of a track, classified. *)
type occupant = Data of int * int (* pba, logical *) | Map_piece of int (* piece idx *)

let occupants t track =
  let freemap = fm t in
  let per = Freemap.blocks_per_track freemap in
  let base = track * per in
  let classify acc pba =
    if Freemap.is_free freemap pba then acc
    else
      match Virtual_log.logical_of_physical t.vlog pba with
      | Some logical -> Data (pba, logical) :: acc
      | None ->
        let piece =
          let rec find i =
            if i >= Virtual_log.n_pieces t.vlog then None
            else if Virtual_log.piece_location t.vlog i = Some pba then Some i
            else find (i + 1)
          in
          find 0
        in
        (match piece with Some i -> Map_piece i :: acc | None -> acc (* landing zone *))
  in
  List.fold_left classify [] (List.init per (fun i -> base + i))

(* Move as much of [track] as the deadline allows.  Returns [`Emptied],
   [`Out_of_time] or [`Stuck] (no destination holes remain). *)
let compact_track t ~track ~deadline =
  let tr = Disk.Disk_sim.trace (disk t) in
  let sp =
    if Trace.enabled tr then
      Trace.enter tr ~attrs:[ ("track", string_of_int track) ] "vld.compact"
    else Vlog_util.Io.no_span
  in
  let freemap = fm t in
  let eager = Virtual_log.eager t.vlog in
  let spb = Freemap.sectors_per_block freemap in
  let est = per_access_estimate t in
  (* Relocated data plugs holes in partially-filled tracks: never the
     target, never a fresh empty track.  Map nodes written by the commit
     only avoid the target — empty tracks are fair game for them (and at
     high utilization may be the only space left). *)
  let exclude_data tr = tr = track || is_empty_track t tr in
  let exclude_target tr = tr = track in
  let moves = ref [] and rewrites = ref [] and moved_blocks = ref 0 in
  let commit_reserve () = est *. float_of_int (1 + List.length !rewrites) in
  let commit () =
    if !moves <> [] || !rewrites <> [] then
      Eager.with_exclusion eager exclude_target (fun () ->
          Eager.with_soft_exclusion eager
            (fun tr -> is_empty_track t tr)
            (fun () -> ignore (Virtual_log.update ~rewrite_pieces:!rewrites t.vlog !moves)))
  in
  let result = ref None in
  let attempt occupant =
    if !result = None then begin
      if now t +. (2. *. est) +. commit_reserve () > deadline then result := Some `Out_of_time
      else
        match occupant with
        | Map_piece i -> rewrites := i :: !rewrites
        | Data (pba, logical) -> (
          match Eager.choose ~exclude_tracks:exclude_data ~greedy_only:true eager with
          | None -> result := Some `Stuck
          | Some dest ->
            let lba = Freemap.lba_of_block freemap pba in
            (match
               Disk.Disk_sim.read_checked_into ~scsi:false (disk t) ~lba ~sectors:spb
                 t.scratch ~pos:0
             with
            | Ok (), _ -> ()
            | Error e, _ -> raise (Disk.Disk_sim.Media_failure e));
            Freemap.occupy freemap dest;
            ignore
              (Disk.Disk_sim.write ~scsi:false (disk t)
                 ~lba:(Freemap.lba_of_block freemap dest) t.scratch);
            moves := (logical, Some dest) :: !moves;
            incr moved_blocks)
    end
  in
  List.iter attempt (occupants t track);
  commit ();
  let emptied = Freemap.occupied_in_track freemap track = 0 in
  if emptied then Eager.note_empty_track eager track;
  let outcome =
    if emptied then `Emptied else match !result with Some r -> r | None -> `Stuck
  in
  if !moved_blocks > 0 then Trace.incr tr ~by:!moved_blocks "vld.compactor_moves";
  if emptied then Trace.incr tr "vld.tracks_emptied";
  Trace.exit tr sp;
  (outcome, !moved_blocks, List.length !rewrites)

let run t ~deadline =
  let start = now t in
  let stats = ref zero_stats in
  (* A target can be stuck (no holes reachable under its exclusions)
     while another still compacts; give up only after a few consecutive
     dead ends. *)
  let rec loop consecutive_stuck =
    if now t >= deadline || consecutive_stuck >= 3 then ()
    else begin
      let target =
        match t.current with
        | Some tr when (not (is_empty_track t tr)) && Freemap.occupied_in_track (fm t) tr > 0
          ->
          Some tr
        | _ -> pick_target t
      in
      match target with
      | None -> ()
      | Some track ->
        t.current <- Some track;
        let outcome, moved, rewrites = compact_track t ~track ~deadline in
        stats :=
          add_stats !stats
            {
              tracks_emptied = (if outcome = `Emptied then 1 else 0);
              blocks_moved = moved;
              map_nodes_moved = rewrites;
              ms_used = 0.;
            };
        (match outcome with
        | `Emptied ->
          t.current <- None;
          loop 0
        | `Out_of_time -> () (* resume this track next idle window *)
        | `Stuck ->
          t.current <- None;
          loop (if moved = 0 then consecutive_stuck + 1 else 0))
    end
  in
  loop 0;
  let used = now t -. start in
  let final = { !stats with ms_used = used } in
  t.totals <- add_stats t.totals final;
  final
