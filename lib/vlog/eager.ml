open Vlog_util

type mode = Nearest | Sweep

(* Every float the indexed search reads or writes.  OCaml stores an
   all-float record flat, so reading these constants and updating the
   running best allocates nothing. *)
type frame = {
  sector_ms : float;
  sectors : float;  (* sectors per track *)
  head_switch_ms : float;
  mutable arrival : float;  (* now + lead time of the search in progress *)
  mutable best_cost : float;
}

type t = {
  disk : Disk.Disk_sim.t;
  freemap : Freemap.t;
  mode : mode;
  switch_free_fraction : float;
  mutable empty_tracks : int list;
  mutable active_track : int option;
  mutable exclusion : (int -> bool) option;
  mutable soft_exclusion : (int -> bool) option;
  seek_ms : Float.Array.t;  (* seek time by cylinder distance *)
  sectors_per_track : int;
  track_skew : int;
  frame : frame;
  mutable best_block : int;  (* the block [frame.best_cost] belongs to, or -1 *)
}

let create ?(mode = Sweep) ?(switch_free_fraction = 0.25) ~disk ~freemap () =
  if switch_free_fraction < 0. || switch_free_fraction >= 1. then
    invalid_arg "Eager.create: switch_free_fraction must be in [0,1)";
  let profile = Disk.Disk_sim.profile disk in
  if Freemap.track_skew freemap <> profile.Disk.Profile.track_skew then
    invalid_arg "Eager.create: freemap track skew differs from the disk's";
  let g = Freemap.geometry freemap in
  let spt = g.Disk.Geometry.sectors_per_track in
  {
    disk;
    freemap;
    mode;
    switch_free_fraction;
    empty_tracks = [];
    active_track = None;
    exclusion = None;
    soft_exclusion = None;
    seek_ms = Float.Array.init g.Disk.Geometry.cylinders (Disk.Profile.seek_ms profile);
    sectors_per_track = spt;
    track_skew = profile.Disk.Profile.track_skew;
    frame =
      {
        sector_ms = Disk.Profile.sector_ms profile;
        sectors = float_of_int spt;
        head_switch_ms = profile.Disk.Profile.head_switch_ms;
        arrival = 0.;
        best_cost = infinity;
      };
    best_block = -1;
  }

let mode t = t.mode
let freemap t = t.freemap

let no_exclusion _ = false

let surface t track = Freemap.track_in_cylinder t.freemap track
let cylinder t track = Freemap.cylinder_of_track t.freemap track

let track_move_cost t track =
  Disk.Disk_sim.move_cost t.disk ~cyl:(cylinder t track) ~track:(surface t track)

(* The search below costs a handful of tracks per cylinder: the
   freemap's rotational index names the few head-switch tracks that can
   hold the soonest free block (see [eval_cylinder]), and only those are
   costed in full.  It allocates nothing: every float it computes stays
   inside one function body or an [@inline] helper, the running best
   lives in [t.frame], and the clock is read as a field ([Clock.now]
   would box its result).  The default build compiles every library
   module opaque, so any float crossing a module boundary is boxed; that
   is why these helpers restate [Disk.Disk_sim]'s move cost and
   rotational formula (platter phase per arrival, skew step per track,
   delay from a position) over [t.frame].  [Reference] goes through
   [Disk.Disk_sim] itself, so the oracle tests pin the two bit for bit. *)

let[@inline] move_cost t track =
  let cyl = cylinder t track and cur = Disk.Disk_sim.current_cylinder t.disk in
  let switch =
    if surface t track <> Disk.Disk_sim.current_track t.disk then t.frame.head_switch_ms
    else 0.
  in
  if cyl <> cur then Float.max (Float.Array.get t.seek_ms (abs (cyl - cur))) switch
  else switch

let[@inline] platter_phase f at = Float.rem (at /. f.sector_ms) f.sectors

let[@inline] position t ~phase track =
  let f = t.frame in
  let skewed = phase -. float_of_int (t.track_skew * track mod t.sectors_per_track) in
  let pos = Float.rem skewed f.sectors in
  if pos < 0. then pos +. f.sectors else pos

let[@inline] delay f ~pos sector =
  let dist = Float.rem (float_of_int sector -. pos) f.sectors in
  let dist = if dist < 0. then dist +. f.sectors else dist in
  dist *. f.sector_ms

(* In-track block index whose start sector is the cyclically next to pass
   under the head when the rotational position is [pos]: the smallest
   slot k with k * sectors_per_block >= pos, which is [blocks_per_track]
   (i.e. wrap to slot 0) when the head is already past the last block
   boundary.  The float ceiling is corrected with exact comparisons so
   the result never disagrees with the per-block float costs. *)
let[@inline] first_slot_at_or_after t pos =
  let spb = float_of_int (Freemap.sectors_per_block t.freemap) in
  let k = ref (int_of_float (Float.ceil (pos /. spb))) in
  if !k < 0 then k := 0;
  while !k > 0 && float_of_int (!k - 1) *. spb >= pos do decr k done;
  while float_of_int !k *. spb < pos do incr k done;
  !k

(* Offer the cheapest free block of [track], for a head that gets there
   after [move] at platter phase [phase], to the running best
   ([t.frame.best_cost], [t.best_block]).  Via the freemap's allocation
   index: the winning block is the cyclically next free slot, with no
   fold over occupied blocks.  The rotational lower bound (delay to the
   next block boundary, free or not) skips the index query when even
   that cannot beat the best.  Ties keep the earlier offer. *)
let[@inline] offer_track t ~move ~phase track =
  if Freemap.free_in_track t.freemap track > 0 then begin
    let f = t.frame in
    let pos = position t ~phase track in
    let slot =
      let k = first_slot_at_or_after t pos in
      if k >= Freemap.blocks_per_track t.freemap then 0 else k
    in
    if move +. delay f ~pos (slot * Freemap.sectors_per_block t.freemap) < f.best_cost
    then begin
      let block = Freemap.nearest_free_in_track t.freemap ~track ~slot in
      let cost = move +. delay f ~pos (Freemap.start_sector_of_block t.freemap block) in
      if cost < f.best_cost then begin
        f.best_cost <- cost;
        t.best_block <- block
      end
    end
  end

(* Cheapest free block of one track, or -1; its cost is left in
   [t.frame.best_cost].  [lead_time] models delay (e.g. SCSI processing)
   before the mechanical access can start. *)
let best_block_in_track t ~lead_time track =
  let f = t.frame in
  let move = move_cost t track in
  f.best_cost <- infinity;
  t.best_block <- -1;
  offer_track t ~move
    ~phase:(platter_phase f ((Disk.Disk_sim.clock t.disk).Clock.now +. lead_time +. move))
    track;
  t.best_block

let best_in_track t ~lead_time track =
  let block = best_block_in_track t ~lead_time track in
  if block < 0 then None else Some (t.frame.best_cost, block)

let locate_cost t block =
  let track = Freemap.track_of_block t.freemap block in
  let move = track_move_cost t track in
  let arrival = Clock.now (Disk.Disk_sim.clock t.disk) +. move in
  let sector = Freemap.start_sector_of_block t.freemap block in
  move +. Disk.Disk_sim.rotational_delay_to t.disk ~track_index:track ~sector ~at:arrival

(* One cylinder of the greedy search.  Fully-occupied cylinders and those
   whose bare seek already reaches the best cost are skipped.  Every
   track of the cylinder has one of two move costs, staying on the
   current surface or paying the head switch, so both moves and the
   platter phase at both arrivals are computed once per cylinder; a
   track whose move alone reaches the best cost is skipped.

   The head-switch tracks share one move and one platter phase [p], so
   the soonest free block among them is the one whose absolute angle
   comes first at or after [p]: the freemap's rotational index finds
   that angle [a*] by a cyclic scan from [ceil p], and only the tracks
   free at [a*] can win.  Every other track's soonest block is at least
   one sector (23 us on the ST19101) later in exact arithmetic, far
   beyond float error, with one exception: rounding [phase - skew] can
   collapse a track's position onto the integer angle just below [p]
   (never past it), making a block there look due now.  So the tracks
   free at [ceil p - 1] are offered too, then the current-surface track
   with its own move, all in ascending surface order so the
   earliest-offer tie-break of the full per-track loop is kept. *)
let eval_cylinder t ~exclude_tracks ~cur ~cur_surface c =
  if Freemap.free_in_cylinder t.freemap c > 0 then begin
    let f = t.frame in
    let seek = Float.Array.get t.seek_ms (abs (c - cur)) in
    if seek < f.best_cost then begin
      let move_same = if c <> cur then Float.max seek 0. else 0. in
      let move_switch =
        if c <> cur then Float.max seek f.head_switch_ms else f.head_switch_ms
      in
      let phase_same = platter_phase f (f.arrival +. move_same) in
      let phase_switch = platter_phase f (f.arrival +. move_switch) in
      let tpc = (Freemap.geometry t.freemap).Disk.Geometry.tracks_per_cylinder in
      let switch_surfaces = ref 0 and same_usable = ref false in
      for s = 0 to tpc - 1 do
        let track = (c * tpc) + s in
        if s = cur_surface then
          same_usable :=
            move_same < f.best_cost
            && Freemap.free_in_track t.freemap track > 0
            && not (exclude_tracks track)
        else if
          move_switch < f.best_cost
          && Freemap.free_in_track t.freemap track > 0
          && not (exclude_tracks track)
        then switch_surfaces := !switch_surfaces lor (1 lsl s)
      done;
      let candidates =
        if !switch_surfaces = 0 then 0
        else begin
          let spt = t.sectors_per_track in
          let up = int_of_float (Float.ceil phase_switch) in
          let first =
            Freemap.first_angle_free t.freemap ~cyl:c
              ~angle:(if up >= spt then 0 else up)
              ~surfaces:!switch_surfaces
          in
          let below = if up = 0 then spt - 1 else up - 1 in
          (Freemap.surfaces_free_at t.freemap ~cyl:c ~angle:first
          lor Freemap.surfaces_free_at t.freemap ~cyl:c ~angle:below)
          land !switch_surfaces
        end
      in
      let candidates =
        if !same_usable then candidates lor (1 lsl cur_surface) else candidates
      in
      let m = ref candidates and s = ref 0 in
      while !m <> 0 do
        if !m land 1 <> 0 then begin
          let same = !s = cur_surface in
          let move = if same then move_same else move_switch in
          if move < f.best_cost then
            offer_track t ~move
              ~phase:(if same then phase_same else phase_switch)
              ((c * tpc) + !s)
        end;
        m := !m lsr 1;
        incr s
      done
    end
  end

(* Greedy nearest-free-block search over cylinders in the mode's order,
   generated incrementally (no per-allocation list of all cylinders).
   All pruning is sound with respect to the reference search below: in
   [Nearest] order, where remaining distances only grow, the whole
   search stops once the bare seek reaches the best cost.  Ties keep the
   earliest candidate in search order, exactly like the reference fold.
   Returns the block, or -1. *)
let greedy t ~exclude_tracks ~lead_time =
  let cylinders = (Freemap.geometry t.freemap).Disk.Geometry.cylinders in
  let cur = Disk.Disk_sim.current_cylinder t.disk in
  let cur_surface = Disk.Disk_sim.current_track t.disk in
  let f = t.frame in
  f.arrival <- (Disk.Disk_sim.clock t.disk).Clock.now +. lead_time;
  f.best_cost <- infinity;
  t.best_block <- -1;
  (match t.mode with
  | Nearest ->
    (* Current cylinder, then +/-1, +/-2, ...; distances of remaining
       candidates only grow, so the search stops outright once the bare
       seek at distance [d] cannot beat the best. *)
    let d = ref 0 in
    let stop = ref false in
    while (not !stop) && !d < cylinders do
      if t.best_block >= 0 && Float.Array.get t.seek_ms !d >= f.best_cost then
        stop := true
      else begin
        if cur + !d < cylinders then
          eval_cylinder t ~exclude_tracks ~cur ~cur_surface (cur + !d);
        if !d > 0 && cur - !d >= 0 then
          eval_cylinder t ~exclude_tracks ~cur ~cur_surface (cur - !d);
        incr d
      end
    done
  | Sweep ->
    (* One-direction sweep with wrap.  After the wrap the candidates
       approach [cur] from below, ending at distance 1, so (unless the
       head is at cylinder 0 and distances are monotone) the minimum
       distance still ahead is 1 from the second step on. *)
    let d = ref 0 in
    let stop = ref false in
    while (not !stop) && !d < cylinders do
      let min_rem_dist = if cur = 0 then !d else if !d = 0 then 0 else 1 in
      if t.best_block >= 0 && Float.Array.get t.seek_ms min_rem_dist >= f.best_cost then
        stop := true
      else begin
        eval_cylinder t ~exclude_tracks ~cur ~cur_surface ((cur + !d) mod cylinders);
        incr d
      end
    done);
  t.best_block

(* The original O(cylinders * tracks * blocks) search, kept as the
   equivalence oracle: property tests assert the indexed search above
   picks the identical block (same cost floats, same tie-breaks) on
   arbitrary freemap states.  Not used on any hot path. *)
module Reference = struct
  let best_in_track t ~lead_time track =
    if Freemap.free_in_track t.freemap track = 0 then None
    else begin
      let move = track_move_cost t track in
      let arrival = Clock.now (Disk.Disk_sim.clock t.disk) +. lead_time +. move in
      let consider best block =
        let sector = Freemap.start_sector_of_block t.freemap block in
        let rot =
          Disk.Disk_sim.rotational_delay_to t.disk ~track_index:track ~sector ~at:arrival
        in
        let cost = move +. rot in
        match best with
        | Some (c, _) when c <= cost -> best
        | _ -> Some (cost, block)
      in
      Freemap.fold_free_in_track t.freemap ~track ~init:None ~f:consider
    end

  let greedy t ~exclude_tracks ~lead_time =
    let g = Freemap.geometry t.freemap in
    let cylinders = g.Disk.Geometry.cylinders in
    let tpc = g.Disk.Geometry.tracks_per_cylinder in
    let cur = Disk.Disk_sim.current_cylinder t.disk in
    let profile = Disk.Disk_sim.profile t.disk in
    let best = ref None in
    let eval_cylinder c =
      let lower_bound = Disk.Profile.seek_ms profile (abs (c - cur)) in
      let skip = match !best with Some (cost, _) -> lower_bound >= cost | None -> false in
      if not skip then
        for s = 0 to tpc - 1 do
          let track = (c * tpc) + s in
          if not (exclude_tracks track) then
            match best_in_track t ~lead_time track with
            | None -> ()
            | Some (cost, block) -> (
              match !best with
              | Some (c0, _) when c0 <= cost -> ()
              | _ -> best := Some (cost, block))
        done
    in
    let order =
      match t.mode with
      | Nearest ->
        (* current cylinder, then +/-1, +/-2, ... *)
        let rec go d acc =
          if d >= cylinders then List.rev acc
          else
            let acc = if cur + d < cylinders then (cur + d) :: acc else acc in
            let acc = if d > 0 && cur - d >= 0 then (cur - d) :: acc else acc in
            go (d + 1) acc
        in
        go 0 []
      | Sweep -> List.init cylinders (fun d -> (cur + d) mod cylinders)
    in
    List.iter eval_cylinder order;
    Option.map snd !best

  let search = greedy
end

let search t ~exclude_tracks ~lead_time =
  let block = greedy t ~exclude_tracks ~lead_time in
  if block < 0 then None else Some block

let still_empty t track =
  Freemap.free_in_track t.freemap track = Freemap.blocks_per_track t.freemap

let[@inline] free_fraction t track =
  float_of_int (Freemap.free_in_track t.freemap track)
  /. float_of_int (Freemap.blocks_per_track t.freemap)

(* Pop the nearest usable empty track off the list.  Move costs are
   computed once per candidate, not once per comparison. *)
let next_empty_track t ~exclude_tracks =
  let usable tr = still_empty t tr && not (exclude_tracks tr) in
  let candidates = List.filter usable t.empty_tracks in
  t.empty_tracks <- candidates;
  match candidates with
  | [] -> None
  | first :: rest ->
    let nearest, _ =
      List.fold_left
        (fun ((_, best_cost) as acc) tr ->
          let cost = track_move_cost t tr in
          if best_cost <= cost then acc else (tr, cost))
        (first, track_move_cost t first)
        rest
    in
    t.empty_tracks <- List.filter (fun x -> x <> nearest) t.empty_tracks;
    Some nearest

(* The block the empty-track fill policy picks, or -1. *)
let rec from_active_track t ~exclude_tracks ~lead_time =
  match t.active_track with
  | Some tr
    when (not (exclude_tracks tr))
         && free_fraction t tr > t.switch_free_fraction
         && Freemap.free_in_track t.freemap tr > 0 ->
    best_block_in_track t ~lead_time tr
  | Some _ ->
    t.active_track <- None;
    from_active_track t ~exclude_tracks ~lead_time
  | None -> (
    match next_empty_track t ~exclude_tracks with
    | Some tr ->
      t.active_track <- Some tr;
      best_block_in_track t ~lead_time tr
    | None -> -1)

let attempt t ~greedy_only ~lead_time exclude_tracks =
  if Freemap.free_total t.freemap = 0 then -1
  else
    let filled =
      if greedy_only then -1 else from_active_track t ~exclude_tracks ~lead_time
    in
    if filled >= 0 then filled else greedy t ~exclude_tracks ~lead_time

let choose ?(exclude_tracks = no_exclusion) ?(greedy_only = false) ?(lead_time = 0.) t =
  let hard =
    match t.exclusion with
    | None -> exclude_tracks
    | Some masked -> fun tr -> masked tr || exclude_tracks tr
  in
  let chosen =
    match t.soft_exclusion with
    | None -> attempt t ~greedy_only ~lead_time hard
    | Some soft ->
      (* Prefer honoring the soft mask; fall back to the hard mask alone
         when nothing else is free. *)
      let chosen = attempt t ~greedy_only ~lead_time (fun tr -> hard tr || soft tr) in
      if chosen >= 0 then chosen else attempt t ~greedy_only ~lead_time hard
  in
  if chosen < 0 then None
  else begin
    Trace.incr (Disk.Disk_sim.trace t.disk) "eager.choices";
    Some chosen
  end

let active_track t = t.active_track

let with_exclusion t masked f =
  let saved = t.exclusion in
  let combined =
    match saved with None -> masked | Some prev -> fun tr -> prev tr || masked tr
  in
  t.exclusion <- Some combined;
  Fun.protect ~finally:(fun () -> t.exclusion <- saved) f

let with_soft_exclusion t masked f =
  let saved = t.soft_exclusion in
  let combined =
    match saved with None -> masked | Some prev -> fun tr -> prev tr || masked tr
  in
  t.soft_exclusion <- Some combined;
  Fun.protect ~finally:(fun () -> t.soft_exclusion <- saved) f

let note_empty_track t track =
  if still_empty t track && not (List.mem track t.empty_tracks) then
    t.empty_tracks <- t.empty_tracks @ [ track ]

let rescan_empty_tracks t =
  t.active_track <- None;
  t.empty_tracks <- Freemap.empty_tracks t.freemap

let empty_track_count t =
  List.length (List.filter (still_empty t) t.empty_tracks)
