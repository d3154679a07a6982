open Vlog_util
open Vlog

(* The allocation index behind indexed eager writing: word-scanned
   freemap queries checked against naive folds (including the ragged
   9-block tracks of the HP profile and grown defects), and the indexed
   [Eager.search] checked block-for-block against [Eager.Reference] over
   randomized allocator states and at platter phases on and one ulp
   either side of a block's start angle, where the rotational index
   narrows the search. *)

let st = Disk.Profile.with_cylinders Disk.Profile.st19101 4
let hp = Disk.Profile.with_cylinders Disk.Profile.hp97560 6

let freemap_of profile =
  Freemap.create ~profile ~sectors_per_block:8

(* ---- Freemap positional queries vs naive folds ---- *)

let naive_first_free fm ~track ~slot =
  let per = Freemap.blocks_per_track fm in
  let base = track * per in
  let rec go s =
    if s >= per then None
    else if Freemap.is_free fm (base + s) then Some (base + s)
    else go (s + 1)
  in
  go slot

let naive_nearest fm ~track ~slot =
  match naive_first_free fm ~track ~slot with
  | Some b -> Some b
  | None -> (
    match naive_first_free fm ~track ~slot:0 with
    | Some b when b - (track * Freemap.blocks_per_track fm) < slot -> Some b
    | _ -> None)

let check_queries_agree fm =
  let opt = Alcotest.(option int) in
  for track = 0 to Freemap.n_tracks fm - 1 do
    for slot = 0 to Freemap.blocks_per_track fm - 1 do
      Alcotest.check opt "first_free_at_or_after"
        (naive_first_free fm ~track ~slot)
        (Freemap.first_free_at_or_after fm ~track ~slot);
      Alcotest.(check int) "nearest_free_in_track"
        (Option.value ~default:(-1) (naive_nearest fm ~track ~slot))
        (Freemap.nearest_free_in_track fm ~track ~slot)
    done;
    (* [first_free_at_or_after] also accepts slot = blocks_per_track. *)
    Alcotest.check opt "slot at end" None
      (Freemap.first_free_at_or_after fm ~track
         ~slot:(Freemap.blocks_per_track fm))
  done;
  Alcotest.(check bool) "index consistent" true (Freemap.index_consistent fm)

let test_queries_track_edges profile () =
  let fm = freemap_of profile in
  let per = Freemap.blocks_per_track fm in
  (* Track 0 full except the last slot; track 1 full except slot 0;
     track 2 completely full; track 3 untouched — word-scan edge cases
     on both word-aligned (ST, 32/track) and ragged (HP, 9/track)
     geometries. *)
  for s = 0 to per - 2 do
    Freemap.occupy fm s
  done;
  for s = 1 to per - 1 do
    Freemap.occupy fm (per + s)
  done;
  for s = 0 to per - 1 do
    Freemap.occupy fm ((2 * per) + s)
  done;
  check_queries_agree fm

let test_queries_random profile () =
  let fm = freemap_of profile in
  let prng = Prng.create ~seed:0xA110CL in
  for _ = 1 to 4 do
    (* Occupy a random batch, retire a few as grown defects, release a
       few — the index must track all three transitions. *)
    for _ = 1 to Freemap.n_blocks fm / 3 do
      let b = Prng.int prng (Freemap.n_blocks fm) in
      if Freemap.is_free fm b then Freemap.occupy fm b
    done;
    for _ = 1 to 5 do
      let b = Prng.int prng (Freemap.n_blocks fm) in
      if Freemap.is_free fm b then Freemap.mark_bad fm b
    done;
    for _ = 1 to Freemap.n_blocks fm / 6 do
      let b = Prng.int prng (Freemap.n_blocks fm) in
      if (not (Freemap.is_free fm b)) && not (Freemap.is_bad fm b) then
        Freemap.release fm b
    done;
    check_queries_agree fm
  done

let test_bad_blocks_never_returned () =
  let fm = freemap_of st in
  let per = Freemap.blocks_per_track fm in
  for s = 0 to per - 1 do
    if s mod 2 = 0 then Freemap.mark_bad fm s
  done;
  for slot = 0 to per - 1 do
    let b = Freemap.nearest_free_in_track fm ~track:0 ~slot in
    if b < 0 then Alcotest.fail "odd slots are free";
    Alcotest.(check bool) "not bad" false (Freemap.is_bad fm b)
  done;
  (* A grown defect is permanent: not free, and release refuses. *)
  Alcotest.(check bool) "bad not free" false (Freemap.is_free fm 0);
  Alcotest.check_raises "release of defect rejected"
    (Invalid_argument "Freemap.release: block is a grown defect") (fun () ->
      Freemap.release fm 0);
  Alcotest.(check bool) "index consistent" true (Freemap.index_consistent fm)

(* ---- Indexed search vs reference oracle ---- *)

let drive_and_compare profile mode ~utilization ~seed =
  let clock = Clock.create () in
  let disk = Disk.Disk_sim.create ~profile ~clock () in
  let fm = Freemap.create ~profile:(Disk.Disk_sim.profile disk) ~sectors_per_block:8 in
  let prng = Prng.create ~seed in
  Freemap.random_occupy fm prng ~utilization;
  for _ = 1 to 8 do
    let b = Prng.int prng (Freemap.n_blocks fm) in
    if Freemap.is_free fm b then Freemap.mark_bad fm b
  done;
  let eager = Eager.create ~mode ~disk ~freemap:fm () in
  let payload =
    Bytes.make (8 * (Disk.Disk_sim.geometry disk).Disk.Geometry.sector_bytes) 'w'
  in
  let opt = Alcotest.(option int) in
  let no_mask _ = false in
  let stripe_mask tr = tr mod 3 = 0 in
  for _ = 1 to 40 do
    List.iter
      (fun (exclude_tracks, lead_time) ->
        let before = Clock.now clock in
        let indexed = Eager.search eager ~exclude_tracks ~lead_time in
        let reference = Eager.Reference.search eager ~exclude_tracks ~lead_time in
        Alcotest.check opt "search = reference" reference indexed;
        Alcotest.(check (float 0.)) "search moved the clock" before (Clock.now clock))
      [ (no_mask, 0.); (no_mask, 0.13); (stripe_mask, 0.); (stripe_mask, 0.47) ];
    (* Per-track bests must agree exactly too: same cost, same block. *)
    let track = Prng.int prng (Freemap.n_tracks fm) in
    (match
       ( Eager.best_in_track eager ~lead_time:0.21 track,
         Eager.Reference.best_in_track eager ~lead_time:0.21 track )
     with
    | None, None -> ()
    | Some (c1, b1), Some (c2, b2) ->
      Alcotest.(check int) "best block" b2 b1;
      Alcotest.(check (float 0.)) "best cost" c2 c1
    | _ -> Alcotest.fail "best_in_track disagrees on presence");
    (* Evolve the state: take the allocation, write it (moves the head,
       advances the clock), sometimes release a random occupied block. *)
    (match Eager.search eager ~exclude_tracks:no_mask ~lead_time:0. with
    | None -> ()
    | Some b ->
      Freemap.occupy fm b;
      ignore
        (Disk.Disk_sim.write ~scsi:false disk ~lba:(Freemap.lba_of_block fm b)
           payload));
    if Prng.int prng 2 = 0 then begin
      let b = Prng.int prng (Freemap.n_blocks fm) in
      if (not (Freemap.is_free fm b)) && not (Freemap.is_bad fm b) then
        Freemap.release fm b
    end
  done

let test_search_equivalence profile mode utilization seed () =
  drive_and_compare profile mode ~utilization ~seed

(* ---- Boundary phases: the platter phase on a block's start angle ---- *)

(* The indexed search costs only the head-switch tracks free at the
   first angle at or after the cylinder's platter phase [p], plus those
   free at [ceil p - 1]: rounding in [phase - skew] can collapse a
   track's position onto that integer.  These tests put [p] exactly on
   an integer angle and one ulp either side of it.  The collapse needs a
   phase smaller than the skewed position, so it shows only in the first
   revolution; scenario [`Fresh] (clock at 0, head on cylinder 0 surface
   0) covers it, [`Parked] (head mid-disk, a few revolutions on) covers
   the same boundaries far from time 0. *)

(* Clock times [at] in revolution [rev] or later whose platter phase
   [rem (at / sector_ms) spt] is exactly [angle], with the float just
   below and just above it; [None] when none of the revolutions tried
   has such a time (not every integer quotient is reachable). *)
let exact_phase_times ~sector_ms ~spt ~rev angle =
  let n = float_of_int spt in
  let rec walk q x steps =
    if steps > 64 then None
    else
      let v = x /. sector_ms in
      if v = q then Some x
      else walk q (if v < q then Float.succ x else Float.pred x) (steps + 1)
  in
  let rec try_rev k =
    if k > rev + 16 then None
    else
      let q = (float_of_int k *. n) +. float_of_int angle in
      match walk q (q *. sector_ms) 0 with
      | Some x -> Some [ Float.pred x; x; Float.succ x ]
      | None -> try_rev (k + 1)
  in
  try_rev rev

(* The lead time at which the search's arrival on a cylinder, [(now +
   lead) + move] as [Eager] and [Disk_sim] compute it, is exactly [at]. *)
let lead_reaching ~now ~move at =
  let rec walk l steps =
    if steps > 4096 then None
    else
      let v = now +. l +. move in
      if v = at then Some l
      else walk (if v < at then Float.succ l else Float.pred l) (steps + 1)
  in
  walk (at -. now -. move) 0

let test_boundary_phases profile ~sectors_per_block () =
  let g = profile.Disk.Profile.geometry in
  let spt = g.Disk.Geometry.sectors_per_track in
  let tpc = g.Disk.Geometry.tracks_per_cylinder in
  let sector_ms = Disk.Profile.sector_ms profile in
  let no_mask _ = false and stripe_mask tr = tr mod 3 = 0 in
  let opt = Alcotest.(option int) in
  let checked = ref 0 in
  List.iter
    (fun (scenario, mode) ->
      let clock = Clock.create () in
      let disk = Disk.Disk_sim.create ~profile ~clock () in
      let fm = Freemap.create ~profile ~sectors_per_block in
      Freemap.random_occupy fm (Prng.create ~seed:0xB0DL) ~utilization:0.8;
      if scenario = `Parked then
        ignore
          (Disk.Disk_sim.write ~scsi:false disk
             ~lba:(Freemap.lba_of_block fm ((Freemap.n_blocks fm / 2) + 1))
             (Bytes.make (sectors_per_block * g.Disk.Geometry.sector_bytes) 'b'));
      let eager = Eager.create ~mode ~disk ~freemap:fm () in
      let now = Clock.now clock in
      let cur = Disk.Disk_sim.current_cylinder disk in
      (* The head-switch tracks of the current cylinder. *)
      let move = profile.Disk.Profile.head_switch_ms in
      let rev = if scenario = `Fresh then 0 else 3 + int_of_float (now /. sector_ms) / spt in
      let angles =
        if scenario = `Fresh then
          List.init spt Fun.id
          |> List.filter (fun a -> float_of_int a *. sector_ms > move)
        else List.init ((spt + 6) / 7) (fun k -> k * 7)
      in
      List.iter
        (fun angle ->
          match exact_phase_times ~sector_ms ~spt ~rev angle with
          | None -> ()
          | Some times ->
            List.iter
              (fun at ->
                match lead_reaching ~now ~move at with
                | None -> ()
                | Some lead_time ->
                  incr checked;
                  List.iter
                    (fun exclude_tracks ->
                      Alcotest.check opt
                        (Printf.sprintf "search = reference at angle %d" angle)
                        (Eager.Reference.search eager ~exclude_tracks ~lead_time)
                        (Eager.search eager ~exclude_tracks ~lead_time))
                    [ no_mask; stripe_mask ];
                  for s = 0 to tpc - 1 do
                    let track = (cur * tpc) + s in
                    if
                      Eager.best_in_track eager ~lead_time track
                      <> Eager.Reference.best_in_track eager ~lead_time track
                    then Alcotest.failf "best_in_track %d differs at angle %d" track angle
                  done)
              times)
        angles)
    [ (`Fresh, Eager.Nearest); (`Fresh, Eager.Sweep); (`Parked, Eager.Nearest);
      (`Parked, Eager.Sweep) ];
  (* Enough boundaries were reached that the walks above cannot have
     skipped them all. *)
  if !checked < spt then Alcotest.failf "only %d boundary phases reached" !checked

(* ---- Allocation pin: eager placement allocates nothing ---- *)

(* An allocator at 95 % with the head parked mid-disk and the clock away
   from phase 0, so the search costs real seeks, head switches and
   rotations. *)
let busy_allocator profile mode =
  let clock = Clock.create () in
  let disk = Disk.Disk_sim.create ~profile ~clock () in
  let fm = Freemap.create ~profile ~sectors_per_block:8 in
  Freemap.random_occupy fm (Prng.create ~seed:0x95L) ~utilization:0.95;
  let mid = Freemap.n_blocks fm / 2 in
  ignore
    (Disk.Disk_sim.write ~scsi:false disk ~lba:(Freemap.lba_of_block fm mid)
       (Bytes.make (8 * profile.Disk.Profile.geometry.Disk.Geometry.sector_bytes) 'p'));
  Clock.advance clock 12.345;
  (fm, Eager.create ~mode ~disk ~freemap:fm ())

(* The [Some] result, two words, is the only allocation allowed. *)
let max_words_per_call = 2.

let check_words name words =
  if words > max_words_per_call then
    Alcotest.failf "%s allocates %.1f minor words per call (at most %.0f)" name words
      max_words_per_call

let test_search_allocation_free profile () =
  List.iter
    (fun (mode, label) ->
      let _, eager = busy_allocator profile mode in
      let no_mask _ = false in
      List.iter
        (fun lead_time ->
          check_words
            (Printf.sprintf "search %s lead %.2f" label lead_time)
            (Test_util.words_per_call (fun () ->
                 Eager.search eager ~exclude_tracks:no_mask ~lead_time)))
        [ 0.; 0.37 ])
    [ (Eager.Nearest, "nearest"); (Eager.Sweep, "sweep") ]

let test_fill_allocation_free profile () =
  let fm, eager = busy_allocator profile Eager.Sweep in
  (* Empty one track so the fill policy has a track to fill. *)
  let per = Freemap.blocks_per_track fm in
  let track = Freemap.n_tracks fm / 3 in
  for b = track * per to ((track + 1) * per) - 1 do
    if not (Freemap.is_free fm b) then Freemap.release fm b
  done;
  Eager.rescan_empty_tracks eager;
  ignore (Eager.choose eager);
  Alcotest.(check (option int)) "filling the emptied track" (Some track)
    (Eager.active_track eager);
  check_words "choose (active track)" (Test_util.words_per_call (fun () -> Eager.choose eager));
  check_words "choose (active track, lead time)"
    (Test_util.words_per_call (fun () -> Eager.choose ~lead_time:0.37 eager));
  Alcotest.(check (option int)) "still filling it" (Some track) (Eager.active_track eager)

(* The three freemap mutators keep both indices current in place: no
   allocation at all. *)
let test_freemap_mutators_allocation_free profile () =
  let fm = Freemap.create ~profile ~sectors_per_block:1 in
  let within name words =
    if words > 0. then Alcotest.failf "%s allocates %.2f minor words per call" name words
  in
  let b = Freemap.n_blocks fm / 3 in
  within "occupy + release"
    (Test_util.words_per_call (fun () ->
         Freemap.occupy fm b;
         Freemap.release fm b));
  (* A fresh block per call, so every call retires a free block. *)
  let next = ref 0 in
  within "mark_bad"
    (Test_util.words_per_call (fun () ->
         Freemap.mark_bad fm !next;
         incr next));
  Alcotest.(check bool) "index consistent" true (Freemap.index_consistent fm)

(* The rotational index is laid out with the freemap's skew, so a disk
   with another skew would be searched in the wrong frame. *)
let test_eager_rejects_foreign_skew () =
  let disk = Disk.Disk_sim.create ~profile:st ~clock:(Clock.create ()) () in
  let fm =
    Freemap.create
      ~profile:{ st with Disk.Profile.track_skew = st.Disk.Profile.track_skew + 1 }
      ~sectors_per_block:8
  in
  Alcotest.check_raises "skew mismatch"
    (Invalid_argument "Eager.create: freemap track skew differs from the disk's")
    (fun () -> ignore (Eager.create ~disk ~freemap:fm ()))

(* ---- Pre-encoded entry images ---- *)

let image_of entries ~pos ~len =
  let img = Bytes.create (len * 4) in
  for i = 0 to len - 1 do
    Bytes.set_int32_le img (i * 4) (Int32.of_int (entries.(pos + i) + 1))
  done;
  img

let test_image_encode_equivalence () =
  let prng = Prng.create ~seed:0x1111L in
  let block_bytes = 4096 in
  for trial = 1 to 50 do
    let n_ptrs = Prng.int prng (Map_codec.max_ptrs + 1) in
    let ptrs =
      List.init n_ptrs (fun i ->
          { Map_codec.pba = Prng.int prng 100_000; seq = Int64.of_int (trial * 100 + i) })
    in
    let max_len = (block_bytes - 36 - (n_ptrs * 12) - 8) / 4 in
    let len = match trial mod 3 with 0 -> 0 | 1 -> max_len | _ -> Prng.int prng max_len in
    let pos = Prng.int prng 8 in
    let entries =
      Array.init (pos + len) (fun _ -> Prng.int prng 1_000_000 - 1)
    in
    let node =
      {
        Map_codec.seq = Int64.of_int trial;
        piece = trial mod 16;
        kind = (if trial mod 2 = 0 then Map_codec.Node else Map_codec.Checkpoint);
        txn_id = Int64.of_int (trial * 7);
        txn_commit = trial mod 2 = 1;
        ptrs;
        entries = [||];
      }
    in
    let via_slice = Bytes.create block_bytes in
    Map_codec.encode_node_slice_into via_slice node ~entries ~pos ~len;
    let via_image = Bytes.create block_bytes in
    Map_codec.encode_node_image_into via_image node ~image:(image_of entries ~pos ~len);
    Alcotest.(check bool) "image encode = slice encode" true
      (Bytes.equal via_slice via_image);
    (* And both must round-trip. *)
    match Map_codec.decode_node via_image with
    | None -> Alcotest.fail "image-encoded node does not decode"
    | Some back ->
      Alcotest.(check int) "entries survive" len (Array.length back.Map_codec.entries);
      Array.iteri
        (fun i v -> Alcotest.(check int) "entry" entries.(pos + i) v)
        back.Map_codec.entries
  done

(* ---- mark_bad property: model bitset + oracle equivalence ---- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make
      ~name:"mark_bad keeps the index consistent and the search oracle exact"
      ~count:40
      (triple (float_bound_exclusive 1000.) small_nat
         (list_of_size Gen.(5 -- 120) (pair (int_range 0 2) small_nat)))
      (fun (clock_ms, head, ops) ->
        let clock = Clock.create () in
        let disk = Disk.Disk_sim.create ~profile:st ~clock () in
        let fm =
          Freemap.create ~profile:(Disk.Disk_sim.profile disk)
            ~sectors_per_block:8
        in
        let n = Freemap.n_blocks fm in
        (* Shadow model: plain arrays, no index to get wrong. *)
        let free = Array.make n true and bad = Array.make n false in
        List.iter
          (fun (op, b) ->
            let b = b mod n in
            match op with
            | 0 ->
              if free.(b) then begin
                Freemap.occupy fm b;
                free.(b) <- false
              end
            | 1 ->
              if (not free.(b)) && not bad.(b) then begin
                Freemap.release fm b;
                free.(b) <- true
              end
            | _ ->
              if free.(b) then begin
                Freemap.mark_bad fm b;
                free.(b) <- false;
                bad.(b) <- true
              end)
          ops;
        let model_agrees = ref (Freemap.index_consistent fm) in
        for b = 0 to n - 1 do
          if Freemap.is_free fm b <> free.(b) || Freemap.is_bad fm b <> bad.(b)
          then model_agrees := false
        done;
        (* Park the head on a random block and the clock at a random time,
           so the per-cylinder platter phase is checked away from phase 0. *)
        let sector_bytes = (Disk.Disk_sim.geometry disk).Disk.Geometry.sector_bytes in
        ignore
          (Disk.Disk_sim.write ~scsi:false disk
             ~lba:(Freemap.lba_of_block fm (head mod n))
             (Bytes.make (8 * sector_bytes) 'h'));
        Clock.advance clock clock_ms;
        (* Retired blocks must be invisible to the allocator, and the
           indexed search must still equal the reference fold exactly. *)
        let no_mask _ = false in
        let lead_times = [ 0.; 0.13; 0.47 ] in
        let search_agrees =
          List.for_all
            (fun mode ->
              let eager = Eager.create ~mode ~disk ~freemap:fm () in
              List.for_all
                (fun lead_time ->
                  Eager.search eager ~exclude_tracks:no_mask ~lead_time
                  = Eager.Reference.search eager ~exclude_tracks:no_mask ~lead_time)
                lead_times)
            [ Eager.Nearest; Eager.Sweep ]
        in
        let eager = Eager.create ~disk ~freemap:fm () in
        let bests_agree = ref true in
        for track = 0 to Freemap.n_tracks fm - 1 do
          List.iter
            (fun lead_time ->
              if
                Eager.best_in_track eager ~lead_time track
                <> Eager.Reference.best_in_track eager ~lead_time track
              then bests_agree := false)
            lead_times
        done;
        !model_agrees && search_agrees && !bests_agree);
  ]

let suites =
  let tc = Alcotest.test_case in
  [
    ( "alloc-index",
      [
        tc "queries: track edges (ST19101)" `Quick (test_queries_track_edges st);
        tc "queries: track edges (HP97560)" `Quick (test_queries_track_edges hp);
        tc "queries: randomized (ST19101)" `Quick (test_queries_random st);
        tc "queries: randomized (HP97560)" `Quick (test_queries_random hp);
        tc "queries: grown defects excluded" `Quick test_bad_blocks_never_returned;
        tc "image encode = slice encode" `Quick test_image_encode_equivalence;
        tc "search allocates nothing (ST19101)" `Quick (test_search_allocation_free st);
        tc "search allocates nothing (HP97560)" `Quick (test_search_allocation_free hp);
        tc "active-track choose allocates nothing (ST19101)" `Quick
          (test_fill_allocation_free st);
        tc "active-track choose allocates nothing (HP97560)" `Quick
          (test_fill_allocation_free hp);
        tc "freemap mutators allocate nothing (ST19101)" `Quick
          (test_freemap_mutators_allocation_free st);
        tc "freemap mutators allocate nothing (HP97560)" `Quick
          (test_freemap_mutators_allocation_free hp);
        tc "eager rejects a freemap with another skew" `Quick test_eager_rejects_foreign_skew;
      ] );
    ( "alloc-equivalence",
      [
        tc "ST19101 nearest 75%" `Quick
          (test_search_equivalence st Eager.Nearest 0.75 0x51L);
        tc "ST19101 sweep 75%" `Quick
          (test_search_equivalence st Eager.Sweep 0.75 0x52L);
        tc "ST19101 nearest 95%" `Quick
          (test_search_equivalence st Eager.Nearest 0.95 0x53L);
        tc "ST19101 sweep 95%" `Quick
          (test_search_equivalence st Eager.Sweep 0.95 0x54L);
        tc "ST19101 sweep 99.9%" `Quick
          (test_search_equivalence st Eager.Sweep 0.999 0x55L);
        tc "HP97560 nearest 90%" `Quick
          (test_search_equivalence hp Eager.Nearest 0.9 0x56L);
        tc "HP97560 sweep 90%" `Quick
          (test_search_equivalence hp Eager.Sweep 0.9 0x57L);
        tc "HP97560 sweep 30%" `Quick
          (test_search_equivalence hp Eager.Sweep 0.3 0x58L);
        tc "boundary phases ST19101 sector blocks" `Quick
          (test_boundary_phases st ~sectors_per_block:1);
        tc "boundary phases ST19101 4 KiB blocks" `Quick
          (test_boundary_phases st ~sectors_per_block:8);
        tc "boundary phases HP97560 sector blocks" `Quick
          (test_boundary_phases hp ~sectors_per_block:1);
        tc "boundary phases HP97560 4 KiB blocks" `Quick
          (test_boundary_phases hp ~sectors_per_block:8);
      ] );
    ("alloc-index:properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
