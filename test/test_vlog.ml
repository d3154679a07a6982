open Vlog_util
open Vlog

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 4

let make_disk () =
  let clock = Clock.create () in
  Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile ~clock ()

(* ---- Freemap ---- *)

let make_freemap () =
  Freemap.create ~profile ~sectors_per_block:8

let test_freemap_counts () =
  let fm = make_freemap () in
  let per_track = 256 / 8 in
  Alcotest.(check int) "blocks/track" per_track (Freemap.blocks_per_track fm);
  Alcotest.(check int) "total" (per_track * 16 * 4) (Freemap.n_blocks fm);
  Alcotest.(check int) "free" (Freemap.n_blocks fm) (Freemap.free_total fm)

let test_freemap_occupy_release () =
  let fm = make_freemap () in
  Freemap.occupy fm 5;
  Alcotest.(check bool) "occupied" false (Freemap.is_free fm 5);
  Alcotest.(check int) "track count" (Freemap.blocks_per_track fm - 1) (Freemap.free_in_track fm 0);
  Freemap.release fm 5;
  Alcotest.(check bool) "free again" true (Freemap.is_free fm 5)

let test_freemap_double_ops_rejected () =
  let fm = make_freemap () in
  Freemap.occupy fm 1;
  Alcotest.check_raises "double occupy"
    (Invalid_argument "Freemap.occupy: block already occupied") (fun () -> Freemap.occupy fm 1);
  Freemap.release fm 1;
  Alcotest.check_raises "double release"
    (Invalid_argument "Freemap.release: block already free") (fun () -> Freemap.release fm 1)

let test_freemap_addressing () =
  let fm = make_freemap () in
  let b = 37 in
  Alcotest.(check int) "lba" (37 * 8) (Freemap.lba_of_block fm b);
  Alcotest.(check int) "back" b (Freemap.block_of_lba fm (37 * 8));
  Alcotest.(check int) "track" (37 / 32) (Freemap.track_of_block fm b);
  Alcotest.(check int) "sector" (37 mod 32 * 8) (Freemap.start_sector_of_block fm b)

let test_freemap_empty_tracks () =
  let fm = make_freemap () in
  Alcotest.(check int) "all empty" (Freemap.n_tracks fm) (List.length (Freemap.empty_tracks fm));
  Freemap.occupy fm 0;
  Alcotest.(check bool) "track 0 not empty" true (not (List.mem 0 (Freemap.empty_tracks fm)))

let test_freemap_random_occupy () =
  let fm = make_freemap () in
  let prng = Prng.create ~seed:12L in
  Freemap.random_occupy fm prng ~utilization:0.5;
  let u = Freemap.utilization fm in
  Alcotest.(check bool) "about half" true (u > 0.48 && u < 0.52)

(* ---- Eager ---- *)

let test_eager_returns_free_block () =
  let disk = make_disk () in
  let fm = make_freemap () in
  let prng = Prng.create ~seed:13L in
  Freemap.random_occupy fm prng ~utilization:0.7;
  let eager = Eager.create ~disk ~freemap:fm () in
  for _ = 1 to 50 do
    match Eager.choose eager with
    | None -> Alcotest.fail "no block found on 70% full disk"
    | Some b ->
      Alcotest.(check bool) "block free" true (Freemap.is_free fm b);
      Freemap.occupy fm b
  done

let test_eager_exhausts () =
  let disk = make_disk () in
  let fm = make_freemap () in
  for b = 0 to Freemap.n_blocks fm - 1 do
    Freemap.occupy fm b
  done;
  let eager = Eager.create ~disk ~freemap:fm () in
  Alcotest.(check bool) "none" true (Eager.choose eager = None)

let test_eager_prefers_nearby () =
  let disk = make_disk () in
  let fm = make_freemap () in
  (* Leave exactly two free blocks: one in the head's cylinder, one far away. *)
  for b = 0 to Freemap.n_blocks fm - 1 do
    Freemap.occupy fm b
  done;
  let near = 3 (* cylinder 0 *) in
  let far = Freemap.n_blocks fm - 1 (* last cylinder *) in
  Freemap.release fm near;
  Freemap.release fm far;
  let eager = Eager.create ~mode:Eager.Nearest ~disk ~freemap:fm () in
  (match Eager.choose eager with
  | Some b -> Alcotest.(check int) "nearest" near b
  | None -> Alcotest.fail "no block");
  ()

let test_eager_locate_cost_beats_half_rotation_when_empty () =
  let disk = make_disk () in
  let fm = make_freemap () in
  let eager = Eager.create ~mode:Eager.Nearest ~disk ~freemap:fm () in
  match Eager.choose eager with
  | None -> Alcotest.fail "no block"
  | Some b ->
    let cost = Eager.locate_cost eager b in
    Alcotest.(check bool) "tiny on empty disk" true
      (cost < Disk.Profile.half_rotation_ms profile)

let test_eager_fill_threshold () =
  let disk = make_disk () in
  let fm = make_freemap () in
  let eager = Eager.create ~switch_free_fraction:0.25 ~disk ~freemap:fm () in
  Eager.rescan_empty_tracks eager;
  let per_track = Freemap.blocks_per_track fm in
  let tracks_touched = Hashtbl.create 8 in
  (* Allocate 1.5 tracks' worth; the fill policy must leave each used
     track with at least 25% free. *)
  for _ = 1 to per_track + (per_track / 2) do
    match Eager.choose eager with
    | None -> Alcotest.fail "no block"
    | Some b ->
      Freemap.occupy fm b;
      Hashtbl.replace tracks_touched (Freemap.track_of_block fm b) ()
  done;
  Hashtbl.iter
    (fun tr () ->
      let free_frac =
        float_of_int (Freemap.free_in_track fm tr) /. float_of_int per_track
      in
      Alcotest.(check bool)
        (Printf.sprintf "track %d left >= 25%% free minus one block" tr)
        true
        (free_frac >= 0.25 -. (1. /. float_of_int per_track) -. 1e-9))
    tracks_touched

let test_eager_exclusion () =
  let disk = make_disk () in
  let fm = make_freemap () in
  let eager = Eager.create ~disk ~freemap:fm () in
  let masked tr = tr <> 5 in
  (* Exclude everything except track 5. *)
  (match Eager.choose ~exclude_tracks:masked eager with
  | Some b -> Alcotest.(check int) "track 5 only" 5 (Freemap.track_of_block fm b)
  | None -> Alcotest.fail "no block");
  Eager.with_exclusion eager masked (fun () ->
      match Eager.choose eager with
      | Some b -> Alcotest.(check int) "with_exclusion" 5 (Freemap.track_of_block fm b)
      | None -> Alcotest.fail "no block")

let test_eager_note_empty_track () =
  let disk = make_disk () in
  let fm = make_freemap () in
  let eager = Eager.create ~disk ~freemap:fm () in
  Alcotest.(check int) "none tracked" 0 (Eager.empty_track_count eager);
  Eager.note_empty_track eager 7;
  Alcotest.(check int) "one" 1 (Eager.empty_track_count eager);
  (* A non-empty track is not accepted. *)
  Freemap.occupy fm (8 * Freemap.blocks_per_track fm);
  Eager.note_empty_track eager 8;
  Alcotest.(check int) "still one" 1 (Eager.empty_track_count eager)

(* ---- Map codec ---- *)

let sample_node =
  {
    Map_codec.seq = 42L;
    piece = 3;
    kind = Map_codec.Node;
    txn_id = 17L;
    txn_commit = true;
    ptrs = [ { Map_codec.pba = 10; seq = 41L }; { Map_codec.pba = 77; seq = 12L } ];
    entries = Array.init 100 (fun i -> if i mod 3 = 0 then -1 else i * 7);
  }

let test_codec_roundtrip () =
  let buf = Map_codec.encode_node ~block_bytes:4096 sample_node in
  match Map_codec.decode_node buf with
  | None -> Alcotest.fail "decode failed"
  | Some n ->
    Alcotest.(check int64) "seq" sample_node.Map_codec.seq n.Map_codec.seq;
    Alcotest.(check int) "piece" 3 n.Map_codec.piece;
    Alcotest.(check bool) "commit" true n.Map_codec.txn_commit;
    Alcotest.(check int) "ptrs" 2 (List.length n.Map_codec.ptrs);
    Alcotest.(check (array int)) "entries" sample_node.Map_codec.entries n.Map_codec.entries

let test_codec_detects_corruption () =
  let buf = Map_codec.encode_node ~block_bytes:4096 sample_node in
  Bytes.set buf 100 (Char.chr (Char.code (Bytes.get buf 100) lxor 1));
  Alcotest.(check bool) "corrupt rejected" true (Map_codec.decode_node buf = None)

let test_codec_rejects_garbage () =
  Alcotest.(check bool) "zeros" true (Map_codec.decode_node (Bytes.make 4096 '\000') = None);
  Alcotest.(check bool) "noise" true
    (Map_codec.decode_node (Bytes.init 4096 (fun i -> Char.chr (i * 31 mod 256))) = None)

let test_codec_tail_roundtrip () =
  let tail =
    {
      Map_codec.root_pba = 123;
      root_seq = 456L;
      n_pieces = 7;
      entries_per_piece = 960;
      logical_blocks = 6000;
      sectors_per_block = 8;
    }
  in
  let buf = Map_codec.encode_tail ~block_bytes:4096 tail in
  (match Map_codec.decode_tail buf with
  | None -> Alcotest.fail "decode failed"
  | Some t2 ->
    Alcotest.(check int) "root" 123 t2.Map_codec.root_pba;
    Alcotest.(check int64) "seq" 456L t2.Map_codec.root_seq;
    Alcotest.(check int) "pieces" 7 t2.Map_codec.n_pieces);
  Alcotest.(check bool) "cleared invalid" true
    (Map_codec.decode_tail (Map_codec.cleared_tail ~block_bytes:4096) = None)

let test_codec_max_entries_fit () =
  let epp = Map_codec.max_entries ~block_bytes:4096 in
  Alcotest.(check bool) "positive" true (epp > 500);
  let node =
    { sample_node with Map_codec.entries = Array.make epp 1;
      ptrs = List.init Map_codec.max_ptrs (fun i -> { Map_codec.pba = i; seq = Int64.of_int i }) }
  in
  let buf = Map_codec.encode_node ~block_bytes:4096 node in
  Alcotest.(check bool) "roundtrips at capacity" true (Map_codec.decode_node buf <> None)

(* ---- Virtual log ---- *)

let make_vlog ?(logical_blocks = 1500) () =
  let disk = make_disk () in
  let cfg = Virtual_log.default_config ~logical_blocks in
  (disk, Virtual_log.format ~disk cfg)

let write_data_block vlog disk logical tag =
  (* Helper mimicking the VLD write path: allocate, write data, map it. *)
  let fm = Virtual_log.freemap vlog in
  let pba =
    match Eager.choose (Virtual_log.eager vlog) with
    | Some b -> b
    | None -> Alcotest.fail "allocation failed"
  in
  Freemap.occupy fm pba;
  let payload = Bytes.make (Virtual_log.block_bytes vlog) tag in
  ignore (Disk.Disk_sim.write disk ~lba:(Freemap.lba_of_block fm pba) payload);
  ignore (Virtual_log.update vlog [ (logical, Some pba) ]);
  pba

let test_vlog_format_invariants () =
  let _, vlog = make_vlog () in
  (match Virtual_log.check_invariants vlog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "no mappings yet" true (Virtual_log.lookup vlog 0 = None)

let test_vlog_update_lookup () =
  let disk, vlog = make_vlog () in
  let pba = write_data_block vlog disk 7 'a' in
  Alcotest.(check (option int)) "mapped" (Some pba) (Virtual_log.lookup vlog 7);
  Alcotest.(check (option int)) "reverse" (Some 7) (Virtual_log.logical_of_physical vlog pba)

let test_vlog_overwrite_releases_old () =
  let disk, vlog = make_vlog () in
  let fm = Virtual_log.freemap vlog in
  let pba1 = write_data_block vlog disk 7 'a' in
  let pba2 = write_data_block vlog disk 7 'b' in
  Alcotest.(check bool) "different block" true (pba1 <> pba2);
  Alcotest.(check bool) "old released" true (Freemap.is_free fm pba1);
  Alcotest.(check (option int)) "new mapped" (Some pba2) (Virtual_log.lookup vlog 7)

let test_vlog_unmap () =
  let disk, vlog = make_vlog () in
  let fm = Virtual_log.freemap vlog in
  let pba = write_data_block vlog disk 3 'z' in
  ignore (Virtual_log.update vlog [ (3, None) ]);
  Alcotest.(check (option int)) "unmapped" None (Virtual_log.lookup vlog 3);
  Alcotest.(check bool) "released" true (Freemap.is_free fm pba)

let test_vlog_map_write_is_cheap () =
  let disk, vlog = make_vlog () in
  ignore (write_data_block vlog disk 0 'a');
  (* Each subsequent update should cost one near-head map write: far less
     than a half rotation on average. *)
  let acc = Breakdown.Acc.create () in
  for i = 1 to 50 do
    let fm = Virtual_log.freemap vlog in
    let pba = Option.get (Eager.choose (Virtual_log.eager vlog)) in
    Freemap.occupy fm pba;
    ignore (Disk.Disk_sim.write disk ~lba:(Freemap.lba_of_block fm pba)
              (Bytes.make (Virtual_log.block_bytes vlog) 'x'));
    Breakdown.Acc.add acc (Virtual_log.update vlog [ (i, Some pba) ])
  done;
  let mean = Breakdown.total (Breakdown.Acc.mean acc) in
  Alcotest.(check bool) "cheap map writes" true
    (mean < Disk.Profile.half_rotation_ms profile)

let test_vlog_stats_count_writes () =
  let disk, vlog = make_vlog () in
  let before = (Virtual_log.stats vlog).Virtual_log.node_writes in
  ignore (write_data_block vlog disk 0 'a');
  let after = (Virtual_log.stats vlog).Virtual_log.node_writes in
  Alcotest.(check int) "one node per update" (before + 1) after

let test_vlog_invariants_random_ops () =
  let disk, vlog = make_vlog ~logical_blocks:400 () in
  let prng = Prng.create ~seed:99L in
  let model = Hashtbl.create 64 in
  for _ = 1 to 300 do
    let logical = Prng.int prng 400 in
    if Prng.int prng 4 = 0 then begin
      ignore (Virtual_log.update vlog [ (logical, None) ]);
      Hashtbl.remove model logical
    end
    else begin
      let pba = write_data_block vlog disk logical 'r' in
      Hashtbl.replace model logical pba
    end
  done;
  (match Virtual_log.check_invariants vlog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Hashtbl.iter
    (fun logical pba ->
      Alcotest.(check (option int)) "model agrees" (Some pba) (Virtual_log.lookup vlog logical))
    model

(* ---- Recovery ---- *)

let map_snapshot vlog logical_blocks =
  List.init logical_blocks (fun l -> Virtual_log.lookup vlog l)

let test_recover_from_tail () =
  let disk, vlog = make_vlog ~logical_blocks:500 () in
  for i = 0 to 49 do
    ignore (write_data_block vlog disk i (Char.chr (65 + (i mod 26))))
  done;
  let snap = map_snapshot vlog 500 in
  ignore (Virtual_log.power_down vlog);
  match Virtual_log.recover ~disk () with
  | Error e -> Alcotest.fail e
  | Ok (vlog2, report) ->
    Alcotest.(check bool) "used tail" true report.Virtual_log.used_tail;
    Alcotest.(check bool) "no scan" true (report.Virtual_log.blocks_scanned = 0);
    Alcotest.(check (list (option int))) "map identical" snap (map_snapshot vlog2 500);
    (match Virtual_log.check_invariants vlog2 with
    | Ok () -> ()
    | Error e -> Alcotest.fail e)

let test_recover_by_scan_after_crash () =
  let disk, vlog = make_vlog ~logical_blocks:500 () in
  for i = 0 to 29 do
    ignore (write_data_block vlog disk i 'c')
  done;
  let snap = map_snapshot vlog 500 in
  (* Crash: no power_down; the landing zone still holds the cleared
     record written at format time. *)
  match Virtual_log.recover ~disk () with
  | Error e -> Alcotest.fail e
  | Ok (vlog2, report) ->
    Alcotest.(check bool) "scanned" true (report.Virtual_log.blocks_scanned > 0);
    Alcotest.(check bool) "no tail" false report.Virtual_log.used_tail;
    Alcotest.(check (list (option int))) "map identical" snap (map_snapshot vlog2 500)

let test_recover_ignores_stale_tail () =
  (* Clean shutdown, reboot (clears the record), more writes, crash: the
     stale record must not be trusted. *)
  let disk, vlog = make_vlog ~logical_blocks:300 () in
  for i = 0 to 9 do
    ignore (write_data_block vlog disk i 'a')
  done;
  ignore (Virtual_log.power_down vlog);
  let vlog2, _ = Result.get_ok (Virtual_log.recover ~disk ()) in
  for i = 10 to 19 do
    ignore (write_data_block vlog2 disk i 'b')
  done;
  let snap = map_snapshot vlog2 300 in
  (* Crash now. Recovery must scan (record was cleared at boot). *)
  match Virtual_log.recover ~disk () with
  | Error e -> Alcotest.fail e
  | Ok (vlog3, report) ->
    Alcotest.(check bool) "scan fallback" false report.Virtual_log.used_tail;
    Alcotest.(check (list (option int))) "newest state" snap (map_snapshot vlog3 300)

let test_recover_torn_tail_record () =
  let disk, vlog = make_vlog ~logical_blocks:300 () in
  for i = 0 to 9 do
    ignore (write_data_block vlog disk i 'a')
  done;
  let snap = map_snapshot vlog 300 in
  ignore (Virtual_log.power_down vlog);
  (* The power-down write tears: corrupt the landing zone. *)
  let prng = Prng.create ~seed:5L in
  Disk.Sector_store.corrupt (Disk.Disk_sim.store disk) ~lba:0 ~sectors:8 prng;
  match Virtual_log.recover ~disk () with
  | Error e -> Alcotest.fail e
  | Ok (vlog2, report) ->
    Alcotest.(check bool) "fell back to scan" false report.Virtual_log.used_tail;
    Alcotest.(check (list (option int))) "map recovered" snap (map_snapshot vlog2 300)

let test_recover_uncommitted_txn_rolled_back () =
  let disk, vlog = make_vlog ~logical_blocks:1900 () in
  (* Committed prefix. *)
  for i = 0 to 9 do
    ignore (write_data_block vlog disk i 'a')
  done;
  let snap = map_snapshot vlog 1900 in
  (* A multi-piece transaction whose commit node tears: update entries in
     two distinct pieces (piece size ~1000), then corrupt the last node
     written (the commit node). *)
  let fm = Virtual_log.freemap vlog in
  let pba1 = Option.get (Eager.choose (Virtual_log.eager vlog)) in
  Freemap.occupy fm pba1;
  ignore (Disk.Disk_sim.write disk ~lba:(Freemap.lba_of_block fm pba1)
            (Bytes.make (Virtual_log.block_bytes vlog) 'x'));
  let pba2 = Option.get (Eager.choose (Virtual_log.eager vlog)) in
  Freemap.occupy fm pba2;
  ignore (Disk.Disk_sim.write disk ~lba:(Freemap.lba_of_block fm pba2)
            (Bytes.make (Virtual_log.block_bytes vlog) 'y'));
  let second = 1500 in
  ignore (Virtual_log.update vlog [ (5, Some pba1); (second, Some pba2) ]);
  (* The commit node is the last node written: the one for the
     highest-indexed dirty piece, i.e. the piece holding [second].
     Corrupt it to simulate the torn final write of the transaction. *)
  let piece_of_second = second / Map_codec.max_entries ~block_bytes:4096 in
  Alcotest.(check bool) "spans two pieces" true (piece_of_second > 0);
  let root_loc = Option.get (Virtual_log.piece_location vlog piece_of_second) in
  let prng = Prng.create ~seed:6L in
  Disk.Sector_store.corrupt (Disk.Disk_sim.store disk) ~lba:(root_loc * 8) ~sectors:8 prng;
  match Virtual_log.recover ~disk () with
  | Error e -> Alcotest.fail e
  | Ok (vlog2, _) ->
    (* The whole transaction must be invisible. *)
    Alcotest.(check (option int)) "entry 5 rolled back" (List.nth snap 5)
      (Virtual_log.lookup vlog2 5);
    Alcotest.(check (option int)) "second entry rolled back" None
      (Virtual_log.lookup vlog2 second)

let test_recover_empty_format () =
  let disk, _vlog = make_vlog ~logical_blocks:200 () in
  match Virtual_log.recover ~disk () with
  | Error e -> Alcotest.fail e
  | Ok (vlog2, _) ->
    for l = 0 to 199 do
      Alcotest.(check (option int)) "unmapped" None (Virtual_log.lookup vlog2 l)
    done

let test_recover_after_many_random_ops () =
  let disk, vlog = make_vlog ~logical_blocks:800 () in
  let prng = Prng.create ~seed:77L in
  for _ = 1 to 400 do
    let l = Prng.int prng 800 in
    if Prng.int prng 5 = 0 then ignore (Virtual_log.update vlog [ (l, None) ])
    else ignore (write_data_block vlog disk l 'm')
  done;
  let snap = map_snapshot vlog 800 in
  ignore (Virtual_log.power_down vlog);
  let vlog2, _ = Result.get_ok (Virtual_log.recover ~disk ()) in
  Alcotest.(check (list (option int))) "map identical" snap (map_snapshot vlog2 800);
  match Virtual_log.check_invariants vlog2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_recovered_data_intact () =
  let disk, vlog = make_vlog ~logical_blocks:100 () in
  let tags = [ (0, 'p'); (17, 'q'); (99, 'r') ] in
  List.iter (fun (l, tag) -> ignore (write_data_block vlog disk l tag)) tags;
  ignore (Virtual_log.power_down vlog);
  let vlog2, _ = Result.get_ok (Virtual_log.recover ~disk ()) in
  List.iter
    (fun (l, tag) ->
      let pba = Option.get (Virtual_log.lookup vlog2 l) in
      let fm = Virtual_log.freemap vlog2 in
      let data, _ = Disk.Disk_sim.read disk ~lba:(Freemap.lba_of_block fm pba) ~sectors:8 in
      Alcotest.(check bytes) "payload" (Bytes.make 4096 tag) data)
    tags

(* ---- Compactor ---- *)

let test_compactor_empties_tracks () =
  let disk, vlog = make_vlog ~logical_blocks:1500 () in
  let prng = Prng.create ~seed:31L in
  (* Scatter data across the disk at ~60% utilization. *)
  for i = 0 to 900 do
    ignore (write_data_block vlog disk i (Char.chr (97 + (i mod 26))))
  done;
  (* Free a random half, creating holes. *)
  for i = 0 to 900 do
    if Prng.int prng 2 = 0 then ignore (Virtual_log.update vlog [ (i, None) ])
  done;
  let fm = Virtual_log.freemap vlog in
  let before_empty = List.length (Freemap.empty_tracks fm) in
  let compactor = Compactor.create ~vlog ~prng () in
  let clock = Disk.Disk_sim.clock disk in
  let stats = Compactor.run compactor ~deadline:(Clock.now clock +. 10_000.) in
  Alcotest.(check bool) "emptied tracks" true (stats.Compactor.tracks_emptied > 0);
  Alcotest.(check bool) "moved blocks" true (stats.Compactor.blocks_moved > 0);
  (* Free space ends up consolidated: more wholly-empty tracks than the
     fragmented starting state had. *)
  Alcotest.(check bool) "free space consolidated" true
    (List.length (Freemap.empty_tracks fm) > before_empty);
  match Virtual_log.check_invariants vlog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_compactor_preserves_data () =
  let disk, vlog = make_vlog ~logical_blocks:800 () in
  let prng = Prng.create ~seed:32L in
  let live = Hashtbl.create 64 in
  for i = 0 to 600 do
    let tag = Char.chr (97 + (i mod 26)) in
    ignore (write_data_block vlog disk i tag);
    Hashtbl.replace live i tag
  done;
  for i = 0 to 600 do
    if i mod 3 = 0 then begin
      ignore (Virtual_log.update vlog [ (i, None) ]);
      Hashtbl.remove live i
    end
  done;
  let compactor = Compactor.create ~vlog ~prng () in
  let clock = Disk.Disk_sim.clock disk in
  ignore (Compactor.run compactor ~deadline:(Clock.now clock +. 20_000.));
  let fm = Virtual_log.freemap vlog in
  Hashtbl.iter
    (fun l tag ->
      match Virtual_log.lookup vlog l with
      | None -> Alcotest.fail (Printf.sprintf "logical %d lost" l)
      | Some pba ->
        let data, _ = Disk.Disk_sim.read disk ~lba:(Freemap.lba_of_block fm pba) ~sectors:8 in
        Alcotest.(check char) "tag" tag (Bytes.get data 0))
    live

let test_compactor_respects_deadline () =
  let disk, vlog = make_vlog ~logical_blocks:1500 () in
  let prng = Prng.create ~seed:33L in
  for i = 0 to 1000 do
    ignore (write_data_block vlog disk i 'd')
  done;
  for i = 0 to 1000 do
    if i mod 2 = 0 then ignore (Virtual_log.update vlog [ (i, None) ])
  done;
  let clock = Disk.Disk_sim.clock disk in
  let compactor = Compactor.create ~vlog ~prng () in
  let start = Clock.now clock in
  ignore (Compactor.run compactor ~deadline:(start +. 5.));
  (* Granularity is one block move; allow a single move of slack. *)
  Alcotest.(check bool) "stops near deadline" true (Clock.now clock < start +. 30.)

let test_compactor_survives_recovery () =
  let disk, vlog = make_vlog ~logical_blocks:600 () in
  let prng = Prng.create ~seed:34L in
  for i = 0 to 400 do
    ignore (write_data_block vlog disk i (Char.chr (97 + (i mod 26))))
  done;
  for i = 0 to 400 do
    if i mod 2 = 1 then ignore (Virtual_log.update vlog [ (i, None) ])
  done;
  let compactor = Compactor.create ~vlog ~prng () in
  let clock = Disk.Disk_sim.clock disk in
  ignore (Compactor.run compactor ~deadline:(Clock.now clock +. 20_000.));
  let snap = map_snapshot vlog 600 in
  ignore (Virtual_log.power_down vlog);
  let vlog2, _ = Result.get_ok (Virtual_log.recover ~disk ()) in
  Alcotest.(check (list (option int))) "map identical after compaction+recovery" snap
    (map_snapshot vlog2 600)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"freemap occupy/release conserves totals" ~count:50
      (list_of_size Gen.(1 -- 60) (int_range 0 100))
      (fun blocks ->
        let fm = make_freemap () in
        let occupied = Hashtbl.create 16 in
        List.iter
          (fun b ->
            if Hashtbl.mem occupied b then begin
              Freemap.release fm b;
              Hashtbl.remove occupied b
            end
            else begin
              Freemap.occupy fm b;
              Hashtbl.add occupied b ()
            end)
          blocks;
        Freemap.free_total fm = Freemap.n_blocks fm - Hashtbl.length occupied);
    Test.make ~name:"map codec roundtrip" ~count:100
      (triple (int_range 0 900) (int_range 0 6) bool)
      (fun (n_entries, n_ptrs, commit) ->
        let node =
          {
            Map_codec.seq = Int64.of_int (n_entries * 13);
            piece = n_ptrs;
            kind = (if commit then Map_codec.Checkpoint else Map_codec.Node);
            txn_id = 3L;
            txn_commit = commit;
            ptrs = List.init n_ptrs (fun i -> { Map_codec.pba = i * 5; seq = Int64.of_int i });
            entries = Array.init n_entries (fun i -> (i * 11 mod 500) - 1);
          }
        in
        match Map_codec.decode_node (Map_codec.encode_node ~block_bytes:4096 node) with
        | None -> false
        | Some n ->
          n.Map_codec.seq = node.Map_codec.seq
          && n.Map_codec.entries = node.Map_codec.entries
          && List.length n.Map_codec.ptrs = n_ptrs);
    Test.make ~name:"recovery equals pre-crash committed map" ~count:15
      (pair small_int (list_of_size Gen.(1 -- 40) (pair (int_range 0 199) bool)))
      (fun (seed, ops) ->
        let disk = make_disk () in
        let vlog =
          Virtual_log.format ~disk (Virtual_log.default_config ~logical_blocks:200)
        in
        ignore seed;
        List.iter
          (fun (l, del) ->
            if del then ignore (Virtual_log.update vlog [ (l, None) ])
            else ignore (write_data_block vlog disk l 'q'))
          ops;
        let snap = map_snapshot vlog 200 in
        ignore (Virtual_log.power_down vlog);
        match Virtual_log.recover ~disk () with
        | Error _ -> false
        | Ok (vlog2, _) -> map_snapshot vlog2 200 = snap);
  ]

let suites =
  [
    ( "vlog:freemap",
      [
        Alcotest.test_case "counts" `Quick test_freemap_counts;
        Alcotest.test_case "occupy/release" `Quick test_freemap_occupy_release;
        Alcotest.test_case "double ops rejected" `Quick test_freemap_double_ops_rejected;
        Alcotest.test_case "addressing" `Quick test_freemap_addressing;
        Alcotest.test_case "empty tracks" `Quick test_freemap_empty_tracks;
        Alcotest.test_case "random occupy" `Quick test_freemap_random_occupy;
      ] );
    ( "vlog:eager",
      [
        Alcotest.test_case "returns free block" `Quick test_eager_returns_free_block;
        Alcotest.test_case "exhausts" `Quick test_eager_exhausts;
        Alcotest.test_case "prefers nearby" `Quick test_eager_prefers_nearby;
        Alcotest.test_case "cheap on empty disk" `Quick test_eager_locate_cost_beats_half_rotation_when_empty;
        Alcotest.test_case "fill threshold" `Quick test_eager_fill_threshold;
        Alcotest.test_case "exclusion" `Quick test_eager_exclusion;
        Alcotest.test_case "note empty track" `Quick test_eager_note_empty_track;
      ] );
    ( "vlog:codec",
      [
        Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "detects corruption" `Quick test_codec_detects_corruption;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        Alcotest.test_case "tail roundtrip" `Quick test_codec_tail_roundtrip;
        Alcotest.test_case "max entries fit" `Quick test_codec_max_entries_fit;
      ] );
    ( "vlog:log",
      [
        Alcotest.test_case "format invariants" `Quick test_vlog_format_invariants;
        Alcotest.test_case "update/lookup" `Quick test_vlog_update_lookup;
        Alcotest.test_case "overwrite releases old" `Quick test_vlog_overwrite_releases_old;
        Alcotest.test_case "unmap" `Quick test_vlog_unmap;
        Alcotest.test_case "map writes cheap" `Quick test_vlog_map_write_is_cheap;
        Alcotest.test_case "stats" `Quick test_vlog_stats_count_writes;
        Alcotest.test_case "invariants under random ops" `Quick test_vlog_invariants_random_ops;
      ] );
    ( "vlog:recovery",
      [
        Alcotest.test_case "from tail" `Quick test_recover_from_tail;
        Alcotest.test_case "by scan after crash" `Quick test_recover_by_scan_after_crash;
        Alcotest.test_case "ignores stale tail" `Quick test_recover_ignores_stale_tail;
        Alcotest.test_case "torn tail record" `Quick test_recover_torn_tail_record;
        Alcotest.test_case "uncommitted txn rolled back" `Quick test_recover_uncommitted_txn_rolled_back;
        Alcotest.test_case "empty format" `Quick test_recover_empty_format;
        Alcotest.test_case "after many random ops" `Quick test_recover_after_many_random_ops;
        Alcotest.test_case "data intact" `Quick test_recovered_data_intact;
      ] );
    ( "vlog:compactor",
      [
        Alcotest.test_case "empties tracks" `Quick test_compactor_empties_tracks;
        Alcotest.test_case "preserves data" `Quick test_compactor_preserves_data;
        Alcotest.test_case "respects deadline" `Quick test_compactor_respects_deadline;
        Alcotest.test_case "survives recovery" `Quick test_compactor_survives_recovery;
      ] );
    ("vlog:properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
