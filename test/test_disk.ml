open Vlog_util
open Disk

let check_float = Alcotest.(check (float 1e-9))
let close ?(eps = 1e-6) = Alcotest.(check (float eps))

let tiny_geom =
  Geometry.v ~sector_bytes:512 ~sectors_per_track:72 ~tracks_per_cylinder:19 ~cylinders:4

(* ---- Geometry ---- *)

let test_geometry_sizes () =
  Alcotest.(check int) "per cyl" (72 * 19) (Geometry.sectors_per_cylinder tiny_geom);
  Alcotest.(check int) "total" (72 * 19 * 4) (Geometry.total_sectors tiny_geom);
  Alcotest.(check int) "tracks" (19 * 4) (Geometry.total_tracks tiny_geom);
  Alcotest.(check int) "bytes" (72 * 19 * 4 * 512) (Geometry.capacity_bytes tiny_geom)

let test_geometry_roundtrip () =
  for lba = 0 to Geometry.total_sectors tiny_geom - 1 do
    let addr = Geometry.addr_of_lba tiny_geom lba in
    Alcotest.(check int) "roundtrip" lba (Geometry.lba_of_addr tiny_geom addr)
  done

let test_geometry_bounds () =
  Alcotest.(check bool) "valid" true (Geometry.valid_lba tiny_geom 0);
  Alcotest.(check bool)
    "invalid" false
    (Geometry.valid_lba tiny_geom (Geometry.total_sectors tiny_geom));
  Alcotest.check_raises "raises"
    (Invalid_argument "Geometry.addr_of_lba: lba out of range") (fun () ->
      ignore (Geometry.addr_of_lba tiny_geom (-1)))

let test_geometry_rejects_bad () =
  Alcotest.check_raises "zero" (Invalid_argument "Geometry.v: all components must be positive")
    (fun () ->
      ignore (Geometry.v ~sector_bytes:0 ~sectors_per_track:1 ~tracks_per_cylinder:1 ~cylinders:1))

(* ---- Profile (Table 1) ---- *)

let test_table1_hp () =
  let p = Profile.hp97560 in
  Alcotest.(check int) "sectors" 72 p.Profile.geometry.Geometry.sectors_per_track;
  Alcotest.(check int) "tracks" 19 p.Profile.geometry.Geometry.tracks_per_cylinder;
  check_float "head switch" 2.5 p.Profile.head_switch_ms;
  check_float "min seek" 3.6 p.Profile.seek_min_ms;
  check_float "rpm" 4002. p.Profile.rpm;
  check_float "scsi" 2.3 p.Profile.scsi_overhead_ms;
  close ~eps:0.01 "revolution" 14.99 (Profile.revolution_ms p)

let test_table1_seagate () =
  let p = Profile.st19101 in
  Alcotest.(check int) "sectors" 256 p.Profile.geometry.Geometry.sectors_per_track;
  Alcotest.(check int) "tracks" 16 p.Profile.geometry.Geometry.tracks_per_cylinder;
  check_float "head switch" 0.5 p.Profile.head_switch_ms;
  check_float "min seek" 0.5 p.Profile.seek_min_ms;
  check_float "rpm" 10000. p.Profile.rpm;
  check_float "scsi" 0.1 p.Profile.scsi_overhead_ms;
  check_float "revolution" 6. (Profile.revolution_ms p)

let test_seek_monotone () =
  let p = Profile.hp97560 in
  check_float "zero" 0. (Profile.seek_ms p 0);
  check_float "one" 3.6 (Profile.seek_ms p 1);
  let prev = ref 0. in
  for d = 1 to 35 do
    let s = Profile.seek_ms p d in
    Alcotest.(check bool) "monotone" true (s >= !prev);
    prev := s
  done

let test_skew_covers_head_switch () =
  let check_profile p =
    let skew_ms = float_of_int p.Profile.track_skew *. Profile.sector_ms p in
    Alcotest.(check bool) "skew >= head switch" true (skew_ms >= p.Profile.head_switch_ms)
  in
  check_profile Profile.hp97560;
  check_profile Profile.st19101

let test_with_cylinders () =
  let p = Profile.with_cylinders Profile.hp97560 5 in
  Alcotest.(check int) "cylinders" 5 p.Profile.geometry.Geometry.cylinders

(* ---- Sector_store ---- *)

let test_store_roundtrip () =
  let s = Sector_store.create tiny_geom in
  let buf = Bytes.make 1024 'x' in
  Sector_store.write s ~lba:10 buf;
  Alcotest.(check bytes) "read back" buf (Sector_store.read s ~lba:10 ~sectors:2);
  Alcotest.(check bool) "written" true (Sector_store.written s ~lba:10);
  Alcotest.(check bool) "not written" false (Sector_store.written s ~lba:12)

let test_store_zero_fill () =
  let s = Sector_store.create tiny_geom in
  Alcotest.(check bytes) "zeros" (Bytes.make 512 '\000') (Sector_store.read s ~lba:5 ~sectors:1)

let test_store_rejects_partial_sector () =
  let s = Sector_store.create tiny_geom in
  Alcotest.check_raises "partial"
    (Invalid_argument "Sector_store.write: buffer is not a whole number of sectors")
    (fun () -> Sector_store.write s ~lba:0 (Bytes.make 100 'x'))

let test_store_snapshot_isolated () =
  let s = Sector_store.create tiny_geom in
  Sector_store.write s ~lba:0 (Bytes.make 512 'a');
  let snap = Sector_store.snapshot s in
  Sector_store.write s ~lba:0 (Bytes.make 512 'b');
  Alcotest.(check bytes) "snapshot unchanged" (Bytes.make 512 'a')
    (Sector_store.read snap ~lba:0 ~sectors:1)

let test_store_corrupt () =
  let s = Sector_store.create tiny_geom in
  Sector_store.write s ~lba:3 (Bytes.make 512 'a');
  let prng = Prng.create ~seed:1L in
  Sector_store.corrupt s ~lba:3 ~sectors:1 prng;
  Alcotest.(check bool)
    "changed" true
    (Sector_store.read s ~lba:3 ~sectors:1 <> Bytes.make 512 'a')

(* ---- Track_buffer ---- *)

let test_buffer_forward_discard () =
  let b = Track_buffer.create Track_buffer.Forward_discard in
  Track_buffer.note_read b ~track_index:3 ~sector:10 ~sectors_per_track:72;
  Alcotest.(check bool) "hit forward" true (Track_buffer.hit b ~track_index:3 ~sector:20 ~sectors:8);
  Alcotest.(check bool) "miss lower" false (Track_buffer.hit b ~track_index:3 ~sector:5 ~sectors:2);
  Alcotest.(check bool) "miss other track" false (Track_buffer.hit b ~track_index:4 ~sector:20 ~sectors:2)

let test_buffer_whole_track () =
  let b = Track_buffer.create Track_buffer.Whole_track in
  Track_buffer.note_read b ~track_index:3 ~sector:50 ~sectors_per_track:72;
  Alcotest.(check bool) "hit lower too" true (Track_buffer.hit b ~track_index:3 ~sector:5 ~sectors:2)

let test_buffer_whole_track_lru () =
  let b = Track_buffer.create Track_buffer.Whole_track in
  Track_buffer.note_read b ~track_index:1 ~sector:0 ~sectors_per_track:72;
  Track_buffer.note_read b ~track_index:2 ~sector:0 ~sectors_per_track:72;
  Track_buffer.note_read b ~track_index:3 ~sector:0 ~sectors_per_track:72;
  Alcotest.(check bool) "evicted oldest" false (Track_buffer.hit b ~track_index:1 ~sector:0 ~sectors:1);
  Alcotest.(check bool) "kept recent" true (Track_buffer.hit b ~track_index:3 ~sector:0 ~sectors:1)

let test_buffer_invalidate () =
  let b = Track_buffer.create Track_buffer.Whole_track in
  Track_buffer.note_read b ~track_index:3 ~sector:0 ~sectors_per_track:72;
  Track_buffer.invalidate_track b ~track_index:3;
  Alcotest.(check bool) "gone" false (Track_buffer.hit b ~track_index:3 ~sector:0 ~sectors:1)

(* ---- Disk_sim ---- *)

let make_disk ?buffer_policy () =
  let clock = Clock.create () in
  let disk = Disk_sim.create ?buffer_policy ~profile:(Profile.with_cylinders Profile.hp97560 4) ~clock () in
  (disk, clock)

let test_sim_write_advances_clock () =
  let disk, clock = make_disk () in
  let bd = Disk_sim.write disk ~lba:100 (Bytes.make 4096 'x') in
  Alcotest.(check bool) "time passed" true (Clock.now clock > 0.);
  close ~eps:1e-6 "clock equals breakdown" (Clock.now clock) (Breakdown.total bd)

let test_sim_write_breakdown_components () =
  let disk, _ = make_disk () in
  let bd = Disk_sim.write disk ~lba:100 (Bytes.make 4096 'x') in
  check_float "scsi charged" 2.3 bd.Breakdown.scsi;
  let xfer = 8. *. Profile.sector_ms (Disk_sim.profile disk) in
  close ~eps:1e-6 "transfer" xfer bd.Breakdown.transfer;
  Alcotest.(check bool) "locate bounded" true
    (bd.Breakdown.locate >= 0. && bd.Breakdown.locate < 30.)

let test_sim_no_scsi_option () =
  let disk, _ = make_disk () in
  let bd = Disk_sim.write ~scsi:false disk ~lba:0 (Bytes.make 512 'x') in
  check_float "no scsi" 0. bd.Breakdown.scsi

let test_sim_read_back () =
  let disk, _ = make_disk () in
  let data = Bytes.init 4096 (fun i -> Char.chr (i mod 251)) in
  ignore (Disk_sim.write disk ~lba:64 data);
  let got, _ = Disk_sim.read disk ~lba:64 ~sectors:8 in
  Alcotest.(check bytes) "roundtrip" data got

let test_sim_sequential_cheaper_than_random () =
  (* One streaming 64-block request beats 64 random single-block writes.
     (Back-to-back single-block sequential writes would NOT necessarily
     win: the SCSI gap between commands misses the rotation — exactly the
     artifact the paper observed on the regular disk.) *)
  let disk, clock = make_disk () in
  let prng = Prng.create ~seed:11L in
  let t0 = Clock.now clock in
  ignore (Disk_sim.write disk ~lba:0 (Bytes.make (64 * 4096) 'x'));
  let seq = Clock.now clock -. t0 in
  let total = Geometry.total_sectors (Disk_sim.geometry disk) / 8 in
  let buf = Bytes.make 4096 'x' in
  let t1 = Clock.now clock in
  for _ = 0 to 63 do
    ignore (Disk_sim.write disk ~lba:(Prng.int prng total * 8) buf)
  done;
  let rnd = Clock.now clock -. t1 in
  Alcotest.(check bool)
    (Printf.sprintf "sequential run (%.1f ms) beats random (%.1f ms)" seq rnd)
    true (seq < rnd)

let test_sim_track_buffer_hit_cheap () =
  let disk, _ = make_disk ~buffer_policy:Track_buffer.Whole_track () in
  ignore (Disk_sim.write disk ~lba:0 (Bytes.make 4096 'x'));
  let _, miss = Disk_sim.read disk ~lba:0 ~sectors:8 in
  let _, hit = Disk_sim.read disk ~lba:8 ~sectors:8 in
  (* The second read is in the prefetched track: no mechanical latency. *)
  check_float "no locate" 0. hit.Breakdown.locate;
  Alcotest.(check bool) "cheaper" true (Breakdown.total hit <= Breakdown.total miss);
  Alcotest.(check int) "hit counted" 1 (Disk_sim.stats disk).Disk_sim.buffer_hits

let test_sim_write_invalidates_buffer () =
  let disk, _ = make_disk ~buffer_policy:Track_buffer.Whole_track () in
  ignore (Disk_sim.read disk ~lba:0 ~sectors:8);
  ignore (Disk_sim.write disk ~lba:0 (Bytes.make 4096 'y'));
  let _, bd = Disk_sim.read disk ~lba:8 ~sectors:8 in
  Alcotest.(check bool) "mechanical again" true (bd.Breakdown.locate > 0.)

let test_sim_rotational_delay_bounds () =
  let disk, _ = make_disk () in
  let p = Disk_sim.profile disk in
  let rev = Profile.revolution_ms p in
  for s = 0 to 71 do
    let d = Disk_sim.rotational_delay_to disk ~track_index:5 ~sector:s ~at:123.456 in
    Alcotest.(check bool) "bounded" true (d >= 0. && d < rev)
  done

let test_sim_sector_position_consistent () =
  let disk, _ = make_disk () in
  (* The sector under the head now should have (near) zero delay. *)
  let pos = Disk_sim.sector_position_at disk ~track_index:7 ~at:55.5 in
  let sector = int_of_float pos in
  let d = Disk_sim.rotational_delay_to disk ~track_index:7 ~sector ~at:55.5 in
  Alcotest.(check bool) "wraps small" true
    (d < Profile.revolution_ms (Disk_sim.profile disk));
  (* Delay to the next integer sector is under one sector time. *)
  let next = (sector + 1) mod 72 in
  let d2 = Disk_sim.rotational_delay_to disk ~track_index:7 ~sector:next ~at:55.5 in
  Alcotest.(check bool) "next close" true (d2 <= Profile.sector_ms (Disk_sim.profile disk) +. 1e-9)

let test_sim_move_cost () =
  let disk, _ = make_disk () in
  check_float "stay" 0. (Disk_sim.move_cost disk ~cyl:0 ~track:0);
  check_float "switch" 2.5 (Disk_sim.move_cost disk ~cyl:0 ~track:3);
  check_float "seek" 3.6 (Disk_sim.move_cost disk ~cyl:1 ~track:0);
  (* Seek dominates the concurrent head switch. *)
  check_float "seek+switch" 3.6 (Disk_sim.move_cost disk ~cyl:1 ~track:3)

let test_sim_multi_track_run () =
  let disk, _ = make_disk () in
  (* A run spanning two tracks must still read back correctly. *)
  let len = 100 * 512 in
  let data = Bytes.init len (fun i -> Char.chr (i mod 253)) in
  ignore (Disk_sim.write disk ~lba:40 data);
  let got, _ = Disk_sim.read disk ~lba:40 ~sectors:100 in
  Alcotest.(check bytes) "spans track" data got

let test_sim_estimate_close_to_actual () =
  let disk, _ = make_disk () in
  ignore (Disk_sim.write disk ~lba:0 (Bytes.make 512 'x'));
  let est = Disk_sim.estimate_access disk ~lba:1000 ~sectors:8 in
  let bd = Disk_sim.write ~scsi:false disk ~lba:1000 (Bytes.make 4096 'x') in
  close ~eps:0.5 "estimate" (Breakdown.total bd) est

let test_sim_stats () =
  let disk, _ = make_disk () in
  ignore (Disk_sim.write disk ~lba:0 (Bytes.make 512 'x'));
  ignore (Disk_sim.read disk ~lba:0 ~sectors:1);
  let st = Disk_sim.stats disk in
  Alcotest.(check int) "writes" 1 st.Disk_sim.writes;
  Alcotest.(check int) "reads" 1 st.Disk_sim.reads;
  Alcotest.(check int) "sectors" 1 st.Disk_sim.sectors_written;
  Alcotest.(check bool) "busy" true (st.Disk_sim.busy_ms > 0.);
  Disk_sim.reset_stats disk;
  Alcotest.(check int) "reset" 0 (Disk_sim.stats disk).Disk_sim.writes

let test_sim_bounds () =
  let disk, _ = make_disk () in
  Alcotest.check_raises "oob" (Invalid_argument "Disk_sim.write: range out of bounds")
    (fun () ->
      let total = Geometry.total_sectors (Disk_sim.geometry disk) in
      ignore (Disk_sim.write disk ~lba:(total - 1) (Bytes.make 1024 'x')))

(* [failures] transient errors, then clean reads: the bounded retry
   answers after exactly [max_retries] retries and gives up after one
   more failure, folding each attempt's cost into the caller's running
   breakdown in order, and charging SCSI on the first attempt only.  A
   twin disk replays the same attempts by hand for the expected sum. *)
let test_sim_read_retrying () =
  let flaky failures =
    let disk, _ = make_disk () in
    ignore (Disk_sim.write disk ~lba:64 (Bytes.make 4096 'r'));
    let left = ref failures in
    Disk_sim.set_injector disk
      (Some
         {
           Disk_sim.on_read =
             (fun ~lba:_ ~sectors:_ ->
               if !left > 0 then begin
                 decr left;
                 Some Disk_sim.Transient_read
               end
               else None);
           on_write = (fun ~lba:_ ~sectors:_ -> None);
         });
    disk
  in
  let start = Breakdown.of_other 1.5 in
  let by_hand failures =
    let disk = flaky failures in
    let attempts = min (failures + 1) (Disk_sim.max_retries + 1) in
    let bd = ref start in
    for i = 0 to attempts - 1 do
      let _, cost = Disk_sim.read_checked ~scsi:(i = 0) disk ~lba:64 ~sectors:8 in
      bd := Breakdown.add !bd cost
    done;
    !bd
  in
  let same_bd what expect got =
    List.iter
      (fun (field, f) -> check_float (what ^ " " ^ field) (f expect) (f got))
      Breakdown.
        [
          ("scsi", fun b -> b.scsi); ("locate", fun b -> b.locate);
          ("transfer", fun b -> b.transfer); ("other", fun b -> b.other);
        ]
  in
  Alcotest.(check int) "bound" 3 Disk_sim.max_retries;
  (match
     Disk_sim.read_retrying ~scsi:true ~bd:start (flaky 3) ~lba:64 ~sectors:8
   with
  | Ok data, retries, bd ->
    Alcotest.(check bytes) "data after 3 failures" (Bytes.make 4096 'r') data;
    Alcotest.(check int) "3 retries" 3 retries;
    check_float "scsi once" 2.3 bd.Breakdown.scsi;
    same_bd "3 failures" (by_hand 3) bd
  | Error _, _, _ -> Alcotest.fail "3 transient failures must be retried away");
  match Disk_sim.read_retrying ~scsi:true ~bd:start (flaky 4) ~lba:64 ~sectors:8 with
  | Error e, retries, bd ->
    Alcotest.(check bool) "transient" true e.Disk_sim.transient;
    Alcotest.(check int) "gave up after 3 retries" 3 retries;
    same_bd "4 failures" (by_hand 4) bd
  | Ok _, _, _ -> Alcotest.fail "a 4th transient failure must surface"

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"geometry lba/addr roundtrip" ~count:500
      (int_range 0 (Geometry.total_sectors tiny_geom - 1))
      (fun lba -> Geometry.lba_of_addr tiny_geom (Geometry.addr_of_lba tiny_geom lba) = lba);
    Test.make ~name:"seek monotone in distance" ~count:200
      (pair (int_range 0 30) (int_range 0 30))
      (fun (a, b) ->
        let p = Profile.hp97560 in
        if a <= b then Profile.seek_ms p a <= Profile.seek_ms p b
        else Profile.seek_ms p a >= Profile.seek_ms p b);
    Test.make ~name:"store write/read roundtrip" ~count:100
      (pair (int_range 0 100) (int_range 1 8))
      (fun (lba, sectors) ->
        let s = Sector_store.create tiny_geom in
        let buf = Bytes.init (sectors * 512) (fun i -> Char.chr ((i + lba) mod 256)) in
        Sector_store.write s ~lba buf;
        Sector_store.read s ~lba ~sectors = buf);
  ]

let suites =
  [
    ( "disk:geometry",
      [
        Alcotest.test_case "sizes" `Quick test_geometry_sizes;
        Alcotest.test_case "roundtrip" `Quick test_geometry_roundtrip;
        Alcotest.test_case "bounds" `Quick test_geometry_bounds;
        Alcotest.test_case "rejects bad" `Quick test_geometry_rejects_bad;
      ] );
    ( "disk:profile",
      [
        Alcotest.test_case "table1 hp97560" `Quick test_table1_hp;
        Alcotest.test_case "table1 st19101" `Quick test_table1_seagate;
        Alcotest.test_case "seek monotone" `Quick test_seek_monotone;
        Alcotest.test_case "skew covers head switch" `Quick test_skew_covers_head_switch;
        Alcotest.test_case "with_cylinders" `Quick test_with_cylinders;
      ] );
    ( "disk:store",
      [
        Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
        Alcotest.test_case "zero fill" `Quick test_store_zero_fill;
        Alcotest.test_case "rejects partial sector" `Quick test_store_rejects_partial_sector;
        Alcotest.test_case "snapshot isolated" `Quick test_store_snapshot_isolated;
        Alcotest.test_case "corrupt" `Quick test_store_corrupt;
      ] );
    ( "disk:track_buffer",
      [
        Alcotest.test_case "forward discard" `Quick test_buffer_forward_discard;
        Alcotest.test_case "whole track" `Quick test_buffer_whole_track;
        Alcotest.test_case "whole track lru" `Quick test_buffer_whole_track_lru;
        Alcotest.test_case "invalidate" `Quick test_buffer_invalidate;
      ] );
    ( "disk:sim",
      [
        Alcotest.test_case "write advances clock" `Quick test_sim_write_advances_clock;
        Alcotest.test_case "breakdown components" `Quick test_sim_write_breakdown_components;
        Alcotest.test_case "scsi optional" `Quick test_sim_no_scsi_option;
        Alcotest.test_case "read back" `Quick test_sim_read_back;
        Alcotest.test_case "sequential cheaper" `Quick test_sim_sequential_cheaper_than_random;
        Alcotest.test_case "buffer hit cheap" `Quick test_sim_track_buffer_hit_cheap;
        Alcotest.test_case "write invalidates buffer" `Quick test_sim_write_invalidates_buffer;
        Alcotest.test_case "rotational delay bounds" `Quick test_sim_rotational_delay_bounds;
        Alcotest.test_case "sector position consistent" `Quick test_sim_sector_position_consistent;
        Alcotest.test_case "move cost" `Quick test_sim_move_cost;
        Alcotest.test_case "multi-track run" `Quick test_sim_multi_track_run;
        Alcotest.test_case "estimate close" `Quick test_sim_estimate_close_to_actual;
        Alcotest.test_case "stats" `Quick test_sim_stats;
        Alcotest.test_case "bounds" `Quick test_sim_bounds;
        Alcotest.test_case "read_retrying bound" `Quick test_sim_read_retrying;
      ] );
    ("disk:properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
