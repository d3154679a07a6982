(* The fault model: codec robustness to damaged blocks, defect-tolerant
   device I/O, degraded recovery paths, and the fault-spec codecs.  The
   systematic fault sweep is pinned by test/golden/sweeps.t.

   The codec properties are exhaustive, not sampled: every single-bit
   flip of an encoded node/tail must fail to decode (this is what makes
   "skip the corrupt node and scan" sound — damage is never mistaken for
   a valid node), and every torn sector-boundary prefix of a node over
   stale contents must fail to decode (this is what makes map-node
   writes atomic). *)

open Vlog_util
open Vlog

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 3
let block_bytes = 4096

let sample_node =
  {
    Map_codec.seq = 41L;
    piece = 2;
    kind = Map_codec.Node;
    txn_id = 17L;
    txn_commit = true;
    ptrs =
      [ { Map_codec.pba = 11; seq = 40L }; { Map_codec.pba = 90; seq = 33L } ];
    entries = Array.init 100 (fun i -> if i mod 3 = 0 then -1 else 1000 + i);
  }

let test_node_bit_flips () =
  let enc = Map_codec.encode_node ~block_bytes sample_node in
  Alcotest.(check bool) "pristine decodes" true (Map_codec.decode_node enc <> None);
  for bit = 0 to (Bytes.length enc * 8) - 1 do
    let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
    Bytes.set enc byte (Char.chr (Char.code (Bytes.get enc byte) lxor mask));
    if Map_codec.decode_node enc <> None then
      Alcotest.failf "node decoded with bit %d flipped" bit;
    Bytes.set enc byte (Char.chr (Char.code (Bytes.get enc byte) lxor mask))
  done;
  Alcotest.(check bool) "still decodes after restore" true
    (Map_codec.decode_node enc <> None)

let test_tail_bit_flips () =
  let tail =
    {
      Map_codec.root_pba = 123;
      root_seq = 77L;
      n_pieces = 19;
      entries_per_piece = 16;
      logical_blocks = 300;
      sectors_per_block = 8;
    }
  in
  let enc = Map_codec.encode_tail ~block_bytes tail in
  Alcotest.(check bool) "pristine decodes" true (Map_codec.decode_tail enc <> None);
  for bit = 0 to (Bytes.length enc * 8) - 1 do
    let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
    Bytes.set enc byte (Char.chr (Char.code (Bytes.get enc byte) lxor mask));
    if Map_codec.decode_tail enc <> None then
      Alcotest.failf "tail decoded with bit %d flipped" bit;
    Bytes.set enc byte (Char.chr (Char.code (Bytes.get enc byte) lxor mask))
  done

let test_torn_node_prefixes () =
  (* The new node lands over the stale contents of a recycled block: any
     prefix cut at a sector boundary must fail to decode.  Try two kinds
     of stale remainder — an older valid node, and application data. *)
  let sector = 512 in
  let new_enc = Map_codec.encode_node ~block_bytes sample_node in
  let stales =
    [
      ( "old node",
        Map_codec.encode_node ~block_bytes
          { sample_node with Map_codec.seq = 7L; txn_id = 3L } );
      ("app data", Bytes.make block_bytes 'z');
    ]
  in
  List.iter
    (fun (what, stale) ->
      for k = 0 to (block_bytes / sector) - 1 do
        let torn = Bytes.copy stale in
        Bytes.blit new_enc 0 torn 0 (k * sector);
        match Map_codec.decode_node torn with
        | None -> ()
        | Some n ->
          (* A whole stale *node* with zero new sectors decodes — to the
             old node, which is exactly the stale-pointer case the seq
             check prunes.  Decoding to the new node would be a bug. *)
          if not (k = 0 && n.Map_codec.seq = 7L) then
            Alcotest.failf "torn node (%d/%d sectors over %s) decoded" k
              (block_bytes / sector) what
      done)
    stales

(* --- degraded recovery: damaged landing zone --- *)

let build_vld () =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile
      ~clock ()
  in
  let prng = Prng.create ~seed:901L in
  let vld = Blockdev.Vld.create ~disk ~logical_blocks:300 ~prng () in
  (disk, vld)

let write_tagged vld l tag =
  match Blockdev.Vld.write_result vld l (Bytes.make block_bytes tag) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write failed: %a" Blockdev.Device.pp_io_error e

let recover_from disk =
  let clock2 = Clock.create () in
  let disk2 =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track
      ~store:(Disk.Sector_store.snapshot (Disk.Disk_sim.store disk))
      ~profile ~clock:clock2 ()
  in
  match Blockdev.Vld.recover ~disk:disk2 ~prng:(Prng.create ~seed:902L) () with
  | Error e -> Alcotest.failf "recovery aborted: %s" e
  | Ok (vld2, report) -> (vld2, report)

let check_all_present vld2 n tag =
  for l = 0 to n - 1 do
    match Blockdev.Vld.read_result vld2 l with
    | Error e -> Alcotest.failf "block %d: %a" l Blockdev.Device.pp_io_error e
    | Ok (data, _) ->
      if Bytes.get data 0 <> tag then Alcotest.failf "block %d lost or stale" l
  done

let test_rotted_tail_falls_back_to_scan () =
  let disk, vld = build_vld () in
  for l = 0 to 39 do
    write_tagged vld l 'T'
  done;
  ignore (Blockdev.Vld.power_down vld);
  (* The landing zone (physical block 0) decays after the park: the tail
     record is unreadable, so recovery must scan — and still find
     everything that was committed. *)
  Disk.Sector_store.rot (Disk.Disk_sim.store disk) ~lba:0 ~sectors:1
    (Prng.create ~seed:3L);
  let vld2, report = recover_from disk in
  Alcotest.(check bool) "tail rejected" false report.Virtual_log.used_tail;
  Alcotest.(check bool) "scan ran" true (report.Virtual_log.blocks_scanned > 0);
  check_all_present vld2 40 'T';
  match Virtual_log.check_invariants (Blockdev.Vld.vlog vld2) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_garbage_tail_falls_back_to_scan () =
  let disk, vld = build_vld () in
  for l = 0 to 39 do
    write_tagged vld l 'G'
  done;
  ignore (Blockdev.Vld.power_down vld);
  (* ECC-valid garbage over the landing zone: the read succeeds but the
     record's checksum fails, which must also divert to the scan. *)
  Disk.Sector_store.corrupt (Disk.Disk_sim.store disk) ~lba:0 ~sectors:8
    (Prng.create ~seed:4L);
  let vld2, report = recover_from disk in
  Alcotest.(check bool) "tail rejected" false report.Virtual_log.used_tail;
  check_all_present vld2 40 'G'

(* --- defect-tolerant device I/O --- *)

let test_regular_disk_remaps_grown_defect () =
  let clock = Clock.create () in
  let disk = Disk.Disk_sim.create ~profile ~clock () in
  let rd = Blockdev.Regular_disk.create ~disk ~spare_blocks:4 () in
  let plan = Fault.Plan.create Fault.Plan.Grown_defect ~trigger:0 ~seed:5L in
  Fault.Plan.install plan disk;
  (match Blockdev.Regular_disk.write_result rd 7 (Bytes.make block_bytes 'R') with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write not remapped: %a" Blockdev.Device.pp_io_error e);
  Alcotest.(check bool) "fault fired" true (Fault.Plan.fired plan);
  Alcotest.(check int) "one remap" 1 (Blockdev.Regular_disk.remapped_blocks rd);
  Alcotest.(check int) "one spare used" 3 (Blockdev.Regular_disk.spares_left rd);
  match Blockdev.Regular_disk.read_result rd 7 with
  | Ok (data, _) -> Alcotest.(check char) "data survives" 'R' (Bytes.get data 0)
  | Error e -> Alcotest.failf "read after remap: %a" Blockdev.Device.pp_io_error e

let test_regular_disk_transient_retry () =
  let clock = Clock.create () in
  let disk = Disk.Disk_sim.create ~profile ~clock () in
  let rd = Blockdev.Regular_disk.create ~disk () in
  ignore (Blockdev.Regular_disk.write_result rd 3 (Bytes.make block_bytes 'M'));
  let plan = Fault.Plan.create (Fault.Plan.Transient_read 2) ~trigger:0 ~seed:6L in
  Fault.Plan.install plan disk;
  match Blockdev.Regular_disk.read_result rd 3 with
  | Ok (data, _) -> Alcotest.(check char) "retry succeeds" 'M' (Bytes.get data 0)
  | Error e -> Alcotest.failf "retry gave up: %a" Blockdev.Device.pp_io_error e

let test_vld_retires_bad_block () =
  let disk, vld = build_vld () in
  let plan = Fault.Plan.create Fault.Plan.Grown_defect ~trigger:0 ~seed:7L in
  Fault.Plan.install plan disk;
  write_tagged vld 5 'V';
  Alcotest.(check bool) "fault fired" true (Fault.Plan.fired plan);
  let fm = Virtual_log.freemap (Blockdev.Vld.vlog vld) in
  Alcotest.(check bool) "defect recorded" true (Freemap.n_bad fm >= 1);
  (match Blockdev.Vld.read_result vld 5 with
  | Ok (data, _) -> Alcotest.(check char) "rehomed data" 'V' (Bytes.get data 0)
  | Error e -> Alcotest.failf "read after retire: %a" Blockdev.Device.pp_io_error e);
  (* The retired block must survive recovery checks too. *)
  let vld2, _ = recover_from disk in
  match Virtual_log.check_invariants (Blockdev.Vld.vlog vld2) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_rot_reads_error_not_garbage () =
  let _disk, vld = build_vld () in
  write_tagged vld 9 'S';
  let pba = Option.get (Virtual_log.lookup (Blockdev.Vld.vlog vld) 9) in
  let fm = Virtual_log.freemap (Blockdev.Vld.vlog vld) in
  Disk.Sector_store.rot
    (Disk.Disk_sim.store (Blockdev.Vld.disk vld))
    ~lba:(Freemap.lba_of_block fm pba) ~sectors:1 (Prng.create ~seed:8L);
  match Blockdev.Vld.read_result vld 9 with
  | Error e ->
    (* ECC failure is permanent, not transient: no retries are wasted. *)
    Alcotest.(check int) "no futile retries" 0 e.Blockdev.Device.retries
  | Ok _ -> Alcotest.fail "rotted sector read back as good data"

(* ---- fault-spec parse/print roundtrips ---- *)

(* The printed spelling of every fault kind must parse back to the same
   kind: these strings are the [vlsim volume fail --fault] and sweep
   [--repro] vocabulary, so a kind that prints unparseably (a hang
   duration mangled by [%g], say) silently breaks every repro.  Hang
   durations are drawn in halves so the generator covers fractional
   milliseconds that still survive [%g] printing exactly. *)
let kind_gen =
  QCheck.Gen.(
    oneof
      [
        return Fault.Plan.Torn_write;
        return Fault.Plan.Bit_rot;
        map (fun n -> Fault.Plan.Transient_read n) (int_range 1 9);
        return Fault.Plan.Grown_defect;
        return Fault.Plan.Power_cut;
        return Fault.Plan.Drive_death;
        map
          (fun n -> Fault.Plan.Drive_hang (float_of_int n /. 2.))
          (int_range 1 2000);
        map (fun n -> Fault.Plan.Drive_flaky n) (int_range 1 32);
        map (fun n -> Fault.Plan.Latent_sectors n) (int_range 1 128);
      ])

let kind_arb =
  QCheck.make ~print:Fault.Plan.kind_to_string kind_gen

let prop_kind_roundtrip =
  QCheck.Test.make ~name:"fault kind print/parse roundtrip" ~count:500 kind_arb
    (fun k ->
      match Fault.Plan.kind_of_string (Fault.Plan.kind_to_string k) with
      | Ok k' -> k' = k
      | Error e -> QCheck.Test.fail_reportf "did not parse back: %s" e)

let drive_kind_gen =
  QCheck.Gen.(
    oneof
      [
        return Fault.Plan.Drive_death;
        map
          (fun n -> Fault.Plan.Drive_hang (float_of_int n /. 2.))
          (int_range 1 2000);
        map (fun n -> Fault.Plan.Drive_flaky n) (int_range 1 32);
        map (fun n -> Fault.Plan.Latent_sectors n) (int_range 1 128);
      ])

let leg_spec_arb =
  QCheck.make
    ~print:(fun s -> Fault.Plan.leg_spec_to_string s)
    QCheck.Gen.(
      map2
        (fun k leg -> { Fault.Plan.ls_kind = k; ls_leg = leg })
        drive_kind_gen
        (option (int_range 0 15)))

let prop_leg_spec_roundtrip =
  QCheck.Test.make ~name:"volume-fail leg spec roundtrip" ~count:500
    leg_spec_arb (fun s ->
      match Fault.Plan.leg_spec_of_string (Fault.Plan.leg_spec_to_string s) with
      | Ok s' -> s' = s
      | Error e -> QCheck.Test.fail_reportf "did not parse back: %s" e)

let suites =
  [
    ( "fault-codec",
      [
        Alcotest.test_case "node survives no single-bit flip" `Quick
          test_node_bit_flips;
        Alcotest.test_case "tail survives no single-bit flip" `Quick
          test_tail_bit_flips;
        Alcotest.test_case "torn node prefixes never decode" `Quick
          test_torn_node_prefixes;
      ] );
    ( "fault-recovery",
      [
        Alcotest.test_case "rotted tail -> scan fallback" `Quick
          test_rotted_tail_falls_back_to_scan;
        Alcotest.test_case "garbage tail -> scan fallback" `Quick
          test_garbage_tail_falls_back_to_scan;
      ] );
    ( "fault-device",
      [
        Alcotest.test_case "regular disk remaps grown defect" `Quick
          test_regular_disk_remaps_grown_defect;
        Alcotest.test_case "regular disk retries transient read" `Quick
          test_regular_disk_transient_retry;
        Alcotest.test_case "vld retires bad block and rehomes data" `Quick
          test_vld_retires_bad_block;
        Alcotest.test_case "rotted data reads as error, not garbage" `Quick
          test_rot_reads_error_not_garbage;
      ] );
    ( "fault-spec-codec",
      List.map QCheck_alcotest.to_alcotest
        [ prop_kind_roundtrip; prop_leg_spec_roundtrip ] );
  ]
