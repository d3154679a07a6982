open Vlog_util

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 2
let block_bytes = 4096

(* One staged stack: small disk, VLD, NVM, WAL with background
   destaging off so every staged record stays in the log until an
   explicit drain. *)
let make_stack ?(log_bytes = None) () =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile
      ~clock ()
  in
  let vld =
    Blockdev.Vld.create ~disk ~logical_blocks:128
      ~prng:(Prng.create ~seed:7L) ()
  in
  let nvm = Nvm.Nvm_sim.create ~clock () in
  let cfg = { Nvm.Nvm_wal.destage_util = 0.; log_bytes } in
  let wal =
    Nvm.Nvm_wal.create ~config:cfg ~nvm ~inner:(Blockdev.Vld.device vld) ()
  in
  (clock, disk, nvm, wal)

let stage_writes wal ops =
  let dev = Nvm.Nvm_wal.device wal in
  List.iter
    (fun (block, fill) ->
      match dev.Blockdev.Device.write block (Bytes.make block_bytes fill) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "staged write refused")
    ops

(* ---- Record codec properties (QCheck) ------------------------------ *)

let payload_gen =
  QCheck.Gen.(
    int_range 1 6000 >>= fun len ->
    string_size ~gen:(char_range '\000' '\255') (return len))

let record_gen =
  QCheck.Gen.(
    map3
      (fun seq block payload ->
        {
          Nvm.Nvm_wal.Record.seq = Int64.of_int seq;
          block;
          payload = Bytes.of_string payload;
        })
      (int_range 0 1_000_000) (int_range 0 1_000_000) payload_gen)

let record_arb =
  QCheck.make record_gen ~print:(fun (r : Nvm.Nvm_wal.Record.t) ->
      Printf.sprintf "{seq=%Ld; block=%d; payload=%d bytes}" r.seq r.block
        (Bytes.length r.payload))

let qcheck_codec =
  let open QCheck in
  let open Nvm.Nvm_wal in
  [
    Test.make ~name:"record codec roundtrip" ~count:200 record_arb (fun r ->
        let buf = Record.encode r in
        match Record.decode buf ~pos:0 with
        | None -> false
        | Some (r', next) ->
          r'.Record.seq = r.Record.seq
          && r'.Record.block = r.Record.block
          && Bytes.equal r'.Record.payload r.Record.payload
          && next = Bytes.length buf);
    Test.make ~name:"truncated record rejected" ~count:200
      (pair record_arb (float_bound_exclusive 1.))
      (fun (r, frac) ->
        let buf = Record.encode r in
        let n = Bytes.length buf in
        (* Keep at least the magic so this is a torn record, not blank
           space; always cut at least the final CRC byte. *)
        let keep = 4 + int_of_float (frac *. float_of_int (n - 5)) in
        Record.decode (Bytes.sub buf 0 keep) ~pos:0 = None);
    Test.make ~name:"bit flip rejected" ~count:300
      (pair record_arb (int_bound 100_000))
      (fun (r, at) ->
        let buf = Record.encode r in
        let bit = at mod (Bytes.length buf * 8) in
        let byte = bit / 8 in
        Bytes.set buf byte
          (Char.chr (Char.code (Bytes.get buf byte) lxor (1 lsl (bit mod 8))));
        Record.decode buf ~pos:0 = None);
  ]

(* ---- Append/replay properties over a real staged log --------------- *)

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 20)
      (pair (int_range 0 99) (char_range 'a' 'z')))

let ops_arb =
  QCheck.make ops_gen ~print:(fun ops ->
      String.concat ";"
        (List.map (fun (b, c) -> Printf.sprintf "%d:%c" b c) ops))

let qcheck_replay =
  let open QCheck in
  let open Nvm.Nvm_wal in
  [
    Test.make ~name:"append/replay equal" ~count:40 ops_arb (fun ops ->
        let _, _, nvm, wal = make_stack () in
        stage_writes wal ops;
        let recs, report = replay_scan (Nvm.Nvm_sim.snapshot nvm) in
        (not report.rr_truncated)
        && report.rr_stale = 0
        && List.length recs = List.length ops
        && List.for_all2
             (fun (block, fill) (r : Record.t) ->
               r.Record.block = block
               && Bytes.equal r.Record.payload (Bytes.make block_bytes fill))
             ops recs
        && recs
           = List.sort
               (fun (a : Record.t) b -> Int64.compare a.Record.seq b.Record.seq)
               recs);
    Test.make ~name:"torn tail truncates to committed prefix" ~count:40
      (pair ops_arb (int_bound 10_000))
      (fun (ops, tear) ->
        let _, _, nvm, wal = make_stack () in
        stage_writes wal ops;
        let img = Nvm.Nvm_sim.snapshot nvm in
        let n = List.length ops in
        let size = Record.encoded_size ~payload_len:block_bytes in
        (* Tear inside the last record, past its magic: the bytes look
           like a record but fail the seal. *)
        let last = 32 + ((n - 1) * size) in
        let cut = last + 4 + (tear mod (size - 4)) in
        Bytes.fill img cut (Bytes.length img - cut) '\000';
        let recs, report = replay_scan img in
        report.rr_truncated
        && List.length recs = n - 1
        && List.for_all2
             (fun (block, _) (r : Record.t) -> r.Record.block = block)
             (List.filteri (fun i _ -> i < n - 1) ops)
             recs);
  ]

(* ---- Regression: crash mid-destage, replay is idempotent ----------- *)

(* A destage crash must leave the NVM log replayable: every write the
   tier acknowledged is reconstructed on the backing device by
   [recover], and replaying twice (crash again right after recovery,
   with nothing new staged) leaves the byte-identical device image. *)
let test_destage_crash_replay_idempotent () =
  let _, disk, nvm, wal = make_stack () in
  let ops = List.init 12 (fun i -> ((i * 7) mod 40, Char.chr (65 + i))) in
  stage_writes wal ops;
  let plan =
    Fault.Plan.create Fault.Plan.Nvm_destage_cut ~trigger:4 ~seed:11L
  in
  Fault.Plan.install plan disk;
  Fault.Plan.install_nvm plan nvm;
  (match Nvm.Nvm_wal.drain wal with
  | exception Disk.Disk_sim.Power_cut -> ()
  | Ok () -> Alcotest.fail "drain survived the planned power cut"
  | Error _ -> Alcotest.fail "drain failed for the wrong reason");
  Alcotest.(check bool) "fault fired" true (Fault.Plan.fired plan);
  let dstore = Disk.Sector_store.snapshot (Disk.Disk_sim.store disk) in
  let nimg = Nvm.Nvm_sim.snapshot nvm in
  let recover_from dstore nimg =
    let clock = Clock.create () in
    let disk2 =
      Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track
        ~store:(Disk.Sector_store.snapshot dstore) ~profile ~clock ()
    in
    let vld2, _ =
      match Blockdev.Vld.recover ~disk:disk2 ~prng:(Prng.create ~seed:7L) () with
      | Ok v -> v
      | Error msg -> Alcotest.failf "vld recover: %s" msg
    in
    let nvm2 = Nvm.Nvm_sim.create ~image:nimg ~clock () in
    match
      Nvm.Nvm_wal.recover
        ~config:{ Nvm.Nvm_wal.default_config with destage_util = 0. }
        ~nvm:nvm2 ~inner:(Blockdev.Vld.device vld2) ()
    with
    | Error e ->
      Alcotest.failf "wal recover: %s"
        (Format.asprintf "%a" Blockdev.Device.pp_io_error e)
    | Ok (wal2, report) -> (wal2, report, disk2, nvm2)
  in
  let read_all wal2 =
    let dev = Nvm.Nvm_wal.device wal2 in
    List.init 40 (fun b ->
        match dev.Blockdev.Device.read b with
        | Ok (bytes, _) -> Bytes.to_string bytes
        | Error _ -> Alcotest.failf "read of block %d failed after replay" b)
  in
  let wal1, report1, disk2, nvm2 = recover_from dstore nimg in
  Alcotest.(check bool) "first recovery replays records" true
    (report1.Nvm.Nvm_wal.rr_replayed > 0);
  let sig1 = read_all wal1 in
  (* Every acknowledged write's newest value is visible. *)
  List.iteri
    (fun i (block, fill) ->
      let newest =
        List.for_all
          (fun (b2, _) -> b2 <> block)
          (List.filteri (fun j _ -> j > i) ops)
      in
      if newest then
        Alcotest.(check string)
          (Printf.sprintf "block %d holds its acknowledged data" block)
          (String.make block_bytes fill)
          (List.nth sig1 block))
    ops;
  (* Crash again immediately: replaying the (now reset) log a second
     time must change nothing. *)
  let dstore2 = Disk.Sector_store.snapshot (Disk.Disk_sim.store disk2) in
  let nimg2 = Nvm.Nvm_sim.snapshot nvm2 in
  let wal2, report2, _, _ = recover_from dstore2 nimg2 in
  Alcotest.(check int) "nothing left to replay" 0
    report2.Nvm.Nvm_wal.rr_replayed;
  Alcotest.(check (list string)) "replay twice = replay once" sig1 (read_all wal2)

(* Backpressure under a tiny log: every write still lands, inline
   drains pay the disk cost. *)
let test_tiny_log_backpressure () =
  let _, _, _, wal = make_stack ~log_bytes:(Some (20 * 1024)) () in
  let ops = List.init 30 (fun i -> (i mod 50, Char.chr (97 + (i mod 26)))) in
  stage_writes wal ops;
  (match Nvm.Nvm_wal.drain wal with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "drain failed");
  let st = Nvm.Nvm_wal.status wal in
  Alcotest.(check int) "log empty after drain" 0 st.Nvm.Nvm_wal.st_entries;
  let dev = Nvm.Nvm_wal.inner wal in
  List.iteri
    (fun i (block, fill) ->
      let newest =
        List.for_all (fun (b2, _) -> b2 <> block)
          (List.filteri (fun j _ -> j > i) ops)
      in
      if newest then
        match dev.Blockdev.Device.read block with
        | Ok (bytes, _) ->
          Alcotest.(check char)
            (Printf.sprintf "block %d destaged" block)
            fill (Bytes.get bytes 0)
        | Error _ -> Alcotest.failf "read of block %d failed" block)
    ops

(* The log region must hold its header and one record: anything smaller
   is refused at creation, and the smallest region accepted still stages
   and destages every write, draining inline before each new record. *)
let test_log_holds_one_record () =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile
      ~clock ()
  in
  let inner =
    Blockdev.Vld.device
      (Blockdev.Vld.create ~disk ~logical_blocks:128 ~prng:(Prng.create ~seed:7L) ())
  in
  let nvm = Nvm.Nvm_sim.create ~clock () in
  let create n =
    let config =
      { Nvm.Nvm_wal.destage_util = 0.; log_bytes = Some n }
    in
    Nvm.Nvm_wal.create ~config ~nvm ~inner ()
  in
  let refused = Invalid_argument "Nvm_wal.create: log region smaller than one record" in
  let record = Nvm.Nvm_wal.Record.encoded_size ~payload_len:block_bytes in
  Alcotest.check_raises "empty region" refused (fun () -> ignore (create 0));
  Alcotest.check_raises "one record, no header" refused (fun () -> ignore (create record));
  let rec smallest n =
    if n > 2 * record then Alcotest.fail "no region up to two records accepted"
    else match create n with wal -> wal | exception Invalid_argument _ -> smallest (n + 1)
  in
  let wal = smallest (record + 1) in
  let ops = [ (0, 'a'); (1, 'b'); (0, 'c'); (2, 'd') ] in
  stage_writes wal ops;
  (match Nvm.Nvm_wal.drain wal with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "drain failed");
  List.iter
    (fun (block, fill) ->
      match inner.Blockdev.Device.read block with
      | Ok (bytes, _) ->
        Alcotest.(check char) (Printf.sprintf "block %d destaged" block) fill
          (Bytes.get bytes 0)
      | Error _ -> Alcotest.failf "read of block %d failed" block)
    [ (0, 'c'); (1, 'b'); (2, 'd') ]

(* A run of up to four blocks stages one record per block; a five-block
   run drains the log first and bypasses it to the backing device. *)
let test_stage_run_boundary () =
  let _, _, _, wal = make_stack () in
  let dev = Nvm.Nvm_wal.device wal and inner = Nvm.Nvm_wal.inner wal in
  let write_run block n fill =
    match dev.Blockdev.Device.write_run block (Bytes.make (n * block_bytes) fill) with
    | Ok c -> Io.counter c "nvm_staged"
    | Error _ -> Alcotest.failf "%d-block run refused" n
  in
  let entries () = (Nvm.Nvm_wal.status wal).Nvm.Nvm_wal.st_entries in
  Alcotest.(check int) "4-block run staged" 4 (write_run 0 4 'a');
  Alcotest.(check int) "4 records in the log" 4 (entries ());
  Alcotest.(check int) "5-block run not staged" 0 (write_run 8 5 'b');
  Alcotest.(check int) "log empty" 0 (entries ());
  List.iter
    (fun (block, fill) ->
      match inner.Blockdev.Device.read block with
      | Ok (bytes, _) ->
        Alcotest.(check char) (Printf.sprintf "block %d on the backing device" block)
          fill (Bytes.get bytes 0)
      | Error _ -> Alcotest.failf "read of block %d failed" block)
    (List.init 4 (fun b -> (b, 'a')) @ List.init 5 (fun b -> (8 + b, 'b')))

(* [read_into] over the WAL: a run with no staged block goes to the
   backing device's [read_into]; a run over staged blocks goes block by
   block, each staged one from NVM. *)
let test_read_into () =
  let mk () =
    let _, _, _, wal = make_stack () in
    let inner = Nvm.Nvm_wal.inner wal in
    ignore (Blockdev.Device.write_run inner 0 (Test_blockdev.pattern inner 16));
    stage_writes wal [ (3, 's'); (5, 't') ];
    Nvm.Nvm_wal.device wal
  in
  Test_blockdev.check_read_into "nvm-wal staged" mk ~block:1 ~count:8;
  Test_blockdev.check_read_into "nvm-wal clean" mk ~block:8 ~count:6

let suites =
  [
    ("nvm:codec", List.map QCheck_alcotest.to_alcotest qcheck_codec);
    ("nvm:replay", List.map QCheck_alcotest.to_alcotest qcheck_replay);
    ( "nvm:destage",
      [
        Alcotest.test_case "crash mid-drain replays idempotently" `Quick
          test_destage_crash_replay_idempotent;
        Alcotest.test_case "tiny log backpressure" `Quick
          test_tiny_log_backpressure;
        Alcotest.test_case "log region holds one record" `Quick
          test_log_holds_one_record;
        Alcotest.test_case "stage-run boundary" `Quick test_stage_run_boundary;
        Alcotest.test_case "read_into" `Quick test_read_into;
      ] );
  ]
