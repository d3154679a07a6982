open Vlog_util
open Blockdev

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 4

let make_regular () =
  let clock = Clock.create () in
  let disk = Disk.Disk_sim.create ~profile ~clock () in
  (Regular_disk.device (Regular_disk.create ~disk ()), clock)

let make_vld ?(logical_blocks = 1500) () =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile ~clock ()
  in
  let prng = Prng.create ~seed:21L in
  let vld = Vld.create ~disk ~logical_blocks ~prng () in
  (vld, Vld.device vld, clock)

let block_of_tag dev tag = Bytes.make dev.Device.block_bytes tag

let roundtrip dev =
  let b = block_of_tag dev 'k' in
  ignore (Device.write dev 11 b);
  let got, _ = Device.read dev 11 in
  Alcotest.(check bytes) "roundtrip" b got

let test_regular_roundtrip () =
  let dev, _ = make_regular () in
  roundtrip dev

let test_vld_roundtrip () =
  let _, dev, _ = make_vld () in
  roundtrip dev

let test_unwritten_reads_zero () =
  let _, dev, _ = make_vld () in
  let got, _ = Device.read dev 100 in
  Alcotest.(check bytes) "zeros" (Bytes.make dev.Device.block_bytes '\000') got

let test_run_roundtrip dev =
  let n = 10 in
  let buf =
    Bytes.init (n * dev.Device.block_bytes) (fun i -> Char.chr (i / dev.Device.block_bytes + 48))
  in
  ignore (Device.write_run dev 5 buf);
  let got, _ = Device.read_run dev 5 n in
  Alcotest.(check bytes) "run roundtrip" buf got

let test_regular_run () =
  let dev, _ = make_regular () in
  test_run_roundtrip dev

let test_vld_run () =
  let _, dev, _ = make_vld () in
  test_run_roundtrip dev

let test_vld_sync_write_faster_than_regular () =
  (* The headline effect: random synchronous 4 KB updates are much faster
     on the VLD than in place. *)
  let reg_dev, reg_clock = make_regular () in
  let _, vld_dev, vld_clock = make_vld ~logical_blocks:1800 () in
  let prng = Prng.create ~seed:22L in
  let b = Bytes.make 4096 'u' in
  (* Prefill both with the same 600 logical blocks. *)
  let targets = Array.init 600 (fun i -> i * 3) in
  Array.iter (fun l -> ignore (Device.write reg_dev l b)) targets;
  Array.iter (fun l -> ignore (Device.write vld_dev l b)) targets;
  let t0r = Clock.now reg_clock and t0v = Clock.now vld_clock in
  for _ = 1 to 300 do
    let l = targets.(Prng.int prng 600) in
    ignore (Device.write reg_dev l b)
  done;
  let prng = Prng.create ~seed:22L in
  for _ = 1 to 300 do
    let l = targets.(Prng.int prng 600) in
    ignore (Device.write vld_dev l b)
  done;
  let reg_ms = Clock.now reg_clock -. t0r and vld_ms = Clock.now vld_clock -. t0v in
  Alcotest.(check bool)
    (Printf.sprintf "vld (%.1f ms) at least 2x faster than regular (%.1f ms)" vld_ms reg_ms)
    true
    (vld_ms *. 2. < reg_ms)

let test_vld_trim_releases () =
  let vld, dev, _ = make_vld () in
  ignore (Device.write dev 9 (block_of_tag dev 't'));
  let fm = Vlog.Virtual_log.freemap (Vld.vlog vld) in
  let used_before = Vlog.Freemap.n_blocks fm - Vlog.Freemap.free_total fm in
  dev.Device.trim 9;
  let used_after = Vlog.Freemap.n_blocks fm - Vlog.Freemap.free_total fm in
  (* The data block is freed; the map write may consume nothing net. *)
  Alcotest.(check bool) "space released" true (used_after <= used_before);
  let got, _ = Device.read dev 9 in
  Alcotest.(check bytes) "reads zeros" (Bytes.make dev.Device.block_bytes '\000') got

let test_vld_overwrite_detection () =
  let vld, dev, _ = make_vld () in
  let fm = Vlog.Virtual_log.freemap (Vld.vlog vld) in
  ignore (Device.write dev 3 (block_of_tag dev 'a'));
  let used1 = Vlog.Freemap.n_blocks fm - Vlog.Freemap.free_total fm in
  (* Overwriting the same logical address must not leak physical space. *)
  for _ = 1 to 20 do
    ignore (Device.write dev 3 (block_of_tag dev 'b'))
  done;
  let used2 = Vlog.Freemap.n_blocks fm - Vlog.Freemap.free_total fm in
  Alcotest.(check int) "no leak" used1 used2

let test_vld_write_run_atomic_txn () =
  let vld, dev, _ = make_vld () in
  let before = (Vlog.Virtual_log.stats (Vld.vlog vld)).Vlog.Virtual_log.txns in
  let buf = Bytes.make (8 * dev.Device.block_bytes) 'r' in
  ignore (Device.write_run dev 100 buf);
  let after = (Vlog.Virtual_log.stats (Vld.vlog vld)).Vlog.Virtual_log.txns in
  Alcotest.(check int) "one transaction" (before + 1) after

let test_vld_power_down_recover_end_to_end () =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile ~clock ()
  in
  let prng = Prng.create ~seed:23L in
  let vld = Vld.create ~disk ~logical_blocks:500 ~prng () in
  let dev = Vld.device vld in
  let payload l = Bytes.init dev.Device.block_bytes (fun i -> Char.chr ((l + i) mod 256)) in
  List.iter (fun l -> ignore (Device.write dev l (payload l))) [ 0; 7; 200; 499 ];
  ignore (Vld.power_down vld);
  match Vld.recover ~disk ~prng () with
  | Error e -> Alcotest.fail e
  | Ok (vld2, report) ->
    Alcotest.(check bool) "tail used" true report.Vlog.Virtual_log.used_tail;
    let dev2 = Vld.device vld2 in
    List.iter
      (fun l ->
        let got, _ = Device.read dev2 l in
        Alcotest.(check bytes) "payload" (payload l) got)
      [ 0; 7; 200; 499 ];
    let got, _ = Device.read dev2 42 in
    Alcotest.(check bytes) "unwritten zero" (Bytes.make dev.Device.block_bytes '\000') got

(* power_down is best-effort: when the landing zone has grown a defect
   the tail record never lands, and the next recovery must take the
   signature-scan fallback — used_tail=false — with no data lost.  The
   test above is the control for this one (healthy zone, used_tail
   stays true). *)
let test_vld_power_down_defective_landing_zone () =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile ~clock ()
  in
  let prng = Prng.create ~seed:23L in
  let vld = Vld.create ~disk ~logical_blocks:500 ~prng () in
  let dev = Vld.device vld in
  let payload l = Bytes.init dev.Device.block_bytes (fun i -> Char.chr ((l + i) mod 256)) in
  List.iter (fun l -> ignore (Device.write dev l (payload l))) [ 0; 7; 200; 499 ];
  (* The only write left is the tail record; fail it at its own lba. *)
  Disk.Disk_sim.set_injector disk
    (Some
       {
         Disk.Disk_sim.on_read = (fun ~lba:_ ~sectors:_ -> None);
         on_write = (fun ~lba ~sectors:_ -> Some (Disk.Disk_sim.Unwritable lba));
       });
  ignore (Vld.power_down vld);
  Disk.Disk_sim.set_injector disk None;
  match Vld.recover ~disk ~prng () with
  | Error e -> Alcotest.fail e
  | Ok (vld2, report) ->
    Alcotest.(check bool) "fell back to scan" false
      report.Vlog.Virtual_log.used_tail;
    Alcotest.(check bool) "scan actually ran" true
      (report.Vlog.Virtual_log.blocks_scanned > 0);
    let dev2 = Vld.device vld2 in
    List.iter
      (fun l ->
        let got, _ = Device.read dev2 l in
        Alcotest.(check bytes) "payload survives scan path" (payload l) got)
      [ 0; 7; 200; 499 ];
    let got, _ = Device.read dev2 42 in
    Alcotest.(check bytes) "unwritten zero" (Bytes.make dev.Device.block_bytes '\000') got

let test_vld_idle_compacts () =
  let vld, dev, clock = make_vld ~logical_blocks:1800 () in
  (* Fragment the disk. *)
  for l = 0 to 1200 do
    ignore (Device.write dev l (block_of_tag dev 'f'))
  done;
  for l = 0 to 1200 do
    if l mod 2 = 0 then dev.Device.trim l
  done;
  let before = (Vlog.Compactor.total (Vld.compactor vld)).Vlog.Compactor.blocks_moved in
  Device.advance_idle ~clock dev 5000.;
  let after = (Vlog.Compactor.total (Vld.compactor vld)).Vlog.Compactor.blocks_moved in
  Alcotest.(check bool) "compacted during idle" true (after > before)

let test_regular_idle_noop () =
  let dev, clock = make_regular () in
  Device.advance_idle ~clock dev 100.;
  Alcotest.(check (float 1e-9)) "time advanced" 100. (Clock.now clock)

let test_utilization_reporting () =
  let _, dev, _ = make_vld ~logical_blocks:1000 () in
  let u0 = dev.Device.utilization () in
  for l = 0 to 499 do
    ignore (Device.write dev l (block_of_tag dev 'u'))
  done;
  let u1 = dev.Device.utilization () in
  Alcotest.(check bool) "grew" true (u1 > u0 +. 0.2)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"io_error print/parse roundtrip" ~count:200
      (quad bool (int_range 0 1_000_000) (int_range 0 10_000_000)
         (int_range 0 64))
      (fun (is_read, block, error_lba, retries) ->
        let e =
          {
            Device.op = (if is_read then `Read else `Write);
            block;
            error_lba;
            retries;
          }
        in
        match Device.parse_io_error (Format.asprintf "%a" Device.pp_io_error e) with
        | Some e' -> e' = e
        | None -> false);
    Test.make ~name:"vld random write/read matches model" ~count:20
      (list_of_size Gen.(1 -- 60) (pair (int_range 0 199) (int_range 0 255)))
      (fun ops ->
        let _, dev, _ = make_vld ~logical_blocks:200 () in
        let model = Hashtbl.create 32 in
        List.iter
          (fun (l, v) ->
            let b = Bytes.make dev.Device.block_bytes (Char.chr v) in
            ignore (Device.write dev l b);
            Hashtbl.replace model l v)
          ops;
        Hashtbl.fold
          (fun l v ok ->
            ok
            &&
            let got, _ = Device.read dev l in
            got = Bytes.make dev.Device.block_bytes (Char.chr v))
          model true);
  ]

(* Batched map commits: the lazy checkpoint may hold mappings of
   completed writes in a backlog, but a [drain] barrier must flush them
   no matter how the queue empties — in particular when the last
   completion is an error.  Data that reached the platter must reach the
   map. *)
let test_queued_drain_commits_after_error () =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile ~clock ()
  in
  let prng = Prng.create ~seed:33L in
  let vld = Vld.create ~disk ~logical_blocks:300 ~prng () in
  let q = Vld.Queued.create ~policy:Disk.Disk_queue.Fifo ~map_batch:64 vld in
  let payload c = Bytes.make (Vld.device vld).Device.block_bytes c in
  (* A block committed up front, for the failing read at the end. *)
  ignore (Vld.Queued.submit_write q 50 (payload 'z'));
  ignore (Vld.Queued.drain q);
  let goods = [ (3, 'a'); (7, 'b'); (11, 'c') ] in
  List.iter (fun (b, c) -> ignore (Vld.Queued.submit_write q b (payload c))) goods;
  (* Service the good writes without the drain barrier: their data is on
     the platter, their mappings only in the backlog. *)
  while Vld.Queued.step q do
    ()
  done;
  List.iter
    (fun (b, _) ->
      Alcotest.(check bool)
        "mapping still in backlog, not in the map" true
        (Vld.Queued.submit_read q b = None))
    goods;
  (* Every read now hits a permanent defect: the next tag's completion —
     the last one the drain sees — is an error. *)
  Disk.Disk_sim.set_injector disk
    (Some
       {
         Disk.Disk_sim.on_read = (fun ~lba ~sectors:_ -> Some (Disk.Disk_sim.Unreadable lba));
         on_write = (fun ~lba:_ ~sectors:_ -> None);
       });
  (match Vld.Queued.submit_read q 50 with
  | Some _ -> ()
  | None -> Alcotest.fail "block 50 should be mapped");
  let cs = Vld.Queued.drain q in
  (match List.rev cs with
  | (_, last) :: _ -> (
    match last.Disk.Disk_queue.outcome with
    | Disk.Disk_queue.Failed _ -> ()
    | _ -> Alcotest.fail "expected the last completion to be an error")
  | [] -> Alcotest.fail "drain returned no completions");
  Disk.Disk_sim.set_injector disk None;
  (* The barrier must have committed the backlog despite the error. *)
  List.iter
    (fun (b, c) ->
      match Vld.Queued.submit_read q b with
      | None -> Alcotest.failf "block %d unmapped after drain: backlog lost" b
      | Some tag -> (
        match List.assoc tag (Vld.Queued.drain q) with
        | { Disk.Disk_queue.outcome = Disk.Disk_queue.Data got; _ } ->
          Alcotest.(check bytes) "committed data" (payload c) got
        | _ -> Alcotest.fail "read failed after commit"))
    goods

(* A write's buffer is the caller's again once the write returns: the
   device keeps a copy of what it needs, never the buffer.  LFS relies on
   this to send every full segment from one reused buffer. *)
let test_write_buffer_returned () =
  let mirror =
    let clock = Clock.create () in
    let disks =
      Array.init 2 (fun _ ->
          Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile ~clock ())
    in
    Volume.device
      (Volume.create ~layout:(Volume.Mirror 2) ~leg_kind:Volume.Vld_leg ~logical_blocks:64
         ~disks ~prng:(Prng.create ~seed:5L) ())
  in
  let _, vld, _ = make_vld () in
  let nvm_wal =
    let _, inner, clock = make_vld () in
    let nvm = Nvm.Nvm_sim.create ~clock () in
    Nvm.Nvm_wal.device (Nvm.Nvm_wal.create ~nvm ~inner ())
  in
  List.iter
    (fun (name, dev) ->
      let bb = dev.Device.block_bytes and n = 4 in
      let run = Bytes.init (n * bb) (fun i -> Char.chr (((i * 7) + (i / bb)) land 0xff)) in
      let run_copy = Bytes.copy run in
      let one = block_of_tag dev 's' in
      ignore (Device.write_run dev 8 run);
      Bytes.fill run 0 (n * bb) '\xaa';
      ignore (Device.write dev 3 one);
      Bytes.fill one 0 bb 'x';
      dev.Device.idle 100.;
      let got, _ = Device.read_run dev 8 n in
      Alcotest.(check bytes) (name ^ ": run") run_copy got;
      let got, _ = Device.read dev 3 in
      Alcotest.(check bytes) (name ^ ": block") (block_of_tag dev 's') got)
    [
      ("regular", fst (make_regular ()));
      ("vld", vld);
      ("mirror", mirror);
      ("nvm-wal", nvm_wal);
    ]

(* A VLD run read lands every physical run straight in one output
   buffer: no per-run copy, no up-front zero fill.  Blocks written one at
   a time land wherever eager writing put them, so the run below spans
   several physical runs and a hole, which must read as zeroes. *)
let test_vld_read_run_one_buffer () =
  let vld, dev, _ = make_vld () in
  let bb = dev.Device.block_bytes and n = 12 and hole = 5 in
  for i = 0 to n - 1 do
    if i <> hole then begin
      ignore (Device.write dev (40 + i) (block_of_tag dev (Char.chr (65 + i))));
      ignore (Device.write dev (400 + i) (block_of_tag dev 'z'))
    end
  done;
  let runs = ref 0 and prev = ref (-2) in
  for i = 0 to n - 1 do
    match Vlog.Virtual_log.lookup (Vld.vlog vld) (40 + i) with
    | Some pba ->
      if pba <> !prev + 1 then incr runs;
      prev := pba
    | None -> prev := -2
  done;
  Alcotest.(check bool) "several physical runs" true (!runs > 2);
  let expected =
    Bytes.init (n * bb) (fun k ->
        if k / bb = hole then '\000' else Char.chr (65 + (k / bb)))
  in
  let read () =
    let before = Gc.allocated_bytes () in
    let got, _ = Device.read_run dev 40 n in
    (got, Gc.allocated_bytes () -. before)
  in
  let got, _ = read () in
  Alcotest.(check bytes) "contents" expected got;
  (* The least of a few reads, so a GC slice that happens to run (and
     allocate) inside one of them does not count. *)
  let allocated = List.fold_left min infinity (List.init 5 (fun _ -> snd (read ()))) in
  if allocated > 1.5 *. float_of_int (n * bb) then
    Alcotest.failf "read_run of %d bytes allocated %.0f bytes" (n * bb) allocated

(* The [read_into] contract, checked against [read_run] on identically
   built devices (a read moves the head, so each side needs its own):
   at a nonzero [pos] of a larger, sentinel-filled buffer it writes
   exactly its window, with [read_run]'s bytes and breakdown; and a
   queue rebuilt from the four closures with [Device.sync_queue], as
   perfbench's meter rebuilds it, serves [Read_into] the same way. *)
let check_read_into name (mk : unit -> Device.t) ~block ~count =
  let want, want_bd = Device.read_run (mk ()) block count in
  let into what (dev : Device.t) =
    let bb = dev.Device.block_bytes in
    let pos = bb + 3 and window = count * bb in
    let buf = Bytes.make (window + (2 * bb) + 5) '\xa5' in
    let bd = Device.read_into dev block count buf ~pos in
    Bytes.iteri
      (fun i c ->
        if (i < pos || i >= pos + window) && c <> '\xa5' then
          Alcotest.failf "%s (%s): byte %d outside the window was written" name what i)
      buf;
    Alcotest.(check bytes) (Printf.sprintf "%s (%s): bytes" name what) want
      (Bytes.sub buf pos window);
    if bd <> want_bd then
      Alcotest.failf "%s (%s): breakdown %a, read_run's %a" name what Breakdown.pp bd
        Breakdown.pp want_bd
  in
  into "native" (mk ());
  let d = mk () in
  let submit, poll, drain =
    Device.sync_queue ~read:d.Device.read ~read_run:d.Device.read_run
      ~write:d.Device.write ~write_run:d.Device.write_run
  in
  into "sync_queue" { d with submit; poll; drain }

let pattern dev n =
  let bb = dev.Device.block_bytes in
  Bytes.init (n * bb) (fun i -> Char.chr (((i * 13) + (i / bb)) land 0xff))

let test_regular_read_into () =
  check_read_into "regular" ~block:5 ~count:10 (fun () ->
      let dev, _ = make_regular () in
      ignore (Device.write_run dev 5 (pattern dev 10));
      dev)

(* A run that crosses a remapped block goes block by block, each one
   still read straight into the caller's window. *)
let test_regular_read_into_remapped () =
  let mk () =
    let clock = Clock.create () in
    let disk = Disk.Disk_sim.create ~profile ~clock () in
    let rd = Regular_disk.create ~disk ~spare_blocks:4 () in
    let dev = Regular_disk.device rd in
    Fault.Plan.install (Fault.Plan.create Fault.Plan.Grown_defect ~trigger:0 ~seed:5L) disk;
    ignore (Device.write dev 7 (block_of_tag dev 'R'));
    Alcotest.(check int) "block 7 remapped" 1 (Regular_disk.remapped_blocks rd);
    ignore (Device.write_run dev 8 (pattern dev 4));
    dev
  in
  check_read_into "regular, remapped" mk ~block:5 ~count:8

let test_vld_read_into () =
  check_read_into "vld mapped" ~block:20 ~count:9 (fun () ->
      let _, dev, _ = make_vld () in
      ignore (Device.write_run dev 20 (pattern dev 9));
      dev);
  check_read_into "vld unmapped" ~block:700 ~count:6 (fun () ->
      let _, dev, _ = make_vld () in
      ignore (Device.write_run dev 20 (pattern dev 9));
      dev);
  (* Blocks written one at a time between writes elsewhere land in
     several physical runs, around a hole. *)
  check_read_into "vld fragmented" ~block:40 ~count:12 (fun () ->
      let _, dev, _ = make_vld () in
      for i = 0 to 11 do
        if i <> 5 then begin
          ignore (Device.write dev (40 + i) (block_of_tag dev (Char.chr (65 + i))));
          ignore (Device.write dev (400 + i) (block_of_tag dev 'z'))
        end
      done;
      dev)

let suites =
  [
    ( "blockdev",
      [
        Alcotest.test_case "regular roundtrip" `Quick test_regular_roundtrip;
        Alcotest.test_case "vld roundtrip" `Quick test_vld_roundtrip;
        Alcotest.test_case "unwritten zero" `Quick test_unwritten_reads_zero;
        Alcotest.test_case "regular run" `Quick test_regular_run;
        Alcotest.test_case "vld run" `Quick test_vld_run;
        Alcotest.test_case "vld run read: one output buffer" `Quick
          test_vld_read_run_one_buffer;
        Alcotest.test_case "regular read_into" `Quick test_regular_read_into;
        Alcotest.test_case "regular read_into across a remap" `Quick
          test_regular_read_into_remapped;
        Alcotest.test_case "vld read_into" `Quick test_vld_read_into;
        Alcotest.test_case "vld faster on random sync" `Quick test_vld_sync_write_faster_than_regular;
        Alcotest.test_case "trim releases" `Quick test_vld_trim_releases;
        Alcotest.test_case "overwrite detection" `Quick test_vld_overwrite_detection;
        Alcotest.test_case "write_run one txn" `Quick test_vld_write_run_atomic_txn;
        Alcotest.test_case "power-down recover" `Quick test_vld_power_down_recover_end_to_end;
        Alcotest.test_case "power-down defective landing zone" `Quick
          test_vld_power_down_defective_landing_zone;
        Alcotest.test_case "idle compacts" `Quick test_vld_idle_compacts;
        Alcotest.test_case "regular idle noop" `Quick test_regular_idle_noop;
        Alcotest.test_case "utilization" `Quick test_utilization_reporting;
        Alcotest.test_case "queued drain commits after error" `Quick
          test_queued_drain_commits_after_error;
        Alcotest.test_case "write buffer returned" `Quick test_write_buffer_returned;
      ] );
    ("blockdev:properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
