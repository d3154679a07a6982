(* The multi-disk volume layer: read failover across mirror legs,
   degraded writes with dirty-region tracking, bounded stalls under a
   hung leg, online rebuild onto a hot spare, honest data-loss reporting
   when redundancy is exhausted, and mirrored crash recovery converging
   both legs to one legal state. *)

open Vlog_util
open Check

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 3

let mk_disk clock =
  Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile
    ~clock ()

let logical_blocks = 64

let mk_mirror ?(leg_kind = Volume.Vld_leg) ?spare clock =
  let disks = Array.init 2 (fun _ -> mk_disk clock) in
  let vol =
    Volume.create ?spare ~layout:(Volume.Mirror 2) ~leg_kind ~logical_blocks
      ~disks ~prng:(Prng.create ~seed:41L) ()
  in
  (vol, disks)

let fill dev tag =
  Bytes.make dev.Blockdev.Device.block_bytes tag

let tag_of b = Char.chr (65 + b)

let check_clean what vol =
  let r = Volume_check.check vol in
  if not (Check.Report.ok r) then
    Alcotest.failf "%s: volume check dirty: %s" what
      (Format.asprintf "%a" Check.Report.pp r)

(* Kill one leg outright mid-life: reads must fail over to the survivor,
   writes must keep succeeding (degraded), and settling must resilver
   onto the hot spare and come back fully redundant. *)
let test_death_failover_and_rebuild () =
  let clock = Clock.create () in
  let spare () = mk_disk clock in
  let vol, disks = mk_mirror ~spare clock in
  let dev = Volume.device vol in
  for b = 0 to 9 do
    ignore (Blockdev.Device.write dev b (fill dev (tag_of b)))
  done;
  let plan = Fault.Plan.create Fault.Plan.Drive_death ~trigger:0 ~seed:7L in
  Fault.Plan.install plan disks.(1);
  (* the next write hits the dead leg: the volume degrades, the op
     succeeds *)
  ignore (Blockdev.Device.write dev 10 (fill dev (tag_of 10)));
  (* every read still answers, from the surviving leg *)
  for b = 0 to 10 do
    let data, _ = Blockdev.Device.read dev b in
    Alcotest.(check char)
      (Printf.sprintf "block %d content" b)
      (tag_of b) (Bytes.get data 0)
  done;
  Volume.settle vol;
  (match Volume.state_of vol ~group:0 ~leg:1 with
  | `Healthy -> ()
  | s -> Alcotest.failf "leg 1 not rebuilt: %s" (Volume.state_to_string s));
  Alcotest.(check bool) "spare swapped in" true
    ((Volume.disks vol).(1) != disks.(1));
  Alcotest.(check bool) "volume no longer degraded" false (Volume.degraded vol);
  check_clean "after rebuild" vol;
  for b = 0 to 10 do
    let data, _ = Blockdev.Device.read dev b in
    Alcotest.(check char)
      (Printf.sprintf "post-rebuild block %d" b)
      (tag_of b) (Bytes.get data 0)
  done

(* A hung leg must not stall an operation indefinitely: the write
   completes within a bounded amount of simulated time (retries ride out
   the hang or the leg is skipped and dirtied), and the data stays
   readable. *)
let test_hung_leg_bounded_stall () =
  let clock = Clock.create () in
  let vol, disks = mk_mirror clock in
  let dev = Volume.device vol in
  ignore (Blockdev.Device.write dev 0 (fill dev 'a'));
  let plan =
    Fault.Plan.create (Fault.Plan.Drive_hang 40.) ~trigger:0 ~seed:7L
  in
  Fault.Plan.install plan disks.(1);
  let t0 = Clock.now clock in
  ignore (Blockdev.Device.write dev 1 (fill dev 'b'));
  let stall = Clock.now clock -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "write stalled %.1f ms, wanted < 500" stall)
    true (stall < 500.);
  let data, _ = Blockdev.Device.read dev 1 in
  Alcotest.(check char) "hung-leg write readable" 'b' (Bytes.get data 0);
  Volume.settle vol;
  Alcotest.(check bool) "volume settles healthy" false (Volume.degraded vol);
  check_clean "after hang" vol

(* Writes landing while a leg rebuilds go to the dirty-region log or the
   already-swept region; either way the finished rebuild agrees with the
   surviving leg byte for byte. *)
let test_rebuild_catches_writes () =
  let clock = Clock.create () in
  let spare () = mk_disk clock in
  let vol, _disks = mk_mirror ~spare clock in
  let dev = Volume.device vol in
  for b = 0 to 9 do
    ignore (Blockdev.Device.write dev b (fill dev (tag_of b)))
  done;
  Volume.kill vol ~group:0 ~leg:1;
  (* dead, not yet rebuilding: writes land on the survivor only *)
  ignore (Blockdev.Device.write dev 3 (fill dev '!'));
  (match Volume.start_rebuild vol ~group:0 ~leg:1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "start_rebuild: %s" e);
  (* overlap the rebuild with fresh writes *)
  ignore (Blockdev.Device.write dev 5 (fill dev '?'));
  dev.Blockdev.Device.idle 2.0;
  ignore (Blockdev.Device.write dev 7 (fill dev '*'));
  Volume.rebuild_to_completion vol;
  (match Volume.state_of vol ~group:0 ~leg:1 with
  | `Healthy -> ()
  | s -> Alcotest.failf "leg 1 not healthy: %s" (Volume.state_to_string s));
  check_clean "after overlapped rebuild" vol;
  List.iter
    (fun (b, c) ->
      match Volume.leg_read_raw vol ~group:0 ~leg:1 b with
      | Error _ -> Alcotest.failf "rebuilt leg cannot read block %d" b
      | Ok data ->
        Alcotest.(check char)
          (Printf.sprintf "rebuilt leg block %d" b)
          c (Bytes.get data 0))
    [ (3, '!'); (5, '?'); (7, '*'); (0, tag_of 0) ]

(* Losing every leg of a group is data loss and must surface as an
   error return, never a hang or fabricated bytes. *)
let test_double_death_reports_loss () =
  let clock = Clock.create () in
  let vol, _disks = mk_mirror clock in
  let dev = Volume.device vol in
  ignore (Blockdev.Device.write dev 0 (fill dev 'a'));
  Volume.kill vol ~group:0 ~leg:0;
  Volume.kill vol ~group:0 ~leg:1;
  (match dev.Blockdev.Device.read 0 with
  | Ok _ -> Alcotest.fail "read succeeded with every leg dead"
  | Error e -> Alcotest.(check int) "error names the block" 0 e.Blockdev.Device.block);
  match dev.Blockdev.Device.write 1 (fill dev 'b') with
  | Ok _ -> Alcotest.fail "write succeeded with every leg dead"
  | Error _ -> ()

(* A stripe has no redundancy: one dead leg loses that group's blocks
   (honest errors) while the other group keeps answering. *)
let test_stripe_partial_loss () =
  let clock = Clock.create () in
  let disks = Array.init 2 (fun _ -> mk_disk clock) in
  let vol =
    Volume.create ~layout:(Volume.Stripe 2) ~leg_kind:Volume.Vld_leg
      ~logical_blocks ~disks ~prng:(Prng.create ~seed:42L) ()
  in
  let dev = Volume.device vol in
  (* block b lives on group (b mod 2) *)
  ignore (Blockdev.Device.write dev 0 (fill dev 'e'));
  ignore (Blockdev.Device.write dev 1 (fill dev 'o'));
  Volume.kill vol ~group:1 ~leg:0;
  let data, _ = Blockdev.Device.read dev 0 in
  Alcotest.(check char) "surviving group still serves" 'e' (Bytes.get data 0);
  match dev.Blockdev.Device.read 1 with
  | Ok _ -> Alcotest.fail "dead group served a read"
  | Error _ -> ()

(* Power cut mid-write on a mirrored pair: recovery brings both legs
   back, resyncs them to one legal state, and the volume checker finds
   them byte-identical. *)
let test_mirror_powercut_converges () =
  let clock = Clock.create () in
  let vol, disks = mk_mirror clock in
  let dev = Volume.device vol in
  for b = 0 to 7 do
    ignore (Blockdev.Device.write dev b (fill dev 'x'))
  done;
  let plan = Fault.Plan.create Fault.Plan.Power_cut ~trigger:5 ~seed:9L in
  Fault.Plan.install plan disks.(1);
  (try
     for i = 0 to 30 do
       ignore (Blockdev.Device.write dev (i mod 8) (fill dev 'y'))
     done;
     Alcotest.fail "power cut never fired"
   with Disk.Disk_sim.Power_cut -> ());
  let stores =
    Array.map
      (fun d -> Disk.Sector_store.snapshot (Disk.Disk_sim.store d))
      disks
  in
  let clock2 = Clock.create () in
  let disks2 =
    Array.map
      (fun store ->
        Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track
          ~store ~profile ~clock:clock2 ())
      stores
  in
  match
    Volume.recover ~layout:(Volume.Mirror 2) ~leg_kind:Volume.Vld_leg
      ~logical_blocks ~disks:disks2 ~prng:(Prng.create ~seed:43L) ()
  with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (vol2, report) ->
    Alcotest.(check int) "both legs recovered" 2
      report.Volume.legs_recovered;
    Alcotest.(check int) "no leg lost" 0 report.Volume.legs_lost;
    check_clean "after power-cut recovery" vol2;
    let dev2 = Volume.device vol2 in
    for b = 0 to 7 do
      let data, _ = Blockdev.Device.read dev2 b in
      let c = Bytes.get data 0 in
      if c <> 'x' && c <> 'y' then
        Alcotest.failf "block %d recovered as %C, legal states are x/y" b c
    done

(* The queued data path's headline claim: a mirror write scatters to
   both legs' tagged queues and each leg services it in its own window
   on the shared clock, so the operation completes at the max of the leg
   service times — not their sum, which is what the old sequential loop
   charged.  Identical fresh drives make the two legs' costs equal, so
   wall time of the mirrored write must equal the single-spindle wall
   time, and the legs' windows must end at (nearly) the same instant. *)
let test_mirror_write_completes_at_max_of_legs () =
  let run layout n_disks =
    let clock = Clock.create () in
    let disks = Array.init n_disks (fun _ -> mk_disk clock) in
    let vol =
      Volume.create ~layout ~leg_kind:Volume.Regular_leg ~logical_blocks ~disks
        ~prng:(Prng.create ~seed:41L) ()
    in
    let dev = Volume.device vol in
    let t0 = Clock.now clock in
    for b = 0 to 7 do
      ignore (Blockdev.Device.write dev b (fill dev (tag_of b)))
    done;
    (vol, Clock.now clock -. t0)
  in
  let _, single_ms = run (Volume.Stripe 1) 1 in
  let vol, mirror_ms = run (Volume.Mirror 2) 2 in
  Alcotest.(check (float 1e-6))
    "mirror write wall time = one leg's service time, not the sum"
    single_ms mirror_ms;
  Alcotest.(check (float 1e-6))
    "both legs' windows end together"
    (Volume.leg_busy_until vol ~group:0 ~leg:0)
    (Volume.leg_busy_until vol ~group:0 ~leg:1)

(* Striped reads fan across spindles: a run over k stripes costs about
   what the single busiest spindle pays, not the serial sum. *)
let test_stripe_fans_out () =
  let mk k =
    let clock = Clock.create () in
    let disks = Array.init k (fun _ -> mk_disk clock) in
    let vol =
      Volume.create ~layout:(Volume.Stripe k) ~leg_kind:Volume.Regular_leg
        ~logical_blocks ~disks ~prng:(Prng.create ~seed:42L) ()
    in
    (Volume.device vol, clock)
  in
  let dev1, clock1 = mk 1 in
  let dev4, clock4 = mk 4 in
  let n = 8 in
  let buf dev =
    Bytes.init (n * dev.Blockdev.Device.block_bytes) (fun i -> Char.chr (i mod 256))
  in
  ignore (Blockdev.Device.write_run dev1 0 (buf dev1));
  ignore (Blockdev.Device.write_run dev4 0 (buf dev4));
  let t1 = Clock.now clock1 and t4 = Clock.now clock4 in
  let r1 = Clock.now clock1 in
  ignore (Blockdev.Device.read_run dev1 0 n);
  let read1 = Clock.now clock1 -. r1 in
  let r4 = Clock.now clock4 in
  let got, _ = Result.get_ok (dev4.Blockdev.Device.read_run 0 n) in
  let read4 = Clock.now clock4 -. r4 in
  Alcotest.(check bytes) "striped data intact" (buf dev4) got;
  Alcotest.(check bool)
    (Printf.sprintf "4-wide stripe writes the run faster (1: %.3f, 4: %.3f)" t1 t4)
    true (t4 < t1);
  Alcotest.(check bool)
    (Printf.sprintf "4-wide stripe reads the run faster (1: %.3f, 4: %.3f)" read1
       read4)
    true (read4 < read1)

module D = Blockdev.Device

(* The native host queue: requests submitted to disjoint spindles of a
   stripe and drained at one barrier overlap in simulated time, so the
   drain finishes well before the same writes issued one at a time. *)
let test_host_queue_overlaps_spindles () =
  let mk () =
    let clock = Clock.create () in
    let disks = Array.init 4 (fun _ -> mk_disk clock) in
    let vol =
      Volume.create ~layout:(Volume.Stripe 4) ~leg_kind:Volume.Regular_leg
        ~logical_blocks ~disks ~prng:(Prng.create ~seed:45L) ()
    in
    (Volume.device vol, clock)
  in
  (* block 5i lives on leg i mod 4 *)
  let blocks = List.init 8 (fun i -> i * 5) in
  let seq_dev, seq_clock = mk () in
  let t0 = Clock.now seq_clock in
  List.iter (fun b -> ignore (D.write seq_dev b (fill seq_dev (tag_of b)))) blocks;
  let seq_ms = Clock.now seq_clock -. t0 in
  let dev, clock = mk () in
  let t0 = Clock.now clock in
  let tags =
    List.map (fun b -> dev.D.submit (D.Write (b, fill dev (tag_of b)))) blocks
  in
  let acks = dev.D.drain () in
  let queued_ms = Clock.now clock -. t0 in
  Alcotest.(check (list int))
    "one ack per tag, in submission order" tags (List.map fst acks);
  List.iter
    (fun (_, ack) ->
      match ack with
      | Ok (D.Done _) -> ()
      | Ok (D.Data _) -> Alcotest.fail "write acked with data"
      | Error e -> Alcotest.failf "queued write failed: %a" D.pp_io_error e)
    acks;
  Alcotest.(check (list int))
    "drain leaves nothing to poll" [] (List.map fst (dev.D.poll ()));
  List.iter
    (fun b ->
      let data, _ = D.read dev b in
      Alcotest.(check char)
        (Printf.sprintf "block %d reads back" b)
        (tag_of b) (Bytes.get data 0))
    blocks;
  Alcotest.(check bool)
    (Printf.sprintf "disjoint spindles overlap (queued %.3f ms, sequential %.3f ms)"
       queued_ms seq_ms)
    true (queued_ms < seq_ms)

(* Batches are held to the same block-range and block-size contract as
   single operations: nothing past the volume's end or before block 0
   is read or written. *)
let test_batch_range_checked () =
  let clock = Clock.create () in
  let disks = Array.init 4 (fun _ -> mk_disk clock) in
  let vol =
    Volume.create ~layout:(Volume.Stripe 4) ~leg_kind:Volume.Vld_leg
      ~logical_blocks:10 ~disks ~prng:(Prng.create ~seed:46L) ()
  in
  let blk c = Bytes.make (Volume.block_bytes vol) c in
  let at = Clock.now clock in
  let range = Invalid_argument "Volume: logical block range out of bounds" in
  let size = Invalid_argument "Volume.write: buffer must be exactly one block" in
  let raises what exn f = Alcotest.check_raises what exn (fun () -> ignore (f ())) in
  raises "write_batch past the end" range (fun () ->
      Volume.write_batch vol ~at [ (10, blk 'x'); (11, blk 'x') ]);
  raises "read_batch past the end" range (fun () -> Volume.read_batch vol ~at [ 10; 11 ]);
  raises "write_batch before block 0" range (fun () ->
      Volume.write_batch vol ~at [ (-1, blk 'x') ]);
  raises "write_batch_report past the end" range (fun () ->
      Volume.write_batch_report vol ~at [ (0, blk 'x'); (10, blk 'x') ]);
  raises "read_batch_report past the end" range (fun () ->
      Volume.read_batch_report vol ~at [ 10 ]);
  raises "write_batch short buffer" size (fun () ->
      Volume.write_batch vol ~at [ (3, Bytes.make 7 'x') ]);
  raises "write_result_at past the end" range (fun () ->
      Volume.write_result_at vol ~at 10 (blk 'x'));
  match Volume.write_batch vol ~at [ (9, blk 'z') ] with
  | Error e -> Alcotest.failf "last block unwritable: %a" D.pp_io_error e
  | Ok _ -> (
    match Volume.read_batch vol ~at:(Clock.now clock) [ 9 ] with
    | Ok [ (d, _) ] -> Alcotest.(check char) "last block reads back" 'z' (Bytes.get d 0)
    | Ok _ -> Alcotest.fail "read_batch returned the wrong number of blocks"
    | Error e -> Alcotest.failf "last block unreadable: %a" D.pp_io_error e)

(* A volume must hold at least one logical block: an empty range is
   refused at creation, and a one-block stripe still reads back what
   it was given. *)
let test_empty_range_refused () =
  let clock = Clock.create () in
  let mk logical_blocks =
    Volume.create ~layout:(Volume.Stripe 2) ~leg_kind:Volume.Vld_leg ~logical_blocks
      ~disks:(Array.init 2 (fun _ -> mk_disk clock))
      ~prng:(Prng.create ~seed:47L) ()
  in
  Alcotest.check_raises "zero logical blocks"
    (Invalid_argument "Volume: need at least one logical block") (fun () -> ignore (mk 0));
  let vol = mk 1 in
  let at = Clock.now clock in
  match Volume.write_batch vol ~at [ (0, Bytes.make (Volume.block_bytes vol) 'q') ] with
  | Error e -> Alcotest.failf "only block unwritable: %a" D.pp_io_error e
  | Ok _ -> (
    match Volume.read_batch vol ~at:(Clock.now clock) [ 0 ] with
    | Ok [ (d, _) ] -> Alcotest.(check char) "only block reads back" 'q' (Bytes.get d 0)
    | Ok _ -> Alcotest.fail "read_batch returned the wrong number of blocks"
    | Error e -> Alcotest.failf "only block unreadable: %a" D.pp_io_error e)

(* ---- golden pin of simulated behaviour ----

   One scripted run through every I/O face of the volume: device
   write/write_run/read_run on a RAID-10, a submit/drain window on a
   stripe, a structured batch whose mirror leg dies mid-window, a read
   that fails over past a dead drive, a timestamped write whose arrival
   lies behind the clock, idle windows pumping a throttled rebuild onto
   a spare, the blocking rebuild sweep, and the first-error batch
   forms.  The digest covers the final clocks, every leg's timeline,
   every drive's counters, the [vol.*] counters, each operation's
   latency and every recorded span, so any change to the data path's
   simulated behaviour shows up.  The expected string was recorded
   before the volume's I/O faces were rebuilt on one core. *)

let golden_digest () =
  let out = Buffer.create 4096 in
  let line fmt = Printf.bprintf out (fmt ^^ "\n") in
  let lat what clock at = line "%s %h" what (Clock.now clock -. at) in
  let err e = Format.asprintf "%a" D.pp_io_error e in
  let md5 d = Digest.to_hex (Digest.bytes d) in
  let ack_line what = function
    | Ok (D.Data (d, c)) -> line "%s data %s %h" what (md5 d) (Breakdown.total c.Io.breakdown)
    | Ok (D.Done c) -> line "%s done %h" what (Breakdown.total c.Io.breakdown)
    | Error e -> line "%s error %s" what (err e)
  in
  let data r = Result.map (fun (d, c) -> D.Data (d, c)) r in
  let done_ r = Result.map (fun c -> D.Done c) r in
  let finish vol sink =
    line "clock %h" (Clock.now (Volume.clock vol));
    for g = 0 to Volume.n_groups vol - 1 do
      for l = 0 to Volume.legs_per_group vol - 1 do
        line "leg %d.%d %s busy=%h drl=%d" g l
          (Volume.state_to_string (Volume.state_of vol ~group:g ~leg:l))
          (Volume.leg_busy_until vol ~group:g ~leg:l)
          (Volume.leg_drl_size vol ~group:g ~leg:l)
      done
    done;
    Array.iter
      (fun d ->
        let s = Disk.Disk_sim.stats d in
        line "drive r=%d w=%d sr=%d sw=%d hits=%d rf=%d wf=%d busy=%h" s.reads s.writes
          s.sectors_read s.sectors_written s.buffer_hits s.read_faults s.write_faults
          s.busy_ms)
      (Volume.disks vol);
    List.iter
      (fun (name, v) ->
        if String.length name > 4 && String.sub name 0 4 = "vol." then line "%s=%d" name v)
      (Trace.counters sink);
    List.iter
      (fun (s : Trace.span_record) ->
        line "span %s %h %h %h" s.name s.start_ms s.end_ms (Breakdown.total s.bd))
      (Trace.spans sink)
  in
  let traced_disk ~sink clock () =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~trace:sink
      ~profile ~clock ()
  in
  (* RAID-10 of VLD legs with a hot spare *)
  let clock = Clock.create () in
  let sink = Trace.create ~clock () in
  let mk = traced_disk ~sink clock in
  let disks = Array.init 4 (fun _ -> mk ()) in
  let vol =
    Volume.create ~spare:mk ~layout:(Volume.Stripe_of_mirrors (2, 2))
      ~leg_kind:Volume.Vld_leg ~logical_blocks:64 ~disks ~prng:(Prng.create ~seed:47L) ()
  in
  let dev = Volume.device vol in
  let bb = dev.D.block_bytes in
  for b = 0 to 7 do
    let at = Clock.now clock in
    ack_line "write" (done_ (dev.D.write b (fill dev (tag_of b))));
    lat "write" clock at
  done;
  let at = Clock.now clock in
  ack_line "write_run"
    (done_ (dev.D.write_run 8 (Bytes.init (4 * bb) (fun i -> Char.chr (i mod 251)))));
  lat "write_run" clock at;
  let at = Clock.now clock in
  ack_line "read_run" (data (dev.D.read_run 0 12));
  lat "read_run" clock at;
  (* a mirror leg of group 0 dies inside a batch window *)
  let plan = Fault.Plan.create Fault.Plan.Drive_death ~trigger:2 ~seed:7L in
  Fault.Plan.install plan disks.(1);
  let at = Clock.now clock in
  let rep =
    Volume.write_batch_report vol ~owner:"fg" ~at
      (List.init 12 (fun i -> ((i * 5) mod 32, fill dev (tag_of (i + 10)))))
  in
  lat "batch" clock at;
  line "batch written=[%s] failed=%d degraded=%b bd=%h"
    (String.concat ";" (List.map string_of_int rep.Volume.wr_written))
    (List.length rep.Volume.wr_failed) rep.Volume.wr_degraded
    (Breakdown.total rep.Volume.wr_bd);
  (* group 1's first leg dies outright: its reads fail over to leg 1 *)
  Fault.Plan.install
    (Fault.Plan.create Fault.Plan.Drive_death ~trigger:0 ~seed:8L)
    disks.(2);
  List.iter
    (fun b ->
      let at = Clock.now clock in
      ack_line "failover" (data (dev.D.read b));
      lat "failover" clock at)
    [ 1; 3; 5 ];
  (* a timestamped write arriving behind the clock *)
  let at = Clock.now clock -. 3. in
  ack_line "write_at" (done_ (Volume.write_result_at vol ~at 6 (fill dev 'L')));
  lat "write_at" clock at;
  let rebuild_states what =
    line "%s %s %s" what
      (Volume.state_to_string (Volume.state_of vol ~group:0 ~leg:1))
      (Volume.state_to_string (Volume.state_of vol ~group:1 ~leg:0))
  in
  for _ = 1 to 3 do
    Volume.idle vol 10.
  done;
  rebuild_states "after idle";
  Volume.rebuild_step vol ~copies:6;
  rebuild_states "after step";
  let at = Clock.now clock in
  (match Volume.read_batch vol ~at [ 0; 1; 2; 3; 30; 31 ] with
  | Ok pieces ->
    List.iter (fun (d, bd) -> line "read_batch %s %h" (md5 d) (Breakdown.total bd)) pieces
  | Error e -> line "read_batch error %s" (err e));
  lat "read_batch" clock at;
  let at = Clock.now clock in
  (match Volume.write_batch vol ~at [ (4, fill dev 'w'); (9, fill dev 'x') ] with
  | Ok bd -> line "write_batch %h" (Breakdown.total bd)
  | Error e -> line "write_batch error %s" (err e));
  lat "write_batch" clock at;
  finish vol sink;
  (* host queue on a stripe: several submits, one drain *)
  let clock = Clock.create () in
  let sink = Trace.create ~clock () in
  let disks = Array.init 4 (fun _ -> traced_disk ~sink clock ()) in
  let vol =
    Volume.create ~layout:(Volume.Stripe 4) ~leg_kind:Volume.Vld_leg ~logical_blocks:32
      ~disks ~prng:(Prng.create ~seed:48L) ()
  in
  let dev = Volume.device vol in
  let at = Clock.now clock in
  let reqs =
    [
      D.Write (0, fill dev 'a');
      D.Write (1, fill dev 'b');
      D.Write_run (2, Bytes.make (3 * bb) 'c');
      D.Read 1;
      D.Read_run (0, 5);
      D.Write (7, fill dev 'd');
    ]
  in
  let tags = List.map dev.D.submit reqs in
  List.iter (fun (tag, ack) -> ack_line (Printf.sprintf "drain %d" tag) ack) (dev.D.drain ());
  line "tags [%s]" (String.concat ";" (List.map string_of_int tags));
  lat "drain" clock at;
  finish vol sink;
  Digest.to_hex (Digest.string (Buffer.contents out))

let golden_expected = "4b860b347317469f4eb7ef509c6274f2"

let test_golden_pin () =
  Alcotest.(check string) "simulated behaviour unchanged" golden_expected (golden_digest ())

(* [read_into] on a RAID-10 of VLD legs gathers the run's pieces from
   both groups into the caller's window, exactly as [read_run] returns
   them. *)
let test_raid10_read_into () =
  Test_blockdev.check_read_into "raid10" ~block:2 ~count:9 (fun () ->
      let clock = Clock.create () in
      let disks = Array.init 4 (fun _ -> mk_disk clock) in
      let dev =
        Volume.device
          (Volume.create ~layout:(Volume.Stripe_of_mirrors (2, 2)) ~leg_kind:Volume.Vld_leg
             ~logical_blocks ~disks ~prng:(Prng.create ~seed:43L) ())
      in
      ignore (Blockdev.Device.write_run dev 0 (Test_blockdev.pattern dev 12));
      dev)

let suites =
  [
    ( "volume:golden", [ Alcotest.test_case "every I/O face pin" `Quick test_golden_pin ] );
    ( "volume",
      [
        Alcotest.test_case "host queue: acks in order, spindles overlap" `Quick
          test_host_queue_overlaps_spindles;
        Alcotest.test_case "batches are range- and size-checked" `Quick
          test_batch_range_checked;
        Alcotest.test_case "empty logical range refused" `Quick test_empty_range_refused;
        Alcotest.test_case "death: failover, degraded writes, rebuild" `Quick
          test_death_failover_and_rebuild;
        Alcotest.test_case "hung leg: bounded stall" `Quick
          test_hung_leg_bounded_stall;
        Alcotest.test_case "rebuild catches concurrent writes" `Quick
          test_rebuild_catches_writes;
        Alcotest.test_case "double death: honest loss, no hang" `Quick
          test_double_death_reports_loss;
        Alcotest.test_case "stripe: partial loss is honest" `Quick
          test_stripe_partial_loss;
        Alcotest.test_case "mirror power cut converges" `Quick
          test_mirror_powercut_converges;
        Alcotest.test_case "mirror write = max of legs" `Quick
          test_mirror_write_completes_at_max_of_legs;
        Alcotest.test_case "stripe fans out" `Quick test_stripe_fans_out;
        Alcotest.test_case "raid10 read_into" `Quick test_raid10_read_into;
      ] );
  ]
