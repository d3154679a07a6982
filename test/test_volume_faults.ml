(* In-flight failure semantics of the queued volume data path: a leg
   death inside a batch window neither loses nor double-applies
   commands (the generation guard routes gathers to the survivor); the
   structured batch report names exactly the residue a degraded-mode
   retry may resubmit; and a throttled resilver survives a hung source
   — foreground latency stays bounded while background copies yield,
   and the rebuild completes once the hang clears. *)

open Vlog_util
open Check

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 3

let mk_disk clock =
  Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile
    ~clock ()

let logical_blocks = 48

let mk_mirror ?spare clock =
  let disks = Array.init 2 (fun _ -> mk_disk clock) in
  let vol =
    Volume.create ?spare ~layout:(Volume.Mirror 2) ~leg_kind:Volume.Vld_leg
      ~logical_blocks ~disks ~prng:(Prng.create ~seed:43L) ()
  in
  (vol, disks)

let buf vol tag = Bytes.make (Volume.block_bytes vol) tag

let check_clean what vol =
  let r = Volume_check.check vol in
  if not (Check.Report.ok r) then
    Alcotest.failf "%s: volume check dirty: %s" what
      (Format.asprintf "%a" Check.Report.pp r)

let prefill vol clock =
  let pre =
    Volume.write_batch_report vol ~at:(Clock.now clock)
      (List.init logical_blocks (fun b -> (b, buf vol 'A')))
  in
  Alcotest.(check int) "prefill clean" 0 (List.length pre.Volume.wr_failed)

(* ---- leg death between scatter and gather of a mirrored batch ---- *)

(* The report must partition the submitted batch exactly: every block
   appears once, as written or as failed — a lost completion shrinks
   the union, a double-counted one duplicates a member, and both break
   the sorted-list equality.  With one mirror leg surviving, every
   write still lands (degraded) and reads return the new content. *)
let test_mirror_batch_death_mid_window () =
  let clock = Clock.create () in
  let vol, disks = mk_mirror clock in
  prefill vol clock;
  let plan = Fault.Plan.create Fault.Plan.Drive_death ~trigger:2 ~seed:7L in
  Fault.Plan.install plan disks.(1);
  let blocks = [ 0; 7; 14; 21; 28; 35; 42; 5; 11; 23 ] in
  let rep =
    Volume.write_batch_report vol ~at:(Clock.now clock)
      (List.map (fun b -> (b, buf vol 'B')) blocks)
  in
  let failed = List.map (fun e -> e.Volume.be_block) rep.Volume.wr_failed in
  Alcotest.(check (list int))
    "report partitions the batch exactly (nothing lost, nothing double)"
    (List.sort compare blocks)
    (List.sort compare (rep.Volume.wr_written @ failed));
  Alcotest.(check bool) "death fired inside the window" true
    (Fault.Plan.fired plan);
  Alcotest.(check bool) "the batch completed degraded" true
    rep.Volume.wr_degraded;
  Alcotest.(check (list int))
    "one healthy leg left: every write landed" []
    failed;
  List.iter
    (fun b ->
      match (Volume.device vol).Blockdev.Device.read b with
      | Ok (d, _) ->
        Alcotest.(check char)
          (Printf.sprintf "block %d holds the new content" b)
          'B' (Bytes.get d 0)
      | Error _ -> Alcotest.failf "written block %d unreadable" b)
    rep.Volume.wr_written

(* ---- degraded-mode retry resubmits exactly the residue ---- *)

(* A hang long past the per-op stall budget fails part of a striped
   batch (no redundancy to absorb it).  A failed write is old-or-new:
   the block holds its pre-batch content or the full new value, never
   a torn mix — the report only promises the write was not confirmed.
   Resubmitting exactly [wr_failed] after the drive recovers applies
   each residue block once: final contents are 'B' for round-one
   winners and 'C' for resubmitted blocks, nothing else. *)
let test_batch_retry_residue () =
  let clock = Clock.create () in
  let disks = Array.init 2 (fun _ -> mk_disk clock) in
  let vol =
    Volume.create ~layout:(Volume.Stripe 2) ~leg_kind:Volume.Vld_leg
      ~logical_blocks ~disks ~prng:(Prng.create ~seed:44L) ()
  in
  prefill vol clock;
  let plan =
    Fault.Plan.create (Fault.Plan.Drive_hang 5000.) ~trigger:1 ~seed:9L
  in
  Fault.Plan.install plan disks.(0);
  let blocks = [ 0; 1; 2; 3; 8; 9; 16; 17 ] in
  let rep1 =
    Volume.write_batch_report vol ~at:(Clock.now clock)
      (List.map (fun b -> (b, buf vol 'B')) blocks)
  in
  let failed1 = List.map (fun e -> e.Volume.be_block) rep1.Volume.wr_failed in
  Alcotest.(check (list int))
    "round 1 partitions the batch"
    (List.sort compare blocks)
    (List.sort compare (rep1.Volume.wr_written @ failed1));
  Alcotest.(check bool) "the hang actually failed something" true
    (failed1 <> []);
  (* old-or-new: a failed write may still have landed before the stall
     budget declared it dead, but it must never be torn *)
  Clock.advance clock 5100.;
  Volume.settle vol;
  List.iter
    (fun b ->
      match (Volume.device vol).Blockdev.Device.read b with
      | Ok (d, _) ->
        let c = Bytes.get d 0 in
        if c <> 'A' && c <> 'B' then
          Alcotest.failf "failed block %d torn: %C (want old 'A' or new 'B')" b
            c;
        for i = 1 to Bytes.length d - 1 do
          if Bytes.get d i <> c then
            Alcotest.failf "failed block %d torn inside the block" b
        done
      | Error _ -> Alcotest.failf "failed block %d unreadable after hang" b)
    failed1;
  let rep2 =
    Volume.write_batch_report vol ~at:(Clock.now clock)
      (List.map (fun b -> (b, buf vol 'C')) failed1)
  in
  Alcotest.(check (list int))
    "retry completes exactly the residue"
    (List.sort compare failed1)
    (List.sort compare rep2.Volume.wr_written);
  List.iter
    (fun b ->
      let want = if List.mem b failed1 then 'C' else 'B' in
      match (Volume.device vol).Blockdev.Device.read b with
      | Ok (d, _) ->
        Alcotest.(check char)
          (Printf.sprintf "block %d applied once" b)
          want (Bytes.get d 0)
      | Error _ -> Alcotest.failf "block %d unreadable after retry" b)
    blocks;
  check_clean "after retry" vol

(* ---- throttled rebuild under a hung source ---- *)

(* Mid-resilver the source leg hangs for 30 ms — inside the 50 ms
   per-op stall budget, so foreground writes ride the hang out rather
   than erroring.  Latency stays bounded (background copies yield),
   and once the hang clears the resilver still finishes: the target
   comes back healthy and the volume checks clean. *)
let test_rebuild_under_hung_source () =
  let clock = Clock.create () in
  let spare () = mk_disk clock in
  let vol, disks = mk_mirror ~spare clock in
  prefill vol clock;
  Volume.kill vol ~group:0 ~leg:1;
  (match Volume.start_rebuild vol ~group:0 ~leg:1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "start_rebuild: %s" e);
  let plan = Fault.Plan.create (Fault.Plan.Drive_hang 30.) ~trigger:6 ~seed:5L in
  Fault.Plan.install plan disks.(0);
  let gap_ms = 8. in
  let t0 = Clock.now clock in
  let worst = ref 0. in
  for i = 0 to 39 do
    let at = Float.max (Clock.now clock) (t0 +. (float_of_int i *. gap_ms)) in
    let b = (i * 7) mod logical_blocks in
    (match Volume.write_result_at vol ~at b (buf vol 'F') with
    | Ok _ -> worst := Float.max !worst (Clock.now clock -. at)
    | Error _ -> Alcotest.failf "foreground write %d failed under hang" i);
    (* grant the time to the next arrival as idle: the pump runs
       throttled background copies in it *)
    let next = t0 +. (float_of_int (i + 1) *. gap_ms) in
    let dt = next -. Clock.now clock in
    if dt > 0. then Volume.idle vol dt
  done;
  Alcotest.(check bool) "the hang fired mid-run" true (Fault.Plan.fired plan);
  Alcotest.(check bool)
    (Printf.sprintf "worst foreground latency bounded (%.3f ms)" !worst)
    true
    (!worst <= 4. *. 50.);
  Volume.settle vol;
  (match Volume.state_of vol ~group:0 ~leg:1 with
  | `Healthy -> ()
  | s ->
    Alcotest.failf "resilver did not finish after the hang cleared: %s"
      (Volume.state_to_string s));
  check_clean "after rebuild under hang" vol;
  for b = 0 to logical_blocks - 1 do
    match (Volume.device vol).Blockdev.Device.read b with
    | Ok (d, _) ->
      let c = Bytes.get d 0 in
      if c <> 'A' && c <> 'F' then
        Alcotest.failf "block %d holds fabricated content %C" b c
    | Error _ -> Alcotest.failf "block %d unreadable after rebuild" b
  done

let suites =
  [
    ( "volume:in-flight-faults",
      [
        Alcotest.test_case "mirror batch: death between scatter and gather"
          `Quick test_mirror_batch_death_mid_window;
        Alcotest.test_case "batch retry resubmits exactly the residue" `Quick
          test_batch_retry_residue;
        Alcotest.test_case "throttled rebuild survives a hung source" `Quick
          test_rebuild_under_hung_source;
      ] );
  ]
