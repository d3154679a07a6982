(* The async disk core: tagged command queueing over Disk_sim.

   The two load-bearing claims are (a) a queue run at depth 1 is
   byte-identical — data and simulated time — to calling the synchronous
   Disk_sim entry points directly, and (b) a drive hang stalls only the
   tag that hit it: the stalled command is re-queued behind the hang
   deadline while every other tag keeps dispatching.  The QCheck
   properties pin the scheduler-independence of the served work: every
   policy completes the same tags with the same outcomes, each exactly
   once; a seeded aggregate test pins that SATF clears random batches
   faster than FIFO in distribution (pointwise it cannot — greedy
   scheduling has adversarial batches). *)

open Vlog_util
open Disk

let profile = Profile.with_cylinders Profile.st19101 4

let make_disk () =
  let clock = Clock.create () in
  Disk_sim.create ~profile ~clock ()

let sector_bytes disk =
  let g = Disk_sim.geometry disk in
  Geometry.capacity_bytes g / Geometry.total_sectors g

let block_sectors = 8

(* Deterministic per-block payload so reads are comparable across runs. *)
let payload disk lba =
  Bytes.init
    (block_sectors * sector_bytes disk)
    (fun i -> Char.chr ((lba + (i * 7)) mod 256))

let lba_of_index disk idx =
  let g = Disk_sim.geometry disk in
  idx * block_sectors mod (Geometry.total_sectors g - block_sectors)

(* ---- depth-1 equivalence with the synchronous path ---- *)

let test_depth1_identical () =
  let indices = [ 0; 97; 3; 210; 11; 11; 64 ] in
  (* Synchronous reference run. *)
  let d_sync = make_disk () in
  List.iter
    (fun idx ->
      let lba = lba_of_index d_sync idx in
      ignore (Disk_sim.write d_sync ~lba (payload d_sync lba)))
    indices;
  let sync_reads =
    List.map
      (fun idx ->
        let lba = lba_of_index d_sync idx in
        fst (Disk_sim.read d_sync ~lba ~sectors:block_sectors))
      indices
  in
  let sync_ms = Clock.now (Disk_sim.clock d_sync) in
  (* Same operations through a depth-1 queue. *)
  let d_q = make_disk () in
  let dq = Disk_queue.create ~disk:d_q () in
  let one op =
    ignore (Disk_queue.submit dq op);
    match Disk_queue.drain dq with
    | [ (_, c) ] -> c.Disk_queue.outcome
    | cs -> Alcotest.failf "expected 1 completion, got %d" (List.length cs)
  in
  List.iter
    (fun idx ->
      let lba = lba_of_index d_q idx in
      match one (Disk_queue.Write { lba; buf = payload d_q lba }) with
      | Disk_queue.Wrote l -> Alcotest.(check int) "wrote lba" lba l
      | _ -> Alcotest.fail "write did not complete as Wrote")
    indices;
  let q_reads =
    List.map
      (fun idx ->
        let lba = lba_of_index d_q idx in
        match one (Disk_queue.Read { lba; sectors = block_sectors }) with
        | Disk_queue.Data b -> b
        | _ -> Alcotest.fail "read did not complete as Data")
      indices
  in
  Alcotest.(check (float 1e-9))
    "same simulated time" sync_ms
    (Clock.now (Disk_sim.clock d_q));
  List.iter2
    (fun a b -> Alcotest.(check bytes) "same data" a b)
    sync_reads q_reads

(* ---- a hang stalls only its own tag ---- *)

(* One lba refuses writes until [deadline]; everything else is healthy.
   With FIFO the bad tag arrives first, fails, and is re-queued behind
   the deadline — the later tags must all complete while it waits, and
   the bad tag must still succeed once the window passes. *)
let test_hang_stalls_single_tag () =
  let disk = make_disk () in
  let clock = Disk_sim.clock disk in
  let deadline = 30. in
  let bad_lba = lba_of_index disk 50 in
  Disk_sim.set_injector disk
    (Some
       {
         Disk_sim.on_read = (fun ~lba:_ ~sectors:_ -> None);
         on_write =
           (fun ~lba ~sectors:_ ->
             if lba = bad_lba && Clock.now clock < deadline then
               Some Disk_sim.Transient_write
             else None);
       });
  let stall_probe () =
    if Clock.now clock < deadline then Some deadline else None
  in
  let dq = Disk_queue.create ~policy:Disk_queue.Fifo ~stall_probe ~disk () in
  let bad_tag =
    Disk_queue.submit dq
      (Disk_queue.Write { lba = bad_lba; buf = payload disk bad_lba })
  in
  let good_tags =
    List.map
      (fun idx ->
        let lba = lba_of_index disk idx in
        Disk_queue.submit dq (Disk_queue.Write { lba; buf = payload disk lba }))
      [ 3; 120; 77 ]
  in
  let cs = Disk_queue.drain dq in
  Alcotest.(check int) "all complete" 4 (List.length cs);
  List.iter
    (fun (_, c) ->
      match c.Disk_queue.outcome with
      | Disk_queue.Wrote _ -> ()
      | _ -> Alcotest.fail "a tag failed to complete as Wrote")
    cs;
  let completion tag = List.assoc tag cs in
  let bad = completion bad_tag in
  Alcotest.(check bool)
    "stalled tag finishes after the hang window" true
    (bad.Disk_queue.finished >= deadline);
  List.iter
    (fun tag ->
      let good = completion tag in
      Alcotest.(check bool)
        "healthy tags are not stalled behind the hung one" true
        (good.Disk_queue.finished < deadline))
    good_tags;
  let st = Disk_queue.stats dq in
  Alcotest.(check int) "one stall requeue" 1 st.Disk_queue.stall_requeues;
  Alcotest.(check int) "all submitted completed" st.Disk_queue.submitted
    st.Disk_queue.completed

(* The real fault plan: Drive_hang through Plan.stall_until.  Every
   command in the window fails transiently, so all of them stall and
   then complete once the drive recovers — nothing ends up Failed. *)
let test_plan_hang_recovers () =
  let disk = make_disk () in
  let plan = Fault.Plan.create (Fault.Plan.Drive_hang 40.) ~trigger:2 ~seed:11L in
  Fault.Plan.install plan disk;
  let dq =
    Disk_queue.create ~policy:Disk_queue.Fifo
      ~stall_probe:(fun () -> Fault.Plan.stall_until plan)
      ~disk ()
  in
  List.iter
    (fun idx ->
      let lba = lba_of_index disk idx in
      ignore
        (Disk_queue.submit dq (Disk_queue.Write { lba; buf = payload disk lba })))
    [ 4; 190; 33; 151 ];
  let cs = Disk_queue.drain dq in
  Alcotest.(check int) "all complete" 4 (List.length cs);
  List.iter
    (fun (_, c) ->
      match c.Disk_queue.outcome with
      | Disk_queue.Wrote _ -> ()
      | _ -> Alcotest.fail "hang must stall, not fail, the request")
    cs;
  Alcotest.(check bool)
    "the hang actually stalled something" true
    ((Disk_queue.stats dq).Disk_queue.stall_requeues >= 1)

(* A drive that never recovers: the stall loop must be bounded. *)
let test_stall_bounded () =
  let disk = make_disk () in
  let clock = Disk_sim.clock disk in
  Disk_sim.set_injector disk
    (Some
       {
         Disk_sim.on_read = (fun ~lba:_ ~sectors:_ -> None);
         on_write = (fun ~lba:_ ~sectors:_ -> Some Disk_sim.Transient_write);
       });
  let dq =
    Disk_queue.create
      ~stall_probe:(fun () -> Some (Clock.now clock +. 1.))
      ~max_stall_retries:3 ~disk ()
  in
  ignore (Disk_queue.submit dq (Disk_queue.Write { lba = 0; buf = payload disk 0 }));
  (match Disk_queue.drain dq with
  | [ (_, c) ] -> (
    match c.Disk_queue.outcome with
    | Disk_queue.Failed _ -> ()
    | _ -> Alcotest.fail "unbounded stall must eventually complete as Failed")
  | cs -> Alcotest.failf "expected 1 completion, got %d" (List.length cs));
  Alcotest.(check int) "retries bounded" 3
    (Disk_queue.stats dq).Disk_queue.stall_requeues

(* ---- retry-with-backoff for flaky (non-hanging) drives ---- *)

(* A flaky burst fails a few service attempts transiently while the
   stall probe stays silent: with [retry_backoff] armed the queue
   re-queues the tag with exponential spacing instead of completing it
   Failed, and the op lands once the burst passes. *)
let test_retry_backoff_rides_out_flaky () =
  let disk = make_disk () in
  let left = ref 3 in
  Disk_sim.set_injector disk
    (Some
       {
         Disk_sim.on_read = (fun ~lba:_ ~sectors:_ -> None);
         on_write =
           (fun ~lba:_ ~sectors:_ ->
             if !left > 0 then begin
               decr left;
               Some Disk_sim.Transient_write
             end
             else None);
       });
  let dq =
    Disk_queue.create ~retry_backoff:2. ~retry_jitter:(Prng.create ~seed:5L)
      ~disk ()
  in
  ignore (Disk_queue.submit dq (Disk_queue.Write { lba = 0; buf = payload disk 0 }));
  (match Disk_queue.drain dq with
  | [ (_, c) ] -> (
    match c.Disk_queue.outcome with
    | Disk_queue.Wrote _ ->
      Alcotest.(check bool) "retries were spaced out, not immediate" true
        (c.Disk_queue.started > c.Disk_queue.submitted)
    | _ -> Alcotest.fail "a flaky burst must be ridden out, not Failed")
  | cs -> Alcotest.failf "expected 1 completion, got %d" (List.length cs));
  Alcotest.(check int) "one requeue per failed attempt" 3
    (Disk_queue.stats dq).Disk_queue.retry_requeues

(* A drive that never stops failing transiently: the per-op stall
   budget, not the (huge) retry cap, ends the op — it completes Failed
   with only a handful of attempts spent. *)
let test_stall_budget_bounds_op () =
  let disk = make_disk () in
  Disk_sim.set_injector disk
    (Some
       {
         Disk_sim.on_read = (fun ~lba:_ ~sectors:_ -> None);
         on_write = (fun ~lba:_ ~sectors:_ -> Some Disk_sim.Transient_write);
       });
  let dq =
    Disk_queue.create ~retry_backoff:1. ~stall_budget_ms:12.
      ~max_stall_retries:1000 ~disk ()
  in
  ignore (Disk_queue.submit dq (Disk_queue.Write { lba = 0; buf = payload disk 0 }));
  match Disk_queue.drain dq with
  | [ (_, c) ] ->
    (match c.Disk_queue.outcome with
    | Disk_queue.Failed _ -> ()
    | _ -> Alcotest.fail "budget exhaustion must complete as Failed");
    let spent =
      (Disk_queue.stats dq).Disk_queue.retry_requeues
      + (Disk_queue.stats dq).Disk_queue.stall_requeues
    in
    Alcotest.(check bool)
      (Printf.sprintf "budget cut the op after a few attempts (%d)" spent)
      true
      (spent > 0 && spent < 16);
    Alcotest.(check bool)
      (Printf.sprintf "failed promptly (%.3f ms after arrival)"
         (c.Disk_queue.finished -. c.Disk_queue.submitted))
      true
      (c.Disk_queue.finished -. c.Disk_queue.submitted < 100.)
  | cs -> Alcotest.failf "expected 1 completion, got %d" (List.length cs)

(* ---- open-loop arrivals ---- *)

let test_future_submit () =
  let disk = make_disk () in
  let dq = Disk_queue.create ~disk () in
  let at = 120. in
  let tag =
    Disk_queue.submit ~at dq (Disk_queue.Write { lba = 0; buf = payload disk 0 })
  in
  Alcotest.(check int) "pending" 1 (Disk_queue.pending dq);
  Alcotest.(check int) "not yet arrived" 0 (Disk_queue.depth dq);
  (match Disk_queue.drain dq with
  | [ (t, c) ] ->
    Alcotest.(check int) "tag" tag t;
    Alcotest.(check (float 1e-9)) "arrival stamped" at c.Disk_queue.submitted;
    Alcotest.(check bool) "served after arrival" true
      (c.Disk_queue.started >= at)
  | cs -> Alcotest.failf "expected 1 completion, got %d" (List.length cs));
  Alcotest.check_raises "past arrival rejected"
    (Invalid_argument "Disk_queue.submit: arrival time is in the past")
    (fun () ->
      ignore
        (Disk_queue.submit ~at:1. dq (Disk_queue.Read { lba = 0; sectors = 1 })))

(* ---- background tags yield to foreground ---- *)

(* A background tag submitted first must not be picked while a
   foreground command is runnable: the rebuild pump's copies ride in
   the same queue as foreground I/O and give way to it. *)
let test_background_yields () =
  let disk = make_disk () in
  let dq = Disk_queue.create ~policy:Disk_queue.Fifo ~disk () in
  let bg =
    Disk_queue.submit ~background:true dq
      (Disk_queue.Write { lba = lba_of_index disk 10; buf = payload disk (lba_of_index disk 10) })
  in
  let fg =
    Disk_queue.submit dq
      (Disk_queue.Write { lba = lba_of_index disk 90; buf = payload disk (lba_of_index disk 90) })
  in
  let cs = Disk_queue.drain dq in
  Alcotest.(check int) "both complete" 2 (List.length cs);
  let started tag = (List.assoc tag cs).Disk_queue.started in
  Alcotest.(check bool)
    "foreground starts before the earlier-submitted background tag" true
    (started fg < started bg)

(* ---- hosted commands ---- *)

(* A Hosted op runs its service closure inside the leg's window: the
   clock it sees is the command's start time, its outcome is reported
   verbatim, and its [owner] latency tag lands in the disk's trace sink
   as a [queue.<o>.lat] histogram observation, with no per-owner
   counter beside it. *)
let test_hosted_op () =
  let clock = Clock.create () in
  let sink = Trace.create ~clock () in
  let disk = Disk_sim.create ~profile ~trace:sink ~clock () in
  let dq = Disk_queue.create ~disk () in
  let service_started = ref nan in
  let op =
    Disk_queue.Hosted
      {
        cost = (fun () -> 0.);
        cylinder = (fun () -> Disk_sim.current_cylinder disk);
        service =
          (fun () ->
            service_started := Clock.now clock;
            Clock.advance clock 2.5;
            (Disk_queue.Wrote 7, Breakdown.zero));
      }
  in
  let at = 50. in
  let tag = Disk_queue.submit ~at ~owner:"bob" dq op in
  (match Disk_queue.drain dq with
  | [ (t, c) ] ->
    Alcotest.(check int) "tag" tag t;
    (match c.Disk_queue.outcome with
    | Disk_queue.Wrote 7 -> ()
    | _ -> Alcotest.fail "hosted outcome not reported verbatim");
    Alcotest.(check bool) "service ran at the command's start" true
      (!service_started >= at);
    Alcotest.(check (float 1e-9))
      "completion covers the service time" (!service_started +. 2.5)
      c.Disk_queue.finished
  | cs -> Alcotest.failf "expected 1 completion, got %d" (List.length cs));
  (match Trace.histogram sink "queue.bob.lat" with
  | Some h ->
    Alcotest.(check int) "one tagged command" 1 (Trace.Histogram.count h)
  | None -> Alcotest.fail "owner latency tag missing from the trace sink");
  Alcotest.(check (list string))
    "no per-owner op counter" []
    (List.filter_map
       (fun (name, _) -> if Filename.check_suffix name ".ops" then Some name else None)
       (Trace.counters sink))

(* ---- scheduler properties ---- *)

(* Run the same batch-at-zero workload (tag = submission index) under a
   policy and return, per tag, a comparable outcome summary plus the
   total simulated time to clear the batch. *)
let run_policy policy indices =
  let disk = make_disk () in
  (* Pre-write every block a read might touch, synchronously, so queued
     reads return committed data; then reset a fresh clock-equivalent
     baseline by measuring the delta. *)
  List.iter
    (fun (_, idx) ->
      let lba = lba_of_index disk idx in
      ignore (Disk_sim.write disk ~lba (payload disk lba)))
    indices;
  let start = Clock.now (Disk_sim.clock disk) in
  let dq = Disk_queue.create ~policy ~disk () in
  List.iter
    (fun (is_read, idx) ->
      let lba = lba_of_index disk idx in
      ignore
        (Disk_queue.submit dq
           (if is_read then Disk_queue.Read { lba; sectors = block_sectors }
            else Disk_queue.Write { lba; buf = payload disk lba })))
    indices;
  let cs = Disk_queue.drain dq in
  let leftover = Disk_queue.poll dq in
  let summary =
    List.map
      (fun (tag, c) ->
        ( tag,
          match c.Disk_queue.outcome with
          | Disk_queue.Data b -> "data:" ^ Digest.to_hex (Digest.bytes b)
          | Disk_queue.Wrote l -> "wrote:" ^ string_of_int l
          | Disk_queue.Failed _ -> "failed" ))
      cs
  in
  ( List.sort compare summary,
    leftover,
    Clock.now (Disk_sim.clock disk) -. start )

let workload_gen =
  QCheck.(small_list (pair bool (int_range 0 220)))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"every policy serves the same work, exactly once" ~count:40
      workload_gen
      (fun indices ->
        let fifo, l1, _ = run_policy Disk_queue.Fifo indices in
        let elev, l2, _ = run_policy Disk_queue.Elevator indices in
        let satf, l3, _ = run_policy Disk_queue.Satf indices in
        let n = List.length indices in
        let tags = List.map fst fifo in
        (* exactly once: tags are 0..n-1, no duplicates, nothing left *)
        tags = List.init n Fun.id
        && l1 = [] && l2 = [] && l3 = []
        (* same multiset of served work: identical per-tag outcomes *)
        && fifo = elev && fifo = satf);
  ]

(* Greedy SATF is locally optimal, not optimal: a cheapest-first pick
   can strand the head in a rotational phase that costs the remaining
   commands dearly, and on adversarial batches the loss compounds —
   empirically up to several revolutions, growing with batch size.  So
   a pointwise "SATF <= FIFO + constant" is false, and the scheduling
   claim is distributional: over random batches SATF wins the large
   majority and is faster in aggregate.  Seeded workload, so this is
   deterministic. *)
let test_satf_beats_fifo_on_average () =
  let prng = Prng.create ~seed:0xca7fL in
  let batches = 60 and size = 16 in
  let fifo_total = ref 0. and satf_total = ref 0. and wins = ref 0 in
  for _ = 1 to batches do
    let writes = List.init size (fun _ -> (false, Prng.int prng 221)) in
    let _, _, fifo_ms = run_policy Disk_queue.Fifo writes in
    let _, _, satf_ms = run_policy Disk_queue.Satf writes in
    fifo_total := !fifo_total +. fifo_ms;
    satf_total := !satf_total +. satf_ms;
    if satf_ms <= fifo_ms then incr wins
  done;
  Alcotest.(check bool) "SATF faster in aggregate" true (!satf_total < !fifo_total);
  Alcotest.(check bool)
    (Printf.sprintf "SATF wins >= 80%% of batches (won %d/%d)" !wins batches)
    true
    (!wins * 5 >= batches * 4);
  Alcotest.(check bool)
    "aggregate win is substantial (>= 20%)" true
    (!satf_total <= 0.8 *. !fifo_total)

let suites =
  [
    ( "queue:core",
      [
        Alcotest.test_case "depth-1 identical to sync" `Quick test_depth1_identical;
        Alcotest.test_case "hang stalls single tag" `Quick test_hang_stalls_single_tag;
        Alcotest.test_case "plan hang recovers" `Quick test_plan_hang_recovers;
        Alcotest.test_case "stall bounded" `Quick test_stall_bounded;
        Alcotest.test_case "retry backoff rides out flaky" `Quick
          test_retry_backoff_rides_out_flaky;
        Alcotest.test_case "stall budget bounds the op" `Quick
          test_stall_budget_bounds_op;
        Alcotest.test_case "future submit" `Quick test_future_submit;
        Alcotest.test_case "background yields to foreground" `Quick
          test_background_yields;
        Alcotest.test_case "hosted op" `Quick test_hosted_op;
        Alcotest.test_case "satf beats fifo on average" `Quick
          test_satf_beats_fifo_on_average;
      ] );
    ("queue:properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
