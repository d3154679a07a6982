(* Deeper virtual-log tests: checkpoint nodes, recovery cost claims,
   accounting consistency, and adversarial crash patterns. *)

open Vlog_util
open Vlog

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 4

let make_disk () =
  let clock = Clock.create () in
  Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile ~clock ()

let make_vlog ?(logical_blocks = 600) () =
  let disk = make_disk () in
  (disk, Virtual_log.format ~disk (Virtual_log.default_config ~logical_blocks))

let write_block vlog disk logical tag =
  let fm = Virtual_log.freemap vlog in
  let pba = Option.get (Eager.choose (Virtual_log.eager vlog)) in
  Freemap.occupy fm pba;
  ignore
    (Disk.Disk_sim.write disk ~lba:(Freemap.lba_of_block fm pba)
       (Bytes.make (Virtual_log.block_bytes vlog) tag));
  ignore (Virtual_log.update vlog [ (logical, Some pba) ]);
  pba

let map_snapshot vlog n = List.init n (fun l -> Virtual_log.lookup vlog l)

(* Repeated rewrites of one piece grow its takeover pointer list until a
   checkpoint node must be written; the log keeps working and recovering
   across that boundary. *)
let test_checkpoint_nodes_written () =
  let disk, vlog = make_vlog ~logical_blocks:400 () in
  for i = 0 to 99 do
    ignore (write_block vlog disk (i mod 7) 'k')
  done;
  let st = Virtual_log.stats vlog in
  Alcotest.(check bool) "checkpoints happened" true (st.Virtual_log.checkpoint_writes > 0);
  let snap = map_snapshot vlog 400 in
  ignore (Virtual_log.power_down vlog);
  match Virtual_log.recover ~disk () with
  | Error e -> Alcotest.fail e
  | Ok (vlog2, _) ->
    Alcotest.(check (list (option int))) "recovery across checkpoints" snap
      (map_snapshot vlog2 400)

let test_tail_recovery_much_faster_than_scan () =
  (* The design claim: bootstrapping from the tail record avoids scanning
     large portions of the disk. *)
  let scan_ms =
    let disk, vlog = make_vlog () in
    for i = 0 to 49 do
      ignore (write_block vlog disk i 's')
    done;
    match Virtual_log.recover ~disk () with
    | Ok (_, r) -> Breakdown.total r.Virtual_log.duration
    | Error e -> Alcotest.fail e
  in
  let tail_ms =
    let disk, vlog = make_vlog () in
    for i = 0 to 49 do
      ignore (write_block vlog disk i 't')
    done;
    ignore (Virtual_log.power_down vlog);
    match Virtual_log.recover ~disk () with
    | Ok (_, r) -> Breakdown.total r.Virtual_log.duration
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool)
    (Printf.sprintf "tail (%.1f ms) at least 10x faster than scan (%.1f ms)" tail_ms
       scan_ms)
    true
    (tail_ms *. 10. < scan_ms)

let test_update_breakdown_equals_clock () =
  let disk, vlog = make_vlog () in
  let clock = Disk.Disk_sim.clock disk in
  let fm = Virtual_log.freemap vlog in
  let pba = Option.get (Eager.choose (Virtual_log.eager vlog)) in
  Freemap.occupy fm pba;
  ignore
    (Disk.Disk_sim.write disk ~lba:(Freemap.lba_of_block fm pba) (Bytes.make 4096 'c'));
  let t0 = Clock.now clock in
  let bd = Virtual_log.update vlog [ (0, Some pba) ] in
  Alcotest.(check (float 1e-9)) "breakdown = elapsed" (Clock.now clock -. t0)
    (Breakdown.total bd)

let test_free_accounting_stable_under_churn () =
  let disk, vlog = make_vlog ~logical_blocks:300 () in
  let fm = Virtual_log.freemap vlog in
  let prng = Prng.create ~seed:123L in
  (* Steady-state churn must not leak physical blocks: live = mapped
     logical blocks + map nodes + landing zone. *)
  for _ = 1 to 500 do
    let l = Prng.int prng 300 in
    if Prng.int prng 6 = 0 then ignore (Virtual_log.update vlog [ (l, None) ])
    else ignore (write_block vlog disk l 'x')
  done;
  let mapped = ref 0 in
  for l = 0 to 299 do
    if Virtual_log.lookup vlog l <> None then incr mapped
  done;
  let occupied = Freemap.n_blocks fm - Freemap.free_total fm in
  let expected = !mapped + Virtual_log.n_pieces vlog + 1 (* landing zone *) in
  Alcotest.(check int) "no leaked blocks" expected occupied

let test_double_crash_recovery () =
  (* Crash, recover by scan, write more, crash again, recover again. *)
  let disk, vlog = make_vlog ~logical_blocks:200 () in
  for i = 0 to 19 do
    ignore (write_block vlog disk i 'a')
  done;
  let vlog2, r1 = Result.get_ok (Virtual_log.recover ~disk ()) in
  Alcotest.(check bool) "first recovery scanned" false r1.Virtual_log.used_tail;
  for i = 20 to 39 do
    ignore (write_block vlog2 disk i 'b')
  done;
  let snap = map_snapshot vlog2 200 in
  let vlog3, r2 = Result.get_ok (Virtual_log.recover ~disk ()) in
  Alcotest.(check bool) "second recovery scanned" false r2.Virtual_log.used_tail;
  Alcotest.(check (list (option int))) "state preserved twice" snap (map_snapshot vlog3 200)

let test_recovery_when_full_disk_of_data () =
  (* Many user data blocks on disk must not confuse the node scan. *)
  let disk, vlog = make_vlog ~logical_blocks:1500 () in
  for i = 0 to 1200 do
    ignore (write_block vlog disk i (Char.chr (32 + (i mod 90))))
  done;
  let snap = map_snapshot vlog 1500 in
  match Virtual_log.recover ~disk () with
  | Error e -> Alcotest.fail e
  | Ok (vlog2, _) ->
    Alcotest.(check (list (option int))) "dense disk recovers" snap
      (map_snapshot vlog2 1500)

let test_power_down_is_cheap () =
  (* The park sequence is one landing-zone write, not a map flush. *)
  let disk, vlog = make_vlog () in
  for i = 0 to 30 do
    ignore (write_block vlog disk i 'p')
  done;
  let bd = Virtual_log.power_down vlog in
  Alcotest.(check bool) "single write cost" true
    (Breakdown.total bd < 3. *. Disk.Profile.revolution_ms profile)

let test_eager_lead_time_changes_choice () =
  (* With a long enough lead the allocator must aim at a later sector. *)
  let disk = make_disk () in
  let fm = Freemap.create ~profile:(Disk.Disk_sim.profile disk) ~sectors_per_block:1 in
  let eager = Eager.create ~mode:Eager.Nearest ~disk ~freemap:fm () in
  let no_lead = Option.get (Eager.choose ~greedy_only:true eager) in
  let lead = Disk.Profile.sector_ms (Disk.Disk_sim.profile disk) *. 13. in
  let with_lead = Option.get (Eager.choose ~greedy_only:true ~lead_time:lead eager) in
  Alcotest.(check bool) "different target" true (no_lead <> with_lead)

let test_soft_exclusion_falls_back () =
  let disk = make_disk () in
  let fm = Freemap.create ~profile:(Disk.Disk_sim.profile disk) ~sectors_per_block:8 in
  let eager = Eager.create ~disk ~freemap:fm () in
  (* Soft-exclude everything: allocation must still succeed. *)
  Eager.with_soft_exclusion eager
    (fun _ -> true)
    (fun () ->
      match Eager.choose eager with
      | Some _ -> ()
      | None -> Alcotest.fail "soft exclusion must fall back");
  (* Hard-exclude everything: allocation must fail. *)
  Eager.with_exclusion eager
    (fun _ -> true)
    (fun () ->
      match Eager.choose eager with
      | Some _ -> Alcotest.fail "hard exclusion must hold"
      | None -> ())

let test_compactor_noop_on_empty_disk () =
  let disk, vlog = make_vlog () in
  let prng = Prng.create ~seed:9L in
  let compactor = Compactor.create ~vlog ~prng () in
  let clock = Disk.Disk_sim.clock disk in
  let stats = Compactor.run compactor ~deadline:(Clock.now clock +. 1000.) in
  Alcotest.(check int) "nothing to move" 0 stats.Compactor.blocks_moved

let suites =
  [
    ( "vlog:extra",
      [
        Alcotest.test_case "checkpoint nodes" `Quick test_checkpoint_nodes_written;
        Alcotest.test_case "tail >> scan" `Quick test_tail_recovery_much_faster_than_scan;
        Alcotest.test_case "breakdown = clock" `Quick test_update_breakdown_equals_clock;
        Alcotest.test_case "no block leaks" `Quick test_free_accounting_stable_under_churn;
        Alcotest.test_case "double crash" `Quick test_double_crash_recovery;
        Alcotest.test_case "dense disk recovery" `Quick test_recovery_when_full_disk_of_data;
        Alcotest.test_case "power-down cheap" `Quick test_power_down_is_cheap;
        Alcotest.test_case "lead time matters" `Quick test_eager_lead_time_changes_choice;
        Alcotest.test_case "soft exclusion" `Quick test_soft_exclusion_falls_back;
        Alcotest.test_case "compactor noop" `Quick test_compactor_noop_on_empty_disk;
      ] );
  ]
