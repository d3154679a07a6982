open Vlog_util

let sparc = Host.sparc10

let lfs_small = { Lfs.default_config with buffer_blocks = 64 }

let make fs on =
  Experiments.Rigs.rig ~seed:0xFEEDL
    ~profile:(Disk.Profile.with_cylinders Disk.Profile.st19101 6)
    ~host:sparc ~lfs:lfs_small { fs; on }

let test_setup_builds_all_four () =
  List.iter
    (fun (fs, on) -> ignore (make fs on))
    Workload.Rig.[ (F_ufs, D_regular); (F_ufs, D_vld); (F_lfs, D_regular); (F_lfs, D_vld) ]

let test_ops_roundtrip () =
  let rig, _ = make F_ufs D_vld in
  let fs = rig.fs in
  ignore (Workload.Fs.exn @@ Workload.Fs.create fs "f");
  ignore (Workload.Fs.exn @@ Workload.Fs.write fs "f" ~off:0 (Bytes.make 4096 'z'));
  let data, _ = Workload.Fs.exn @@ Workload.Fs.read fs "f" ~off:0 ~len:4096 in
  Alcotest.(check bytes) "roundtrip" (Bytes.make 4096 'z') data

let test_ops_failure_raises () =
  let rig, _ = make F_ufs D_regular in
  let fs = rig.fs in
  match Workload.Fs.exn @@ Workload.Fs.read fs "missing" ~off:0 ~len:1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure"

let test_elapsed_measures_clock () =
  let rig, _ = make F_ufs D_regular in
  let (), ms = Clock.elapsed rig.clock (fun () -> Clock.advance rig.clock 3.5) in
  Alcotest.(check (float 1e-9)) "elapsed" 3.5 ms

let test_idle_advances_clock () =
  let rig, _ = make F_lfs D_vld in
  let t0 = Clock.now rig.clock in
  Workload.Fs.idle rig.fs ~clock:rig.clock 250.;
  Alcotest.(check (float 1e-6)) "idle advances exactly" (t0 +. 250.)
    (Clock.now rig.clock)

let test_small_file_driver () =
  let rig, _ = make F_ufs D_regular in
  let r = Workload.Small_file.run ~files:40 rig in
  Alcotest.(check int) "files" 40 r.Workload.Small_file.files;
  Alcotest.(check bool) "create took time" true (r.Workload.Small_file.create_ms > 0.);
  Alcotest.(check bool) "read took time" true (r.Workload.Small_file.read_ms > 0.);
  Alcotest.(check bool) "delete took time" true (r.Workload.Small_file.delete_ms > 0.)

let test_small_file_normalize () =
  let base = { Workload.Small_file.create_ms = 10.; read_ms = 4.; delete_ms = 8.; files = 1 } in
  let other = { Workload.Small_file.create_ms = 5.; read_ms = 8.; delete_ms = 2.; files = 1 } in
  let c, r, d = Workload.Small_file.normalize ~baseline:base other in
  Alcotest.(check (float 1e-9)) "create 2x" 2. c;
  Alcotest.(check (float 1e-9)) "read 0.5x" 0.5 r;
  Alcotest.(check (float 1e-9)) "delete 4x" 4. d

let test_large_file_driver () =
  let rig, prng = make F_ufs D_vld in
  let phases = Workload.Large_file.run ~mb:1 ~sync_phase:true ~prng rig in
  Alcotest.(check int) "6 phases" 6 (List.length phases);
  List.iter
    (fun (_, bw) -> Alcotest.(check bool) "bandwidth positive" true (bw > 0.))
    phases

let test_large_file_no_sync_phase () =
  let rig, prng = make F_lfs D_regular in
  let phases = Workload.Large_file.run ~mb:1 ~sync_phase:false ~prng rig in
  Alcotest.(check int) "5 phases" 5 (List.length phases);
  Alcotest.(check bool) "no sync phase" true
    (not (List.mem_assoc Workload.Large_file.Random_write_sync phases))

let test_random_update_driver () =
  let rig, prng = make F_ufs D_regular in
  let r = Workload.Random_update.run ~updates:50 ~warmup:5 ~file_mb:1. ~prng rig in
  Alcotest.(check int) "updates" 50 r.Workload.Random_update.updates;
  Alcotest.(check bool) "latency sane" true
    (r.Workload.Random_update.mean_latency_ms > 0.5
    && r.Workload.Random_update.mean_latency_ms < 50.);
  Alcotest.(check bool) "utilization recorded" true
    (r.Workload.Random_update.utilization > 0.)

let test_random_update_breakdown_consistent () =
  let rig, prng = make F_ufs D_regular in
  let r = Workload.Random_update.run ~updates:50 ~warmup:5 ~file_mb:1. ~prng rig in
  let total = Breakdown.total r.Workload.Random_update.breakdown in
  Alcotest.(check (float 0.02)) "breakdown total = wall latency"
    r.Workload.Random_update.mean_latency_ms total

let test_vld_beats_regular_on_updates () =
  let measure on =
    let rig, prng = make F_ufs on in
    (Workload.Random_update.run ~updates:80 ~warmup:10 ~file_mb:2. ~prng rig)
      .Workload.Random_update.mean_latency_ms
  in
  let reg = measure D_regular and vld = measure D_vld in
  Alcotest.(check bool)
    (Printf.sprintf "vld %.2f < regular %.2f" vld reg)
    true (vld < reg)

let test_burst_driver () =
  let rig, prng = make F_ufs D_vld in
  let r = Workload.Burst.run ~bursts:3 ~settle_ms:100. ~file_mb:1. ~burst_kb:64 ~idle_ms:50. ~prng rig in
  Alcotest.(check int) "bursts" 3 r.Workload.Burst.bursts;
  Alcotest.(check int) "blocks" 16 r.Workload.Burst.burst_blocks;
  Alcotest.(check bool) "latency positive" true (r.Workload.Burst.latency_ms_per_block > 0.)

let test_burst_idle_not_counted () =
  (* Foreground latency must not include the idle windows. *)
  let measure idle_ms =
    let rig, prng = make F_ufs D_regular in
    (Workload.Burst.run ~bursts:3 ~settle_ms:0. ~file_mb:1. ~burst_kb:64 ~idle_ms ~prng rig)
      .Workload.Burst.latency_ms_per_block
  in
  let no_idle = measure 0. and big_idle = measure 1000. in
  (* On a regular disk idle time changes nothing; latencies match. *)
  Alcotest.(check (float 0.2)) "idle excluded" no_idle big_idle

(* ---- open-loop arrival processes ---- *)

let rec sorted = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> a <= b && sorted rest

let arrival_gen =
  QCheck.(
    triple (int_range 0 0xFFFF) (* seed *)
      (int_range 1 400) (* n *)
      (int_range 1 2000) (* rate per second *))

let open_loop_qcheck =
  let open QCheck in
  [
    Test.make ~name:"open-loop schedules are sorted and start on time" ~count:100
      arrival_gen
      (fun (seed, n, rate) ->
        let prng = Prng.create ~seed:(Int64.of_int seed) in
        let start = 5. in
        let ts = Workload.Open_loop.arrivals ~prng ~rate_per_s:(float_of_int rate) ~start n in
        List.length ts = n && sorted ts && List.for_all (fun t -> t >= start) ts);
    Test.make
      ~name:"poisson interarrival mean tracks 1/rate for large n" ~count:20
      (pair (int_range 0 0xFFFF) (int_range 50 1000))
      (fun (seed, rate) ->
        let n = 2000 in
        let prng = Prng.create ~seed:(Int64.of_int seed) in
        let ts =
          Workload.Open_loop.arrivals ~prng ~rate_per_s:(float_of_int rate) ~start:0. n
        in
        match ts with
        | [] -> false
        | first :: _ ->
          let last = List.nth ts (n - 1) in
          (* n arrivals span (n-1) interarrival gaps plus the one before
             [first]; the sample mean of n gaps is last/n. *)
          ignore first;
          let mean_ms = last /. float_of_int n in
          let expect_ms = 1000. /. float_of_int rate in
          (* sample mean of n exponentials: sd = mean/sqrt(n); 5 sigma
             keeps the test deterministic-by-seed yet tight *)
          Float.abs (mean_ms -. expect_ms)
          <= 5. *. expect_ms /. Float.sqrt (float_of_int n));
  ]

(* ---- One face over all three file systems ---- *)

(* The same scripted operations through [Workload.Fs] on UFS/VLD,
   LFS/regular and VLFS/direct: the namespaces, sizes and read-back bytes
   agree. *)
let test_face_agrees () =
  let run spec =
    let r =
      match Workload.Rig.of_string spec with
      | Ok r -> r
      | Error e -> Alcotest.fail e
    in
    let s =
      Workload.Rig.format ~ufs:Workload.Rig.small_ufs
        ~profile:(Disk.Profile.with_cylinders Disk.Profile.st19101 6)
        ~logical_blocks:1500 ~clock:(Clock.create ()) ~prng:(Prng.create ~seed:5L) r
    in
    let fs = s.Workload.Rig.fs in
    let ok what = function
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s: %a" spec what Blockdev.Fs_error.pp e
    in
    ok "create a" (Workload.Fs.create fs "a");
    ok "create b" (Workload.Fs.create fs "b");
    ok "create c" (Workload.Fs.create fs "c");
    ok "write a" (Workload.Fs.write fs "a" ~off:0 (Bytes.make 1024 'a'));
    ok "write b" (Workload.Fs.write fs "b" ~off:4096 (Bytes.make 8192 'b'));
    ok "overwrite a" (Workload.Fs.write fs "a" ~off:512 (Bytes.make 100 'A'));
    ok "delete c" (Workload.Fs.delete fs "c");
    ignore (Workload.Fs.sync fs);
    Workload.Fs.drop_caches fs;
    let names = List.sort compare (Workload.Fs.files fs) in
    let size n =
      match Workload.Fs.size fs n with Ok s -> s | Error _ -> Alcotest.fail "size"
    in
    let bytes n =
      match Workload.Fs.read fs n ~off:0 ~len:(size n) with
      | Ok (b, _) -> Bytes.to_string b
      | Error _ -> Alcotest.fail "read"
    in
    (names, List.map size names, List.map bytes names)
  in
  let ufs = run "ufs/vld" in
  List.iter
    (fun spec ->
      let names, sizes, contents = run spec in
      let names0, sizes0, contents0 = ufs in
      Alcotest.(check (list string)) (spec ^ " files") names0 names;
      Alcotest.(check (list int)) (spec ^ " sizes") sizes0 sizes;
      Alcotest.(check (list string)) (spec ^ " contents") contents0 contents)
    [ "lfs/regular"; "vlfs/direct" ];
  let names, sizes, _ = ufs in
  Alcotest.(check (list string)) "files" [ "a"; "b" ] names;
  Alcotest.(check (list int)) "sizes" [ 1024; 12288 ] sizes

(* A 27-byte name is an error value through the face and a [Failure]
   through [Fs.exn]'s projection. *)
let test_face_errors () =
  let rig, _ = make F_ufs D_regular in
  let long = String.make 27 'n' in
  (match Workload.Fs.create rig.fs long with
  | Error (`Bad_name _) -> ()
  | Ok _ -> Alcotest.fail "a 27-byte name was accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Blockdev.Fs_error.pp e);
  match Workload.Fs.exn (Workload.Fs.create rig.fs long) with
  | exception Failure msg ->
    Alcotest.(check bool) ("failure text: " ^ msg) true
      (String.starts_with ~prefix:"file system error: " msg)
  | _ -> Alcotest.fail "expected Failure"

(* The builder's buffer rule on every drive a volume runs on, including
   a hot spare pulled in by a rebuild and the drives of a recovered
   volume: a read then an earlier block on the same track hits the
   buffer under a VLD leg (whole-track read-ahead) and misses under a
   regular leg (forward-discard drops the lower addresses). *)
let test_leg_buffer_policy () =
  let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 3 in
  (* each probe reads a track no earlier probe of that drive touched *)
  let spt = profile.Disk.Profile.geometry.Disk.Geometry.sectors_per_track in
  let rereads ~track d =
    let hits () = (Disk.Disk_sim.stats d).Disk.Disk_sim.buffer_hits in
    ignore (Disk.Disk_sim.read d ~lba:((track * spt) + 16) ~sectors:8);
    let before = hits () in
    ignore (Disk.Disk_sim.read d ~lba:(track * spt) ~sectors:8);
    hits () - before
  in
  List.iter
    (fun (leg_kind, want, name) ->
      let check ~track what vol =
        Array.iteri
          (fun i d ->
            Alcotest.(check int) (Printf.sprintf "%s %s leg %d" name what i) want
              (rereads ~track d))
          (Volume.disks vol)
      in
      let layout = Volume.Mirror 2 and logical_blocks = 32 in
      let vol =
        Workload.Rig.volume ~profile ~clock:(Clock.create ()) ~layout ~leg_kind
          ~logical_blocks ~prng:(Prng.create ~seed:3L) ()
      in
      check ~track:1 "fresh" vol;
      Volume.kill vol ~group:0 ~leg:1;
      (match Volume.start_rebuild vol ~group:0 ~leg:1 with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      check ~track:2 "with spare" vol;
      let stores =
        Array.map (fun d -> Disk.Sector_store.snapshot (Disk.Disk_sim.store d))
          (Volume.disks vol)
      in
      match
        Workload.Rig.recover_volume ~profile ~clock:(Clock.create ()) ~layout ~leg_kind
          ~logical_blocks ~prng:(Prng.create ~seed:4L) stores
      with
      | Ok (v, _) -> check ~track:3 "recovered" v
      | Error e -> Alcotest.fail e)
    [ (Volume.Regular_leg, 0, "regular"); (Volume.Vld_leg, 1, "vld") ]

(* An NVM rig's staging tier counts its persist barriers into the
   stack's trace sink. *)
let test_nvm_rig_traced () =
  let s, _ =
    Experiments.Rigs.rig ~trace:true
      ~profile:(Disk.Profile.with_cylinders Disk.Profile.st19101 6)
      { fs = F_ufs; on = D_nvm W_vld }
  in
  let sink = Disk.Disk_sim.trace s.disks.(0) in
  ignore (Workload.Fs.exn @@ Workload.Fs.create s.fs "f");
  let before = Trace.counter sink "nvm.persists" in
  ignore (Workload.Fs.exn @@ Workload.Fs.write s.fs "f" ~off:0 (Bytes.make 4096 'n'));
  Alcotest.(check bool) "the write persisted through the NVM" true
    (Trace.counter sink "nvm.persists" > before)

let suites =
  [
    ( "workload:setup",
      [
        Alcotest.test_case "builds all four rigs" `Quick test_setup_builds_all_four;
        Alcotest.test_case "ops roundtrip" `Quick test_ops_roundtrip;
        Alcotest.test_case "failure raises" `Quick test_ops_failure_raises;
        Alcotest.test_case "elapsed" `Quick test_elapsed_measures_clock;
        Alcotest.test_case "idle advances clock" `Quick test_idle_advances_clock;
        Alcotest.test_case "drives get their leg's buffer" `Quick test_leg_buffer_policy;
        Alcotest.test_case "nvm rig counts persists" `Quick test_nvm_rig_traced;
      ] );
    ( "workload:drivers",
      [
        Alcotest.test_case "small file" `Quick test_small_file_driver;
        Alcotest.test_case "small file normalize" `Quick test_small_file_normalize;
        Alcotest.test_case "large file" `Quick test_large_file_driver;
        Alcotest.test_case "large file no sync phase" `Quick test_large_file_no_sync_phase;
        Alcotest.test_case "random update" `Quick test_random_update_driver;
        Alcotest.test_case "breakdown consistent" `Quick test_random_update_breakdown_consistent;
        Alcotest.test_case "vld beats regular" `Quick test_vld_beats_regular_on_updates;
        Alcotest.test_case "burst" `Quick test_burst_driver;
        Alcotest.test_case "burst idle excluded" `Quick test_burst_idle_not_counted;
      ] );
    ( "workload:open-loop",
      List.map QCheck_alcotest.to_alcotest open_loop_qcheck );
    ( "workload:fs-face",
      [
        Alcotest.test_case "one script, three file systems" `Quick test_face_agrees;
        Alcotest.test_case "errors: values through the face, Failure through Setup"
          `Quick test_face_errors;
      ] );
  ]
