(* The crash-consistency subsystem end to end: the durability oracle's
   judgement rules on hand-built views, clean build->crash->remount->fsck
   roundtrips per rig, the seeded degraded-mount demonstrations, the full
   (rig x fault x trigger) sweep, image save/load, and offline fsck of
   deliberately corrupted images. *)

open Check

let sector_bytes = 512

(* ---- Oracle judgement rules on synthetic views ---- *)

(* A view over a plain association list: name -> (size, fblock -> fill
   byte).  [block_bytes] matches what [v_read_block] hands back. *)
let view_of_model ?(block_bytes = 4096) files =
  {
    Oracle.v_files = (fun () -> List.map fst files);
    v_size = (fun n -> Option.map fst (List.assoc_opt n files));
    v_read_block =
      (fun n fb ->
        match List.assoc_opt n files with
        | None -> Error `Gone
        | Some (_, blocks) -> (
          match List.assoc_opt fb blocks with
          | None -> Error `Gone
          | Some `Io -> Error `Io
          | Some (`Fill c) -> Ok (Bytes.make block_bytes c)))
  }

let strict o view = Oracle.check o ~mode:Oracle.Strict view
let lax o view = Oracle.check o ~mode:Oracle.Lax view

let test_oracle_fabrication () =
  let o = Oracle.create ~sector_bytes in
  Oracle.begin_create o "a";
  Oracle.commit_create o "a";
  (* "ghost" was never even attempted: reporting it is fabrication in
     every mode. *)
  let v = view_of_model [ ("a", (0, [])); ("ghost", (0, [])) ] in
  Alcotest.(check bool) "strict flags ghost" false (strict o v = []);
  Alcotest.(check bool) "lax flags ghost too" false (lax o v = [])

let test_oracle_barrier_collapse () =
  let o = Oracle.create ~sector_bytes in
  Oracle.begin_create o "a";
  Oracle.commit_create o "a";
  Oracle.barrier o;
  (* Durable and barriered: a strict check requires it; regression is
     only legal under media damage (lax). *)
  let missing = view_of_model [] in
  Alcotest.(check bool) "strict requires durable file" false
    (strict o missing = []);
  Alcotest.(check bool) "lax tolerates honest loss" true (lax o missing = [])

let test_oracle_torn_old_or_new () =
  let o = Oracle.create ~sector_bytes in
  Oracle.begin_create o "a";
  Oracle.commit_create o "a";
  Oracle.begin_write o "a" ~fblock:0 ~tag:'x' ~size:4096;
  Oracle.commit_write o "a" ~fblock:0 ~tag:'x' ~size:4096;
  Oracle.barrier o;
  (* An in-flight overwrite ('y') that never committed: both the old and
     the new content are legal, anything else is not. *)
  Oracle.begin_write o "a" ~fblock:0 ~tag:'y' ~size:4096;
  let with_fill c = view_of_model [ ("a", (4096, [ (0, `Fill c) ])) ] in
  Alcotest.(check (list string)) "old content legal" [] (strict o (with_fill 'x'));
  Alcotest.(check (list string)) "new content legal" [] (strict o (with_fill 'y'));
  Alcotest.(check bool) "third value is a violation" false
    (strict o (with_fill 'z') = [])

let test_oracle_io_policy () =
  let o = Oracle.create ~sector_bytes in
  Oracle.begin_create o "a";
  Oracle.commit_create o "a";
  Oracle.begin_write o "a" ~fblock:0 ~tag:'x' ~size:4096;
  Oracle.commit_write o "a" ~fblock:0 ~tag:'x' ~size:4096;
  Oracle.barrier o;
  let broken = view_of_model [ ("a", (4096, [ (0, `Io) ])) ] in
  Alcotest.(check bool) "strict rejects I/O errors" false (strict o broken = []);
  Alcotest.(check (list string)) "lax accepts honest I/O errors" [] (lax o broken)

let test_oracle_uncommitted_create_may_vanish () =
  let o = Oracle.create ~sector_bytes in
  Oracle.begin_create o "a";
  (* The create never returned: both presence and absence are legal. *)
  Alcotest.(check (list string)) "absent ok" [] (strict o (view_of_model []));
  Alcotest.(check (list string)) "present ok" []
    (strict o (view_of_model [ ("a", (0, [])) ]))

(* ---- Clean roundtrips via the sweep machinery ---- *)

(* A trigger the workload can never reach turns a sweep cell into a
   clean build -> shutdown -> remount -> fsck -> oracle -> idempotence
   roundtrip. *)
let test_clean_roundtrip rig () =
  let o =
    Cells.judge Fs_sweep.sweep Fs_sweep.default
      { Fs_sweep.rig; kind = Fault.Plan.Power_cut; trigger = max_int; case = 71 }
  in
  Alcotest.(check int) "one scenario" 1 o.Cells.cells;
  Alcotest.(check int) "no fault fired" 0 (Cells.tally o "faults injected");
  Alcotest.(check int) "oracle ran" 1 (Cells.tally o "oracle checks");
  match o.Cells.failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "clean roundtrip failed: %s" f.Cells.message

(* ---- The full sweep (the acceptance matrix) ---- *)

let test_full_sweep () =
  let o = Cells.run ~jobs:(Par.default_jobs ()) Fs_sweep.sweep Fs_sweep.default in
  Alcotest.(check bool) "at least 150 scenarios" true (o.Cells.cells >= 150);
  Alcotest.(check bool) "faults actually fired" true
    (Cells.tally o "faults injected" > 100);
  Alcotest.(check bool) "power cuts exercised" true (Cells.tally o "power cuts" > 0);
  Alcotest.(check int) "every scenario oracle-checked" o.Cells.cells
    (Cells.tally o "oracle checks");
  match o.Cells.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "%d failures, first: %a" (List.length o.Cells.failures)
      Cells.pp_failure f

(* A cell's coordinates under [c] as its repro spec. *)
let spec_of s c cell =
  Cells.repro_of_failure
    { Cells.coords = List.combine s.Cells.keys (s.Cells.coords c cell);
      message = "" }

let test_repro_roundtrip () =
  let c = { Fs_sweep.default with Fs_sweep.seed = 77L } in
  let cell =
    match Fs_sweep.rig_of_string "lfs/vld" with
    | Ok rig ->
      { Fs_sweep.rig; kind = Fault.Plan.Torn_write; trigger = 9; case = 41 }
    | Error e -> Alcotest.fail e
  in
  match Cells.parse_repro Fs_sweep.sweep Fs_sweep.default (spec_of Fs_sweep.sweep c cell) with
  | Error e -> Alcotest.fail e
  | Ok (c', cell') ->
    Alcotest.(check string) "rig" "lfs/vld" (Fs_sweep.rig_name cell'.Fs_sweep.rig);
    Alcotest.(check int64) "seed" 77L c'.Fs_sweep.seed;
    Alcotest.(check string) "kind" "torn"
      (Fault.Plan.kind_to_string cell'.Fs_sweep.kind);
    Alcotest.(check int) "trigger" 9 cell'.Fs_sweep.trigger;
    Alcotest.(check int) "case" 41 cell'.Fs_sweep.case

(* ---- Degraded read-only mounts from seeded corruption ---- *)

let test_degraded fs () =
  match Fs_sweep.degraded_demo fs with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---- Images: save/load roundtrip, offline fsck verdicts ---- *)

let with_image ~fs ~corrupt k =
  match Fs_sweep.make_image ~fs ~corrupt with
  | Error e -> Alcotest.fail e
  | Ok (h, store) -> k h store

let test_image_roundtrip () =
  with_image ~fs:Fs_sweep.F_vlfs ~corrupt:Fs_sweep.C_none (fun h store ->
      let path = Filename.temp_file "vlsim-test" ".img" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Image.save h store path;
          match Image.load path with
          | Error e -> Alcotest.fail e
          | Ok (h2, store2) ->
            Alcotest.(check string) "fs" h.Image.fs h2.Image.fs;
            Alcotest.(check string) "dev" h.Image.dev h2.Image.dev;
            Alcotest.(check string) "profile" h.Image.profile h2.Image.profile;
            (* The payload survives byte-for-byte: fsck of the reloaded
               store is clean. *)
            (match Fs_sweep.fsck_image h2 store2 with
            | Error e -> Alcotest.fail e
            | Ok r ->
              Alcotest.(check bool) "clean" true (Report.ok r.Fs_sweep.fr_report))))

let test_image_load_rejects_garbage () =
  let path = Filename.temp_file "vlsim-test" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not an image at all\n";
      close_out oc;
      match Image.load path with
      | Ok _ -> Alcotest.fail "garbage accepted"
      | Error _ -> ())

let fsck_verdict ~fs ~corrupt =
  with_image ~fs ~corrupt (fun h store ->
      match Fs_sweep.fsck_image h store with
      | Error e -> `Mount_failed e
      | Ok r ->
        if
          (match r.Fs_sweep.fr_mode with `Degraded _ -> true | `Rw -> false)
          || not (Report.ok r.Fs_sweep.fr_report)
        then `Dirty r.Fs_sweep.fr_report
        else `Clean)

let test_fsck_clean fs () =
  match fsck_verdict ~fs ~corrupt:Fs_sweep.C_none with
  | `Clean -> ()
  | `Mount_failed e -> Alcotest.fail e
  | `Dirty r -> Alcotest.failf "clean image flagged: %a" Report.pp r

let test_fsck_corrupt fs corrupt () =
  match fsck_verdict ~fs ~corrupt with
  | `Clean -> Alcotest.fail "corrupted image passed fsck"
  | `Mount_failed _ | `Dirty _ -> ()

(* ---- VLFS recovery idempotence (beyond the per-cell check) ---- *)

let test_vlfs_recover_idempotent () =
  let open Vlog_util in
  let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 3 in
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile
      ~clock ()
  in
  let cfg =
    { Vlfs.default_config with Vlfs.n_inodes = 32; sync_writes = true }
  in
  let t = Vlfs.format ~disk ~host:Host.free ~clock cfg in
  List.iter
    (fun (n, len, ch) ->
      (match Vlfs.create t n with Ok _ -> () | Error _ -> Alcotest.fail n);
      match Vlfs.write t n ~off:0 (Bytes.make len ch) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail n)
    [ ("x", 2048, 'x'); ("y", 8192, 'y'); ("z", 512, 'z') ];
  ignore (Vlfs.power_down t);
  let state fs =
    ( List.sort compare (Vlfs.files fs),
      List.sort compare (Vlfs.dir_entries fs),
      List.map
        (fun n -> (n, Result.to_option (Vlfs.file_size fs n)))
        (List.sort compare (Vlfs.files fs)),
      match Vlfs.mode fs with `Rw -> "rw" | `Degraded _ -> "degraded" )
  in
  let frozen = Disk.Sector_store.snapshot (Disk.Disk_sim.store disk) in
  let clock2 = Clock.create () in
  let disk2 =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track
      ~store:frozen ~profile ~clock:clock2 ()
  in
  match Vlfs.recover ~disk:disk2 ~host:Host.free () with
  | Error e -> Alcotest.fail e
  | Ok (t2, r2) -> (
    (* Recovery is read-only apart from clearing the tail record, so a
       remount of the recovered platters must land in the same state by
       the scan path. *)
    let frozen2 = Disk.Sector_store.snapshot (Disk.Disk_sim.store disk2) in
    let clock3 = Clock.create () in
    let disk3 =
      Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track
        ~store:frozen2 ~profile ~clock:clock3 ()
    in
    match Vlfs.recover ~disk:disk3 ~host:Host.free () with
    | Error e -> Alcotest.fail e
    | Ok (t3, r3) ->
      Alcotest.(check bool) "same logical state" true (state t2 = state t3);
      Alcotest.(check int) "same inodes loaded" r2.Vlfs.inodes_loaded
        r3.Vlfs.inodes_loaded;
      Alcotest.(check int) "same files found" r2.Vlfs.files_found
        r3.Vlfs.files_found;
      Alcotest.(check bool) "second recovery clean" true
        (Report.ok (Vlfs_check.check t3)))

(* ---- the queued-array fault sweep ---- *)

(* Every coordinate in the default matrix must survive the repro
   spec print/parse cycle: a cell whose spec does not roundtrip cannot
   be reproduced from a CI failure line. *)
let test_array_repro_roundtrip () =
  let s = Array_sweep.sweep and c = Array_sweep.default in
  List.iter
    (fun cell ->
      let spec = spec_of s c cell in
      match Cells.parse_repro s c spec with
      | Ok back ->
        if back <> (c, cell) then Alcotest.failf "repro %S did not roundtrip" spec
      | Error e -> Alcotest.failf "repro %S did not parse: %s" spec e)
    (Cells.cells s c)

(* One queued-array cell per judging regime, end to end: a raid10 cell
   that must mask a mid-batch leg death, and a double-death cell that
   must see honest loss.  Both must return a verdict and no failure. *)
let array_cell array fault phase ~want_loss () =
  let c = { Array_sweep.smoke with Array_sweep.rounds = 6 } in
  let cell =
    match
      List.find_opt
        (fun (x : Array_sweep.cell) ->
          x.array = array && x.fault = fault && x.phase = phase)
        (Cells.cells Array_sweep.sweep c)
    with
    | Some x -> x
    | None -> Alcotest.fail "cell not in the smoke matrix"
  in
  let o = Cells.judge Array_sweep.sweep c cell in
  Alcotest.(check int) "one cell" 1 o.Cells.cells;
  (match o.Cells.failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "cell failed: %a" Cells.pp_failure f);
  match o.Cells.verdicts with
  | [ (_, v) ] ->
    Alcotest.(check string) "verdict"
      (if want_loss then "data-loss" else "ok")
      v
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)

let suites =
  let tc = Alcotest.test_case in
  [
    ( "check:oracle",
      [
        tc "fabricated files are violations" `Quick test_oracle_fabrication;
        tc "barrier collapses the legal set" `Quick test_oracle_barrier_collapse;
        tc "torn write: old or new, nothing else" `Quick test_oracle_torn_old_or_new;
        tc "io errors: strict rejects, lax accepts" `Quick test_oracle_io_policy;
        tc "uncommitted create may vanish or survive" `Quick
          test_oracle_uncommitted_create_may_vanish;
      ] );
    ( "check:roundtrip",
      List.map
        (fun rig ->
          tc
            (Printf.sprintf "clean remount roundtrip (%s)" (Fs_sweep.rig_name rig))
            `Quick (test_clean_roundtrip rig))
        Fs_sweep.all_rigs );
    ( "check:fs-sweep",
      [
        tc "full matrix: >= 150 scenarios, zero violations" `Quick
          test_full_sweep;
        tc "repro spec roundtrip" `Quick test_repro_roundtrip;
      ] );
    ( "check:array-sweep",
      [
        tc "repro spec roundtrip over the full matrix" `Quick
          test_array_repro_roundtrip;
        tc "raid10 masks a mid-batch leg death" `Quick
          (array_cell Array_sweep.A_raid10
             (Array_sweep.F_drive Fault.Plan.Drive_death)
             Array_sweep.P_batch ~want_loss:false);
        tc "double death is honest loss" `Quick
          (array_cell Array_sweep.A_raid10 Array_sweep.F_double_death
             Array_sweep.P_batch ~want_loss:true);
      ] );
    ( "check:degraded",
      [
        tc "ufs: rotted inode slot -> read-only mount" `Quick
          (test_degraded Fs_sweep.F_ufs);
        tc "lfs: rotted inode part -> read-only mount" `Quick
          (test_degraded Fs_sweep.F_lfs);
        tc "vlfs: rotted inode part -> read-only mount" `Quick
          (test_degraded Fs_sweep.F_vlfs);
      ] );
    ( "check:images",
      [
        tc "save/load roundtrip" `Quick test_image_roundtrip;
        tc "garbage rejected" `Quick test_image_load_rejects_garbage;
        tc "fsck: clean ufs image" `Quick (test_fsck_clean Fs_sweep.F_ufs);
        tc "fsck: clean lfs image" `Quick (test_fsck_clean Fs_sweep.F_lfs);
        tc "fsck: clean vlfs image" `Quick (test_fsck_clean Fs_sweep.F_vlfs);
        tc "fsck: ufs dangling flagged" `Quick
          (test_fsck_corrupt Fs_sweep.F_ufs Fs_sweep.C_dangling);
        tc "fsck: ufs superblock corruption flagged" `Quick
          (test_fsck_corrupt Fs_sweep.F_ufs Fs_sweep.C_checksum);
        tc "fsck: ufs rot flagged" `Quick
          (test_fsck_corrupt Fs_sweep.F_ufs Fs_sweep.C_rot);
        tc "fsck: lfs dangling flagged" `Quick
          (test_fsck_corrupt Fs_sweep.F_lfs Fs_sweep.C_dangling);
        tc "fsck: lfs checksum flagged" `Quick
          (test_fsck_corrupt Fs_sweep.F_lfs Fs_sweep.C_checksum);
        tc "fsck: lfs rot flagged" `Quick
          (test_fsck_corrupt Fs_sweep.F_lfs Fs_sweep.C_rot);
        tc "fsck: vlfs dangling flagged" `Quick
          (test_fsck_corrupt Fs_sweep.F_vlfs Fs_sweep.C_dangling);
        tc "fsck: vlfs checksum flagged" `Quick
          (test_fsck_corrupt Fs_sweep.F_vlfs Fs_sweep.C_checksum);
        tc "fsck: vlfs rot flagged" `Quick
          (test_fsck_corrupt Fs_sweep.F_vlfs Fs_sweep.C_rot);
      ] );
    ( "check:idempotence",
      [ tc "vlfs recovery is idempotent" `Quick test_vlfs_recover_idempotent ] );
  ]
