open Vlog_util

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 8

let make_fs ?(sync_writes = true) ?(buffer_blocks = 64) () =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile ~clock ()
  in
  let fs =
    Vlfs.format ~disk ~host:Host.free ~clock
      { Vlfs.default_config with Vlfs.sync_writes; buffer_blocks }
  in
  (fs, disk, clock)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Format.asprintf "%a" Vlfs.pp_error e)

let test_create_write_read () =
  let fs, _, _ = make_fs () in
  ignore (ok (Vlfs.create fs "a"));
  let payload = Bytes.of_string "virtual log file system" in
  ignore (ok (Vlfs.write fs "a" ~off:0 payload));
  let got, _ = ok (Vlfs.read fs "a" ~off:0 ~len:(Bytes.length payload)) in
  Alcotest.(check bytes) "roundtrip" payload got;
  match Vlfs.check_invariants fs with Ok () -> () | Error e -> Alcotest.fail e

let test_sync_writes_reach_disk () =
  let fs, _, clock = make_fs ~sync_writes:true () in
  ignore (ok (Vlfs.create fs "s"));
  let t0 = Clock.now clock in
  ignore (ok (Vlfs.write fs "s" ~off:0 (Bytes.make 4096 's')));
  Alcotest.(check bool) "disk time" true (Clock.now clock -. t0 > 0.1);
  Alcotest.(check int) "nothing buffered" 0 (Vlfs.buffered_blocks fs)

let test_buffered_mode_defers () =
  let fs, _, clock = make_fs ~sync_writes:false () in
  ignore (ok (Vlfs.create fs "b"));
  let t0 = Clock.now clock in
  for i = 0 to 9 do
    ignore (ok (Vlfs.write fs "b" ~off:(i * 4096) (Bytes.make 4096 'b')))
  done;
  Alcotest.(check (float 1e-9)) "no disk time" t0 (Clock.now clock);
  Alcotest.(check bool) "buffered" true (Vlfs.buffered_blocks fs > 0);
  ignore (Vlfs.sync fs);
  Alcotest.(check int) "drained" 0 (Vlfs.buffered_blocks fs);
  Alcotest.(check bool) "disk time after sync" true (Clock.now clock > t0)

let test_autoflush_on_buffer_full () =
  let fs, _, clock = make_fs ~sync_writes:false ~buffer_blocks:8 () in
  ignore (ok (Vlfs.create fs "c"));
  for i = 0 to 19 do
    ignore (ok (Vlfs.write fs "c" ~off:(i * 4096) (Bytes.make 4096 'c')))
  done;
  Alcotest.(check bool) "autoflushed" true (Clock.now clock > 0.)

let test_overwrite_no_leak () =
  let fs, _, _ = make_fs () in
  ignore (ok (Vlfs.create fs "o"));
  ignore (ok (Vlfs.write fs "o" ~off:0 (Bytes.make 4096 '1')));
  let u1 = Vlfs.utilization fs in
  for _ = 1 to 25 do
    ignore (ok (Vlfs.write fs "o" ~off:0 (Bytes.make 4096 '2')))
  done;
  let u2 = Vlfs.utilization fs in
  Alcotest.(check (float 0.002)) "no physical leak" u1 u2;
  let got, _ = ok (Vlfs.read fs "o" ~off:0 ~len:4096) in
  Alcotest.(check bytes) "latest" (Bytes.make 4096 '2') got

let test_large_file_multi_part_inode () =
  let fs, _, _ = make_fs ~sync_writes:false () in
  ignore (ok (Vlfs.create fs "big"));
  (* > 1019 blocks forces a second inode part. *)
  let far = 1500 * 4096 in
  ignore (ok (Vlfs.write fs "big" ~off:far (Bytes.of_string "deep")));
  ignore (ok (Vlfs.write fs "big" ~off:0 (Bytes.of_string "head")));
  ignore (Vlfs.sync fs);
  Vlfs.drop_caches fs;
  let got, _ = ok (Vlfs.read fs "big" ~off:far ~len:4) in
  Alcotest.(check bytes) "deep" (Bytes.of_string "deep") got;
  let got, _ = ok (Vlfs.read fs "big" ~off:0 ~len:4) in
  Alcotest.(check bytes) "head" (Bytes.of_string "head") got

let test_delete_reclaims () =
  let fs, _, _ = make_fs () in
  let u0 = Vlfs.utilization fs in
  ignore (ok (Vlfs.create fs "d"));
  ignore (ok (Vlfs.write fs "d" ~off:0 (Bytes.make (200 * 4096) 'd')));
  Alcotest.(check bool) "grew" true (Vlfs.utilization fs > u0 +. 0.03);
  ignore (ok (Vlfs.delete fs "d"));
  Alcotest.(check bool) "reclaimed" true (Vlfs.utilization fs < u0 +. 0.01);
  Alcotest.(check bool) "gone" false (Vlfs.exists fs "d")

let test_errors () =
  let fs, _, _ = make_fs () in
  (match Vlfs.read fs "nope" ~off:0 ~len:1 with
  | Error (`Not_found "nope") -> ()
  | _ -> Alcotest.fail "expected Not_found");
  ignore (ok (Vlfs.create fs "x"));
  match Vlfs.create fs "x" with
  | Error (`Exists "x") -> ()
  | _ -> Alcotest.fail "expected Exists"

let test_no_space () =
  let fs, disk, _ = make_fs ~sync_writes:false () in
  let cap = Disk.Geometry.total_sectors (Disk.Disk_sim.geometry disk) * 512 in
  ignore (ok (Vlfs.create fs "fat"));
  match Vlfs.write fs "fat" ~off:0 (Bytes.make (cap + 4096) 'x') with
  | Error `No_space -> ()
  | Ok _ -> Alcotest.fail "overfull accepted"
  | Error e -> Alcotest.fail (Format.asprintf "wrong error %a" Vlfs.pp_error e)

let test_power_down_recover () =
  let fs, disk, _ = make_fs () in
  let names = [ ("alpha", 'a', 3); ("beta", 'b', 1); ("gamma", 'g', 40) ] in
  List.iter
    (fun (name, tag, blocks) ->
      ignore (ok (Vlfs.create fs name));
      ignore (ok (Vlfs.write fs name ~off:0 (Bytes.make (blocks * 4096) tag))))
    names;
  ignore (Vlfs.power_down fs);
  match Vlfs.recover ~disk ~host:Host.free () with
  | Error e -> Alcotest.fail e
  | Ok (fs2, report) ->
    Alcotest.(check bool) "tail used" true
      report.Vlfs.vlog_report.Vlog.Virtual_log.used_tail;
    Alcotest.(check int) "files found" 3 report.Vlfs.files_found;
    List.iter
      (fun (name, tag, blocks) ->
        let got, _ = ok (Vlfs.read fs2 name ~off:0 ~len:(blocks * 4096)) in
        Alcotest.(check bytes) name (Bytes.make (blocks * 4096) tag) got)
      names;
    (match Vlfs.check_invariants fs2 with Ok () -> () | Error e -> Alcotest.fail e)

let test_recover_file_written_in_one_shot () =
  (* Regression: the pointer array grows geometrically past the file's
     logical block count; the on-disk header must record the logical
     count or recovery looks for inode parts that were never written. *)
  let fs, disk, _ = make_fs () in
  ignore (ok (Vlfs.create fs "oneshot"));
  ignore (ok (Vlfs.write fs "oneshot" ~off:0 (Bytes.make (512 * 4096) 'w')));
  ignore (Vlfs.power_down fs);
  match Vlfs.recover ~disk ~host:Host.free () with
  | Error e -> Alcotest.fail e
  | Ok (fs2, _) ->
    let got, _ = ok (Vlfs.read fs2 "oneshot" ~off:(511 * 4096) ~len:4096) in
    Alcotest.(check bytes) "last block" (Bytes.make 4096 'w') got

let test_crash_recover_by_scan () =
  let fs, disk, _ = make_fs () in
  ignore (ok (Vlfs.create fs "crashy"));
  ignore (ok (Vlfs.write fs "crashy" ~off:0 (Bytes.make 8192 'z')));
  (* no power_down: simulated crash *)
  match Vlfs.recover ~disk ~host:Host.free () with
  | Error e -> Alcotest.fail e
  | Ok (fs2, report) ->
    Alcotest.(check bool) "scanned" false
      report.Vlfs.vlog_report.Vlog.Virtual_log.used_tail;
    let got, _ = ok (Vlfs.read fs2 "crashy" ~off:0 ~len:8192) in
    Alcotest.(check bytes) "survived crash" (Bytes.make 8192 'z') got

let test_crash_atomicity_of_sync_write () =
  (* Crash right after a committed overwrite: recovery must expose
     exactly the committed version — never a mix. *)
  let fs, disk, _ = make_fs () in
  ignore (ok (Vlfs.create fs "atom"));
  ignore (ok (Vlfs.write fs "atom" ~off:0 (Bytes.make 4096 'A')));
  ignore (ok (Vlfs.write fs "atom" ~off:0 (Bytes.make 4096 'B')));
  match Vlfs.recover ~disk ~host:Host.free () with
  | Error e -> Alcotest.fail e
  | Ok (fs2, _) ->
    let got, _ = ok (Vlfs.read fs2 "atom" ~off:0 ~len:4096) in
    Alcotest.(check bytes) "committed version" (Bytes.make 4096 'B') got

let test_compaction_preserves_everything () =
  let fs, _, clock = make_fs () in
  for i = 0 to 59 do
    let name = Printf.sprintf "f%02d" i in
    ignore (ok (Vlfs.create fs name));
    ignore (ok (Vlfs.write fs name ~off:0 (Bytes.make (10 * 4096) (Char.chr (65 + (i mod 26))))))
  done;
  for i = 0 to 59 do
    if i mod 2 = 0 then ignore (ok (Vlfs.delete fs (Printf.sprintf "f%02d" i)))
  done;
  let before = (Vlfs.compaction_stats fs).Vlfs.tracks_emptied in
  Vlfs.idle fs 30_000.;
  Alcotest.(check bool) "compacted" true
    ((Vlfs.compaction_stats fs).Vlfs.tracks_emptied > before);
  for i = 0 to 59 do
    if i mod 2 = 1 then begin
      let name = Printf.sprintf "f%02d" i in
      let got, _ = ok (Vlfs.read fs name ~off:0 ~len:(10 * 4096)) in
      Alcotest.(check bytes) name (Bytes.make (10 * 4096) (Char.chr (65 + (i mod 26)))) got
    end
  done;
  (match Vlfs.check_invariants fs with Ok () -> () | Error e -> Alcotest.fail e);
  ignore clock

let test_compaction_then_recovery () =
  let fs, disk, _ = make_fs () in
  for i = 0 to 39 do
    let name = Printf.sprintf "g%02d" i in
    ignore (ok (Vlfs.create fs name));
    ignore (ok (Vlfs.write fs name ~off:0 (Bytes.make (8 * 4096) 'q')))
  done;
  for i = 0 to 39 do
    if i mod 3 = 0 then ignore (ok (Vlfs.delete fs (Printf.sprintf "g%02d" i)))
  done;
  Vlfs.idle fs 20_000.;
  ignore (Vlfs.power_down fs);
  match Vlfs.recover ~disk ~host:Host.free () with
  | Error e -> Alcotest.fail e
  | Ok (fs2, _) ->
    let got, _ = ok (Vlfs.read fs2 "g01" ~off:0 ~len:(8 * 4096)) in
    Alcotest.(check bytes) "post-compaction recovery" (Bytes.make (8 * 4096) 'q') got

let test_sync_write_is_cheap () =
  (* The headline property: a synchronous 4 KB overwrite costs a few
     eager writes, far below the update-in-place half rotation + seek. *)
  let fs, _, clock = make_fs () in
  ignore (ok (Vlfs.create fs "fast"));
  ignore (ok (Vlfs.write fs "fast" ~off:0 (Bytes.make (256 * 4096) 'f')));
  let prng = Prng.create ~seed:3L in
  let t0 = Clock.now clock in
  let n = 100 in
  for _ = 1 to n do
    ignore (ok (Vlfs.write fs "fast" ~off:(Prng.int prng 256 * 4096) (Bytes.make 4096 'u')))
  done;
  let per_op = (Clock.now clock -. t0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f ms per sync overwrite" per_op)
    true
    (per_op < Disk.Profile.half_rotation_ms profile)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"vlfs random ops match model, across recovery" ~count:8
      (list_of_size Gen.(1 -- 25) (triple (int_range 0 3) (int_range 0 10) (int_range 1 5000)))
      (fun ops ->
        let fs, disk, _ = make_fs ~sync_writes:false ~buffer_blocks:16 () in
        let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
        let name i = Printf.sprintf "q%d" i in
        List.iter
          (fun (f, off_blocks, len) ->
            let n = name (f mod 4) in
            let off = off_blocks * 512 in
            if not (Hashtbl.mem model n) then begin
              ignore (Vlfs.create fs n);
              Hashtbl.replace model n Bytes.empty
            end;
            let data = Bytes.init len (fun i -> Char.chr ((i + off + f) mod 256)) in
            match Vlfs.write fs n ~off data with
            | Ok _ ->
              let old = Hashtbl.find model n in
              let size = max (Bytes.length old) (off + len) in
              let next = Bytes.make size '\000' in
              Bytes.blit old 0 next 0 (Bytes.length old);
              Bytes.blit data 0 next off len;
              Hashtbl.replace model n next
            | Error _ -> ())
          ops;
        ignore (Vlfs.power_down fs);
        match Vlfs.recover ~disk ~host:Host.free () with
        | Error _ -> false
        | Ok (fs2, _) ->
          Hashtbl.fold
            (fun n expect acc ->
              acc
              &&
              match Vlfs.read fs2 n ~off:0 ~len:(Bytes.length expect) with
              | Ok (got, _) -> got = expect
              | Error _ -> false)
            model true);
  ]

(* Names the directory format cannot store are refused; the longest
   it can store survives power-down and recovery. *)
let test_bad_names_refused () =
  let fs, disk, _ = make_fs () in
  List.iter
    (fun name ->
      match Vlfs.create fs name with
      | Error (`Bad_name n) when n = name -> ()
      | Error e -> Alcotest.failf "%S: wrong error %a" name Vlfs.pp_error e
      | Ok _ -> Alcotest.failf "%S accepted" name)
    Test_ufs.bad_names;
  let longest = Test_ufs.longest_name in
  ignore (ok (Vlfs.create fs longest));
  ignore (ok (Vlfs.write fs longest ~off:0 (Bytes.of_string "kept")));
  ignore (Vlfs.power_down fs);
  match Vlfs.recover ~disk ~host:Host.free () with
  | Error e -> Alcotest.fail e
  | Ok (fs2, _) ->
    Alcotest.(check bool) "recovers read-write" true (Vlfs.mode fs2 = `Rw);
    Alcotest.(check (list string)) "files" [ longest ] (Vlfs.files fs2);
    let got, _ = ok (Vlfs.read fs2 longest ~off:0 ~len:4) in
    Alcotest.(check bytes) "data" (Bytes.of_string "kept") got

let suites =
  [
    ( "vlfs:files",
      [
        Alcotest.test_case "create/write/read" `Quick test_create_write_read;
        Alcotest.test_case "sync writes reach disk" `Quick test_sync_writes_reach_disk;
        Alcotest.test_case "buffered mode defers" `Quick test_buffered_mode_defers;
        Alcotest.test_case "autoflush" `Quick test_autoflush_on_buffer_full;
        Alcotest.test_case "overwrite no leak" `Quick test_overwrite_no_leak;
        Alcotest.test_case "multi-part inode" `Quick test_large_file_multi_part_inode;
        Alcotest.test_case "delete reclaims" `Quick test_delete_reclaims;
        Alcotest.test_case "errors" `Quick test_errors;
        Alcotest.test_case "no space" `Quick test_no_space;
        Alcotest.test_case "sync write cheap" `Quick test_sync_write_is_cheap;
        Alcotest.test_case "bad names refused" `Quick test_bad_names_refused;
      ] );
    ( "vlfs:recovery",
      [
        Alcotest.test_case "power-down recover" `Quick test_power_down_recover;
        Alcotest.test_case "one-shot file recover" `Quick test_recover_file_written_in_one_shot;
        Alcotest.test_case "crash scan recover" `Quick test_crash_recover_by_scan;
        Alcotest.test_case "sync write committed" `Quick test_crash_atomicity_of_sync_write;
        Alcotest.test_case "compaction preserves" `Quick test_compaction_preserves_everything;
        Alcotest.test_case "compaction then recovery" `Quick test_compaction_then_recovery;
      ] );
    ("vlfs:properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
