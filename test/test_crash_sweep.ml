(* Systematic crash-point sweep: snapshot the platters after every
   committed operation of a random workload, then for each snapshot bring
   up a fresh drive from it, recover, and check the recovered map equals
   the model at exactly that point — no lost updates, no ghosts.

   This is the strongest durability evidence in the suite: recovery is
   exercised at dozens of distinct on-disk states per run, through both
   paths (the snapshots never contain a tail record, so this sweeps the
   scan path; a second sweep powers down first to cover the tail path).

   The generalization of this sweep to injected media faults — torn
   writes, bit rot, transient read errors, grown defects, power cuts at
   every operation boundary — lives in [Check.Vld_sweep] and runs from
   test_fault.ml. *)

open Vlog_util
open Vlog

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 3

let write_block vlog disk logical tag =
  let fm = Virtual_log.freemap vlog in
  let pba = Option.get (Eager.choose (Virtual_log.eager vlog)) in
  Freemap.occupy fm pba;
  ignore
    (Disk.Disk_sim.write disk ~lba:(Freemap.lba_of_block fm pba) (Bytes.make 4096 tag));
  ignore (Virtual_log.update vlog [ (logical, Some pba) ])

let run_sweep ~with_tail ~seed ~ops =
  let logical_blocks = 300 in
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile ~clock ()
  in
  let vlog = Virtual_log.format ~disk (Virtual_log.default_config ~logical_blocks) in
  let prng = Prng.create ~seed in
  let model = Array.make logical_blocks false in
  (* (snapshot, model-at-that-point) pairs *)
  let points = ref [] in
  for _ = 1 to ops do
    let l = Prng.int prng logical_blocks in
    if Prng.int prng 5 = 0 then begin
      ignore (Virtual_log.update vlog [ (l, None) ]);
      model.(l) <- false
    end
    else begin
      write_block vlog disk l 'c';
      model.(l) <- true
    end;
    if with_tail then begin
      (* Power-down records the tail, snapshot, then keep running: the
         continued writes invalidate nothing because recovery from the
         snapshot sees exactly the powered-down state. *)
      ignore (Virtual_log.power_down vlog)
    end;
    points :=
      (Disk.Sector_store.snapshot (Disk.Disk_sim.store disk), Array.copy model)
      :: !points
  done;
  List.iter
    (fun (snapshot, expected) ->
      let clock2 = Clock.create () in
      let disk2 =
        Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track
          ~store:snapshot ~profile ~clock:clock2 ()
      in
      match Virtual_log.recover ~disk:disk2 () with
      | Error e -> Alcotest.fail e
      | Ok (vlog2, report) ->
        Alcotest.(check bool) "recovery path" with_tail
          report.Virtual_log.used_tail;
        Array.iteri
          (fun l mapped ->
            let got = Virtual_log.lookup vlog2 l <> None in
            if got <> mapped then
              Alcotest.fail
                (Printf.sprintf "crash point diverges at logical %d: model %b, disk %b"
                   l mapped got))
          expected;
        (match Virtual_log.check_invariants vlog2 with
        | Ok () -> ()
        | Error e -> Alcotest.fail e))
    !points

let test_sweep_scan_path () = run_sweep ~with_tail:false ~seed:101L ~ops:30
let test_sweep_tail_path () = run_sweep ~with_tail:true ~seed:102L ~ops:20

let test_sweep_vlfs () =
  (* The same discipline one level up: snapshot after every synchronous
     VLFS operation; every snapshot must recover to exactly the files
     and contents present at that moment. *)
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile ~clock ()
  in
  let fs =
    Vlfs.format ~disk ~host:Host.free ~clock
      { Vlfs.default_config with Vlfs.n_inodes = 256 }
  in
  let prng = Prng.create ~seed:103L in
  let model : (string, char) Hashtbl.t = Hashtbl.create 8 in
  let points = ref [] in
  for i = 1 to 25 do
    let name = Printf.sprintf "f%d" (Prng.int prng 6) in
    let tag = Char.chr (97 + (i mod 26)) in
    (match (Hashtbl.mem model name, Prng.int prng 4) with
    | true, 0 ->
      (match Vlfs.delete fs name with Ok _ -> Hashtbl.remove model name | Error _ -> ())
    | true, _ -> (
      match Vlfs.write fs name ~off:0 (Bytes.make 4096 tag) with
      | Ok _ -> Hashtbl.replace model name tag
      | Error _ -> ())
    | false, _ -> (
      match Vlfs.create fs name with
      | Ok _ -> (
        match Vlfs.write fs name ~off:0 (Bytes.make 4096 tag) with
        | Ok _ -> Hashtbl.replace model name tag
        | Error _ -> ())
      | Error _ -> ()));
    points :=
      (Disk.Sector_store.snapshot (Disk.Disk_sim.store disk), Hashtbl.copy model)
      :: !points
  done;
  List.iter
    (fun (snapshot, expected) ->
      let clock2 = Clock.create () in
      let disk2 =
        Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track
          ~store:snapshot ~profile ~clock:clock2 ()
      in
      match Vlfs.recover ~disk:disk2 ~host:Host.free () with
      | Error e -> Alcotest.fail e
      | Ok (fs2, _) ->
        Alcotest.(check int) "file count"
          (Hashtbl.length expected)
          (List.length (Vlfs.files fs2));
        Hashtbl.iter
          (fun name tag ->
            match Vlfs.read fs2 name ~off:0 ~len:4096 with
            | Ok (got, _) ->
              Alcotest.(check char) (name ^ " content") tag (Bytes.get got 0)
            | Error e ->
              Alcotest.fail (Format.asprintf "%s lost: %a" name Vlfs.pp_error e))
          expected)
    !points

let suites =
  [
    ( "crash-sweep",
      [
        Alcotest.test_case "vlog, scan path" `Quick test_sweep_scan_path;
        Alcotest.test_case "vlog, tail path" `Quick test_sweep_tail_path;
        Alcotest.test_case "vlfs, every op" `Quick test_sweep_vlfs;
      ] );
  ]
