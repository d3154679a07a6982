(* vlsim: command-line front end to the virtual-log simulator.

   vlsim model track --disk st --free 20
   vlsim model cylinder --disk hp --free 20
   vlsim model compactor --disk st --threshold 25
   vlsim latency --disk st --util 80 [--host sparc|ultra]
                                — one-off random-update measurement
   vlsim faults [--fault-plan torn,rot] [--fault-seed 7101]
                                — crash/fault injection sweep
   vlsim trace small-file --fs ufs --dev vld --out trace.jsonl --metrics
                                — run a workload with tracing on

   The paper's tables and figures run through bench/main.exe. *)

open Cmdliner

let disk_conv =
  let parse = function
    | "hp" | "hp97560" -> Ok Disk.Profile.hp97560
    | "st" | "st19101" | "seagate" -> Ok Disk.Profile.st19101
    | s -> Error (`Msg (Printf.sprintf "unknown disk %S (use hp or st)" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf p.Disk.Profile.name)

let host_conv =
  let parse = function
    | "sparc" | "sparc10" -> Ok Host.sparc10
    | "ultra" | "ultra170" -> Ok Host.ultra170
    | "free" -> Ok Host.free
    | s -> Error (`Msg (Printf.sprintf "unknown host %S (use sparc, ultra or free)" s))
  in
  Arg.conv (parse, fun ppf (h : Host.t) -> Format.pp_print_string ppf h.Host.name)

let disk_arg =
  Arg.(value & opt disk_conv Disk.Profile.st19101 & info [ "disk" ] ~doc:"hp or st")

let host_arg =
  Arg.(value & opt host_conv Host.sparc10 & info [ "host" ] ~doc:"sparc, ultra or free")

let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"smoke-test sizes")

(* The cross-cutting flags ([--jobs]/[-j], [--seed], [--json]) share one
   vocabulary with bench/main.exe: the names and docv come from
   [Vlog_util.Cli] so the two entry points can never drift apart in
   spelling; only the doc string is command-specific. *)
let cli_info ?(extra_names = []) ?doc (spec : Vlog_util.Cli.spec) =
  let doc = match doc with Some d -> d | None -> spec.Vlog_util.Cli.doc in
  Arg.info (spec.Vlog_util.Cli.names @ extra_names) ~docv:spec.Vlog_util.Cli.docv ~doc

let jobs_arg =
  Arg.(
    value
    & opt int (Par.default_jobs ())
    & cli_info Vlog_util.Cli.jobs
        ~doc:
          "worker processes to fan sweep cells out to (default: detected \
           cores, or \\$(b,VLSIM_JOBS)); results are merged in matrix order, \
           so the report is identical for every N")

(* --- models --- *)

let pct_arg name doc = Arg.(value & opt float 20. & info [ name ] ~doc)

let model_cmd =
  let doc = "evaluate the analytical models of Section 2" in
  let which =
    Arg.(
      required
      & pos 0 (some (enum [ ("track", `Track); ("cylinder", `Cylinder); ("compactor", `Compactor) ])) None
      & info [] ~docv:"MODEL")
  in
  let run which profile free_pct threshold_pct =
    match which with
    | `Track ->
      let p = free_pct /. 100. in
      Printf.printf "single-track model (formula 1): %.4f ms (%.2f sectors)\n"
        (Models.Track_model.locate_ms profile ~p)
        (Models.Track_model.expected_skips_p
           ~n:profile.Disk.Profile.geometry.Disk.Geometry.sectors_per_track ~p)
    | `Cylinder ->
      let p = free_pct /. 100. in
      Printf.printf "single-cylinder model (formula 2): %.4f ms\n"
        (Models.Cylinder_model.locate_ms profile ~p)
    | `Compactor ->
      let threshold = threshold_pct /. 100. in
      Printf.printf "compactor model (formula 13): %.4f ms (optimal threshold %.0f%%)\n"
        (Models.Compactor_model.latency_ms profile ~threshold)
        (100. *. Models.Compactor_model.optimal_threshold profile)
  in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(
      const run $ which $ disk_arg
      $ pct_arg "free" "free-space percentage"
      $ pct_arg "threshold" "track-switch threshold percentage")

(* --- latency --- *)

let latency_cmd =
  let doc = "measure random synchronous 4 KB update latency on one rig" in
  let util_arg = Arg.(value & opt float 80. & info [ "util" ] ~doc:"target utilization %") in
  let vld_arg = Arg.(value & flag & info [ "vld" ] ~doc:"use the virtual log disk") in
  let run profile host util_pct vld quick =
    let s, prng =
      Experiments.Rigs.rig ~seed:0xC0FFEEL ~profile ~host
        { fs = F_ufs; on = (if vld then D_vld else D_regular) }
    in
    let file_mb = Experiments.Rigs.file_mb_for_utilization s (util_pct /. 100.) in
    let updates = if quick then 100 else 600 in
    let r = Workload.Random_update.run ~updates ~compact_first:vld ~file_mb ~prng s in
    Format.printf "%s on %s, %s host, %.0f%% utilization:@."
      (if vld then "UFS/VLD" else "UFS/regular")
      profile.Disk.Profile.name host.Host.name
      (100. *. r.Workload.Random_update.utilization);
    Format.printf "  %.3f ms per 4 KB synchronous update (%a)@."
      r.Workload.Random_update.mean_latency_ms Vlog_util.Breakdown.pp
      r.Workload.Random_update.breakdown
  in
  Cmd.v (Cmd.info "latency" ~doc)
    Term.(const run $ disk_arg $ host_arg $ util_arg $ vld_arg $ quick_arg)

(* --- crash/fault sweeps --- *)

(* One driver for every sweep command: [--seed] defaults to the sweep's
   own [default] seed, [--repro] judges exactly one cell (exit 2 on a
   malformed spec), otherwise [config seed] builds the matrix to run.
   The report is the summary line, then either [ok] or one FAILED line
   per failure and exit 1. *)
let sweep_cmd name ~doc ~noun ~ok ~repro_doc ~seed_names ~verdicts sweep
    ~default ~default_seed (config : (int64 -> 'c) Term.t) =
  let seed_arg =
    Arg.(
      value
      & opt int (Int64.to_int default_seed)
      & cli_info Vlog_util.Cli.seed ~extra_names:seed_names
          ~doc:"master seed for the sweep")
  in
  let repro_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro" ] ~docv:"SPEC" ~doc:repro_doc)
  in
  let run seed jobs repro verdicts config =
    let seed = Int64.of_int seed in
    let o =
      match repro with
      | None -> Check.Cells.run ~jobs sweep (config seed)
      | Some spec -> (
        match
          Check.Cells.repro sweep (sweep.Check.Cells.with_seed default seed) spec
        with
        | Ok o -> o
        | Error e ->
          Printf.eprintf "vlsim: %s\n" e;
          exit 2)
    in
    if verdicts then
      List.iter (fun (c, v) -> Printf.printf "cell %s: %s\n" c v) o.Check.Cells.verdicts;
    (* "N <noun> (<first tally>): <the other tallies>" *)
    let tally (l, k) = Printf.sprintf "%d %s" k l in
    let first = List.hd o.Check.Cells.tallies in
    Printf.printf "%d %s (%s): %s\n" o.Check.Cells.cells noun (tally first)
      (String.concat ", " (List.map tally (List.tl o.Check.Cells.tallies)));
    if o.Check.Cells.failures = [] then print_endline ok
    else begin
      List.iter
        (fun fl -> Format.printf "FAILED %a@." Check.Cells.pp_failure fl)
        o.Check.Cells.failures;
      exit 1
    end
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ seed_arg $ jobs_arg $ repro_arg $ verdicts $ config)

let faults_cmd =
  let open Check.Vld_sweep in
  let plan_arg =
    Arg.(
      value
      & opt string "powercut,torn,defect,rot,transient:2"
      & info [ "fault-plan" ] ~docv:"KINDS"
          ~doc:
            "comma-separated fault kinds to sweep: torn, rot, transient[:n], \
             defect, powercut")
  in
  let triggers_arg =
    Arg.(
      value & opt int default.triggers
      & info [ "triggers" ] ~doc:"operation boundaries swept per fault kind")
  in
  let config plan triggers quick seed =
    if triggers < 1 then begin
      Printf.eprintf "vlsim: --triggers must be at least 1 (got %d)\n" triggers;
      exit 2
    end;
    let kinds, errors =
      List.fold_right
        (fun s (ks, es) ->
          match Fault.Plan.kind_of_string (String.trim s) with
          | Ok k -> (k :: ks, es)
          | Error e -> (ks, e :: es))
        (String.split_on_char ',' plan)
        ([], [])
    in
    if errors <> [] then begin
      List.iter (Printf.eprintf "vlsim: %s\n") errors;
      exit 2
    end;
    (match List.filter Fault.Plan.is_drive_kind kinds with
    | [] -> ()
    | drive ->
      List.iter
        (fun k ->
          Printf.eprintf
            "vlsim: %s is a whole-drive fault; this single-spindle sweep \
             cannot express it — use vlsim fssweep, whose volume rigs \
             inject it into one mirror leg\n"
            (Fault.Plan.kind_to_string k))
        drive;
      exit 2);
    (match List.filter Fault.Plan.is_nvm_kind kinds with
    | [] -> ()
    | nvm ->
      List.iter
        (fun k ->
          Printf.eprintf
            "vlsim: %s strikes an NVM staging tier; this single-spindle \
             sweep has none — use vlsim fssweep, whose nvm rigs judge the \
             staged persistence boundary\n"
            (Fault.Plan.kind_to_string k))
        nvm;
      exit 2);
    { seed; kinds; triggers = (if quick then min triggers 6 else triggers) }
  in
  sweep_cmd "faults" sweep ~default ~default_seed:default.seed
    ~doc:
      "sweep deterministic fault injections (torn writes, bit rot, transient \
       reads, grown defects, power cuts) across operation boundaries and check \
       the recovery invariants"
    ~noun:"scenarios" ~ok:"all invariants satisfied" ~seed_names:[ "fault-seed" ]
    ~repro_doc:
      "rerun exactly one failing cell, as printed by a failure: \
       seed=7101,kind=torn,trigger=5,tail=true,case=37"
    ~verdicts:(Term.const false)
    Term.(const config $ plan_arg $ triggers_arg $ quick_arg)

let fssweep_cmd =
  let open Check.Fs_sweep in
  sweep_cmd "fssweep" sweep ~default ~default_seed:default.seed
    ~doc:
      "crash/fault sweep at the file-system level: run a seeded metadata \
       workload on each (file system x device) rig with a fault plan armed, \
       freeze the platters, remount, and judge the result with fsck, the \
       durability oracle, and a remount-idempotence check"
    ~noun:"scenarios" ~ok:"all file systems recovered consistently" ~seed_names:[]
    ~repro_doc:
      "rerun exactly one failing cell, as printed by a failure: \
       rig=ufs/vld,seed=9203,kind=torn,trigger=5,case=37"
    ~verdicts:(Term.const false)
    Term.(
      const (fun quick seed -> { (if quick then smoke else default) with seed })
      $ quick_arg)

let arraysweep_cmd =
  let open Check.Array_sweep in
  let verdicts_arg =
    Arg.(
      value & flag
      & info [ "verdicts" ]
          ~doc:"print one verdict line per cell (the CI determinism probe)")
  in
  sweep_cmd "arraysweep" sweep ~default ~default_seed:default.seed
    ~doc:
      "whole-drive fault sweep over the queued array data path: drive each \
       volume shape with windows of outstanding commands while a drive-fault \
       plan (death, hang, flaky, latent, double-death) fires mid-batch, \
       mid-drain, or mid-rebuild, then judge with the volume checker, the \
       durability oracle, and a crash/remount — honest data loss is required \
       where redundancy cannot cover the fault"
    ~noun:"cells" ~ok:"every cell reported a verdict and no fault was masked"
    ~seed_names:[]
    ~repro_doc:
      "rerun exactly one cell, as printed by a failure: \
       array=raid10,seed=9203,fault=death,depth=4,phase=rebuild,case=37"
    ~verdicts:verdicts_arg
    Term.(
      const (fun quick seed -> { (if quick then smoke else default) with seed })
      $ quick_arg)

(* --- volume --- *)

let volume_layout_of_string s =
  let int n = try Some (int_of_string n) with _ -> None in
  match String.split_on_char ':' s with
  | [ "stripe"; k ] -> (
    match int k with
    | Some k when k >= 1 -> Ok (Volume.Stripe k)
    | _ -> Error (Printf.sprintf "bad stripe width %S" k))
  | [ "mirror"; m ] -> (
    match int m with
    | Some m when m >= 2 -> Ok (Volume.Mirror m)
    | _ -> Error (Printf.sprintf "bad mirror width %S (need >= 2)" m))
  | [ "raid10"; km ] -> (
    match String.split_on_char 'x' km with
    | [ k; m ] -> (
      match (int k, int m) with
      | Some k, Some m when k >= 1 && m >= 2 -> Ok (Volume.Stripe_of_mirrors (k, m))
      | _ -> Error (Printf.sprintf "bad raid10 shape %S (KxM, M >= 2)" km))
    | _ -> Error (Printf.sprintf "bad raid10 shape %S (want KxM)" km))
  | _ ->
    Error
      (Printf.sprintf "unknown layout %S (use stripe:K, mirror:M or raid10:KxM)" s)

let volume_cmd =
  let doc =
    "build a multi-disk volume in the simulator and walk it through a failure \
     story: mk writes a tagged workload, fail kills the requested legs and \
     re-reads every block (exits 1 on data loss instead of hanging), rebuild \
     resilvers dead legs onto hot spares and runs the volume checker, status \
     prints the leg map"
  in
  let actions_arg =
    Arg.(
      value
      & pos_all
          (enum
             [ ("mk", `Mk); ("status", `Status); ("fail", `Fail); ("rebuild", `Rebuild) ])
          [ `Mk; `Status ]
      & info [] ~docv:"ACTION"
          ~doc:
            "mk, status, fail, rebuild — applied in order to one in-memory \
             volume (default: mk status)")
  in
  let layout_arg =
    Arg.(
      value & opt string "mirror:2"
      & info [ "layout" ] ~docv:"LAYOUT" ~doc:"stripe:K, mirror:M or raid10:KxM")
  in
  let legs_arg =
    Arg.(
      value
      & opt (enum [ ("vld", Volume.Vld_leg); ("regular", Volume.Regular_leg) ])
          Volume.Vld_leg
      & info [ "legs" ] ~doc:"leg kind: vld or regular")
  in
  let blocks_arg =
    Arg.(value & opt int 48 & info [ "blocks" ] ~doc:"logical blocks in the volume")
  in
  let kill_arg =
    Arg.(
      value & opt_all int []
      & info [ "kill" ] ~docv:"LEG"
          ~doc:"flat leg index to kill during the fail action (repeatable)")
  in
  let fault_arg =
    Arg.(
      value & opt_all string []
      & info [ "fault" ] ~docv:"KIND[@LEG]"
          ~doc:
            "whole-drive fault plan to arm on a leg during the fail action \
             (repeatable): death, hang[:ms], flaky[:n] or latent[:n], \
             optionally pinned to a flat leg index as in hang:80@2 \
             (default leg 0)")
  in
  let run actions layout_s leg_kind blocks kills fault_specs profile =
    match volume_layout_of_string layout_s with
    | Error e ->
      Printf.eprintf "vlsim: %s\n" e;
      exit 2
    | Ok _ when blocks < 1 ->
      Printf.eprintf "vlsim: --blocks must be at least 1 (got %d)\n" blocks;
      exit 2
    | Ok layout ->
      let n = Volume.n_legs layout in
      let vol =
        Workload.Rig.volume ~profile ~clock:(Vlog_util.Clock.create ()) ~layout
          ~leg_kind ~logical_blocks:blocks ~prng:(Vlog_util.Prng.create ~seed:4242L) ()
      in
      let dev = Volume.device vol in
      let bb = dev.Blockdev.Device.block_bytes in
      let tag b = Char.chr (33 + (b mod 90)) in
      let m = Volume.legs_per_group vol in
      let act = function
        | `Mk ->
          for b = 0 to blocks - 1 do
            ignore (Blockdev.Device.write dev b (Bytes.make bb (tag b)))
          done;
          Printf.printf
            "created %s volume (%s legs) over %d drives, wrote %d blocks\n"
            layout_s
            (if leg_kind = Volume.Vld_leg then "vld" else "regular")
            n blocks
        | `Status -> Format.printf "%a@?" Volume.pp_status vol
        | `Fail ->
          List.iter
            (fun i ->
              if i < 0 || i >= n then begin
                Printf.eprintf "vlsim: no leg %d (volume has %d legs)\n" i n;
                exit 2
              end;
              Volume.kill vol ~group:(i / m) ~leg:(i mod m);
              Printf.printf "killed leg %d (group %d, mirror copy %d)\n" i
                (i / m) (i mod m))
            kills;
          List.iter
            (fun spec ->
              match Fault.Plan.leg_spec_of_string spec with
              | Error e ->
                Printf.eprintf "vlsim: %s\n" e;
                exit 2
              | Ok { Fault.Plan.ls_kind; ls_leg } ->
                let i = Option.value ls_leg ~default:0 in
                if i < 0 || i >= n then begin
                  Printf.eprintf "vlsim: no leg %d (volume has %d legs)\n" i n;
                  exit 2
                end;
                let p =
                  Fault.Plan.create ls_kind ~trigger:1 ~seed:4243L
                in
                Fault.Plan.install p (Volume.disks vol).(i);
                Printf.printf "armed %s on leg %d (group %d, mirror copy %d)\n"
                  (Fault.Plan.kind_to_string ls_kind)
                  i (i / m) (i mod m))
            fault_specs;
          let lost = ref 0 in
          for b = 0 to blocks - 1 do
            match dev.Blockdev.Device.read b with
            | Ok (data, _) when Bytes.get data 0 = tag b -> ()
            | Ok _ | Error _ -> incr lost
          done;
          Volume.settle vol;
          if !lost > 0 then begin
            Printf.printf
              "DATA LOSS: %d of %d blocks unreadable — every mirror copy is \
               gone\n"
              !lost blocks;
            exit 1
          end
          else
            Printf.printf "all %d blocks still readable%s\n" blocks
              (if Volume.degraded vol then " (degraded: redundancy lost)"
               else "")
        | `Rebuild ->
          let started = ref 0 in
          for gi = 0 to Volume.n_groups vol - 1 do
            for li = 0 to m - 1 do
              if Volume.state_of vol ~group:gi ~leg:li = `Dead then
                match Volume.start_rebuild vol ~group:gi ~leg:li with
                | Ok () -> incr started
                | Error e ->
                  Printf.eprintf "vlsim: rebuild group %d leg %d: %s\n" gi li e;
                  exit 1
            done
          done;
          Volume.rebuild_to_completion vol;
          let r = Check.Volume_check.check vol in
          Printf.printf "rebuilt %d legs; volume check: %s\n" !started
            (if Check.Report.ok r then "clean" else "DIRTY");
          if not (Check.Report.ok r) then begin
            Format.printf "%a@." Check.Report.pp r;
            exit 1
          end
      in
      List.iter act actions
  in
  Cmd.v (Cmd.info "volume" ~doc)
    Term.(
      const run $ actions_arg $ layout_arg $ legs_arg $ blocks_arg $ kill_arg
      $ fault_arg $ disk_arg)

(* --- nvm --- *)

let nvm_cmd =
  let doc =
    "build an NVM write-ahead staging tier over a logical disk and poke it: \
     mk stages a tagged synchronous workload in the NVM log, status prints \
     the log occupancy and destage progress, drain destages everything and \
     verifies each block reads back from the backing device"
  in
  let actions_arg =
    Arg.(
      value
      & pos_all (enum [ ("mk", `Mk); ("status", `Status); ("drain", `Drain) ])
          [ `Mk; `Status ]
      & info [] ~docv:"ACTION"
          ~doc:
            "mk, status, drain — applied in order to one in-memory staged \
             stack (default: mk status)")
  in
  let backing_arg =
    Arg.(
      value
      & opt
          (enum Workload.Rig.[ ("vld", W_vld); ("regular", W_regular) ])
          Workload.Rig.W_vld
      & info [ "backing" ] ~doc:"device behind the staging tier: vld or regular")
  in
  let blocks_arg =
    Arg.(
      value & opt int 48
      & info [ "blocks" ] ~doc:"blocks the staged workload writes")
  in
  let log_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "log-bytes" ] ~docv:"N"
          ~doc:
            "cap the NVM log region at $(docv) bytes (default: the whole 8 \
             MiB region); tiny caps show the backpressure path")
  in
  let run actions backing blocks log_bytes profile =
    let clock = Vlog_util.Clock.create () in
    let disk = Workload.Rig.drive ~profile ~clock (Workload.Rig.D_nvm backing) in
    let prng = Vlog_util.Prng.create ~seed:4242L in
    let inner =
      match backing with
      | Workload.Rig.W_vld ->
        Blockdev.Vld.device
          (Blockdev.Vld.create ~disk ~logical_blocks:(max 64 (blocks * 2)) ~prng
             ())
      | W_regular ->
        Blockdev.Regular_disk.device
          (Blockdev.Regular_disk.create ~disk ~spare_blocks:8 ())
    in
    let nvm = Nvm.Nvm_sim.create ~clock () in
    let config = { Nvm.Nvm_wal.default_config with Nvm.Nvm_wal.log_bytes } in
    let wal =
      try Nvm.Nvm_wal.create ~config ~nvm ~inner ()
      with Invalid_argument _ ->
        prerr_endline "vlsim: --log-bytes leaves no room for one log record";
        exit 2
    in
    let dev = Nvm.Nvm_wal.device wal in
    let bb = dev.Blockdev.Device.block_bytes in
    let tag b = Char.chr (33 + (b mod 90)) in
    let act = function
      | `Mk ->
        let staged = ref 0 in
        for b = 0 to blocks - 1 do
          match dev.Blockdev.Device.write b (Bytes.make bb (tag b)) with
          | Ok _ -> incr staged
          | Error e ->
            Format.eprintf "vlsim: nvm: write %d failed: %a@." b
              Blockdev.Device.pp_io_error e;
            exit 1
        done;
        Printf.printf "staged %d synchronous writes over %s backing (%s)\n"
          !staged
          (match backing with Workload.Rig.W_vld -> "vld" | W_regular -> "regular")
          dev.Blockdev.Device.name
      | `Status ->
        let s = Nvm.Nvm_wal.status wal in
        let st = Nvm.Nvm_sim.stats nvm in
        Printf.printf
          "log: %d entries staged (%d already destaged), %d/%d bytes used\n"
          s.Nvm.Nvm_wal.st_entries s.Nvm.Nvm_wal.st_destaged
          s.Nvm.Nvm_wal.st_log_used s.Nvm.Nvm_wal.st_log_capacity;
        Printf.printf "seq: base %Ld, next %Ld\n" s.Nvm.Nvm_wal.st_base_seq
          s.Nvm.Nvm_wal.st_next_seq;
        Printf.printf
          "nvm: %d stores / %d loads, %d persist barriers, %d auto-drains, %d \
           bytes pending in the volatile front\n"
          st.Nvm.Nvm_sim.nvm_writes st.Nvm.Nvm_sim.nvm_reads
          st.Nvm.Nvm_sim.persists st.Nvm.Nvm_sim.auto_drains
          (Nvm.Nvm_sim.pending_bytes nvm)
      | `Drain -> (
        match Nvm.Nvm_wal.drain wal with
        | Error e ->
          Format.eprintf "vlsim: nvm: drain failed: %a@."
            Blockdev.Device.pp_io_error e;
          exit 1
        | Ok () ->
          let lost = ref 0 in
          for b = 0 to blocks - 1 do
            match inner.Blockdev.Device.read b with
            | Ok (data, _) when Bytes.get data 0 = tag b -> ()
            | Ok _ | Error _ -> incr lost
          done;
          if !lost > 0 then begin
            Printf.printf
              "DATA LOSS: %d of %d blocks wrong or unreadable on the backing \
               device after drain\n"
              !lost blocks;
            exit 1
          end
          else
            Printf.printf
              "drained: all %d blocks verified on the backing device\n" blocks)
    in
    List.iter act actions
  in
  Cmd.v (Cmd.info "nvm" ~doc)
    Term.(
      const run $ actions_arg $ backing_arg $ blocks_arg $ log_bytes_arg
      $ disk_arg)

(* --- mkimage --- *)

let fs_kind_arg =
  Arg.(
    required
    & opt
        (some
           (enum
              [
                ("ufs", Workload.Rig.F_ufs);
                ("lfs", Workload.Rig.F_lfs);
                ("vlfs", Workload.Rig.F_vlfs);
              ]))
        None
    & info [ "fs" ] ~docv:"FS" ~doc:"file system: ufs, lfs, or vlfs")

let mkimage_cmd =
  let doc =
    "write a small file-system image to a file, optionally with one piece of \
     metadata corrupted, for vlsim fsck"
  in
  let corrupt_arg =
    Arg.(
      value & opt string "none"
      & info [ "corrupt" ] ~docv:"KIND"
          ~doc:
            "damage to seed: none, dangling (zeroed inode), checksum \
             (garbage with valid ECC), rot (failing sector)")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"output image path")
  in
  let run fs corrupt out =
    match Check.Fs_sweep.corruption_of_string corrupt with
    | Error e ->
      Printf.eprintf "vlsim: %s\n" e;
      exit 2
    | Ok corrupt -> (
      match Check.Fs_sweep.make_image ~fs ~corrupt with
      | Error e ->
        Printf.eprintf "vlsim: mkimage: %s\n" e;
        exit 1
      | Ok (h, store) ->
        Check.Image.save h store out;
        Printf.printf "wrote %s (%s on %s, profile %s)\n" out h.Check.Image.fs
          h.Check.Image.dev h.Check.Image.profile)
  in
  Cmd.v (Cmd.info "mkimage" ~doc)
    Term.(const run $ fs_kind_arg $ corrupt_arg $ out_arg)

(* --- fsck --- *)

let fsck_cmd =
  let doc =
    "check a saved image: rebuild the stack its header names, mount it, run \
     the invariant checker; exits non-zero on findings or a degraded mount"
  in
  let image_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "image" ] ~docv:"FILE" ~doc:"image written by vlsim mkimage")
  in
  let run image =
    match Check.Image.load image with
    | Error e ->
      Printf.eprintf "vlsim: fsck: %s\n" e;
      exit 2
    | Ok (h, store) -> (
      match Check.Fs_sweep.fsck_image h store with
      | Error e ->
        Printf.printf "fsck %s: mount aborted: %s\n" image e;
        exit 1
      | Ok r ->
        Printf.printf "fsck %s: %s on %s (profile %s)\n" image
          h.Check.Image.fs h.Check.Image.dev h.Check.Image.profile;
        Format.printf "%a@." Check.Report.pp r.Check.Fs_sweep.fr_report;
        let degraded =
          match r.Check.Fs_sweep.fr_mode with
          | `Degraded why ->
            Printf.printf "mounted DEGRADED (read-only): %s\n" why;
            true
          | `Rw -> false
        in
        if degraded || not (Check.Report.ok r.Check.Fs_sweep.fr_report) then
          exit 1)
  in
  Cmd.v (Cmd.info "fsck" ~doc) Term.(const run $ image_arg)

(* --- trace --- *)

let trace_cmd =
  let doc =
    "run a workload with tracing enabled: export the span/counter/histogram \
     stream as JSON Lines and/or print a metrics summary or flamegraph"
  in
  let workload_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("small-file", `Small);
                  ("random-update", `Random);
                  ("seq-read", `Seq);
                ]))
          None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "small-file, random-update or seq-read.  seq-read writes one \
             $(b,--ops)-block file, syncs it, drops the caches and reads it \
             back; LFS still serves the blocks of its open segment from \
             memory, so at the default $(b,--ops) an LFS trace shows no disk \
             reads (at 200, 125 blocks come from disk)")
  in
  let fs_arg =
    Arg.(
      value
      & opt
          (enum Workload.Rig.[ ("ufs", F_ufs); ("lfs", F_lfs); ("vlfs", F_vlfs) ])
          Workload.Rig.F_ufs
      & info [ "fs" ] ~doc:"ufs, lfs or vlfs")
  in
  let dev_arg =
    Arg.(
      value
      & opt (enum Workload.Rig.[ ("regular", D_regular); ("vld", D_vld) ]) Workload.Rig.D_vld
      & info [ "dev" ] ~doc:"regular or vld (ignored for vlfs)")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"write the trace as JSON Lines to $(docv)")
  in
  let metrics_arg =
    Arg.(value & flag & info [ "metrics" ] ~doc:"print the metrics summary table")
  in
  let flame_arg =
    Arg.(value & flag & info [ "flamegraph" ] ~doc:"print a text flamegraph")
  in
  let ops_arg =
    Arg.(
      value & opt int 40
      & info [ "ops" ]
          ~doc:"workload size (files to create / updates to apply / blocks to read)")
  in
  let run workload fs dev profile host out metrics flame ops =
    (* VLFS is the disk's firmware: [--dev] does not apply. *)
    let on = if fs = Workload.Rig.F_vlfs then Workload.Rig.D_direct else dev in
    let s, prng =
      Experiments.Rigs.rig ~seed:0xC0FFEEL ~trace:true ~profile ~host { fs; on }
    in
    (match workload with
    | `Small -> ignore (Workload.Small_file.run ~files:ops s)
    | `Random ->
      ignore (Workload.Random_update.run ~updates:ops ~warmup:0 ~file_mb:2. ~prng s)
    | `Seq ->
      (* Write one [ops]-block file through the buffer, sync it out, drop
         caches, and stream it back: a read-path trace with a cold cache,
         except that LFS serves the blocks still in its open segment from
         memory (every block at the default [ops]). *)
      let bs = s.dev.block_bytes in
      ignore (Workload.Fs.exn @@ Workload.Fs.create s.fs "seq");
      ignore
        (Workload.Fs.exn @@ Workload.Fs.write s.fs "seq" ~off:0 (Bytes.make (ops * bs) 's'));
      ignore (Workload.Fs.sync s.fs);
      Workload.Fs.drop_caches s.fs;
      ignore (Workload.Fs.exn @@ Workload.Fs.read s.fs "seq" ~off:0 ~len:(ops * bs)));
    let sink = Disk.Disk_sim.trace s.disks.(0) in
    (match out with
    | Some file ->
      let oc = open_out file in
      output_string oc (Trace.to_jsonl sink);
      close_out oc;
      Printf.printf "wrote %s (%d spans, %d counters)\n" file
        (List.length (Trace.spans sink))
        (List.length (Trace.counters sink))
    | None -> ());
    if metrics || (out = None && not flame) then
      Format.printf "%a@." Trace.pp_summary sink;
    if flame then Format.printf "%a@." Trace.pp_flamegraph sink
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ workload_arg $ fs_arg $ dev_arg $ disk_arg $ host_arg $ out_arg
      $ metrics_arg $ flame_arg $ ops_arg)

let () =
  let doc = "virtual-log based file systems for a programmable disk: simulator" in
  let info = Cmd.info "vlsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ model_cmd; latency_cmd; faults_cmd; fssweep_cmd; arraysweep_cmd;
            volume_cmd; nvm_cmd; mkimage_cmd; fsck_cmd; trace_cmd ]))
