(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, the ablation benches and the repository's own
   studies, and (with [micro]) runs Bechamel micro-benchmarks of the
   core operations.

   Usage:
     dune exec bench/main.exe                 # every experiment, then micro
     dune exec bench/main.exe -- --quick      # smoke-test sizes
     dune exec bench/main.exe -- fig8 table2  # a subset
     dune exec bench/main.exe -- --jobs 4     # fan cells out to 4 workers
     dune exec bench/main.exe -- micro        # only the Bechamel micro-benchmarks
     dune exec bench/main.exe -- --json out.jsonl fig8 nvm   # run records
     dune exec bench/main.exe -- qdepth       # latency-under-load curves
     dune exec bench/main.exe -- array        # 16-spindle array study
     dune exec bench/main.exe -- array-faults # fault-under-load curves
     dune exec bench/main.exe -- nvm          # NVM staging-tier study
     dune exec bench/main.exe -- --seed 7 qdepth   # re-salt the seeded studies

   This is the one entry point for the experiments: each runs only as a
   [Suite] plan, and [Suite.names] lists them all.  Its jobs (for the
   big grids and the studies, one per cell) run through the [Par] worker
   pool; [--jobs N] sets the pool width (default: detected cores, or
   $VLSIM_JOBS).  Results are merged in input order, so the tables are
   byte-identical for every N.

   [--json FILE] writes one run record per experiment, one per line:
     {"name":"fig8","wall_s":1.23,"elapsed_s":2.46,"sim_ms":56789.123,
      "scale":"quick","jobs":2,"cores":2,"result":[...]}
   where [wall_s] is the experiment's host wall-clock span (first of its
   jobs dispatched to last finished), [elapsed_s] the summed in-worker
   compute seconds of its jobs, [sim_ms] the simulated milliseconds it
   consumed (delta of [Vlog_util.Clock.advanced_total] around each job),
   [cores] the host's detected core count, and [result] the
   experiment's own payload ([Suite.timing.t_result]; [null] for
   table-only experiments).  The schema is documented in DESIGN.md and
   checked by .github/check_bench.py. *)

open Experiments

(* ---- Bechamel micro-benchmarks of the core operations ---- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let vld_rig = fst (Rigs.rig { fs = F_ufs; on = D_vld }) in
  let reg_rig = fst (Rigs.rig { fs = F_ufs; on = D_regular }) in
  let payload = Bytes.make 4096 'b' in
  let counter = ref 0 in
  let write_block (rig : Workload.Rig.stack) () =
    incr counter;
    ignore (rig.dev.write (!counter * 37 mod rig.dev.n_blocks) payload)
  in
  let node =
    {
      Vlog.Map_codec.seq = 1L;
      piece = 0;
      kind = Vlog.Map_codec.Node;
      txn_id = 1L;
      txn_commit = true;
      ptrs = [ { Vlog.Map_codec.pba = 1; seq = 0L } ];
      entries = Array.make 900 7;
    }
  in
  let encoded = Vlog.Map_codec.encode_node ~block_bytes:4096 node in
  (* A block body as every on-disk seal digests it: 4096 bytes less the
     8-byte checksum slot. *)
  let body = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  (* Eager allocation at 95% utilization — where the indexed search has
     to prune hardest.  Same freemap state for every variant; [search]
     is pure, so each run does the full search from scratch. *)
  let eager_alloc mode =
    let clock = Vlog_util.Clock.create () in
    let disk = Disk.Disk_sim.create ~profile:Rigs.seagate ~clock () in
    let freemap = Vlog.Freemap.create ~profile:(Disk.Disk_sim.profile disk) ~sectors_per_block:8 in
    let prng = Vlog_util.Prng.create ~seed:0x95L in
    Vlog.Freemap.random_occupy freemap prng ~utilization:0.95;
    Vlog.Eager.create ~mode ~disk ~freemap ()
  in
  let eager_sweep = eager_alloc Vlog.Eager.Sweep in
  let eager_nearest = eager_alloc Vlog.Eager.Nearest in
  let no_exclude _ = false in
  let tests =
    Test.make_grouped ~name:"vlogfs"
      [
        Test.make ~name:"vld-sync-write-4k" (Staged.stage (write_block vld_rig));
        Test.make ~name:"regular-sync-write-4k" (Staged.stage (write_block reg_rig));
        Test.make ~name:"map-node-encode"
          (Staged.stage (fun () ->
               ignore (Vlog.Map_codec.encode_node ~block_bytes:4096 node)));
        Test.make ~name:"map-node-decode"
          (Staged.stage (fun () -> ignore (Vlog.Map_codec.decode_node encoded)));
        Test.make ~name:"checksum-4k"
          (Staged.stage (fun () ->
               ignore
                 (Vlog_util.Checksum.add_words Vlog_util.Checksum.empty body ~pos:0
                    ~len:4088)));
        Test.make ~name:"analytic-cylinder-model"
          (Staged.stage (fun () ->
               ignore (Models.Cylinder_model.locate_ms Rigs.seagate ~p:0.2)));
        Test.make ~name:"eager-alloc-sweep-95"
          (Staged.stage (fun () ->
               ignore
                 (Vlog.Eager.search eager_sweep ~exclude_tracks:no_exclude
                    ~lead_time:0.)));
        Test.make ~name:"eager-alloc-nearest-95"
          (Staged.stage (fun () ->
               ignore
                 (Vlog.Eager.search eager_nearest ~exclude_tracks:no_exclude
                    ~lead_time:0.)));
        Test.make ~name:"eager-alloc-reference-95"
          (Staged.stage (fun () ->
               ignore
                 (Vlog.Eager.Reference.search eager_sweep
                    ~exclude_tracks:no_exclude ~lead_time:0.)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  (* Time and minor-heap words per run, side by side: the eager
     allocator's hot path is meant to allocate nothing beyond its result.
     Words are read with [Gc.minor_words], like Bechamel's
     [minor_allocated] but exact on OCaml 5 too, where [Gc.quick_stat]
     misses the words allocated since the last minor collection. *)
  let minor_words =
    let module M = struct
      type witness = unit

      let label () = "minor-words"
      let unit () = "w"
      let make () = ()
      let load () = ()
      let unload () = ()
      let get () = Gc.minor_words ()
    end in
    Measure.instance (module M) (Measure.register (module M))
  in
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.merge ols instances (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  List.iter (fun i -> Bechamel_notty.Unit.add i (Measure.unit i)) instances;
  let img = Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run results in
  Notty_unix.eol img |> Notty_unix.output_image

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* The cross-cutting flags come from the shared vocabulary, so bench
     and vlsim accept identical spellings. *)
  let get = function
    | Ok v -> v
    | Error msg ->
      prerr_endline msg;
      exit 2
  in
  let open Vlog_util in
  let jobs_opt, args = get (Cli.extract_int Cli.jobs ~min:1 args) in
  let jobs = match jobs_opt with Some j -> j | None -> Par.default_jobs () in
  let json_path, args = get (Cli.extract Cli.json args) in
  let seed, args = get (Cli.extract_int Cli.seed ~min:0 args) in
  let scale = if List.mem "--quick" args then Rigs.Quick else Rigs.Full in
  let names = List.filter (fun a -> a <> "--quick") args in
  (* No names: every experiment, then micro.  [micro] alone: only micro. *)
  let want_micro = names = [] || List.mem "micro" names in
  let to_run =
    if names = [] then Suite.names else List.filter (fun a -> a <> "micro") names
  in
  List.iter
    (fun n ->
      if not (List.mem n Suite.names) then begin
        Printf.eprintf "unknown experiment %s (known: %s)\n" n
          (String.concat ", " Suite.names);
        exit 2
      end)
    to_run;
  (if to_run <> [] then
     let progress ~completed ~total ~label =
       Printf.eprintf "[%d/%d] %s\n%!" completed total label
     in
     let timings =
       Suite.run ~jobs ~timeout_s:3600. ~progress ?seed ~scale ~names:to_run ()
     in
     List.iter
       (fun (t : Suite.timing) ->
         print_string t.Suite.t_output;
         Printf.printf "[%s: %.1fs]\n\n%!" t.Suite.t_name t.Suite.t_wall_s)
       timings;
     (match json_path with
     | Some path ->
       let oc = open_out path in
       List.iter
         (fun (t : Suite.timing) ->
           output_string oc
             (Json.to_string
                (Obj
                   [
                     ("name", String t.Suite.t_name); ("wall_s", Float t.Suite.t_wall_s);
                     ("elapsed_s", Float t.Suite.t_elapsed_s); ("sim_ms", Float t.Suite.t_sim_ms);
                     ("scale", String (match scale with Rigs.Quick -> "quick" | Rigs.Full -> "full"));
                     ("jobs", Int jobs); ("cores", Int (Par.detected_cores ()));
                     ("result", t.Suite.t_result);
                   ]));
           output_char oc '\n')
         timings;
       close_out oc
     | None -> ());
     let failed =
       List.concat_map (fun (t : Suite.timing) -> t.Suite.t_failures) timings
     in
     if failed <> [] then begin
       List.iter (Printf.eprintf "FAILED %s\n") failed;
       exit 1
     end);
  if want_micro then micro ()
