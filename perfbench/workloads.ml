(* The four benchmark workloads.  Each builds its stack from the public
   constructors, runs one pass — set-up, measured phase, read-back — and
   returns the pass's metrics.  A pass is a fixed amount of simulated
   work fixed by the seed, so every simulated number repeats exactly from
   pass to pass and from run to run; only host figures vary. *)

open Vlog_util
open Meter

let bs = 4096
let sectors_per_block = 8
let file = "bench"
let host = Host.sparc10
let st19101 = Disk.Profile.st19101

type pass = {
  setup_s : float;
  host_s : float;  (** host seconds of the measured phase *)
  ops : int;  (** foreground ops of the measured phase *)
  sim : (string * float) list;  (** [sim_*] metrics, deterministic per seed *)
  alloc_per_op : float;
  major_per_op : float;
  attempted : int;
  failed : int;
  first_error : string option;
  layers : (string * float) list;  (** per-layer metrics; [] when untraced *)
  violations : string list;  (** sanity invariants that do not hold *)
  notes : (string * float) list;  (** context printed with the run, e.g. utilization *)
}

(* --- failure tally ------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable first : string option }

let tally () = { attempted = 0; failed = 0; first = None }

let fail t msg =
  t.failed <- t.failed + 1;
  if t.first = None then t.first <- Some msg

(* --- file-system stacks --------------------------------------------------- *)

(* One file system over one drive, behind the few calls the workloads
   make.  Offsets are in blocks of the benchmark file. *)
type fs = {
  write : int -> Bytes.t -> Breakdown.t;
  read : int -> int -> Bytes.t * Breakdown.t;
  idle : float -> unit;
  sync : unit -> unit;
  drop_caches : unit -> unit;
  utilization : unit -> float;
}

type stack = {
  clock : Clock.t;
  disk : Disk.Disk_sim.t;
  dev : Blockdev.Device.t;
  fs : fs;
  vld : Blockdev.Vld.t option;
  lfs : Lfs.t option;
}

let ok pp = function
  | Ok v -> v
  | Error e -> failwith (Format.asprintf "file system error: %a" pp e)

(* Traced runs time the file-system calls from outside; untraced runs
   use the closures as they are. *)
let timed_fs probes clock fs =
  match probes with
  | None -> fs
  | Some p ->
    {
      fs with
      write = (fun b buf -> time_fs_write p clock (fun () -> fs.write b buf));
      read = (fun b n -> time p.fs_read clock (fun () -> fs.read b n));
      idle = (fun dt -> time p.fs_idle clock (fun () -> fs.idle dt));
    }

let device probes clock d =
  match probes with None -> d | Some p -> timed_device p clock d

(* The logical size [Workload.Setup] gives a VLD: the map pieces and the
   allocation reserve are held back. *)
let vld_logical_blocks disk =
  let total = Disk.Geometry.total_sectors (Disk.Disk_sim.geometry disk) / sectors_per_block in
  total - (1 + (total / 900)) - 8

let ufs_on_vld ~probes ~prng =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile:st19101 ~clock
      ()
  in
  let vld =
    Blockdev.Vld.create ~disk ~logical_blocks:(vld_logical_blocks disk)
      ~prng:(Prng.split prng) ()
  in
  let dev = device probes clock (Blockdev.Vld.device vld) in
  let ufs = Ufs.format ~dev ~host ~clock Ufs.default_config in
  ignore (ok Ufs.pp_error (Ufs.create ufs file));
  let fs =
    {
      write = (fun b buf -> ok Ufs.pp_error (Ufs.write ufs file ~off:(b * bs) buf));
      read = (fun b n -> ok Ufs.pp_error (Ufs.read ufs file ~off:(b * bs) ~len:(n * bs)));
      idle = (fun dt -> Blockdev.Device.advance_idle ~clock dev dt);
      sync = (fun () -> ignore (Ufs.sync ufs));
      drop_caches = (fun () -> Ufs.drop_caches ufs);
      utilization = (fun () -> Ufs.utilization ufs);
    }
  in
  { clock; disk; dev; fs = timed_fs probes clock fs; vld = Some vld; lfs = None }

let nvram_blocks = 1561

let lfs_on_regular ~probes =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Forward_discard ~profile:st19101
      ~clock ()
  in
  let dev =
    device probes clock (Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk ()))
  in
  let lfs =
    Lfs.format ~dev ~host ~clock { Lfs.default_config with buffer_blocks = nvram_blocks }
  in
  ignore (ok Lfs.pp_error (Lfs.create lfs file));
  let fs =
    {
      write = (fun b buf -> ok Lfs.pp_error (Lfs.write lfs file ~off:(b * bs) buf));
      read = (fun b n -> ok Lfs.pp_error (Lfs.read lfs file ~off:(b * bs) ~len:(n * bs)));
      idle =
        (fun dt ->
          (* What an LFS does with an idle window: clean, then flush the
             buffer in the background; the rest of the window is the
             device's. *)
          let until = Clock.now clock +. dt in
          ignore (Lfs.idle_work lfs ~deadline:until);
          let remaining = until -. Clock.now clock in
          if remaining > 0. then Blockdev.Device.advance_idle ~clock dev remaining
          else Clock.advance_to clock until);
      sync = (fun () -> ignore (Lfs.sync lfs));
      drop_caches = (fun () -> Lfs.drop_caches lfs);
      utilization = (fun () -> Lfs.utilization lfs);
    }
  in
  { clock; disk; dev; fs = timed_fs probes clock fs; vld = None; lfs = Some lfs }

(* --- one pass over a file system ------------------------------------------- *)

type ctx = {
  st : stack;
  blocks : int;  (** file size in blocks *)
  shadow : int array;  (** last sequence written per block; -1 = unknown *)
  mutable seq : int;
  prng : Prng.t;
  buf : Bytes.t;  (** the one-block payload, restamped before every write *)
  order : int array;  (** block indices, reshuffled for distinct random reads *)
  t : tally;
  wlat : samples;
  rlat : samples;
  mutable scan_calls : int;
  mutable scan_bytes : int;
  mutable scan_ms : float;
  mutable idle_ms : float;
  bd : Breakdown.Acc.t option;  (** foreground breakdowns, traced runs only *)
}

let verify c data ~pos ~block =
  let seq = c.shadow.(block) in
  if seq >= 0 && not (stamped_ok data ~pos ~len:bs ~block ~seq) then
    fail c.t (Printf.sprintf "read-back mismatch at block %d" block)

let fill c =
  let chunk = 16 in
  let data = payload (chunk * bs) in
  let b = ref 0 in
  while !b < c.blocks do
    let n = min chunk (c.blocks - !b) in
    let data = if n = chunk then data else payload (n * bs) in
    for i = 0 to n - 1 do
      stamp data ~pos:(i * bs) ~block:(!b + i) ~seq:0;
      c.shadow.(!b + i) <- 0
    done;
    ignore (c.st.fs.write !b data);
    b := !b + n
  done;
  c.st.fs.sync ()

let update ?lat c =
  let b = Prng.int c.prng c.blocks in
  c.seq <- c.seq + 1;
  stamp c.buf ~pos:0 ~block:b ~seq:c.seq;
  c.t.attempted <- c.t.attempted + 1;
  let t0 = Clock.now c.st.clock in
  match c.st.fs.write b c.buf with
  | bd -> (
    c.shadow.(b) <- c.seq;
    (match lat with Some s -> record s (Clock.now c.st.clock -. t0) | None -> ());
    match c.bd with Some a -> Breakdown.Acc.add a bd | None -> ())
  | exception e ->
    c.shadow.(b) <- -1;
    fail c.t (Printexc.to_string e)

let idle c dt =
  c.st.fs.idle dt;
  c.idle_ms <- c.idle_ms +. dt

(* Cold sequential read of the whole file, 64 KiB at a time, verifying
   every block. *)
let scan c =
  c.st.fs.drop_caches ();
  let chunk = 16 in
  let b = ref 0 in
  while !b < c.blocks do
    let n = min chunk (c.blocks - !b) in
    c.t.attempted <- c.t.attempted + 1;
    let t0 = Clock.now c.st.clock in
    (match c.st.fs.read !b n with
    | data, _ ->
      c.scan_ms <- c.scan_ms +. (Clock.now c.st.clock -. t0);
      c.scan_calls <- c.scan_calls + 1;
      c.scan_bytes <- c.scan_bytes + (n * bs);
      for i = 0 to n - 1 do
        verify c data ~pos:(i * bs) ~block:(!b + i)
      done
    | exception e -> fail c.t (Printexc.to_string e));
    b := !b + n
  done

(* Cold random 4 KiB reads of [n] distinct blocks, verifying each. *)
let random_reads c n =
  c.st.fs.drop_caches ();
  Prng.shuffle c.prng c.order;
  for i = 0 to n - 1 do
    let b = c.order.(i) in
    c.t.attempted <- c.t.attempted + 1;
    let t0 = Clock.now c.st.clock in
    match c.st.fs.read b 1 with
    | data, _ ->
      record c.rlat (Clock.now c.st.clock -. t0);
      verify c data ~pos:0 ~block:b
    | exception e -> fail c.t (Printexc.to_string e)
  done

(* --- metrics ------------------------------------------------------------------ *)

let sum_disk_stats disks =
  Array.fold_left
    (fun (a : Disk.Disk_sim.stats) d ->
      let s = Disk.Disk_sim.stats d in
      {
        Disk.Disk_sim.reads = a.reads + s.reads;
        writes = a.writes + s.writes;
        sectors_read = a.sectors_read + s.sectors_read;
        sectors_written = a.sectors_written + s.sectors_written;
        buffer_hits = a.buffer_hits + s.buffer_hits;
        read_faults = a.read_faults + s.read_faults;
        write_faults = a.write_faults + s.write_faults;
        busy_ms = a.busy_ms +. s.busy_ms;
      })
    {
      Disk.Disk_sim.reads = 0;
      writes = 0;
      sectors_read = 0;
      sectors_written = 0;
      buffer_hits = 0;
      read_faults = 0;
      write_faults = 0;
      busy_ms = 0.;
    }
    disks

(* Upper bound on 4 KiB operations per simulated second for one spindle:
   the media transfer of one block and nothing else. *)
let ceiling_iops (p : Disk.Profile.t) =
  1000. /. (float_of_int sectors_per_block *. Disk.Profile.sector_ms p)

let ratio a b = if b = 0. then 0. else a /. b
let per_op n ops = ratio (float_of_int n) (float_of_int ops)

(* The simulated end-to-end metrics of a pass, plus the sanity
   invariants over them. *)
let sim_metrics ~profile ~wlat ~rlat ~scan_bytes ~scan_ms ~fg_ops ~fg_ms =
  let w = sorted wlat and r = sorted rlat in
  let pct = pct ~tick:(Disk.Profile.sector_ms profile) in
  let scan_mb_s = float_of_int scan_bytes /. 1048576. /. (scan_ms /. 1000.) in
  [
    ("sim_write_p50_ms", pct w 50.);
    ("sim_write_p99_ms", pct w 99.);
    ("sim_write_mean_ms", sum wlat /. float_of_int wlat.n);
    ("sim_read_p50_ms", pct r 50.);
    ("sim_read_p99_ms", pct r 99.);
    ("sim_scan_mb_s", scan_mb_s);
    ("sim_iops", float_of_int fg_ops /. (fg_ms /. 1000.));
  ],
  fun () ->
    let lat name a =
      let p50 = pct a 50. and p99 = pct a 99. and mx = a.(Array.length a - 1) in
      (if not (a.(0) > 0.) then [ name ^ " latency not above 0" ] else [])
      @ if p50 <= p99 && p99 <= mx then [] else [ name ^ " percentiles out of order" ]
    in
    lat "write" w @ lat "read" r

type marks = {
  m_probes : probes option;
  m_disk : Disk.Disk_sim.stats;
  m_gc : gc;
  m_clock : float;
  m_host : float;
  m_vlog : Vlog.Virtual_log.stats option;
  m_compactor : Vlog.Compactor.run_stats option;
  m_lfs : Lfs.cleaner_stats option;
}

let mark ~probes ~disks ~clock ?vld ?lfs () =
  {
    m_probes = Option.map copy_probes probes;
    m_disk = sum_disk_stats disks;
    m_gc = gc ();
    m_clock = Clock.now clock;
    m_host = cpu ();
    m_vlog = Option.map (fun v -> Vlog.Virtual_log.stats (Blockdev.Vld.vlog v)) vld;
    m_compactor = Option.map (fun v -> Vlog.Compactor.total (Blockdev.Vld.compactor v)) vld;
    m_lfs = Option.map Lfs.cleaner_stats lfs;
  }

type delta = { calls : int; host_s : float; sim_ms : float }

let delta (a : timer) (b : timer) =
  { calls = b.calls - a.calls; host_s = b.host_s -. a.host_s; sim_ms = b.sim_ms -. a.sim_ms }

let us_per_call s = ratio (s.host_s *. 1e6) (float_of_int s.calls)
let sim_per_call s = ratio s.sim_ms (float_of_int s.calls)
let host_ms_per_sim_s s = ratio (s.host_s *. 1000.) (s.sim_ms /. 1000.)

(* Per-layer metrics from the marks at the start of the measured phase
   ([m0]), its end ([m1]) and the end of the pass ([m2]).  Counts per op
   cover the measured phase; per-call times cover everything after
   set-up, so a workload whose reads all happen at read-back still
   reports its read path. *)
let layer_metrics ~m0 ~m1 ~m2 ~ops ~idle_ms ~busy_frac ~amplification ~bd ~extra =
  let p0, p1, p2 =
    match (m0.m_probes, m1.m_probes, m2.m_probes) with
    | Some a, Some b, Some c -> (a, b, c)
    | _ -> invalid_arg "layer_metrics: untraced pass"
  in
  let d0 = m0.m_disk and d1 = m1.m_disk in
  let fs_w = delta p0.fs_write p2.fs_write in
  let fs_self =
    { fs_w with host_s = fs_w.host_s -. (p2.fs_write_in_dev_s -. p0.fs_write_in_dev_s) }
  in
  let idle_s = idle_ms /. 1000. in
  let cleaner f =
    match (m0.m_lfs, m1.m_lfs) with Some a, Some b -> f b - f a | _ -> 0
  in
  let vlog f = match (m0.m_vlog, m1.m_vlog) with Some a, Some b -> f b - f a | _ -> 0 in
  let moved, tracks, used =
    match (m0.m_compactor, m1.m_compactor) with
    | Some a, Some b ->
      ( b.Vlog.Compactor.blocks_moved - a.Vlog.Compactor.blocks_moved,
        b.tracks_emptied - a.tracks_emptied,
        b.ms_used -. a.ms_used )
    | _ -> (0, 0, 0.)
  in
  let bd_sum = match bd with Some a -> Breakdown.Acc.sum a | None -> Breakdown.zero in
  let fops = float_of_int ops in
  [
    ("fs.write.host_us", us_per_call fs_w);
    ("fs.write.self_host_us", us_per_call fs_self);
    ("fs.read.host_us", us_per_call (delta p0.fs_read p2.fs_read));
    ("fs.idle.host_ms_per_s", host_ms_per_sim_s (delta p0.fs_idle p1.fs_idle));
    ( "lfs.segments_cleaned_per_kop",
      1000. *. per_op (cleaner (fun s -> s.Lfs.segments_cleaned)) ops );
    ("lfs.blocks_copied_per_op", per_op (cleaner (fun s -> s.Lfs.blocks_copied)) ops);
    ("lfs.forced_cleans", float_of_int (cleaner (fun s -> s.Lfs.forced_cleans)));
    ("blockdev.writes_per_op", per_op (p1.bd_write.calls - p0.bd_write.calls) ops);
    ("blockdev.reads_per_op", per_op (p1.bd_read.calls - p0.bd_read.calls) ops);
    ("blockdev.write.host_us", us_per_call (delta p0.bd_write p2.bd_write));
    ("blockdev.read.host_us", us_per_call (delta p0.bd_read p2.bd_read));
    ("blockdev.write.sim_ms", sim_per_call (delta p0.bd_write p2.bd_write));
    ("blockdev.read.sim_ms", sim_per_call (delta p0.bd_read p2.bd_read));
    ("blockdev.idle.host_ms_per_s", host_ms_per_sim_s (delta p0.bd_idle p1.bd_idle));
    ("blockdev.retries", float_of_int (p2.bd_retries - p0.bd_retries));
    ("vlog.map_writes_per_op", per_op (vlog (fun s -> s.Vlog.Virtual_log.node_writes)) ops);
    ( "vlog.checkpoints_per_kop",
      1000. *. per_op (vlog (fun s -> s.Vlog.Virtual_log.checkpoint_writes)) ops );
    ("vlog.compactor.blocks_moved_per_idle_s", ratio (float_of_int moved) idle_s);
    ( "vlog.compactor.tracks_per_kblock_moved",
      1000. *. ratio (float_of_int tracks) (float_of_int moved) );
    ("vlog.compactor.busy_frac", ratio used idle_ms);
    ("disk.writes_per_op", per_op (d1.writes - d0.writes) ops);
    ("disk.sectors_written_per_user_sector", amplification);
    ("disk.reads_per_op", per_op (d1.reads - d0.reads) ops);
    ("disk.buffer_hit_ratio", per_op (d1.buffer_hits - d0.buffer_hits) (d1.reads - d0.reads));
    ("disk.busy_frac", busy_frac);
    ("disk.locate_ms_per_op", bd_sum.Breakdown.locate /. fops);
    ("disk.transfer_ms_per_op", bd_sum.Breakdown.transfer /. fops);
    ("disk.scsi_ms_per_op", bd_sum.Breakdown.scsi /. fops);
    ("disk.other_ms_per_op", bd_sum.Breakdown.other /. fops);
    ("volume.batch.host_us", us_per_call (delta p0.vol_batch p1.vol_batch));
  ]
  @ extra
  @ [
      ( "gc.minor_collections_per_kop",
        1000. *. per_op (m1.m_gc.minors - m0.m_gc.minors) ops );
      ( "gc.major_collections_per_kop",
        1000. *. per_op (m1.m_gc.majors - m0.m_gc.majors) ops );
    ]

(* Metrics every pass reports, traced or not, and the invariants over
   the measured phase's disk counters. *)
let finish ~setup_s ~m0 ~m1 ~m2 ~ops ~user_writes ~idle_ms ~spindles ~profile ~t ~sim
    ~sim_violations ~bd ~extra ~notes =
  let d0 = m0.m_disk and d1 = m1.m_disk in
  let elapsed = m1.m_clock -. m0.m_clock in
  let busy_frac = ratio (d1.busy_ms -. d0.busy_ms) (float_of_int spindles *. elapsed) in
  let amplification =
    per_op (d1.sectors_written - d0.sectors_written) (user_writes * sectors_per_block)
  in
  let ceiling = float_of_int spindles *. ceiling_iops profile in
  let iops = List.assoc "sim_iops" sim in
  let violations =
    sim_violations
    @ (if busy_frac <= 1. then [] else [ Printf.sprintf "disk.busy_frac %g > 1" busy_frac ])
    @ (if amplification >= 1. then []
       else [ Printf.sprintf "disk.sectors_written_per_user_sector %g < 1" amplification ])
    @
    if iops <= ceiling then []
    else [ Printf.sprintf "sim_iops %g above the %g mechanical ceiling" iops ceiling ]
  in
  let fops = float_of_int ops in
  {
    setup_s;
    host_s = m1.m_host -. m0.m_host;
    ops;
    sim;
    alloc_per_op = allocated m0.m_gc m1.m_gc /. fops;
    major_per_op = major_allocated m0.m_gc m1.m_gc /. fops;
    attempted = t.attempted;
    failed = t.failed;
    first_error = t.first;
    layers =
      (match m0.m_probes with
      | None -> []
      | Some _ ->
        layer_metrics ~m0 ~m1 ~m2 ~ops ~idle_ms ~busy_frac ~amplification ~bd ~extra);
    violations;
    notes;
  }

(* Per-layer metrics of layers a workload does not reach read as 0. *)
let no_volume =
  [
    ("volume.leg_busy_frac", 0.);
    ("volume.leg_busy_imbalance", 0.);
    ("disk_queue.cmd_p50_ms", 0.);
    ("disk_queue.cmd_p99_ms", 0.);
    ("disk_queue.wait_ms_per_cmd", 0.);
  ]

(* --- file-system workloads ------------------------------------------------------- *)

type fs_shape = {
  stack : probes:probes option -> prng:Prng.t -> stack;
  target_util : float;
  settle_ms : float;  (** idle after the fill, before warm-up *)
  warmup : int;  (** random updates before measuring *)
  writes : int;  (** measured writes *)
  reads : int;  (** random reads *)
  body : ctx -> unit;  (** the measured phase *)
  readback : bool;  (** scan and random reads after the measured phase *)
}

let run_fs shape ~seed ~traced =
  Gc.full_major ();
  let h0 = cpu () in
  let probes = if traced then Some (Meter.probes ()) else None in
  let root = Prng.create ~seed:(Int64.of_int seed) in
  let st = shape.stack ~probes ~prng:(Prng.split root) in
  let blocks =
    int_of_float ((shape.target_util -. 0.03) *. float_of_int st.dev.Blockdev.Device.n_blocks)
  in
  let c =
    {
      st;
      blocks;
      shadow = Array.make blocks (-1);
      seq = 0;
      prng = Prng.split root;
      buf = payload bs;
      order = Array.init blocks Fun.id;
      t = tally ();
      wlat = samples shape.writes;
      rlat = samples shape.reads;
      scan_calls = 0;
      scan_bytes = 0;
      scan_ms = 0.;
      idle_ms = 0.;
      bd = (if traced then Some (Breakdown.Acc.create ()) else None);
    }
  in
  fill c;
  if shape.settle_ms > 0. then st.fs.idle shape.settle_ms;
  for _ = 1 to shape.warmup do
    update c
  done;
  let utilization = st.fs.utilization () in
  let setup_s = cpu () -. h0 in
  Gc.minor ();
  let mark () = mark ~probes ~disks:[| st.disk |] ~clock:st.clock ?vld:st.vld ?lfs:st.lfs () in
  let m0 = mark () in
  shape.body c;
  let m1 = mark () in
  if shape.readback then begin
    scan c;
    random_reads c shape.reads
  end;
  let m2 = mark () in
  let ops = c.wlat.n + if shape.readback then 0 else c.rlat.n + c.scan_calls in
  let fg_ms = sum c.wlat +. if shape.readback then 0. else sum c.rlat +. c.scan_ms in
  let sim, sim_violations =
    sim_metrics ~profile:st19101 ~wlat:c.wlat ~rlat:c.rlat ~scan_bytes:c.scan_bytes
      ~scan_ms:c.scan_ms ~fg_ops:ops ~fg_ms
  in
  finish ~setup_s ~m0 ~m1 ~m2 ~ops ~user_writes:c.wlat.n ~idle_ms:c.idle_ms ~spindles:1
    ~profile:st19101 ~t:c.t ~sim ~sim_violations:(sim_violations ()) ~bd:c.bd
    ~extra:no_volume
    ~notes:[ ("utilization", utilization); ("file_blocks", float_of_int blocks) ]

let update_vld =
  let writes = 20_000 in
  {
    stack = ufs_on_vld;
    target_util = 0.85;
    settle_ms = 0.;
    warmup = 2000;
    writes;
    reads = 4000;
    body =
      (fun c ->
        for _ = 1 to writes do
          update ~lat:c.wlat c
        done);
    readback = true;
  }

let burst_blocks = 1008 * 1024 / bs

(* Windows short enough that the cleaner and the background flush cannot
   keep up, so write-path cleans recur many times a pass and the mean is
   steady from seed to seed.  With windows of a second or more every
   burst is absorbed (Fig. 10 flattens at the host cost) and the mean
   counts a handful of rare storms. *)
let idle_cycle_ms = [| 50.; 100.; 250. |]

let burst_idle_lfs =
  let bursts = 96 in
  {
    stack = (fun ~probes ~prng:_ -> lfs_on_regular ~probes);
    target_util = 0.8;
    settle_ms = 5000.;
    warmup = 0;
    writes = bursts * burst_blocks;
    reads = 4000;
    body =
      (fun c ->
        for i = 0 to bursts - 1 do
          for _ = 1 to burst_blocks do
            update ~lat:c.wlat c
          done;
          idle c idle_cycle_ms.(i mod Array.length idle_cycle_ms)
        done);
    readback = true;
  }

let mixed_vld =
  let cycles = 8 and writes = 2000 and reads = 500 and idle_ms = 1000. in
  {
    stack = ufs_on_vld;
    target_util = 0.8;
    settle_ms = 0.;
    warmup = 2000;
    writes = cycles * writes;
    reads = cycles * reads;
    body =
      (fun c ->
        for _ = 1 to cycles do
          for _ = 1 to writes do
            update ~lat:c.wlat c
          done;
          idle c idle_ms;
          scan c;
          random_reads c reads
        done);
    readback = false;
  }

(* --- striped VLD array ---------------------------------------------------------------- *)

let array_profile = Disk.Profile.with_cylinders st19101 4
let spindles = 8
let blocks_per_group = 128
let depth = 16

let run_array ~seed ~traced =
  let rounds = 1000 and warmup = 20 and reads = 4000 in
  Gc.full_major ();
  let h0 = cpu () in
  let probes = if traced then Some (Meter.probes ()) else None in
  let clock = Clock.create () in
  (* A command's service on a leg is one root [dev.write] span in that
     leg's disk trace sink; its end, less the round's arrival, is the
     command's latency through the leg's queue.  The sink keeps every
     span, so the traced run records one leg — the legs are symmetric —
     to keep the heap bounded. *)
  let sink = if traced then Trace.create ~clock () else Trace.null in
  let disks =
    Array.init spindles (fun i ->
        Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track
          ~trace:(if i = 0 then sink else Trace.null)
          ~profile:array_profile ~clock ())
  in
  let root = Prng.create ~seed:(Int64.of_int seed) in
  let logical_blocks = blocks_per_group * spindles in
  let vol =
    Volume.create ~layout:(Volume.Stripe spindles) ~leg_kind:Volume.Vld_leg ~logical_blocks
      ~disks ~prng:(Prng.split root) ()
  in
  let prng = Prng.split root in
  let t = tally () in
  let shadow = Array.make logical_blocks (-1) in
  let seq = ref 0 in
  let batch = depth * spindles in
  (* One payload per slot of a batch, restamped every round. *)
  let pool = Array.init batch (fun _ -> payload bs) in
  let groups = Array.init spindles (fun _ -> Array.init blocks_per_group Fun.id) in
  let write_batch items =
    match probes with
    | None -> Volume.write_batch vol ~at:(Clock.now clock) items
    | Some p ->
      time p.vol_batch clock (fun () -> Volume.write_batch vol ~at:(Clock.now clock) items)
  in
  let bd = if traced then Some (Breakdown.Acc.create ()) else None in
  (* A round scatters [depth] distinct random blocks to every spindle
     (block [b] lives on leg [b mod spindles]), all arriving at the
     previous round's completion. *)
  let round ?lat () =
    let items = ref [] in
    for g = spindles - 1 downto 0 do
      Prng.shuffle prng groups.(g);
      for i = depth - 1 downto 0 do
        let b = g + (spindles * groups.(g).(i)) in
        let buf = pool.((g * depth) + i) in
        incr seq;
        stamp buf ~pos:0 ~block:b ~seq:!seq;
        items := (b, buf) :: !items
      done
    done;
    t.attempted <- t.attempted + batch;
    let t0 = Clock.now clock in
    match write_batch !items with
    | Ok b ->
      List.iter
        (fun (blk, buf) -> shadow.(blk) <- Int64.to_int (Bytes.get_int64_le buf 8))
        !items;
      (match lat with Some s -> record s (Clock.now clock -. t0) | None -> ());
      Option.iter (fun a -> Breakdown.Acc.add a b) bd
    | Error e ->
      List.iter (fun (blk, _) -> shadow.(blk) <- -1) !items;
      fail t (Format.asprintf "%a" Blockdev.Device.pp_io_error e)
  in
  (* Fill every block once, one spindle-balanced batch at a time. *)
  for chunk = 0 to (logical_blocks / batch) - 1 do
    let items =
      List.init batch (fun i ->
          let b = (chunk * batch) + i in
          let buf = payload bs in
          stamp buf ~pos:0 ~block:b ~seq:0;
          (b, buf))
    in
    match Volume.write_batch vol ~at:(Clock.now clock) items with
    | Ok _ -> List.iter (fun (b, _) -> shadow.(b) <- 0) items
    | Error e -> failwith (Format.asprintf "array fill: %a" Blockdev.Device.pp_io_error e)
  done;
  for _ = 1 to warmup do
    round ()
  done;
  let setup_s = cpu () -. h0 in
  let wlat = samples rounds and rlat = samples reads and arrivals = samples rounds in
  Gc.minor ();
  let mark () = mark ~probes ~disks:(Volume.disks vol) ~clock () in
  let legs_busy () = Array.map (fun d -> (Disk.Disk_sim.stats d).busy_ms) (Volume.disks vol) in
  let busy0 = legs_busy () in
  let m0 = mark () in
  for _ = 1 to rounds do
    record arrivals (Clock.now clock);
    round ~lat:wlat ()
  done;
  let m1 = mark () in
  let busy1 = legs_busy () in
  let cmd_lat =
    let k = ref 0 in
    List.filter_map
      (fun (r : Trace.span_record) ->
        if r.parent <> -1 || r.name <> "dev.write" || r.start_ms < m0.m_clock
           || r.end_ms > m1.m_clock
        then None
        else begin
          while !k + 1 < arrivals.n && arrivals.v.(!k + 1) <= r.start_ms do
            incr k
          done;
          Some (r.end_ms -. arrivals.v.(!k))
        end)
      (Trace.spans sink)
  in
  (* Read-back: a sequential sweep in spindle-wide chunks, then single
     random blocks, every payload checked against the shadow. *)
  let verify data ~block =
    let s = shadow.(block) in
    if s >= 0 && not (stamped_ok data ~pos:0 ~len:bs ~block ~seq:s) then
      fail t (Printf.sprintf "read-back mismatch at block %d" block)
  in
  let read blocks =
    t.attempted <- t.attempted + 1;
    let t0 = Clock.now clock in
    match Volume.read_batch vol ~at:(Clock.now clock) blocks with
    | Ok got ->
      List.iter2 (fun b (data, _) -> verify data ~block:b) blocks got;
      Some (Clock.now clock -. t0)
    | Error e ->
      fail t (Format.asprintf "%a" Blockdev.Device.pp_io_error e);
      None
  in
  let scan_ms = ref 0. in
  let sweep = 4 * spindles in
  for chunk = 0 to (logical_blocks / sweep) - 1 do
    Option.iter
      (fun ms -> scan_ms := !scan_ms +. ms)
      (read (List.init sweep (fun i -> (chunk * sweep) + i)))
  done;
  for _ = 1 to reads do
    Option.iter (record rlat) (read [ Prng.int prng logical_blocks ])
  done;
  let m2 = mark () in
  let ops = wlat.n * batch in
  let sim, sim_violations =
    sim_metrics ~profile:array_profile ~wlat ~rlat ~scan_bytes:(logical_blocks * bs)
      ~scan_ms:!scan_ms ~fg_ops:ops ~fg_ms:(sum wlat)
  in
  let extra =
    let elapsed = m1.m_clock -. m0.m_clock in
    let busy = Array.mapi (fun i b -> b -. busy0.(i)) busy1 in
    let total = Array.fold_left ( +. ) 0. busy in
    let hi = Array.fold_left Float.max 0. busy in
    let lo = Array.fold_left Float.min infinity busy in
    let p50, p99, wait =
      match Array.of_list cmd_lat with
      | [||] -> (0., 0., 0.)
      | a ->
        Array.sort Float.compare a;
        let pct = pct ~tick:(Disk.Profile.sector_ms array_profile) a in
        let n = float_of_int (Array.length a) in
        (pct 50., pct 99., (Array.fold_left ( +. ) 0. a -. busy.(0)) /. n)
    in
    [
      ("volume.leg_busy_frac", ratio total (float_of_int spindles *. elapsed));
      ("volume.leg_busy_imbalance", ratio hi lo);
      ("disk_queue.cmd_p50_ms", p50);
      ("disk_queue.cmd_p99_ms", p99);
      ("disk_queue.wait_ms_per_cmd", wait);
    ]
  in
  finish ~setup_s ~m0 ~m1 ~m2 ~ops ~user_writes:ops ~idle_ms:0. ~spindles
    ~profile:array_profile ~t ~sim ~sim_violations:(sim_violations ()) ~bd ~extra
    ~notes:[ ("logical_blocks", float_of_int logical_blocks) ]

let names = [ "update-vld"; "burst-idle-lfs"; "mixed-vld"; "array-svld" ]

let run name ~seed ~traced =
  match name with
  | "update-vld" -> run_fs update_vld ~seed ~traced
  | "burst-idle-lfs" -> run_fs burst_idle_lfs ~seed ~traced
  | "mixed-vld" -> run_fs mixed_vld ~seed ~traced
  | "array-svld" -> run_array ~seed ~traced
  | _ -> invalid_arg name
