open Vlog_util
module Rig = Workload.Rig

type cell = { rig : Rig.array_kind; spindles : int; depth : int }

let cell_label c =
  Printf.sprintf "%s/n%d/d%d" (Rig.array_to_string c.rig) c.spindles c.depth

let spindle_counts = [ 1; 2; 4; 8; 16 ]
let depths = [ 1; 4; 16 ]

let cells ~scale =
  let sps, dps =
    match scale with
    | Rigs.Quick -> ([ 1; 2; 4 ], [ 1; 4 ])
    | Rigs.Full -> (spindle_counts, depths)
  in
  List.concat_map
    (fun rig ->
      List.concat_map
        (fun spindles ->
          if rig = Rig.A_raid10 && (spindles < 2 || spindles mod 2 <> 0) then []
          else List.map (fun depth -> { rig; spindles; depth }) dps)
        sps)
    [ Rig.A_svld; A_sreg; A_raid10 ]

type cell_result = {
  c_cell : cell;
  c_iops : float;
  c_n : int;
  c_mean_ms : float;
  c_p50_ms : float;
  c_p99_ms : float;
  c_max_ms : float;
}

type rebuild_row = {
  rb_mode : string;  (** healthy | throttled | blocking *)
  rb_n : int;
  rb_mean_ms : float;
  rb_p99_ms : float;
  rb_progress : int;
  rb_completed : bool;
}

type fault_row = {
  fr_mode : string;  (** healthy | one-dead | rebuild-flaky *)
  fr_n : int;  (** logical writes completed *)
  fr_failed : int;  (** writes that reported a structured per-tag error *)
  fr_iops : float;
  fr_mean_ms : float;
  fr_p50_ms : float;
  fr_p99_ms : float;
  fr_max_ms : float;
  fr_rebuilt : bool;  (** rebuild-flaky: resilver finished during the run *)
}

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 4
let blocks_per_group = 128

let groups_of c =
  match c.rig with Rig.A_raid10 -> c.spindles / 2 | A_svld | A_sreg -> c.spindles

let rounds ~scale = match scale with Rigs.Quick -> 8 | Rigs.Full -> 32

(* One closed-loop round: exactly [depth] distinct random blocks per
   group (logical block b lives at group b mod k), so every spindle's
   queue holds a full window and the round's completion barrier is over
   balanced legs — purely random block picks would bottleneck each
   round on the multinomial max. *)
let pick_round prng ~k ~depth ~bs =
  List.concat
    (List.init k (fun g ->
         let seen = Hashtbl.create depth in
         List.init depth (fun i ->
             let rec fresh () =
               let j = Prng.int prng blocks_per_group in
               if Hashtbl.mem seen j then fresh ()
               else begin
                 Hashtbl.add seen j ();
                 j
               end
             in
             (g + (k * fresh ()), Bytes.make bs (Char.chr (33 + (i mod 93)))))))

(* Closed-loop driver: each round scatters one batch of random
   single-block writes — [depth] per group, so every spindle sees the
   cell's queue depth — arriving at the previous batch's completion
   instant.  The legs' queues reorder within each window (SATF on VLD
   legs), and the batch completes at the slowest spindle. *)
let run_cell ?(seed = 0) ~scale c =
  let clock = Clock.create () in
  let sink = Trace.create ~clock () in
  let k = groups_of c in
  let logical_blocks = blocks_per_group * k in
  let prng =
    Prng.create
      ~seed:
        (Int64.of_int
           (0x5eed + (seed * 7919) + (c.spindles * 131) + c.depth
           + match c.rig with Rig.A_svld -> 1 | A_sreg -> 2 | A_raid10 -> 3))
  in
  let layout, leg_kind = Rig.array_shape c.rig ~spindles:c.spindles in
  let vol =
    Rig.volume ~trace:sink ~spare:false ~profile ~clock ~layout ~leg_kind ~logical_blocks
      ~prng ()
  in
  let bs = Volume.block_bytes vol in
  let batch = c.depth * k in
  let total = ref 0 in
  let t0 = Clock.now clock in
  for _ = 1 to rounds ~scale do
    let items = pick_round prng ~k ~depth:c.depth ~bs in
    let at = Clock.now clock in
    (match Volume.write_batch vol ~owner:"fg" ~at items with
    | Ok _ -> ()
    | Error e ->
      failwith
        (Format.asprintf "array cell %s: write failed: %a" (cell_label c)
           Blockdev.Device.pp_io_error e));
    total := !total + batch
  done;
  let elapsed = Clock.now clock -. t0 in
  let h =
    match Trace.histogram sink "queue.fg.lat" with
    | Some h -> h
    | None -> failwith "array: no per-command latency histogram"
  in
  let open Trace.Histogram in
  {
    c_cell = c;
    c_iops =
      (if elapsed > 0. then float_of_int !total /. elapsed *. 1000. else 0.);
    c_n = !total;
    c_mean_ms = (if count h > 0 then sum h /. float_of_int (count h) else 0.);
    c_p50_ms = percentile h 50.;
    c_p99_ms = percentile h 99.;
    c_max_ms = max_value h;
  }

(* --- degraded / rebuilding foreground interference --- *)

let rebuild_budget = 3.0

let rebuild_mode_label = function
  | `Healthy -> "healthy"
  | `Throttled -> "throttled"
  | `Blocking -> "blocking"

(* Foreground open-loop single writes at a fixed spacing over a 2-way
   VLD mirror, under three rebuild regimes: no rebuild at all; the
   queued background rebuild throttled to [policy.rebuild_util] of the
   idle windows between arrivals; and the pre-queue blocking cursor
   sweep run in foreground chunks.  The claim under test: throttling
   holds the foreground p99 within [rebuild_budget] × the healthy p99,
   while the blocking sweep does not. *)
let run_rebuild ?(seed = 0) ~scale mode =
  let clock = Clock.create () in
  let prng = Prng.create ~seed:(Int64.of_int (0xb1d + seed)) in
  let blocks = 192 in
  let vol =
    Rig.volume ~profile ~clock ~layout:(Volume.Mirror 2) ~leg_kind:Volume.Vld_leg
      ~logical_blocks:blocks ~prng ()
  in
  let bs = Volume.block_bytes vol in
  (* Prefill so the resilver has real content to copy. *)
  for b = 0 to blocks - 1 do
    match
      Volume.write_result_at vol ~at:(Clock.now clock) b
        (Bytes.make bs (Char.chr (65 + (b mod 26))))
    with
    | Ok _ -> ()
    | Error _ -> failwith "array rebuild: prefill failed"
  done;
  if mode <> `Healthy then begin
    Volume.kill vol ~group:0 ~leg:1;
    match Volume.start_rebuild vol ~group:0 ~leg:1 with
    | Ok () -> ()
    | Error e -> failwith ("array rebuild: " ^ e)
  end;
  let n_ops = match scale with Rigs.Quick -> 60 | Rigs.Full -> 300 in
  (* ~100 foreground IOPS: windows wide enough that a throttled copy
     (service plus duty-cycle idle) fits between arrivals *)
  let gap_ms = 10. in
  let t0 = Clock.now clock in
  let lats = ref [] in
  for i = 0 to n_ops - 1 do
    let at = t0 +. (float_of_int i *. gap_ms) in
    let b = Prng.int prng blocks in
    (match Volume.write_result_at vol ~at b (Bytes.make bs 'f') with
    | Ok _ -> lats := (Clock.now clock -. at) :: !lats
    | Error _ -> failwith "array rebuild: foreground write failed");
    match mode with
    | `Healthy -> ()
    | `Throttled ->
      (* grant the time to the next arrival as idle: the pump runs
         throttled background copies in the legs' windows *)
      let next = t0 +. (float_of_int (i + 1) *. gap_ms) in
      let dt = next -. Clock.now clock in
      if dt > 0. then Volume.idle vol dt
    | `Blocking -> if i mod 10 = 9 then Volume.rebuild_step vol ~copies:16
  done;
  let progress, completed =
    match Volume.state_of vol ~group:0 ~leg:1 with
    | `Rebuilding c -> (c, false)
    | `Healthy -> (blocks, mode <> `Healthy)
    | `Suspect | `Dead -> (0, false)
  in
  let lats = List.rev !lats in
  {
    rb_mode = rebuild_mode_label mode;
    rb_n = List.length lats;
    rb_mean_ms = Stats.mean lats;
    rb_p99_ms = Stats.percentile 0.99 lats;
    rb_progress = progress;
    rb_completed = completed;
  }

(* --- fault-under-load: degraded-mode throughput and latency --- *)

(* Closed-loop small writes on a 4-spindle raid10 (2 mirror groups of
   2 VLD legs) under three service states: every leg healthy; one leg
   dead with no spare, so group-0 writes run degraded and reads fail
   over; and a resilver onto a hot spare pumped in idle windows while
   the surviving source drops commands in flaky bursts — the worst
   supported state short of data loss.  Same closed-loop driver as the
   IOPS grid, so the three rows are directly comparable. *)

let fault_depth = 4

let fault_modes = [ `Healthy; `One_dead; `Rebuild_flaky ]

let fault_mode_label = function
  | `Healthy -> "healthy"
  | `One_dead -> "one-dead"
  | `Rebuild_flaky -> "rebuild-flaky"

let run_fault_mode ?(seed = 0) ~scale mode =
  let clock = Clock.create () in
  let sink = Trace.create ~clock () in
  let mode_ix =
    match mode with `Healthy -> 1 | `One_dead -> 2 | `Rebuild_flaky -> 3
  in
  let prng = Prng.create ~seed:(Int64.of_int (0xfa17 + (seed * 7919) + mode_ix)) in
  let k = 2 in
  let logical_blocks = blocks_per_group * k in
  let vol =
    Rig.volume ~trace:sink ~spare:(mode = `Rebuild_flaky) ~profile ~clock
      ~layout:(Volume.Stripe_of_mirrors (k, 2))
      ~leg_kind:Volume.Vld_leg ~logical_blocks ~prng ()
  in
  let source = (Volume.disks vol).(0) in
  let bs = Volume.block_bytes vol in
  (* prefill so the resilver copies real content and reads have data *)
  (match
     Volume.write_batch vol ~at:(Clock.now clock)
       (List.init logical_blocks (fun b -> (b, Bytes.make bs 'A')))
   with
  | Ok _ -> ()
  | Error _ -> failwith "array faults: prefill failed");
  (match mode with
  | `Healthy -> ()
  | `One_dead -> Volume.kill vol ~group:0 ~leg:1
  | `Rebuild_flaky ->
    Volume.kill vol ~group:0 ~leg:1;
    (match Volume.start_rebuild vol ~group:0 ~leg:1 with
    | Ok () -> ()
    | Error e -> failwith ("array faults: " ^ e));
    let p =
      Fault.Plan.create (Fault.Plan.Drive_flaky 3) ~trigger:6
        ~seed:(Int64.of_int (0xf1a + seed))
    in
    Fault.Plan.install p source);
  let done_ = ref 0 and failed = ref 0 in
  let t0 = Clock.now clock in
  for _ = 1 to rounds ~scale do
    let items = pick_round prng ~k ~depth:fault_depth ~bs in
    let rep = Volume.write_batch_report vol ~owner:"fg" ~at:(Clock.now clock) items in
    done_ := !done_ + List.length rep.Volume.wr_written;
    failed := !failed + List.length rep.Volume.wr_failed;
    (* a granted idle window after each round: the pump runs throttled
       resilver copies in it (a no-op for the other modes) *)
    if mode = `Rebuild_flaky then Volume.idle vol 12.
  done;
  let elapsed = Clock.now clock -. t0 in
  let h =
    match Trace.histogram sink "queue.fg.lat" with
    | Some h -> h
    | None -> failwith "array faults: no per-command latency histogram"
  in
  let rebuilt =
    mode = `Rebuild_flaky
    && (match Volume.state_of vol ~group:0 ~leg:1 with
       | `Healthy -> true
       | `Suspect | `Dead | `Rebuilding _ -> false)
  in
  let open Trace.Histogram in
  {
    fr_mode = fault_mode_label mode;
    fr_n = !done_;
    fr_failed = !failed;
    fr_iops =
      (if elapsed > 0. then float_of_int !done_ /. elapsed *. 1000. else 0.);
    fr_mean_ms = (if count h > 0 then sum h /. float_of_int (count h) else 0.);
    fr_p50_ms = percentile h 50.;
    fr_p99_ms = percentile h 99.;
    fr_max_ms = max_value h;
    fr_rebuilt = rebuilt;
  }

let scalability results =
  let iops rig spindles =
    List.fold_left
      (fun acc r ->
        if r.c_cell.rig = rig && r.c_cell.spindles = spindles then
          Float.max acc r.c_iops
        else acc)
      0. results
  in
  let widest =
    List.fold_left
      (fun acc r ->
        if r.c_cell.rig = Rig.A_svld then max acc r.c_cell.spindles else acc)
      1 results
  in
  let base = iops Rig.A_svld 1 in
  if base > 0. then iops Rig.A_svld widest /. base else 0.

(* --- the study as jobs, and its report --- *)

type part = Cell of cell_result | Rebuild of rebuild_row

let jobs ?seed ~scale () =
  List.map (fun c -> (cell_label c, fun () -> Cell (run_cell ?seed ~scale c))) (cells ~scale)
  @ List.map
      (fun m ->
        ("rebuild/" ^ rebuild_mode_label m, fun () -> Rebuild (run_rebuild ?seed ~scale m)))
      [ `Healthy; `Throttled; `Blocking ]

let table_of cells =
  let t =
    Table.create ~title:"array: aggregate small-write IOPS (closed loop)"
      ~columns:[ "rig"; "spindles"; "depth"; "iops"; "p50 ms"; "p99 ms" ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [
          Rig.array_to_string c.c_cell.rig;
          string_of_int c.c_cell.spindles;
          string_of_int c.c_cell.depth;
          Table.cell_f ~decimals:0 c.c_iops;
          Table.cell_ms c.c_p50_ms;
          Table.cell_ms c.c_p99_ms;
        ])
    cells;
  t

let report parts =
  let cells = List.filter_map (function Cell c -> Some c | _ -> None) parts in
  let rebuild = List.filter_map (function Rebuild r -> Some r | _ -> None) parts in
  let p99 mode =
    List.fold_left (fun a r -> if r.rb_mode = mode then r.rb_p99_ms else a) 0. rebuild
  in
  let healthy_p99 = p99 "healthy" in
  let within_budget =
    healthy_p99 > 0. && p99 "throttled" <= rebuild_budget *. healthy_p99
  in
  let scale_x = scalability cells in
  let b = Buffer.create 2048 in
  Buffer.add_string b (Table.render (table_of cells));
  Printf.bprintf b "\nscalability: widest striped-VLD = %.1fx single spindle\n" scale_x;
  Buffer.add_string b "\nrebuild interference (2-way VLD mirror, foreground p99):\n";
  List.iter
    (fun rb ->
      Printf.bprintf b "  %-10s p99 %s  mean %s  progress %d%s\n" rb.rb_mode
        (Table.cell_ms rb.rb_p99_ms)
        (Table.cell_ms rb.rb_mean_ms)
        rb.rb_progress
        (if rb.rb_completed then " (rebuilt)" else ""))
    rebuild;
  Printf.bprintf b "  throttled within budget (%.1fx healthy p99): %b\n" rebuild_budget
    within_budget;
  let cell c =
    Json.Obj
      [
        ("rig", String (Rig.array_to_string c.c_cell.rig));
        ("spindles", Int c.c_cell.spindles); ("depth", Int c.c_cell.depth); ("iops", Float c.c_iops); ("n", Int c.c_n);
        ("mean_ms", Float c.c_mean_ms); ("p50_ms", Float c.c_p50_ms);
        ("p99_ms", Float c.c_p99_ms); ("max_ms", Float c.c_max_ms);
      ]
  in
  let mode rb =
    Json.Obj
      [
        ("mode", String rb.rb_mode); ("n", Int rb.rb_n); ("mean_ms", Float rb.rb_mean_ms);
        ("p99_ms", Float rb.rb_p99_ms); ("progress", Int rb.rb_progress);
        ("completed", Bool rb.rb_completed);
      ]
  in
  ( Buffer.contents b,
    Json.Obj
      [
        ("cells", List (List.map cell cells));
        ( "scalability",
          Obj [ ("svld_widest_over_single", Float scale_x); ("criterion_8x", Bool (scale_x >= 8.)) ]
        );
        ( "rebuild",
          Obj
            [
              ("budget_x_healthy_p99", Float rebuild_budget); ("within_budget", Bool within_budget);
              ("modes", List (List.map mode rebuild));
            ] );
      ] )

let fault_report rows =
  let b = Buffer.create 512 in
  Printf.bprintf b "fault-under-load (raid10 2x2 VLD, closed loop, depth %d):\n" fault_depth;
  List.iter
    (fun fr ->
      Printf.bprintf b "  %-14s %6.0f iops  p50 %s  p99 %s  max %s  (%d ok, %d failed%s)\n"
        fr.fr_mode fr.fr_iops
        (Table.cell_ms fr.fr_p50_ms)
        (Table.cell_ms fr.fr_p99_ms)
        (Table.cell_ms fr.fr_max_ms)
        fr.fr_n fr.fr_failed
        (if fr.fr_rebuilt then ", rebuilt" else ""))
    rows;
  let mode fr =
    Json.Obj
      [
        ("mode", String fr.fr_mode); ("n", Int fr.fr_n); ("failed", Int fr.fr_failed);
        ("iops", Float fr.fr_iops); ("mean_ms", Float fr.fr_mean_ms);
        ("p50_ms", Float fr.fr_p50_ms); ("p99_ms", Float fr.fr_p99_ms);
        ("max_ms", Float fr.fr_max_ms); ("rebuilt", Bool fr.fr_rebuilt);
      ]
  in
  ( Buffer.contents b,
    Json.Obj [ ("depth", Int fault_depth); ("modes", List (List.map mode rows)) ] )
