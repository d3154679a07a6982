(* The repository benchmark: runs one workload for a given number of host
   seconds, prints every metric by name with its unit, and ends with one
   JSON line {correct, attempted, failed, metrics}.

     perfbench.exe --workload update-vld --seed 1 --seconds 10 --trace 0

   A run repeats the workload's pass (set-up, measured phase, read-back)
   until [--seconds] have passed, at least three times.  Simulated
   metrics must repeat bit for bit across passes; host metrics are
   medians over passes.  With [--trace 1] passes alternate between
   untraced and traced, the JSON carries the per-layer metrics, and the
   simulated numbers of both kinds of pass must agree exactly. *)

(* The end-to-end metrics of the JSON line; BENCHMARK.json gives each
   its bound. *)
let end_to_end =
  [
    ("sim_write_mean_ms", "ms", "lower");
    ("sim_read_p50_ms", "ms", "lower");
    ("sim_read_p99_ms", "ms", "lower");
    ("sim_scan_mb_s", "MB/s", "higher");
    ("sim_iops", "1/s", "higher");
    ("host_ops_s", "1/s", "higher");
    ("alloc_words_per_op", "words", "lower");
    ("major_words_per_op", "words", "lower");
    ("peak_heap_mb", "MB", "lower");
    ("setup_s", "s", "lower");
  ]

(* Printed by name on every run but left out of the JSON line.  Write
   percentiles are the same for every seed on burst-idle-lfs: a write
   there costs the fixed host charge unless it lands on a buffer-full
   flush, and the number of those per pass is set by the buffer size, not
   by the seed — a bound on a figure that cannot vary would be
   meaningless.  [failed_op_ratio] is 0 on every correct run; the JSON
   carries it as [failed]/[attempted]. *)
let printed_only =
  [
    ("sim_write_p50_ms", "ms", "lower");
    ("sim_write_p99_ms", "ms", "lower");
    ("failed_op_ratio", "ratio", "lower");
  ]

let per_layer =
  [
    ("fs.write.host_us", "us", "lower");
    ("fs.write.self_host_us", "us", "lower");
    ("fs.read.host_us", "us", "lower");
    ("fs.idle.host_ms_per_s", "ms/s", "lower");
    ("lfs.segments_cleaned_per_kop", "count", "lower");
    ("lfs.blocks_copied_per_op", "count", "lower");
    ("lfs.forced_cleans", "count", "lower");
    ("blockdev.writes_per_op", "count", "lower");
    ("blockdev.reads_per_op", "count", "lower");
    ("blockdev.write.host_us", "us", "lower");
    ("blockdev.read.host_us", "us", "lower");
    ("blockdev.write.sim_ms", "ms", "lower");
    ("blockdev.read.sim_ms", "ms", "lower");
    ("blockdev.idle.host_ms_per_s", "ms/s", "lower");
    ("blockdev.retries", "count", "lower");
    ("vlog.map_writes_per_op", "count", "lower");
    ("vlog.checkpoints_per_kop", "count", "lower");
    ("vlog.compactor.blocks_moved_per_idle_s", "1/s", "higher");
    ("vlog.compactor.tracks_per_kblock_moved", "count", "higher");
    ("vlog.compactor.busy_frac", "ratio", "lower");
    ("disk.writes_per_op", "count", "lower");
    ("disk.sectors_written_per_user_sector", "ratio", "lower");
    ("disk.reads_per_op", "count", "lower");
    ("disk.buffer_hit_ratio", "ratio", "higher");
    ("disk.busy_frac", "ratio", "lower");
    ("disk.locate_ms_per_op", "ms", "lower");
    ("disk.transfer_ms_per_op", "ms", "lower");
    ("disk.scsi_ms_per_op", "ms", "lower");
    ("disk.other_ms_per_op", "ms", "lower");
    ("volume.batch.host_us", "us", "lower");
    ("volume.leg_busy_frac", "ratio", "higher");
    ("volume.leg_busy_imbalance", "ratio", "lower");
    ("disk_queue.cmd_p50_ms", "ms", "lower");
    ("disk_queue.cmd_p99_ms", "ms", "lower");
    ("disk_queue.wait_ms_per_cmd", "ms", "lower");
    ("gc.minor_collections_per_kop", "count", "lower");
    ("gc.major_collections_per_kop", "count", "lower");
    ("trace.overhead_frac", "ratio", "lower");
  ]

let min_passes = 3

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let same_bits a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n, x) (m, y) ->
         String.equal n m && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let usage () =
  prerr_endline
    ("usage: perfbench --workload {" ^ String.concat "|" Workloads.names
   ^ "} --seed N --seconds S --trace {0|1}");
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := w;
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string_opt s;
      go rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload Workloads.names && seconds > 0. ->
    (!workload, seed, seconds, trace)
  | _ -> usage ()

let () =
  let workload, seed, seconds, trace = parse_args () in
  let start = Meter.wall () in
  (* Traced runs alternate untraced and traced passes, starting untraced,
     so both kinds see the same host conditions. *)
  let rec loop i acc =
    let traced = trace && i mod 2 = 1 in
    let acc = (traced, Workloads.run workload ~seed ~traced) :: acc in
    let need = if trace then 2 * min_passes else min_passes in
    if i + 1 < need || Meter.wall () -. start < seconds then loop (i + 1) acc
    else List.rev acc
  in
  let passes = loop 0 [] in
  let plain = List.filter_map (fun (t, p) -> if t then None else Some p) passes in
  let traced = List.filter_map (fun (t, p) -> if t then Some p else None) passes in
  let first = List.hd plain in
  let ops_s (p : Workloads.pass) = float_of_int p.ops /. p.host_s in
  let host_ops_s = median (List.map ops_s plain) in
  let sim_repeats =
    List.for_all (fun (_, (p : Workloads.pass)) -> same_bits p.sim first.sim) passes
  in
  let total f = List.fold_left (fun n (_, p) -> n + f p) 0 passes in
  let attempted = total (fun (p : Workloads.pass) -> p.attempted) in
  let failed = total (fun (p : Workloads.pass) -> p.failed) in
  let violations =
    List.sort_uniq String.compare
      (List.concat_map (fun (_, (p : Workloads.pass)) -> p.violations) passes)
  in
  let e2e =
    first.sim
    @ [
        ("failed_op_ratio", float_of_int failed /. float_of_int (max 1 attempted));
        ("host_ops_s", host_ops_s);
        (* Library state warmed by earlier passes shifts later passes'
           allocation slightly, so the first pass is the one that repeats
           from run to run. *)
        ("alloc_words_per_op", first.alloc_per_op);
        ("major_words_per_op", first.major_per_op);
        ("peak_heap_mb", Meter.peak_heap_mb ());
        ("setup_s", median (List.map (fun (p : Workloads.pass) -> p.setup_s) plain));
      ]
  in
  let layers =
    if not trace then []
    else
      List.map
        (fun (name, _, _) ->
          if name = "trace.overhead_frac" then
            (name, 1. -. (median (List.map ops_s traced) /. host_ops_s))
          else
            let value (p : Workloads.pass) = List.assoc name p.layers in
            (name, median (List.map value traced)))
        per_layer
  in
  let reported =
    if trace then layers
    else List.map (fun (name, _, _) -> (name, List.assoc name e2e)) end_to_end
  in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) reported in
  let correct = failed = 0 && violations = [] && sim_repeats && finite in
  Printf.printf "workload %s seed %d passes %d (%d traced) seconds %.1f\n" workload seed
    (List.length passes) (List.length traced) (Meter.wall () -. start);
  List.iter (fun (k, v) -> Printf.printf "note %s %g\n" k v) first.notes;
  Printf.printf "note pass_host_ops_s %s\n"
    (String.concat " "
       (List.map
          (fun (t, p) -> Printf.sprintf "%s%.0f" (if t then "T" else "") (ops_s p))
          passes));
  let show table (name, v) =
    let _, unit, better = List.find (fun (n, _, _) -> n = name) table in
    Printf.printf "metric %-42s %14.6g %-6s (%s is better)\n" name v unit better
  in
  List.iter (show (end_to_end @ printed_only)) e2e;
  List.iter (show per_layer) layers;
  Printf.printf "check sim metrics repeat across passes: %b\n" sim_repeats;
  List.iter (fun v -> Printf.printf "violation %s\n" v) violations;
  Option.iter (Printf.printf "error %s\n")
    (List.find_map (fun (_, (p : Workloads.pass)) -> p.first_error) passes);
  let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let unit_of name =
    let _, u, _ = List.find (fun (n, _, _) -> n = name) (end_to_end @ per_layer) in
    u
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v)
              (unit_of name))
          reported));
  exit (if correct then 0 else 1)
