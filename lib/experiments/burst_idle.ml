open Vlog_util

type study = Lfs_nvram | Ufs_vld

type point = { idle_s : float; latency_ms : float }
type curve = { burst_kb : int; points : point list }

type cell = { c_burst_kb : int; c_idle_s : float }

let title = function
  | Lfs_nvram -> "Figure 10: LFS (with NVRAM) latency vs idle interval"
  | Ufs_vld -> "Figure 11: UFS on VLD latency vs idle interval"

(* Burst sizes (KB) and idle intervals (s). *)
let grid ~scale study =
  match (study, scale) with
  | Lfs_nvram, Rigs.Quick -> ([ 128; 1008 ], [ 0.; 1.; 3. ])
  | Lfs_nvram, Rigs.Full ->
    ([ 128; 256; 504; 1008; 2016; 4032 ], [ 0.; 0.25; 0.5; 1.; 2.; 3.; 5.; 7. ])
  | Ufs_vld, Rigs.Quick -> ([ 128; 1024 ], [ 0.; 0.2; 0.6 ])
  | Ufs_vld, Rigs.Full ->
    ([ 128; 256; 512; 1024; 2048; 4096 ], [ 0.; 0.05; 0.1; 0.2; 0.3; 0.45; 0.6 ])

let bursts_for ~scale study burst_kb =
  let burst_blocks = burst_kb * 1024 / 4096 in
  let runs blocks = (blocks + burst_blocks - 1) / burst_blocks in
  match study with
  | Lfs_nvram ->
    (* Enough bursts that the NVRAM fills (and flushes) several times —
       the steady state the paper measures. *)
    let fills = match scale with Rigs.Quick -> 1.5 | Rigs.Full -> 4. in
    let nvram = Lfs.default_config.buffer_blocks in
    max 8 (min 200 (runs (int_of_float (fills *. float_of_int nvram))))
  | Ufs_vld ->
    (* Enough total updates that the compactor's pre-measurement head
       start is consumed and the steady burst/idle rhythm dominates. *)
    max 8 (min 150 (runs (match scale with Rigs.Quick -> 1000 | Rigs.Full -> 4000)))

let cells ~scale study =
  let burst_sizes, idles_s = grid ~scale study in
  List.concat_map
    (fun burst_kb ->
      List.map (fun idle_s -> { c_burst_kb = burst_kb; c_idle_s = idle_s }) idles_s)
    burst_sizes

let cell_label c = Printf.sprintf "%dK burst, %.2fs idle" c.c_burst_kb c.c_idle_s

(* Coordinate-seeded: the rig comes from a constant seed, so the cell is
   independent of every other cell and safe to run in parallel. *)
let run_cell ~scale study c =
  let s, prng =
    Rigs.rig
      (match study with
      | Lfs_nvram -> { fs = F_lfs; on = D_regular }
      | Ufs_vld -> { fs = F_ufs; on = D_vld })
  in
  let file_mb = Rigs.file_mb_for_utilization s 0.8 in
  let r =
    Workload.Burst.run
      ~bursts:(bursts_for ~scale study c.c_burst_kb)
      ~file_mb ~burst_kb:c.c_burst_kb ~idle_ms:(c.c_idle_s *. 1000.) ~prng s
  in
  { idle_s = c.c_idle_s; latency_ms = r.Workload.Burst.latency_ms_per_block }

let collate results =
  let bursts =
    List.fold_left
      (fun acc (c, _) ->
        if List.mem c.c_burst_kb acc then acc else acc @ [ c.c_burst_kb ])
      [] results
  in
  List.map
    (fun burst_kb ->
      {
        burst_kb;
        points =
          List.filter_map
            (fun (c, p) -> if c.c_burst_kb = burst_kb then Some p else None)
            results;
      })
    bursts

let series ~scale study =
  collate (List.map (fun c -> (c, run_cell ~scale study c)) (cells ~scale study))

let table_of study curves =
  let title = title study in
  match curves with
  | [] -> Table.create ~title ~columns:[ "Idle (s)" ]
  | first :: _ ->
    let t =
      Table.create ~title
        ~columns:
          ("Idle (s)"
          :: List.map (fun c -> Printf.sprintf "%dK" c.burst_kb) curves)
    in
    List.iteri
      (fun i p ->
        Table.add_row t
          (Table.cell_f p.idle_s
          :: List.map (fun c -> Table.cell_ms (List.nth c.points i).latency_ms) curves))
      first.points;
    t
