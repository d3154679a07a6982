open Vlog_util

type fs = Ufs | Lfs | Vlfs

let fs_to_string = function Ufs -> "ufs" | Lfs -> "lfs" | Vlfs -> "vlfs"

type cell = { fs : fs; depth : int; policy : Disk.Disk_queue.policy }

let cell_label c =
  Printf.sprintf "%s/%s/d%d" (fs_to_string c.fs)
    (Disk.Disk_queue.policy_to_string c.policy)
    c.depth

type row = {
  load : float;
  rate_ops_s : float;
  throughput_ops_s : float;
  n : int;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
}

type result = {
  r_cell : cell;
  base_ops_s : float;
  sat_ops_s : float;
  rows : row list;
}

let depths = [ 1; 4; 8; 16; 32 ]
let policies = [ Disk.Disk_queue.Fifo; Disk.Disk_queue.Elevator; Disk.Disk_queue.Satf ]

let cells ~scale:_ =
  List.concat_map
    (fun fs ->
      List.concat_map
        (fun policy -> List.map (fun depth -> { fs; depth; policy }) depths)
        policies)
    [ Ufs; Lfs; Vlfs ]

(* Offered-load multipliers of the depth-1 FIFO saturation rate.  The
   top one is far past any cell's capacity, so its row doubles as an
   (open-loop) saturation check. *)
let loads = function
  | Rigs.Quick -> [ 0.8; 8. ]
  | Rigs.Full -> [ 0.5; 0.8; 1.1; 2.; 8. ]

let ops_per_run = function Rigs.Quick -> 60 | Rigs.Full -> 300
let sat_ops = function Rigs.Quick -> 50 | Rigs.Full -> 200
let prefill_fraction = function Rigs.Quick -> 0.25 | Rigs.Full -> 0.4

let block_sectors = 8
let block_bytes = block_sectors * 512

let seed_of ~seed c salt =
  Int64.of_int
    ((0x9D * (seed + 1))
    + (1000 * (match c.fs with Ufs -> 1 | Lfs -> 2 | Vlfs -> 3))
    + (100
      * (match c.policy with
        | Disk.Disk_queue.Fifo -> 1
        | Disk.Disk_queue.Elevator -> 2
        | Disk.Disk_queue.Satf -> 3))
    + (10 * c.depth) + salt)

(* ---- one measured run ------------------------------------------------ *)

(* A rig built fresh per run so every (load) point starts from the same
   state: the queue, and a submit function mapping the i-th request of
   the stream to a tag. *)
type rig = {
  dq : Disk.Disk_queue.t;
  submit_nth : int -> int;
  finish : unit -> unit;  (* post-drain bookkeeping (VLD map commit) *)
}

let make_rig ~scale ~policy ~fs seed =
  let clock = Clock.create () in
  let prng = Prng.create ~seed in
  match fs with
  | Ufs | Lfs ->
    let disk = Disk.Disk_sim.create ~profile:Rigs.seagate ~clock () in
    let dq = Disk.Disk_queue.create ~policy ~disk () in
    let n_blocks =
      Disk.Geometry.total_sectors (Disk.Disk_sim.geometry disk) / block_sectors
    in
    let buf = Bytes.make block_bytes 'q' in
    let submit_nth =
      match fs with
      | Ufs ->
        (* in-place update of a uniformly random block *)
        fun _ ->
          Disk.Disk_queue.submit dq
            (Disk.Disk_queue.Write
               { lba = Prng.int prng n_blocks * block_sectors; buf })
      | Lfs ->
        (* log append: strictly sequential blocks, wrapping *)
        fun i ->
          Disk.Disk_queue.submit dq
            (Disk.Disk_queue.Write { lba = i mod n_blocks * block_sectors; buf })
      | Vlfs -> assert false
    in
    { dq; submit_nth; finish = (fun () -> ()) }
  | Vlfs ->
    let disk = Workload.Rig.drive ~profile:Rigs.seagate ~clock Workload.Rig.D_vld in
    let logical_blocks = Blockdev.Vld.export_blocks (Disk.Disk_sim.geometry disk) in
    let vld = Blockdev.Vld.create ~disk ~logical_blocks ~prng:(Prng.split prng) () in
    (* Bring the device to a realistic utilization before measuring;
       the measured phase overwrites blocks within the filled range. *)
    let filled =
      max 1 (int_of_float (prefill_fraction scale *. float_of_int logical_blocks))
    in
    let buf = Bytes.make block_bytes 'p' in
    for b = 0 to filled - 1 do
      match Blockdev.Vld.write_result vld b buf with
      | Ok _ -> ()
      | Error e ->
        failwith (Format.asprintf "qdepth prefill: %a" Blockdev.Device.pp_io_error e)
    done;
    let q = Blockdev.Vld.Queued.create ~policy vld in
    let wbuf = Bytes.make block_bytes 'q' in
    {
      dq = Blockdev.Vld.Queued.queue q;
      submit_nth =
        (fun _ -> Blockdev.Vld.Queued.submit_write q (Prng.int prng filled) wbuf);
      finish = (fun () -> ignore (Blockdev.Vld.Queued.drain q));
    }

(* Drive [n] requests with the given arrival schedule through the rig's
   queue, admitting from the host backlog whenever the drive holds fewer
   than [depth] tags.  Returns per-request completion latencies (from
   scheduled arrival to completion) and the completion time of the last
   request. *)
let drive rig ~depth ~n ~arrival =
  let clock = Disk.Disk_sim.clock (Disk.Disk_queue.disk rig.dq) in
  let lats = ref [] in
  let last_finish = ref 0. in
  let tag_arrival = Hashtbl.create (4 * depth) in
  let next = ref 0 in
  let record () =
    List.iter
      (fun ((tag, c) : int * Disk.Disk_queue.completion) ->
        (match c.Disk.Disk_queue.outcome with
        | Disk.Disk_queue.Failed e ->
          failwith
            (Printf.sprintf "qdepth: request failed at lba %d"
               e.Disk.Disk_sim.error_lba)
        | Data _ | Wrote _ -> ());
        let arr = Hashtbl.find tag_arrival tag in
        Hashtbl.remove tag_arrival tag;
        lats := (c.Disk.Disk_queue.finished -. arr) :: !lats;
        last_finish := Float.max !last_finish c.Disk.Disk_queue.finished)
      (Disk.Disk_queue.poll rig.dq)
  in
  let admit () =
    while
      !next < n
      && Disk.Disk_queue.pending rig.dq < depth
      && arrival !next <= Clock.now clock
    do
      let i = !next in
      incr next;
      let tag = rig.submit_nth i in
      Hashtbl.replace tag_arrival tag (arrival i)
    done
  in
  while !next < n || Disk.Disk_queue.pending rig.dq > 0 do
    admit ();
    if Disk.Disk_queue.pending rig.dq = 0 then
      (* host and drive both idle: jump to the next arrival *)
      Clock.advance_to clock (arrival !next)
    else begin
      ignore (Disk.Disk_queue.step rig.dq);
      record ()
    end
  done;
  rig.finish ();
  record ();
  (List.rev !lats, !last_finish)

(* Saturation: the whole backlog arrives at once; the achieved rate is
   pure service throughput at this depth and policy. *)
let saturation ~scale ~policy ~fs ~depth seed =
  let rig = make_rig ~scale ~policy ~fs seed in
  let start = Clock.now (Disk.Disk_sim.clock (Disk.Disk_queue.disk rig.dq)) in
  let n = sat_ops scale in
  let _, last = drive rig ~depth ~n ~arrival:(fun _ -> start) in
  float_of_int n /. ((last -. start) /. 1000.)

let run_cell ?(seed = 0) ~scale (c : cell) =
  let base_ops_s =
    saturation ~scale ~policy:Disk.Disk_queue.Fifo ~fs:c.fs ~depth:1
      (seed_of ~seed c 1)
  in
  let sat_ops_s =
    saturation ~scale ~policy:c.policy ~fs:c.fs ~depth:c.depth
      (seed_of ~seed c 1)
  in
  let rows =
    List.map
      (fun load ->
        let rate_ops_s = load *. base_ops_s in
        let rig = make_rig ~scale ~policy:c.policy ~fs:c.fs (seed_of ~seed c 2) in
        let clock = Disk.Disk_sim.clock (Disk.Disk_queue.disk rig.dq) in
        let n = ops_per_run scale in
        let schedule =
          Array.of_list
            (Workload.Open_loop.arrivals
               ~prng:(Prng.create ~seed:(seed_of ~seed c 3))
               ~rate_per_s:rate_ops_s ~start:(Clock.now clock) n)
        in
        let start = Clock.now clock in
        let lats, last =
          drive rig ~depth:c.depth ~n ~arrival:(fun i -> schedule.(i))
        in
        let s = Stats.summarize lats in
        {
          load;
          rate_ops_s;
          throughput_ops_s = float_of_int n /. ((last -. start) /. 1000.);
          n;
          mean_ms = s.Stats.mean;
          p50_ms = s.Stats.p50;
          p99_ms = s.Stats.p99;
          p999_ms = Stats.percentile 0.999 lats;
          max_ms = s.Stats.max;
        })
      (loads scale)
  in
  { r_cell = c; base_ops_s; sat_ops_s; rows }

let table_of results =
  let t =
    Table.create
      ~title:
        "Latency under load: random 4 KB writes, open-loop Poisson arrivals \
         (rates relative to each stream's depth-1 FIFO saturation)"
      ~columns:
        [
          "fs"; "policy"; "depth"; "sat ops/s"; "load"; "tput ops/s"; "p50";
          "p99"; "p999";
        ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun row ->
          Table.add_row t
            [
              fs_to_string r.r_cell.fs;
              Disk.Disk_queue.policy_to_string r.r_cell.policy;
              string_of_int r.r_cell.depth;
              Table.cell_f ~decimals:0 r.sat_ops_s;
              Table.cell_f ~decimals:1 row.load;
              Table.cell_f ~decimals:0 row.throughput_ops_s;
              Table.cell_ms row.p50_ms;
              Table.cell_ms row.p99_ms;
              Table.cell_ms row.p999_ms;
            ])
        r.rows)
    results;
  t

let report results =
  let obj r row =
    Json.Obj
      [
        ("fs", String (fs_to_string r.r_cell.fs));
        ("policy", String (Disk.Disk_queue.policy_to_string r.r_cell.policy));
        ("depth", Int r.r_cell.depth); ("load", Float row.load);
        ("rate_ops_s", Float row.rate_ops_s); ("throughput_ops_s", Float row.throughput_ops_s);
        ("n", Int row.n); ("mean_ms", Float row.mean_ms); ("p50_ms", Float row.p50_ms);
        ("p99_ms", Float row.p99_ms); ("p999_ms", Float row.p999_ms); ("max_ms", Float row.max_ms);
        ("base_ops_s", Float r.base_ops_s); ("sat_ops_s", Float r.sat_ops_s);
      ]
  in
  ( Table.render (table_of results),
    Json.List (List.concat_map (fun r -> List.map (obj r) r.rows) results) )
