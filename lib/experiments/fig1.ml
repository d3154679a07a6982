open Vlog_util

type point = { free_pct : float; model_ms : float; simulated_ms : float }

(* Greedy eager writing at sector granularity under a fixed utilization:
   each trial locates the nearest free sector, writes it, then a random
   occupied sector is freed so the utilization holds steady. *)
let simulate profile ~free_frac ~trials ~seed =
  let clock = Clock.create () in
  let disk = Disk.Disk_sim.create ~profile ~clock () in
  let g = Disk.Disk_sim.geometry disk in
  let freemap = Vlog.Freemap.create ~profile:(Disk.Disk_sim.profile disk) ~sectors_per_block:1 in
  let prng = Prng.create ~seed in
  Vlog.Freemap.random_occupy freemap prng ~utilization:(1. -. free_frac);
  let eager = Vlog.Eager.create ~mode:Vlog.Eager.Nearest ~disk ~freemap () in
  let n_blocks = Vlog.Freemap.n_blocks freemap in
  let release_one_random exclude =
    let rec go attempts =
      if attempts > 10_000 then ()
      else
        let b = Prng.int prng n_blocks in
        if b <> exclude && not (Vlog.Freemap.is_free freemap b) then
          Vlog.Freemap.release freemap b
        else go (attempts + 1)
    in
    go 0
  in
  let acc = Stats.Acc.create () in
  let payload = Bytes.make g.Disk.Geometry.sector_bytes 'e' in
  for _ = 1 to trials do
    match Vlog.Eager.choose ~greedy_only:true eager with
    | None -> ()
    | Some b ->
      Stats.Acc.add acc (Vlog.Eager.locate_cost eager b);
      Vlog.Freemap.occupy freemap b;
      ignore
        (Disk.Disk_sim.write ~scsi:false disk ~lba:(Vlog.Freemap.lba_of_block freemap b)
           payload);
      release_one_random b
  done;
  Stats.Acc.mean acc

let points_of_scale = function
  | Rigs.Quick -> ([ 10.; 40.; 80. ], 60)
  | Rigs.Full -> ([ 2.; 5.; 10.; 15.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90. ], 400)

let series ~scale profile =
  let free_pcts, trials = points_of_scale scale in
  List.map
    (fun free_pct ->
      let p = free_pct /. 100. in
      {
        free_pct;
        model_ms = Models.Cylinder_model.locate_ms profile ~p;
        simulated_ms = simulate profile ~free_frac:p ~trials ~seed:77L;
      })
    free_pcts

let run ~scale () =
  let t =
    Table.create ~title:"Figure 1: time to locate a free sector vs free space"
      ~columns:
        [ "Free %"; "HP model"; "HP sim"; "ST model"; "ST sim" ]
  in
  let hp = series ~scale Rigs.hp and sg = series ~scale Rigs.seagate in
  List.iter2
    (fun h s ->
      Table.add_row t
        [
          Table.cell_f ~decimals:0 h.free_pct;
          Table.cell_ms h.model_ms;
          Table.cell_ms h.simulated_ms;
          Table.cell_ms s.model_ms;
          Table.cell_ms s.simulated_ms;
        ])
    hp sg;
  t
