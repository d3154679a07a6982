open Vlog_util

type point = { threshold_pct : float; model_ms : float; simulated_ms : float }

(* Fill fresh empty tracks under the threshold policy.  Writes arrive at
   random rotational phases (the model's arrival assumption), so the
   inter-write gap is a uniformly random fraction of a revolution. *)
let simulate profile ~threshold ~writes ~seed =
  let clock = Clock.create () in
  let disk = Disk.Disk_sim.create ~profile ~clock () in
  let g = Disk.Disk_sim.geometry disk in
  let freemap = Vlog.Freemap.create ~profile:(Disk.Disk_sim.profile disk) ~sectors_per_block:1 in
  let prng = Prng.create ~seed in
  let eager =
    Vlog.Eager.create ~mode:Vlog.Eager.Sweep ~switch_free_fraction:threshold ~disk
      ~freemap ()
  in
  Vlog.Eager.rescan_empty_tracks eager;
  let acc = Stats.Acc.create () in
  let payload = Bytes.make g.Disk.Geometry.sector_bytes 'f' in
  let rev = Disk.Profile.revolution_ms profile in
  (try
     for _ = 1 to writes do
       Clock.advance clock (Prng.float prng rev);
       match Vlog.Eager.choose eager with
       | None -> raise Exit
       | Some b ->
         Stats.Acc.add acc (Vlog.Eager.locate_cost eager b);
         Vlog.Freemap.occupy freemap b;
         ignore
           (Disk.Disk_sim.write ~scsi:false disk
              ~lba:(Vlog.Freemap.lba_of_block freemap b)
              payload)
     done
   with Exit -> ());
  Stats.Acc.mean acc

let points_of_scale = function
  | Rigs.Quick -> ([ 10.; 50.; 90. ], 300)
  | Rigs.Full -> ([ 2.; 5.; 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90.; 95. ], 3000)

let series ~scale profile =
  let thresholds, writes = points_of_scale scale in
  List.map
    (fun threshold_pct ->
      let threshold = threshold_pct /. 100. in
      {
        threshold_pct;
        model_ms = Models.Compactor_model.latency_ms profile ~threshold;
        simulated_ms = simulate profile ~threshold ~writes ~seed:78L;
      })
    thresholds

let run ~scale () =
  let t =
    Table.create ~title:"Figure 2: locate latency vs track-switch threshold"
      ~columns:[ "Threshold %"; "HP model"; "HP sim"; "ST model"; "ST sim" ]
  in
  let hp = series ~scale Rigs.hp and sg = series ~scale Rigs.seagate in
  List.iter2
    (fun h s ->
      Table.add_row t
        [
          Table.cell_f ~decimals:0 h.threshold_pct;
          Table.cell_ms h.model_ms;
          Table.cell_ms h.simulated_ms;
          Table.cell_ms s.model_ms;
          Table.cell_ms s.simulated_ms;
        ])
    hp sg;
  t
