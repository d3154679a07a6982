open Vlog_util

type platform = { name : string; profile : Disk.Profile.t; host : Host.t }

let platforms =
  [
    { name = "HP / SPARC"; profile = Rigs.hp; host = Host.sparc10 };
    { name = "Seagate / SPARC"; profile = Rigs.seagate; host = Host.sparc10 };
    { name = "Seagate / UltraSPARC"; profile = Rigs.seagate; host = Host.ultra170 };
  ]

type row = {
  platform : string;
  regular : Workload.Random_update.result;
  vld : Workload.Random_update.result;
  speedup : float;
}

(* The VLD is measured right after a compactor pass (as in the paper);
   keep the measured window small enough that the empty-track supply the
   compactor built is not exhausted mid-measurement. *)
let counts_of_scale = function Rigs.Quick -> (120, 20) | Rigs.Full -> (400, 50)

let series ~scale () =
  let updates, warmup = counts_of_scale scale in
  List.map
    (fun p ->
      let measure on compact_first =
        let s, prng = Rigs.rig ~profile:p.profile ~host:p.host { fs = F_ufs; on } in
        let file_mb = Rigs.file_mb_for_utilization s 0.8 in
        Workload.Random_update.run ~updates ~warmup ~compact_first ~file_mb ~prng s
      in
      let regular = measure D_regular false in
      let vld = measure D_vld true in
      {
        platform = p.name;
        regular;
        vld;
        speedup =
          regular.Workload.Random_update.mean_latency_ms
          /. vld.Workload.Random_update.mean_latency_ms;
      })
    platforms

let table2_of rows =
  let t =
    Table.create
      ~title:"Table 2: update-in-place vs virtual-log speedup across generations"
      ~columns:[ "Platform"; "UFS/regular"; "UFS/VLD"; "Speedup" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.platform;
          Table.cell_ms r.regular.Workload.Random_update.mean_latency_ms;
          Table.cell_ms r.vld.Workload.Random_update.mean_latency_ms;
          Table.cell_x r.speedup;
        ])
    rows;
  t

let fig9_of rows =
  let t =
    Table.create ~title:"Figure 9: latency breakdown (% of total)"
      ~columns:[ "Platform"; "System"; "SCSI"; "Locate"; "Transfer"; "Other"; "Total" ]
  in
  let row platform label (r : Workload.Random_update.result) =
    let s, l, x, o = Breakdown.fractions r.Workload.Random_update.breakdown in
    Table.add_row t
      [
        platform;
        label;
        Table.cell_pct s;
        Table.cell_pct l;
        Table.cell_pct x;
        Table.cell_pct o;
        Table.cell_ms (Breakdown.total r.Workload.Random_update.breakdown);
      ]
  in
  List.iter
    (fun r ->
      row r.platform "update-in-place" r.regular;
      row r.platform "virtual log" r.vld)
    rows;
  t
