open Vlog_util

let systems =
  [
    ("UFS/regular", Workload.Setup.UFS { sync_data = true }, Workload.Setup.Regular);
    ("UFS/VLD", Workload.Setup.UFS { sync_data = true }, Workload.Setup.VLD);
    ( "LFS (buffered)",
      Workload.Setup.LFS { buffer_blocks = Rigs.nvram_blocks },
      Workload.Setup.Regular );
    ("VLFS (sync)", Workload.Setup.VLFS { sync_writes = true }, Workload.Setup.Regular);
    ("VLFS (buffered)", Workload.Setup.VLFS { sync_writes = false }, Workload.Setup.Regular);
  ]

let run ~scale () =
  let transactions, operations =
    match scale with Rigs.Quick -> (60, 400) | Rigs.Full -> (300, 2000)
  in
  let t =
    Table.create ~title:"Application workloads across all five systems"
      ~columns:
        [ "System"; "TPC-B mean"; "TPC-B p90"; "Postmark ops/s" ]
  in
  List.iter
    (fun (label, fs, dev) ->
      let txn =
        Workload.App_workloads.tpcb ~transactions (Rigs.rig ~seed:0xA11L ~fs ~dev ())
      in
      let churn =
        Workload.App_workloads.postmark ~operations (Rigs.rig ~seed:0xA12L ~fs ~dev ())
      in
      Table.add_row t
        [
          label;
          Table.cell_ms txn.Workload.App_workloads.mean_ms;
          Table.cell_ms txn.Workload.App_workloads.p90_ms;
          Table.cell_f churn.Workload.App_workloads.ops_per_sec;
        ])
    systems;
  t
