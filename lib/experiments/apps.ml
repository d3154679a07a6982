open Vlog_util

let systems =
  Workload.Rig.
    [
      ("UFS/regular", { fs = F_ufs; on = D_regular }, None);
      ("UFS/VLD", { fs = F_ufs; on = D_vld }, None);
      ("LFS (buffered)", { fs = F_lfs; on = D_regular }, None);
      ("VLFS (sync)", { fs = F_vlfs; on = D_direct }, None);
      ("VLFS (buffered)", { fs = F_vlfs; on = D_direct }, Some Rigs.buffered_vlfs);
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
    (fun (label, spec, vlfs) ->
      let txn =
        let s, prng = Rigs.rig ~seed:0xA11L ?vlfs spec in
        Workload.App_workloads.tpcb ~transactions ~prng s
      in
      let churn =
        let s, prng = Rigs.rig ~seed:0xA12L ?vlfs spec in
        Workload.App_workloads.postmark ~operations ~prng s
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
