open Vlog_util

type row = {
  label : string;
  create_x : float;
  read_x : float;
  delete_x : float;
  raw : Workload.Small_file.result;
}

let series ~scale () =
  let files = match scale with Rigs.Quick -> 150 | Rigs.Full -> 1500 in
  let results =
    List.map
      (fun (label, spec) -> (label, Workload.Small_file.run ~files (fst (Rigs.rig spec))))
      Rigs.the_four
  in
  let baseline = List.assoc "UFS/regular" results in
  List.map
    (fun (label, raw) ->
      let create_x, read_x, delete_x = Workload.Small_file.normalize ~baseline raw in
      { label; create_x; read_x; delete_x; raw })
    results

let run ~scale () =
  let t =
    Table.create
      ~title:"Figure 6: small-file performance (speedup vs UFS/regular)"
      ~columns:[ "System"; "Create"; "Read"; "Delete"; "create ms"; "read ms"; "delete ms" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.label;
          Table.cell_x r.create_x;
          Table.cell_x r.read_x;
          Table.cell_x r.delete_x;
          Table.cell_f r.raw.Workload.Small_file.create_ms;
          Table.cell_f r.raw.Workload.Small_file.read_ms;
          Table.cell_f r.raw.Workload.Small_file.delete_ms;
        ])
    (series ~scale ());
  t
