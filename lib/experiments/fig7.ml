open Vlog_util

type row = { label : string; phases : Workload.Large_file.result }

let series ~scale () =
  let mb = match scale with Rigs.Quick -> 2 | Rigs.Full -> 10 in
  List.map
    (fun (label, (spec : Workload.Rig.t)) ->
      let s, prng = Rigs.rig spec in
      let sync_phase = spec.fs = F_ufs in
      { label; phases = Workload.Large_file.run ~mb ~sync_phase ~prng s })
    Rigs.the_four

let all_phases =
  Workload.Large_file.
    [ Seq_write; Seq_read; Random_write_async; Random_write_sync; Seq_read_again; Random_read ]

let run ~scale () =
  let rows = series ~scale () in
  let t =
    Table.create ~title:"Figure 7: large-file bandwidth (MB/s)"
      ~columns:("Phase" :: List.map (fun r -> r.label) rows)
  in
  List.iter
    (fun phase ->
      let cells =
        List.map
          (fun r ->
            match List.assoc_opt phase r.phases with
            | Some bw -> Table.cell_f bw
            | None -> "-")
          rows
      in
      Table.add_row t (Workload.Large_file.phase_name phase :: cells))
    all_phases;
  t
