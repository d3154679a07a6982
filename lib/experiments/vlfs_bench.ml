open Vlog_util

let counts_of_scale = function Rigs.Quick -> (100, 20) | Rigs.Full -> (600, 60)

let sync_updates ~scale () =
  let updates, warmup = counts_of_scale scale in
  let t =
    Table.create
      ~title:"VLFS: random 4 KB synchronous updates (the paper's speculation)"
      ~columns:[ "Utilization"; "System"; "Latency/4KB" ]
  in
  let configs =
    Workload.Rig.
      [
        ("UFS on regular disk", { fs = F_ufs; on = D_regular });
        ("UFS on VLD", { fs = F_ufs; on = D_vld });
        ("VLFS (sync)", { fs = F_vlfs; on = D_direct });
      ]
  in
  List.iter
    (fun target ->
      List.iter
        (fun (label, spec) ->
          let s, prng = Rigs.rig spec in
          let file_mb = Rigs.file_mb_for_utilization s target in
          let compact_first = label <> "UFS on regular disk" in
          let r =
            Workload.Random_update.run ~updates ~warmup ~compact_first ~file_mb ~prng s
          in
          Table.add_row t
            [
              Table.cell_pct r.Workload.Random_update.utilization;
              label;
              Table.cell_ms r.Workload.Random_update.mean_latency_ms;
            ])
        configs)
    [ 0.5; 0.8 ];
  t

let buffered_small_files ~scale () =
  let files = match scale with Rigs.Quick -> 150 | Rigs.Full -> 1500 in
  let t =
    Table.create ~title:"VLFS: buffered small-file workload (LFS's advantage retained)"
      ~columns:[ "System"; "create ms"; "read ms"; "delete ms" ]
  in
  List.iter
    (fun (label, spec, vlfs) ->
      let r = Workload.Small_file.run ~files (fst (Rigs.rig ?vlfs spec)) in
      Table.add_row t
        [
          label;
          Table.cell_f r.Workload.Small_file.create_ms;
          Table.cell_f r.Workload.Small_file.read_ms;
          Table.cell_f r.Workload.Small_file.delete_ms;
        ])
    Workload.Rig.
      [
        ("UFS/regular (baseline)", { fs = F_ufs; on = D_regular }, None);
        ("LFS (buffered)", { fs = F_lfs; on = D_regular }, None);
        ("VLFS (buffered)", { fs = F_vlfs; on = D_direct }, Some Rigs.buffered_vlfs);
      ];
  t

let recovery_cost ~scale () =
  let files = match scale with Rigs.Quick -> 50 | Rigs.Full -> 400 in
  let run_once ~clean =
    let s, _ = Rigs.rig Workload.Rig.{ fs = F_vlfs; on = D_direct } in
    for i = 0 to files - 1 do
      let name = Printf.sprintf "r%04d" i in
      (match Workload.Fs.create s.fs name with Ok _ -> () | Error _ -> ());
      match Workload.Fs.write s.fs name ~off:0 (Bytes.make 8192 'r') with
      | Ok _ | Error _ -> ()
    done;
    if clean then Workload.Fs.shutdown s.fs else ignore (Workload.Fs.sync s.fs);
    (* recover from the drive exactly as the run left it *)
    match Vlfs.recover ~disk:s.disks.(0) ~host:Rigs.default_host () with
    | Ok (_, report) -> report
    | Error e -> failwith e
  in
  let t =
    Table.create ~title:"VLFS: recovery cost (tail record vs scan fallback)"
      ~columns:[ "Shutdown"; "Map recovery"; "Inodes loaded"; "Total" ]
  in
  let row label (r : Vlfs.recovery_report) =
    let path =
      if r.Vlfs.vlog_report.Vlog.Virtual_log.used_tail then
        Printf.sprintf "tail, %d node reads" r.Vlfs.vlog_report.Vlog.Virtual_log.nodes_read
      else
        Printf.sprintf "scan, %d blocks"
          r.Vlfs.vlog_report.Vlog.Virtual_log.blocks_scanned
    in
    Table.add_row t
      [
        label;
        path;
        string_of_int r.Vlfs.inodes_loaded;
        Table.cell_ms (Breakdown.total r.Vlfs.duration);
      ]
  in
  row "clean power-down" (run_once ~clean:true);
  row "crash" (run_once ~clean:false);
  t
