open Vlog_util

let run ~scale:_ () =
  let t =
    Table.create ~title:"Table 1: Disk parameters"
      ~columns:[ "Parameter"; "HP97560"; "ST19101" ]
  in
  let hp = Rigs.hp and sg = Rigs.seagate in
  let geom p = p.Disk.Profile.geometry in
  Table.add_row t
    [
      "Sectors per Track (n)";
      string_of_int (geom hp).Disk.Geometry.sectors_per_track;
      string_of_int (geom sg).Disk.Geometry.sectors_per_track;
    ];
  Table.add_row t
    [
      "Tracks per Cylinder (t)";
      string_of_int (geom hp).Disk.Geometry.tracks_per_cylinder;
      string_of_int (geom sg).Disk.Geometry.tracks_per_cylinder;
    ];
  Table.add_row t
    [
      "Head Switch (s)";
      Table.cell_ms hp.Disk.Profile.head_switch_ms;
      Table.cell_ms sg.Disk.Profile.head_switch_ms;
    ];
  Table.add_row t
    [
      "Minimum Seek";
      Table.cell_ms hp.Disk.Profile.seek_min_ms;
      Table.cell_ms sg.Disk.Profile.seek_min_ms;
    ];
  Table.add_row t
    [
      "Rotation Speed (RPM)";
      Printf.sprintf "%.0f" hp.Disk.Profile.rpm;
      Printf.sprintf "%.0f" sg.Disk.Profile.rpm;
    ];
  Table.add_row t
    [
      "SCSI Overhead (o)";
      Table.cell_ms hp.Disk.Profile.scsi_overhead_ms;
      Table.cell_ms sg.Disk.Profile.scsi_overhead_ms;
    ];
  Table.add_row t
    [
      "Simulated Cylinders";
      string_of_int (geom hp).Disk.Geometry.cylinders;
      string_of_int (geom sg).Disk.Geometry.cylinders;
    ];
  t
