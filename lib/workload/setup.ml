open Vlog_util

type fs_choice =
  | UFS of { sync_data : bool }
  | LFS of { buffer_blocks : int }
  | VLFS of { sync_writes : bool }

type dev_choice = Regular | VLD

type t = {
  label : string;
  clock : Clock.t;
  disk : Disk.Disk_sim.t;
  dev : Blockdev.Device.t;
  fs : Fs.t;
  vld : Blockdev.Vld.t option;
  prng : Prng.t;
}

let exn = function
  | Ok v -> v
  | Error e -> failwith (Format.asprintf "file system error: %a" Blockdev.Fs_error.pp e)

let make ?(seed = 0xC0FFEEL) ?cylinders ?(vld_eager_mode = Vlog.Eager.Sweep)
    ?(vld_compaction = Vlog.Compactor.Random_target) ?(trace = false) ~profile ~host ~fs
    ~dev () =
  let profile =
    match cylinders with
    | Some c -> Disk.Profile.with_cylinders profile c
    | None -> profile
  in
  let clock = Clock.create () in
  let trace = if trace then Trace.create ~clock () else Trace.null in
  let prng = Prng.create ~seed in
  let on, dev_label =
    match dev with Regular -> (Rig.D_regular, "regular") | VLD -> (Rig.D_vld, "vld")
  in
  let format ?ufs ?lfs ?vlfs spec =
    Rig.format ~host ~trace ~vld_eager_mode ~vld_compaction ?ufs ?lfs ?vlfs ~profile
      ~logical_blocks:(Blockdev.Vld.export_blocks profile.Disk.Profile.geometry)
      ~clock
      (* Only a VLD draws from the generator it is given; the workloads
         split theirs from [prng] afterwards. *)
      ~prng:(if spec.Rig.on = Rig.D_vld then Prng.split prng else prng)
      spec
  in
  let s, label =
    match fs with
    | UFS { sync_data } ->
      ( format ~ufs:{ Ufs.default_config with sync_data } { fs = F_ufs; on },
        "UFS/" ^ dev_label )
    | LFS { buffer_blocks } ->
      ( format ~lfs:{ Lfs.default_config with buffer_blocks } { fs = F_lfs; on },
        "LFS/" ^ dev_label )
    | VLFS { sync_writes } ->
      (* VLFS is the disk's firmware: the [dev] choice does not apply. *)
      ( format
          ~vlfs:{ Vlfs.default_config with Vlfs.sync_writes }
          { fs = F_vlfs; on = D_direct },
        if sync_writes then "VLFS" else "VLFS/buffered" )
  in
  { label; clock; disk = s.disks.(0); dev = s.dev; fs = s.fs; vld = s.vld; prng }

let trace t = Disk.Disk_sim.trace t.disk

let elapsed t f =
  let t0 = Clock.now t.clock in
  let v = f () in
  (v, Clock.now t.clock -. t0)
