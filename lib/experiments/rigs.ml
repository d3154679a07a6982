open Vlog_util

type scale = Quick | Full

let seagate = Disk.Profile.st19101
let hp = Disk.Profile.hp97560
let default_host = Host.sparc10
let buffered_vlfs = { Vlfs.default_config with Vlfs.sync_writes = false }

let rig ?(seed = 0x5EEDL) ?(profile = seagate) ?(host = default_host) ?(trace = false)
    ?lfs ?vlfs (spec : Workload.Rig.t) =
  let clock = Clock.create () in
  let trace = if trace then Trace.create ~clock () else Trace.null in
  let prng = Prng.create ~seed in
  let s =
    Workload.Rig.format ~host ~trace ?lfs ?vlfs ~profile
      ~logical_blocks:(Blockdev.Vld.export_blocks profile.Disk.Profile.geometry)
      ~clock
      (* Only a VLD draws from the generator it is given; the workloads
         split theirs from [prng] afterwards. *)
      ~prng:(if spec.on = D_vld then Prng.split prng else prng)
      spec
  in
  (s, prng)

let the_four =
  Workload.Rig.
    [
      ("UFS/regular", { fs = F_ufs; on = D_regular });
      ("UFS/VLD", { fs = F_ufs; on = D_vld });
      ("LFS/regular", { fs = F_lfs; on = D_regular });
      ("LFS/VLD", { fs = F_lfs; on = D_vld });
    ]

let device_mb (s : Workload.Rig.stack) =
  float_of_int (s.dev.Blockdev.Device.n_blocks * s.dev.Blockdev.Device.block_bytes)
  /. 1048576.

let file_mb_for_utilization s target =
  if target <= 0. || target >= 1. then
    invalid_arg "Rigs.file_mb_for_utilization: target must be in (0,1)";
  (* Leave a little room for metadata (inode table, segment summaries). *)
  Float.max 0.5 ((target -. 0.03) *. device_mb s)
