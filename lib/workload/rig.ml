type fs_kind = F_ufs | F_lfs | F_vlfs

(* Volume rigs put the file system on a [Volume] built over several
   drives; the layout names fix small canonical shapes (mirror = 2-way,
   stripe = 2 groups, raid10 = 2 x 2) so a rig string like
   "ufs/mirror-vld" pins the whole topology. *)
type vol_layout = V_stripe | V_mirror | V_raid10
type vol_leg = VL_regular | VL_vld

(* NVM-WAL rigs put an [Nvm_wal] staging tier in front of the logical
   disk; the backing name says what the destager drains into. *)
type wal_backing = W_regular | W_vld

type dev_kind =
  | D_vld
  | D_regular
  | D_direct
  | D_volume of vol_layout * vol_leg
  | D_nvm of wal_backing

type t = { fs : fs_kind; on : dev_kind }

let fs_name = function F_ufs -> "ufs" | F_lfs -> "lfs" | F_vlfs -> "vlfs"

let dev_name = function
  | D_vld -> "vld"
  | D_regular -> "regular"
  | D_direct -> "direct"
  | D_volume (l, k) ->
    (match l with V_stripe -> "stripe" | V_mirror -> "mirror" | V_raid10 -> "raid10")
    ^ (match k with VL_regular -> "-regular" | VL_vld -> "-vld")
  | D_nvm W_regular -> "nvm-regular"
  | D_nvm W_vld -> "nvm-vld"

let to_string r = fs_name r.fs ^ "/" ^ dev_name r.on

(* The one rule of what the builder can build. *)
let buildable r =
  let family = function
    | D_volume _ -> "volume"
    | D_nvm _ -> "nvm"
    | on -> dev_name on
  in
  match (r.fs, r.on) with
  | F_vlfs, D_direct | (F_ufs | F_lfs), (D_vld | D_regular | D_volume _ | D_nvm _) ->
    Ok ()
  | F_vlfs, on ->
    Error
      (Printf.sprintf "vlfs runs directly on the platters; it has no %s rig" (family on))
  | fs, _ ->
    Error (Printf.sprintf "%s runs on a logical disk; it has no direct rig" (fs_name fs))

let all_devs =
  [ D_vld; D_regular; D_direct; D_nvm W_regular; D_nvm W_vld ]
  @ List.concat_map
      (fun l -> [ D_volume (l, VL_regular); D_volume (l, VL_vld) ])
      [ V_stripe; V_mirror; V_raid10 ]

let of_string s =
  match String.split_on_char '/' s with
  | [ fs; on ] -> (
    match
      ( List.find_opt (fun f -> fs_name f = fs) [ F_ufs; F_lfs; F_vlfs ],
        List.find_opt (fun d -> dev_name d = on) all_devs )
    with
    | Some fs, Some on ->
      let r = { fs; on } in
      Result.map (fun () -> r) (buildable r)
    | _ -> Error (Printf.sprintf "unknown rig %S" s))
  | _ -> Error (Printf.sprintf "unknown rig %S (want fs/dev)" s)

let small_ufs =
  { Ufs.sync_data = true; n_inodes = 64; cache_blocks = 64; readahead_blocks = 2 }

(* ---- The builder ---- *)

type stack = {
  fs : Fs.t;
  dev : Blockdev.Device.t;
  disks : Disk.Disk_sim.t array;
  vld : Blockdev.Vld.t option;
  volume : Volume.t option;
  wal : Nvm.Nvm_wal.t option;
  nvm : Nvm.Nvm_sim.t option;
  notes : (string * int) list;
  clock : Vlog_util.Clock.t;
}

type frozen = { stores : Disk.Sector_store.t array; nvm_image : Bytes.t option }

(* ---- Drives and volumes ---- *)

(* The one buffer rule (Section 4.2): the programmable disk turns its
   track buffer into whole-track read-ahead under a virtual log (a VLD
   or VLD leg, VLFS in the firmware); under a regular disk a drive keeps
   its forward-discard buffer. *)
let leg_drive ?trace ?store ~profile ~clock leg_kind =
  Disk.Disk_sim.create
    ~buffer_policy:
      (match leg_kind with
      | Volume.Vld_leg -> Disk.Track_buffer.Whole_track
      | Volume.Regular_leg -> Disk.Track_buffer.Forward_discard)
    ?trace ?store ~profile ~clock ()

let drive ?trace ?store ~profile ~clock on =
  leg_drive ?trace ?store ~profile ~clock
    (match on with
    | D_vld | D_direct | D_volume (_, VL_vld) | D_nvm W_vld -> Volume.Vld_leg
    | D_regular | D_volume (_, VL_regular) | D_nvm W_regular -> Volume.Regular_leg)

let volume ?trace ?(spare = true) ~profile ~clock ~layout ~leg_kind ~logical_blocks ~prng
    () =
  let mk () = leg_drive ?trace ~profile ~clock leg_kind in
  let disks = Array.init (Volume.n_legs layout) (fun _ -> mk ()) in
  Volume.create ?spare:(if spare then Some mk else None) ~layout ~leg_kind ~logical_blocks
    ~disks ~prng ()

let recover_volume ?(spare = true) ?(arm = ignore) ~profile ~clock ~layout ~leg_kind
    ~logical_blocks ~prng stores =
  let mk ?store () = leg_drive ?store ~profile ~clock leg_kind in
  let disks = Array.map (fun store -> let d = mk ~store () in arm d; d) stores in
  Volume.recover
    ?spare:(if spare then Some (fun () -> mk ()) else None)
    ~layout ~leg_kind ~logical_blocks ~disks ~prng ()

type array_kind = A_svld | A_sreg | A_raid10

let array_to_string = function A_svld -> "svld" | A_sreg -> "sreg" | A_raid10 -> "raid10"

let array_of_string s =
  match List.find_opt (fun a -> array_to_string a = s) [ A_svld; A_sreg; A_raid10 ] with
  | Some a -> Ok a
  | None -> Error (Printf.sprintf "unknown array config %S (svld|sreg|raid10)" s)

let array_shape a ~spindles =
  match a with
  | A_svld -> (Volume.Stripe spindles, Volume.Vld_leg)
  | A_sreg -> (Volume.Stripe spindles, Volume.Regular_leg)
  | A_raid10 -> (Volume.Stripe_of_mirrors (spindles / 2, 2), Volume.Vld_leg)

(* ---- The stack builder ---- *)

let vol_shape = function
  | V_stripe -> Volume.Stripe 2
  | V_mirror -> Volume.Mirror 2
  | V_raid10 -> Volume.Stripe_of_mirrors (2, 2)

let vol_leg_kind = function VL_vld -> Volume.Vld_leg | VL_regular -> Volume.Regular_leg

(* Whether the single-drive device under [on] (the WAL's backing device
   for an NVM rig) is a VLD; everything else is a regular disk. *)
let vld_backed = function D_vld | D_nvm W_vld -> true | _ -> false

let regular ?spare_blocks disk =
  Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk ?spare_blocks ())

let check_buildable who r =
  match buildable r with Ok () -> () | Error e -> invalid_arg (who ^ ": " ^ e)

let format ?(host = Host.free) ?trace ?spare_blocks ?(ufs = Ufs.default_config) ?(lfs = Lfs.default_config) ?(vlfs = Vlfs.default_config)
    ?(wal = Nvm.Nvm_wal.default_config) ~profile ~logical_blocks ~clock ~prng r =
  check_buildable "Rig.format" r;
  let mkfs ~dev ~disk =
    match r.fs with
    | F_ufs -> Fs.Ufs (Ufs.format ~dev ~host ~clock ufs)
    | F_lfs -> Fs.Lfs (Lfs.format ~dev ~host ~clock lfs)
    | F_vlfs -> Fs.Vlfs (Vlfs.format ~disk ~host ~clock vlfs)
  in
  match r.on with
  | D_volume (layout, leg) ->
    let v =
      volume ?trace ~profile ~clock ~layout:(vol_shape layout)
        ~leg_kind:(vol_leg_kind leg) ~logical_blocks ~prng ()
    in
    let dev = Volume.device v and disks = Volume.disks v in
    { fs = mkfs ~dev ~disk:disks.(0); dev; disks; vld = None; volume = Some v;
      wal = None; nvm = None; notes = []; clock }
  | D_vld | D_regular | D_direct | D_nvm _ ->
    let disk = drive ?trace ~profile ~clock r.on in
    let vld =
      if vld_backed r.on then
        Some (Blockdev.Vld.create ~disk ~logical_blocks ~prng ())
      else None
    in
    let inner =
      match vld with Some v -> Blockdev.Vld.device v | None -> regular ?spare_blocks disk
    in
    let nvm, wal =
      match r.on with
      | D_nvm _ ->
        let nvm = Nvm.Nvm_sim.create ?trace ~clock () in
        (Some nvm, Some (Nvm.Nvm_wal.create ~config:wal ~nvm ~inner ()))
      | _ -> (None, None)
    in
    let dev = match wal with Some w -> Nvm.Nvm_wal.device w | None -> inner in
    { fs = mkfs ~dev ~disk; dev; disks = [| disk |]; vld; volume = None; wal; nvm;
      notes = []; clock }

let freeze s =
  let snapshot d = Disk.Sector_store.snapshot (Disk.Disk_sim.store d) in
  {
    stores =
      Array.map snapshot (match s.volume with Some v -> Volume.disks v | None -> s.disks);
    nvm_image = Option.map Nvm.Nvm_sim.snapshot s.nvm;
  }

let recover ?spare_blocks ?(arm = ignore) ?(ufs = Ufs.default_config)
    ?(lfs = Lfs.default_config) ?(vlfs = Vlfs.default_config)
    ?(wal = Nvm.Nvm_wal.default_config) ~profile ~logical_blocks ~clock ~prng r frozen =
  check_buildable "Rig.recover" r;
  let ( let* ) = Result.bind in
  let host = Host.free in
  let mount ~dev ~disk =
    match r.fs with
    | F_ufs -> (
      match Ufs.mount ~dev ~host ~clock ufs with
      | Error e -> Error ("ufs: " ^ e)
      | Ok (t, m) ->
        Ok
          ( Fs.Ufs t,
            [ ("orphans_cleared", m.Ufs.orphans_cleared);
              ("dangling_dropped", m.Ufs.dangling_dropped) ] ))
    | F_lfs -> (
      match Lfs.recover ~dev ~host ~clock lfs with
      | Error e -> Error ("lfs: " ^ e)
      | Ok (t, m) ->
        Ok
          ( Fs.Lfs t,
            [ ("inodes_skipped", m.Lfs.inodes_skipped);
              ("dangling_dropped", m.Lfs.dangling_dropped);
              ("corrupt_items", m.Lfs.corrupt_items) ] ))
    | F_vlfs -> (
      match Vlfs.recover ~disk ~host ~config:vlfs () with
      | Error e -> Error ("vlfs: " ^ e)
      | Ok (t, m) ->
        Ok
          ( Fs.Vlfs t,
            [ ("inodes_skipped", m.Vlfs.inodes_skipped);
              ("dangling_dropped", m.Vlfs.dangling_dropped) ] ))
  in
  match r.on with
  | D_volume (layout, leg) ->
    let* v, _ =
      recover_volume ~arm ~profile ~clock ~layout:(vol_shape layout)
        ~leg_kind:(vol_leg_kind leg) ~logical_blocks ~prng frozen.stores
      |> Result.map_error (( ^ ) "volume recover: ")
    in
    let disks = Volume.disks v in
    (* Finish any rebuild the recovery started for a dead-on-arrival leg
       before the mount: redundancy must be restorable, not just
       restored-in-principle. *)
    Volume.settle v;
    let dev = Volume.device v in
    let* fs, notes = mount ~dev ~disk:disks.(0) in
    Ok { fs; dev; disks; vld = None; volume = Some v; wal = None; nvm = None; notes;
         clock }
  | D_vld | D_regular | D_direct | D_nvm _ ->
    let disk = drive ~store:frozen.stores.(0) ~profile ~clock r.on in
    arm disk;
    let* vld =
      if vld_backed r.on then
        match Blockdev.Vld.recover ~disk ~prng () with
        | Ok (v, _) -> Ok (Some v)
        | Error e -> Error ("vld: " ^ e)
      else Ok None
    in
    let inner =
      match vld with Some v -> Blockdev.Vld.device v | None -> regular ?spare_blocks disk
    in
    let* nvm, wal =
      match (r.on, frozen.nvm_image) with
      | D_nvm _, None -> Error "an nvm rig needs its nvm image"
      | D_nvm _, Some image -> (
        let nvm = Nvm.Nvm_sim.create ~image ~clock () in
        match Nvm.Nvm_wal.recover ~config:wal ~nvm ~inner () with
        | Ok (w, _) -> Ok (Some nvm, Some w)
        | Error e ->
          Error (Format.asprintf "wal replay aborted: %a" Blockdev.Device.pp_io_error e))
      | _ -> Ok (None, None)
    in
    let dev = match wal with Some w -> Nvm.Nvm_wal.device w | None -> inner in
    let* fs, notes = mount ~dev ~disk in
    Ok { fs; dev; disks = [| disk |]; vld; volume = None; wal; nvm; notes; clock }
