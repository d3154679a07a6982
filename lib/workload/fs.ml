open Vlog_util

type t = Ufs of Ufs.t | Lfs of Lfs.t | Vlfs of Vlfs.t

type 'a r = ('a, Blockdev.Fs_error.t) result

let exn = function
  | Ok v -> v
  | Error e -> failwith (Format.asprintf "file system error: %a" Blockdev.Fs_error.pp e)

let create fs name =
  match fs with
  | Ufs t -> Ufs.create t name
  | Lfs t -> Lfs.create t name
  | Vlfs t -> Vlfs.create t name

let write fs name ~off data =
  match fs with
  | Ufs t -> Ufs.write t name ~off data
  | Lfs t -> Lfs.write t name ~off data
  | Vlfs t -> Vlfs.write t name ~off data

let read fs name ~off ~len =
  match fs with
  | Ufs t -> Ufs.read t name ~off ~len
  | Lfs t -> Lfs.read t name ~off ~len
  | Vlfs t -> Vlfs.read t name ~off ~len

let delete fs name =
  match fs with
  | Ufs t -> Ufs.delete t name
  | Lfs t -> Lfs.delete t name
  | Vlfs t -> Vlfs.delete t name

let sync = function Ufs t -> Ufs.sync t | Lfs t -> Lfs.sync t | Vlfs t -> Vlfs.sync t

let shutdown = function
  | Ufs t -> ignore (Ufs.sync t)
  | Lfs t -> ignore (Lfs.power_down t)
  | Vlfs t -> ignore (Vlfs.power_down t)

let idle fs ~clock dt =
  let until = Clock.now clock +. dt in
  match fs with
  | Ufs t -> Blockdev.Device.advance_idle ~clock (Ufs.device t) dt
  | Lfs t ->
    ignore (Lfs.idle_work t ~deadline:until);
    (* Whatever time remains goes to the device (VLD compaction). *)
    let remaining = until -. Clock.now clock in
    if remaining > 0. then Blockdev.Device.advance_idle ~clock (Lfs.device t) remaining
    else Clock.advance_to clock until
  | Vlfs t ->
    Vlfs.idle t dt;
    Clock.advance_to clock until

let drop_caches = function
  | Ufs t -> Ufs.drop_caches t
  | Lfs t -> Lfs.drop_caches t
  | Vlfs t -> Vlfs.drop_caches t

let files = function Ufs t -> Ufs.files t | Lfs t -> Lfs.files t | Vlfs t -> Vlfs.files t

let size fs name =
  match fs with
  | Ufs t -> Ufs.file_size t name
  | Lfs t -> Lfs.file_size t name
  | Vlfs t -> Vlfs.file_size t name

let mode = function Ufs t -> Ufs.mode t | Lfs t -> Lfs.mode t | Vlfs t -> Vlfs.mode t

let utilization = function
  | Ufs t -> Ufs.utilization t
  | Lfs t -> Lfs.utilization t
  | Vlfs t -> Vlfs.utilization t

let block_bytes = function
  | Ufs t -> Ufs.block_bytes t
  | Lfs t -> Lfs.block_bytes t
  | Vlfs t -> Vlog.Virtual_log.block_bytes (Vlfs.vlog t)

let sync_each = function
  | Ufs t -> (Ufs.config t).Ufs.sync_data
  | Lfs _ -> false
  | Vlfs t -> (Vlfs.config t).Vlfs.sync_writes
