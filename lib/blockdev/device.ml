type io_error = {
  op : [ `Read | `Write ];
  block : int;
  error_lba : int;
  retries : int;
}

exception Io_error of io_error

let pp_io_error ppf e =
  Format.fprintf ppf "%s error at logical block %d (lba %d, %d retries)"
    (match e.op with `Read -> "read" | `Write -> "write")
    e.block e.error_lba e.retries

let parse_io_error s =
  match
    Scanf.sscanf s "%s@ error at logical block %d (lba %d, %d retries)"
      (fun op block error_lba retries -> (op, block, error_lba, retries))
  with
  | "read", block, error_lba, retries ->
    Some { op = `Read; block; error_lba; retries }
  | "write", block, error_lba, retries ->
    Some { op = `Write; block; error_lba; retries }
  | _ -> None
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

(* The helpers every implementation's retry loop needs, hoisted here so
   regular_disk / vld / volume stop duplicating them. *)

let err ~op ~block ~(e : Disk.Disk_sim.media_error) ~retries =
  { op; block; error_lba = e.Disk.Disk_sim.error_lba; retries }

let retry_counters attempts =
  if attempts > 0 then [ ("retries", attempts) ] else []

let span tr name block count =
  if Trace.enabled tr then
    Trace.enter tr
      ~attrs:[ ("block", string_of_int block); ("count", string_of_int count) ]
      name
  else Vlog_util.Io.no_span

(* One attempt per call, the cost so far carried in [bd]: no closure and
   no ref, so the read path allocates nothing of its own. *)
let rec read_attempt disk ~span ~block ~lba ~sectors buf ~pos ~bd attempts =
  let r, cost =
    Disk.Disk_sim.read_checked_into ~scsi:(attempts = 0) disk ~lba ~sectors buf ~pos
  in
  let bd = Vlog_util.Breakdown.add bd cost in
  match r with
  | Ok () ->
    let tr = Disk.Disk_sim.trace disk in
    if attempts > 0 then Trace.incr tr ~by:attempts "dev.read_retries";
    Trace.exit tr ~bd span;
    Ok (Vlog_util.Io.make ~span ~counters:(retry_counters attempts) bd)
  | Error e when e.Disk.Disk_sim.transient && attempts < Disk.Disk_sim.max_retries ->
    read_attempt disk ~span ~block ~lba ~sectors buf ~pos ~bd (attempts + 1)
  | Error e ->
    let tr = Disk.Disk_sim.trace disk in
    if attempts > 0 then Trace.incr tr ~by:attempts "dev.failed_retries";
    Trace.exit tr ~bd span;
    Error (err ~op:`Read ~block ~e ~retries:attempts)

let read_retrying disk ~span ~block ~lba ~sectors buf ~pos =
  read_attempt disk ~span ~block ~lba ~sectors buf ~pos ~bd:Vlog_util.Breakdown.zero 0

let check_window ~block_bytes count buf ~pos =
  if pos < 0 || pos + (count * block_bytes) > Bytes.length buf then
    invalid_arg "Device.read_into: buffer window out of bounds"

let merge_counters a b =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some prev -> (k, prev + v) :: List.remove_assoc k acc
      | None -> (k, v) :: acc)
    a b

type req =
  | Read of int
  | Read_run of int * int
  | Read_into of int * int * Bytes.t * int
  | Write of int * Bytes.t
  | Write_run of int * Bytes.t

type reply =
  | Data of Bytes.t * Vlog_util.Io.completion
  | Done of Vlog_util.Io.completion

type ack = (reply, io_error) result

type t = {
  name : string;
  block_bytes : int;
  n_blocks : int;
  trace : Trace.sink;
  read : int -> (Bytes.t * Vlog_util.Io.completion, io_error) result;
  read_run : int -> int -> (Bytes.t * Vlog_util.Io.completion, io_error) result;
  read_into :
    int -> int -> Bytes.t -> pos:int -> (Vlog_util.Io.completion, io_error) result;
  write : int -> Bytes.t -> (Vlog_util.Io.completion, io_error) result;
  write_run : int -> Bytes.t -> (Vlog_util.Io.completion, io_error) result;
  submit : req -> int;
  poll : unit -> (int * ack) list;
  drain : unit -> (int * ack) list;
  trim : int -> unit;
  idle : float -> unit;
  utilization : unit -> float;
}

(* The host-side FIFO queue adapter: submissions accumulate, [drain]
   services them in submission order through [serve], [poll] hands the
   acks over exactly once.  Because service happens at the barrier in
   FIFO order, submit-then-drain of a single request is byte-identical
   to calling the synchronous closure directly — which is how the
   raising wrappers below are derived.  Devices with a genuinely
   reordering drive queue (the VLD) expose that separately. *)
let fifo serve =
  let next = ref 0 in
  let backlog = ref [] (* newest first *) in
  let acked = ref [] (* newest first *) in
  let submit req =
    let tag = !next in
    incr next;
    backlog := (tag, req) :: !backlog;
    tag
  in
  let poll () =
    let out = List.rev !acked in
    acked := [];
    out
  in
  let drain () =
    List.iter (fun (tag, req) -> acked := (tag, serve req) :: !acked) (List.rev !backlog);
    backlog := [];
    poll ()
  in
  (submit, poll, drain)

let serve ~read ~read_run ~read_into ~write ~write_run = function
  | Read b -> Result.map (fun (d, c) -> Data (d, c)) (read b)
  | Read_run (b, n) -> Result.map (fun (d, c) -> Data (d, c)) (read_run b n)
  | Read_into (b, n, buf, pos) -> Result.map (fun c -> Done c) (read_into b n buf ~pos)
  | Write (b, buf) -> Result.map (fun c -> Done c) (write b buf)
  | Write_run (b, buf) -> Result.map (fun c -> Done c) (write_run b buf)

let sync_queue ~read ~read_run ~write ~write_run =
  let read_into b n buf ~pos =
    Result.map
      (fun (d, c) ->
        Bytes.blit d 0 buf pos (Bytes.length d);
        c)
      (read_run b n)
  in
  fifo (serve ~read ~read_run ~read_into ~write ~write_run)

let make ~name ~block_bytes ~n_blocks ~trace ~read ~read_into ~write ~write_run ~trim
    ~idle ~utilization =
  let read_run b n =
    let buf = Bytes.create (max 0 n * block_bytes) in
    Result.map (fun c -> (buf, c)) (read_into b n buf ~pos:0)
  in
  let submit, poll, drain = fifo (serve ~read ~read_run ~read_into ~write ~write_run) in
  {
    name;
    block_bytes;
    n_blocks;
    trace;
    read;
    read_run;
    read_into;
    write;
    write_run;
    submit;
    poll;
    drain;
    trim;
    idle;
    utilization;
  }

let exn = function Ok v -> v | Error e -> raise (Io_error e)

(* The raising breakdown-typed variants, derived once for all devices as
   submit-then-drain through the device's queue: unmodified file systems
   are depth-1 hosts of the async interface and fail stop rather than
   consume corrupt data. *)
let rw t req =
  let tag = t.submit req in
  match List.assoc_opt tag (t.drain ()) with
  | Some ack -> exn ack
  | None -> invalid_arg "Device: drained tag has no completion"

let data = function
  | Data (d, c) -> (d, Vlog_util.Io.bd c)
  | Done _ -> invalid_arg "Device: read completed without data"

let done_ = function
  | Done c -> Vlog_util.Io.bd c
  | Data _ -> invalid_arg "Device: write completed with data"

let read t block = data (rw t (Read block))
let read_run t block count = data (rw t (Read_run (block, count)))
let read_into t block count buf ~pos = done_ (rw t (Read_into (block, count, buf, pos)))
let write t block buf = done_ (rw t (Write (block, buf)))
let write_run t block buf = done_ (rw t (Write_run (block, buf)))

let advance_idle ~clock t dt =
  let until = Vlog_util.Clock.now clock +. dt in
  t.idle dt;
  Vlog_util.Clock.advance_to clock until
