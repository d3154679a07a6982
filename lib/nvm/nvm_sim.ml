open Vlog_util

type profile = {
  size_bytes : int;
  read_latency_ms : float;
  write_latency_ms : float;
  bandwidth_bytes_per_ms : float;
  persist_latency_ms : float;
  volatile_front_bytes : int;
}

let default_profile =
  {
    size_bytes = 8 * 1024 * 1024;
    read_latency_ms = 0.0003;
    write_latency_ms = 0.0007;
    bandwidth_bytes_per_ms = 2_000_000.;
    persist_latency_ms = 0.0005;
    volatile_front_bytes = 16 * 1024;
  }

type persist_fault = Torn_persist of int | Cut_before_persist
type injector = { on_persist : pending_bytes:int -> persist_fault option }

type stats = {
  nvm_reads : int;
  nvm_writes : int;
  bytes_read : int;
  bytes_written : int;
  persists : int;
  auto_drains : int;
}

type t = {
  profile : profile;
  clock : Clock.t;
  trace : Trace.sink;
  merged : Bytes.t;  (* what loads observe: front applied over media *)
  persisted : Bytes.t;  (* what survives a power cut *)
  front : (int * Bytes.t) Queue.t;  (* stores not yet persisted, oldest first *)
  mutable front_bytes : int;
  mutable injector : injector option;
  mutable nvm_reads : int;
  mutable nvm_writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable persists : int;
  mutable auto_drains : int;
}

let create ?image ?(trace = Trace.null) ~clock () =
  let persisted =
    match image with
    | None -> Bytes.make default_profile.size_bytes '\000'
    | Some img ->
      if Bytes.length img <> default_profile.size_bytes then
        invalid_arg "Nvm_sim.create: image size does not match profile";
      Bytes.copy img
  in
  {
    profile = default_profile;
    clock;
    trace;
    merged = Bytes.copy persisted;
    persisted;
    front = Queue.create ();
    front_bytes = 0;
    injector = None;
    nvm_reads = 0;
    nvm_writes = 0;
    bytes_read = 0;
    bytes_written = 0;
    persists = 0;
    auto_drains = 0;
  }

let profile t = t.profile
let clock t = t.clock
let size t = t.profile.size_bytes
let set_injector t i = t.injector <- i
let pending_bytes t = t.front_bytes

let stats t =
  {
    nvm_reads = t.nvm_reads;
    nvm_writes = t.nvm_writes;
    bytes_read = t.bytes_read;
    bytes_written = t.bytes_written;
    persists = t.persists;
    auto_drains = t.auto_drains;
  }

let transfer_ms t len = float_of_int len /. t.profile.bandwidth_bytes_per_ms

let check_range t ~off ~len op =
  if off < 0 || len < 0 || off + len > t.profile.size_bytes then
    invalid_arg (Printf.sprintf "Nvm_sim.%s: [%d, %d) out of range" op off (off + len))

let read t ~off ~len =
  check_range t ~off ~len "read";
  Clock.advance t.clock (t.profile.read_latency_ms +. transfer_ms t len);
  t.nvm_reads <- t.nvm_reads + 1;
  t.bytes_read <- t.bytes_read + len;
  Bytes.sub t.merged off len

(* Persist the oldest front entry unconditionally (ADR overflow drain:
   once a store is pushed out of the write-pending queue it has reached
   the persistence domain whether or not anyone fenced). *)
let drain_oldest t =
  match Queue.take_opt t.front with
  | None -> ()
  | Some (off, payload) ->
    Bytes.blit payload 0 t.persisted off (Bytes.length payload);
    t.front_bytes <- t.front_bytes - Bytes.length payload

let write t ~off payload =
  let len = Bytes.length payload in
  check_range t ~off ~len "write";
  Clock.advance t.clock (t.profile.write_latency_ms +. transfer_ms t len);
  Bytes.blit payload 0 t.merged off len;
  Queue.add (off, Bytes.copy payload) t.front;
  t.front_bytes <- t.front_bytes + len;
  t.nvm_writes <- t.nvm_writes + 1;
  t.bytes_written <- t.bytes_written + len;
  while t.front_bytes > t.profile.volatile_front_bytes do
    drain_oldest t;
    t.auto_drains <- t.auto_drains + 1
  done

(* Apply the oldest [budget] bytes of the front to the media: whole
   entries while they fit, then a byte prefix of the first entry that
   does not — a torn persist tears inside one store, exactly like a torn
   sector write tears inside one request. *)
let apply_prefix t budget =
  let left = ref budget in
  let stop = ref false in
  while (not !stop) && not (Queue.is_empty t.front) do
    let off, payload = Queue.peek t.front in
    let len = Bytes.length payload in
    if len <= !left then begin
      ignore (Queue.take t.front);
      Bytes.blit payload 0 t.persisted off len;
      t.front_bytes <- t.front_bytes - len;
      left := !left - len
    end
    else begin
      Bytes.blit payload 0 t.persisted off !left;
      stop := true
    end
  done

let persist t =
  (match t.injector with
  | Some i -> (
    match i.on_persist ~pending_bytes:t.front_bytes with
    | Some Cut_before_persist -> raise Disk.Disk_sim.Power_cut
    | Some (Torn_persist n) ->
      apply_prefix t (max 0 n);
      raise Disk.Disk_sim.Power_cut
    | None -> ())
  | None -> ());
  Clock.advance t.clock t.profile.persist_latency_ms;
  while not (Queue.is_empty t.front) do
    drain_oldest t
  done;
  t.persists <- t.persists + 1;
  Trace.incr t.trace "nvm.persists"

let snapshot t = Bytes.copy t.persisted
