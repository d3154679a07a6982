open Vlog_util
module Device = Blockdev.Device

(* ---- On-NVM codec -------------------------------------------------- *)

(* Region layout: a 32-byte header (magic, base_seq, CRC) followed by
   records appended contiguously.  Every structure is sealed with the
   word-FNV checksum over everything before it, so replay can tell a
   committed record from a torn tail or the residue of a previous log
   generation. *)

let header_bytes = 32
let hdr_magic = "WALH"
let rec_magic = "WALR"
let rec_hdr = 28 (* magic 4 + seq 8 + block 8 + payload_len 8 *)

let encode_header ~base_seq =
  let buf = Bytes.make header_bytes '\000' in
  Bytes.blit_string hdr_magic 0 buf 0 4;
  Bytes.set_int64_le buf 4 base_seq;
  Checksum.seal buf ~pos:0 ~len:12;
  buf

let parse_header img =
  if Bytes.length img < header_bytes then None
  else if Bytes.sub_string img 0 4 <> hdr_magic then None
  else if not (Checksum.sealed img ~pos:0 ~len:12) then None
  else Some (Bytes.get_int64_le img 4)

module Record = struct
  type t = { seq : int64; block : int; payload : Bytes.t }

  let encoded_size ~payload_len = rec_hdr + payload_len + 8

  let encode { seq; block; payload } =
    let plen = Bytes.length payload in
    let buf = Bytes.create (encoded_size ~payload_len:plen) in
    Bytes.blit_string rec_magic 0 buf 0 4;
    Bytes.set_int64_le buf 4 seq;
    Bytes.set_int64_le buf 12 (Int64.of_int block);
    Bytes.set_int64_le buf 20 (Int64.of_int plen);
    Bytes.blit payload 0 buf rec_hdr plen;
    Checksum.seal buf ~pos:0 ~len:(rec_hdr + plen);
    buf

  let decode buf ~pos =
    let total = Bytes.length buf in
    if pos < 0 || pos + rec_hdr + 8 > total then None
    else if Bytes.sub_string buf pos 4 <> rec_magic then None
    else
      let seq = Bytes.get_int64_le buf (pos + 4) in
      let block = Bytes.get_int64_le buf (pos + 12) in
      let plen = Bytes.get_int64_le buf (pos + 20) in
      if
        Int64.compare block 0L < 0
        || Int64.compare plen 1L < 0
        || Int64.compare plen (Int64.of_int total) > 0
      then None
      else
        let plen = Int64.to_int plen in
        let size = encoded_size ~payload_len:plen in
        if pos + size > total then None
        else if not (Checksum.sealed buf ~pos ~len:(rec_hdr + plen)) then None
        else
          Some
            ( { seq; block = Int64.to_int block; payload = Bytes.sub buf (pos + rec_hdr) plen },
              pos + size )
end

(* ---- Replay scan --------------------------------------------------- *)

type replay_report = { rr_replayed : int; rr_stale : int; rr_truncated : bool }

(* Committed records in a persisted image, in append (= sequence) order.
   An unreadable header degrades to [base_seq = 0]: replaying records
   from before the last reset is idempotent — they all destaged before
   the header rewrite began, and every newer value of those blocks is
   still in the log with a higher sequence number, so it replays after
   and wins. *)
let scan img =
  let base = match parse_header img with Some b -> Some b | None -> None in
  let base_seq = Option.value base ~default:0L in
  let recs = ref [] in
  let stale = ref 0 in
  let truncated = ref false in
  let prev = ref Int64.min_int in
  let pos = ref header_bytes in
  let stop = ref false in
  while not !stop do
    match Record.decode img ~pos:!pos with
    | None ->
      (* Record-like bytes that fail the seal are a torn tail; anything
         else (zeroes, overwritten residue) is just the end of the log. *)
      if
        !pos + 4 <= Bytes.length img
        && Bytes.sub_string img !pos 4 = rec_magic
      then truncated := true;
      stop := true
    | Some (r, next) ->
      if Int64.compare r.Record.seq base_seq < 0 then begin
        incr stale;
        pos := next
      end
      else if Int64.compare r.Record.seq !prev <= 0 then stop := true
      else begin
        recs := r :: !recs;
        prev := r.Record.seq;
        pos := next
      end
  done;
  ( base,
    List.rev !recs,
    { rr_replayed = List.length !recs; rr_stale = !stale; rr_truncated = !truncated } )

let replay_scan img =
  let _, recs, report = scan img in
  (recs, report)

(* ---- The staging tier ---------------------------------------------- *)

type config = {
  destage_util : float;
  log_bytes : int option;
}

let default_config = { destage_util = 0.5; log_bytes = None }

(* Multi-block writes of at most this many blocks are staged (one record
   per block, a single persist); larger runs drain the log and bypass
   straight to the backing device. *)
let max_stage_run = 4

(* Staged entries submitted to the backing device per submit/drain
   window. *)
let destage_batch = 8

(* A staged entry's payload lives only in the NVM log; destage and
   overlay reads fetch it from there (and pay the NVM load for it). *)
type entry = { e_block : int; e_off : int; e_len : int }

type t = {
  cfg : config;
  nvm : Nvm_sim.t;
  inner : Device.t;
  mutable tail : int;  (* append offset *)
  mutable base_seq : int64;
  mutable next_seq : int64;
  pending : entry Queue.t;  (* staged, not yet destaged, oldest first *)
  mutable retry : entry list;  (* destage re-attempts, ahead of [pending] *)
  overlay : (int, int) Hashtbl.t;  (* block -> payload offset of newest record *)
  mutable destaged : int;  (* entries destaged since the last reset *)
  mutable cost_est : float;  (* last observed destage cost, ms *)
}

let log_limit t =
  match t.cfg.log_bytes with
  | Some b -> min b (Nvm_sim.size t.nvm)
  | None -> Nvm_sim.size t.nvm

let inner t = t.inner
let nvm t = t.nvm

let reset_log t =
  assert (Queue.is_empty t.pending && t.retry = []);
  t.base_seq <- t.next_seq;
  Nvm_sim.write t.nvm ~off:0 (encode_header ~base_seq:t.base_seq);
  Nvm_sim.persist t.nvm;
  t.tail <- header_bytes;
  Hashtbl.reset t.overlay;
  t.destaged <- 0

let create ?(config = default_config) ~nvm ~inner () =
  let limit =
    match config.log_bytes with
    | Some b -> min b (Nvm_sim.size nvm)
    | None -> Nvm_sim.size nvm
  in
  if limit < header_bytes + Record.encoded_size ~payload_len:inner.Device.block_bytes
  then invalid_arg "Nvm_wal.create: log region smaller than one record";
  let t =
    {
      cfg = config;
      nvm;
      inner;
      tail = header_bytes;
      base_seq = 1L;
      next_seq = 1L;
      pending = Queue.create ();
      retry = [];
      overlay = Hashtbl.create 64;
      destaged = 0;
      cost_est = 1.0;
    }
  in
  Nvm_sim.write nvm ~off:0 (encode_header ~base_seq:t.base_seq);
  Nvm_sim.persist nvm;
  t

let remaining t = List.length t.retry + Queue.length t.pending

let take_next t =
  match t.retry with
  | e :: rest ->
    t.retry <- rest;
    Some e
  | [] -> Queue.take_opt t.pending

(* Destage up to [limit] entries through the backing device's queue
   interface: one submit window, one drain.  On the first failed ack the
   failing entry and everything after it go back to the head of the
   line untouched — re-destaging an already-landed entry just rewrites
   the same bytes, and keeping the window's order means an older record
   can never overtake a newer one for the same block. *)
let destage_window t ~limit =
  let batch = ref [] in
  let n = ref 0 in
  while !n < limit && remaining t > 0 do
    match take_next t with
    | None -> ()
    | Some e ->
      batch := e :: !batch;
      incr n
  done;
  let batch = List.rev !batch in
  if batch = [] then Ok 0
  else begin
    let tagged =
      List.map
        (fun e ->
          let payload = Nvm_sim.read t.nvm ~off:e.e_off ~len:e.e_len in
          (t.inner.Device.submit (Device.Write (e.e_block, payload)), e))
        batch
    in
    let acks = Hashtbl.create (List.length tagged) in
    List.iter (fun (tag, ack) -> Hashtbl.replace acks tag ack) (t.inner.Device.drain ());
    let rec settle = function
      | [] ->
        if remaining t = 0 then reset_log t;
        Ok (List.length batch)
      | (tag, e) :: rest -> (
        match Hashtbl.find_opt acks tag with
        | Some (Ok _) ->
          t.destaged <- t.destaged + 1;
          settle rest
        | Some (Error err) ->
          t.retry <- e :: List.map snd rest @ t.retry;
          Error err
        | None ->
          t.retry <- e :: List.map snd rest @ t.retry;
          Error
            (Device.err ~op:`Write ~block:e.e_block
               ~e:{ Disk.Disk_sim.error_lba = 0; transient = true }
               ~retries:0))
    in
    settle tagged
  end

let drain t =
  let rec go budget =
    if remaining t = 0 then begin
      if t.destaged > 0 || t.tail > header_bytes then reset_log t;
      Ok ()
    end
    else if budget = 0 then
      (* a retry list that never shrinks means the device keeps failing *)
      Error
        (match t.retry with
        | e :: _ ->
          Device.err ~op:`Write ~block:e.e_block
            ~e:{ Disk.Disk_sim.error_lba = 0; transient = false }
            ~retries:3
        | [] -> assert false)
    else
      match destage_window t ~limit:destage_batch with
      | Ok _ -> go (budget - 1)
      | Error _ when remaining t > 0 && budget > 1 -> go (budget - 1)
      | Error e -> Error e
  in
  go (3 + ((remaining t + destage_batch - 1) / destage_batch))

(* The duty-cycle pump, mirroring the volume layer's rebuild_util: a
   window [now, deadline) grants [destage_util] of its span; destage
   while the last observed cost fits both the remaining budget and the
   deadline, halving a pessimistic estimate on skip so it can recover. *)
let pump t ~deadline =
  let u = t.cfg.destage_util in
  if u > 0. && remaining t > 0 then begin
    let clock = Nvm_sim.clock t.nvm in
    let start = Clock.now clock in
    let budget = ref ((deadline -. start) *. u) in
    let continue = ref true in
    while !continue && remaining t > 0 do
      let now = Clock.now clock in
      if t.cost_est <= !budget && now +. t.cost_est <= deadline then begin
        match destage_window t ~limit:1 with
        | Ok _ ->
          let cost = Clock.now clock -. now in
          t.cost_est <- Float.max cost 0.01;
          budget := !budget -. cost
        | Error _ -> continue := false
      end
      else begin
        t.cost_est <- Float.max (t.cost_est /. 2.) 0.01;
        continue := false
      end
    done
  end

(* ---- The write path ------------------------------------------------ *)

let stage t ~block ~payload_off ~payload_len =
  Queue.add { e_block = block; e_off = payload_off; e_len = payload_len } t.pending;
  Hashtbl.replace t.overlay block payload_off;
  t.next_seq <- Int64.succ t.next_seq

(* Append a batch of block writes as one committed unit: all records
   stored, then a single persist barrier — the commit point.  [`Bypass]
   means the batch cannot fit even an empty log (the caller writes it
   straight to the drained backing device). *)
let append_run t pairs =
  let need =
    List.fold_left
      (fun acc (_, p) -> acc + Record.encoded_size ~payload_len:(Bytes.length p))
      0 pairs
  in
  let fits () = t.tail + need <= log_limit t in
  let roomy =
    if fits () then Ok ()
    else match drain t with Ok () -> Ok () | Error e -> Error e
  in
  match roomy with
  | Error e -> Error e
  | Ok () ->
    if not (fits ()) then Ok `Bypass
    else begin
      let staged = ref [] in
      let seq = ref t.next_seq in
      List.iter
        (fun (block, payload) ->
          let plen = Bytes.length payload in
          let img = Record.encode { Record.seq = !seq; block; payload } in
          Nvm_sim.write t.nvm ~off:t.tail img;
          staged := (block, t.tail + rec_hdr, plen) :: !staged;
          t.tail <- t.tail + Bytes.length img;
          seq := Int64.succ !seq)
        pairs;
      (* commit point: a power cut in here tears writes that never
         returned — losing them is legal *)
      Nvm_sim.persist t.nvm;
      List.iter
        (fun (block, off, len) -> stage t ~block ~payload_off:off ~payload_len:len)
        (List.rev !staged);
      Trace.incr t.inner.Device.trace ~by:(List.length pairs) "nvm.staged";
      Ok `Staged
    end

(* ---- Device face --------------------------------------------------- *)

let nvm_span f =
  fun clock ->
   let t0 = Clock.now clock in
   let r = f () in
   (r, Breakdown.of_other (Clock.now clock -. t0))

let dev_write t block payload =
  let clock = Nvm_sim.clock t.nvm in
  let (r, bd) = nvm_span (fun () -> append_run t [ (block, payload) ]) clock in
  match r with
  | Error e -> Error e
  | Ok `Staged -> Ok (Io.make ~counters:[ ("nvm_staged", 1) ] bd)
  | Ok `Bypass -> t.inner.Device.write block payload

let dev_write_run t block payload =
  let bb = t.inner.Device.block_bytes in
  let n = (Bytes.length payload + bb - 1) / bb in
  if n <= max_stage_run then begin
    let pairs =
      List.init n (fun i ->
          let len = min bb (Bytes.length payload - (i * bb)) in
          let slice = Bytes.make bb '\000' in
          Bytes.blit payload (i * bb) slice 0 len;
          (block + i, slice))
    in
    let clock = Nvm_sim.clock t.nvm in
    let (r, bd) = nvm_span (fun () -> append_run t pairs) clock in
    match r with
    | Error e -> Error e
    | Ok `Staged -> Ok (Io.make ~counters:[ ("nvm_staged", n) ] bd)
    | Ok `Bypass -> t.inner.Device.write_run block payload
  end
  else
    (* a big sequential run goes to the disk directly; the log must be
       empty first or replay could clobber it with older records *)
    match drain t with
    | Error e -> Error e
    | Ok () -> t.inner.Device.write_run block payload

let dev_read t block =
  match Hashtbl.find_opt t.overlay block with
  | None -> t.inner.Device.read block
  | Some off ->
    let clock = Nvm_sim.clock t.nvm in
    let (bytes, bd) =
      nvm_span
        (fun () -> Nvm_sim.read t.nvm ~off ~len:t.inner.Device.block_bytes)
        clock
    in
    Ok (bytes, Io.make bd)

let dev_read_run t block count =
  let bb = t.inner.Device.block_bytes in
  let overlaps =
    let rec go i = i < count && (Hashtbl.mem t.overlay (block + i) || go (i + 1)) in
    go 0
  in
  if not overlaps then t.inner.Device.read_run block count
  else begin
    let buf = Bytes.create (count * bb) in
    let rec go i acc =
      if i >= count then Ok acc
      else
        match dev_read t (block + i) with
        | Error e -> Error e
        | Ok (bytes, c) ->
          Bytes.blit bytes 0 buf (i * bb) bb;
          go (i + 1) (Breakdown.add acc (Io.bd c))
    in
    match go 0 Breakdown.zero with
    | Error e -> Error e
    | Ok bd -> Ok (buf, Io.make bd)
  end

let dev_idle t dt =
  let clock = Nvm_sim.clock t.nvm in
  let deadline = Clock.now clock +. dt in
  pump t ~deadline;
  let rest = deadline -. Clock.now clock in
  if rest > 1e-9 then t.inner.Device.idle rest

let device t =
  let read = dev_read t in
  let read_run = dev_read_run t in
  let write = dev_write t in
  let write_run = dev_write_run t in
  let submit, poll, drain_q = Device.sync_queue ~read ~read_run ~write ~write_run in
  {
    Device.name = "nvmwal(" ^ t.inner.Device.name ^ ")";
    block_bytes = t.inner.Device.block_bytes;
    n_blocks = t.inner.Device.n_blocks;
    trace = t.inner.Device.trace;
    read;
    read_run;
    write;
    write_run;
    submit;
    poll;
    drain = drain_q;
    trim = (fun b -> t.inner.Device.trim b);
    idle = dev_idle t;
    utilization = (fun () -> t.inner.Device.utilization ());
  }

(* ---- Recovery ------------------------------------------------------ *)

let recover ?config ~nvm ~inner () =
  let img = Nvm_sim.snapshot nvm in
  let base, recs, report = scan img in
  let rec go = function
    | [] -> Ok ()
    | r :: rest -> (
      match inner.Device.write r.Record.block r.Record.payload with
      | Ok _ -> go rest
      | Error _ -> (
        (* one immediate retry, as the device retry loops do *)
        match inner.Device.write r.Record.block r.Record.payload with
        | Ok _ -> go rest
        | Error e -> Error e))
  in
  match go recs with
  | Error e -> Error e
  | Ok () ->
    let next =
      Int64.succ
        (List.fold_left
           (fun acc (r : Record.t) -> if Int64.compare r.seq acc > 0 then r.seq else acc)
           (Option.value base ~default:0L)
           recs)
    in
    let t = create ?config ~nvm ~inner () in
    t.base_seq <- next;
    t.next_seq <- next;
    Nvm_sim.write nvm ~off:0 (encode_header ~base_seq:next);
    Nvm_sim.persist nvm;
    Ok (t, report)

(* ---- Introspection ------------------------------------------------- *)

type status = {
  st_entries : int;
  st_destaged : int;
  st_log_used : int;
  st_log_capacity : int;
  st_base_seq : int64;
  st_next_seq : int64;
}

let status t =
  {
    st_entries = t.destaged + remaining t;
    st_destaged = t.destaged;
    st_log_used = t.tail;
    st_log_capacity = log_limit t;
    st_base_seq = t.base_seq;
    st_next_seq = t.next_seq;
  }
