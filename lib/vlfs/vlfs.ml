open Vlog_util

type config = {
  n_inodes : int;
  sync_writes : bool;
  buffer_blocks : int;
  cache_blocks : int;
}

let default_config =
  {
    n_inodes = 2048;
    sync_writes = true;
    buffer_blocks = 1561;
    cache_blocks = 1536;
  }

type error = Blockdev.Fs_error.t

let pp_error = Blockdev.Fs_error.pp

(* Local escape hatch so block loops can abort on a media error without
   threading results through every iteration.  Carries the structured
   {!Blockdev.Device.io_error} the public API reports as [`Io]. *)
exception Io_abort of Blockdev.Device.io_error

(* Each inode occupies up to [max_parts] physical blocks: part 0 carries
   the header and the first pointers, later parts are pure pointer
   blocks.  The virtual log's logical space is the inode map: entry
   [inum * max_parts + part] holds the physical address of that part. *)
let max_parts = 6
let inode_header_bytes = 20

type vnode = {
  inum : int;
  mutable size : int;
  mutable blocks : int array; (* physical data block per file block; -1 = hole *)
}

type compaction_stats = { tracks_emptied : int; blocks_moved : int }

type t = {
  disk : Disk.Disk_sim.t;
  vlog : Vlog.Virtual_log.t;
  host : Host.t;
  clock : Clock.t;
  cfg : config;
  block_bytes : int;
  spb : int; (* sectors per block *)
  files : (string, vnode) Hashtbl.t;
  by_inum : (int, vnode) Hashtbl.t;
  file_dir_slot : (int, int * int) Hashtbl.t;
  inode_used : Bytes.t;
  inode_rover : int ref;
  owner_inum : int array; (* physical data block -> inum, -1 = none *)
  owner_fblock : int array;
  pending : (int * int, Bytes.t) Hashtbl.t; (* (inum, fblock) -> contents *)
  dirty_parts : (int * int, unit) Hashtbl.t; (* (inum, part); part -1 = deleted *)
  cache : Ufs.Buffer_cache.t;
  mutable dir : Ufs.Dir.slots array; (* per directory-file block *)
  prng : Prng.t;
  mutable comp_stats : compaction_stats;
  mutable comp_resume : int option;
  mutable mode : [ `Rw | `Degraded of string ];
}

let dir_inum = 0
let reserve_blocks = 24

let fm t = Vlog.Virtual_log.freemap t.vlog
let eager t = Vlog.Virtual_log.eager t.vlog
let sink t = Disk.Disk_sim.trace t.disk
let charge t ~blocks = Host.charge ~trace:(sink t) t.host ~clock:t.clock ~blocks
let exists t name = Hashtbl.mem t.files name
let files t = Hashtbl.fold (fun name _ acc -> name :: acc) t.files [] |> List.sort compare
let utilization t = Vlog.Freemap.utilization (fm t)
let buffered_blocks t = Hashtbl.length t.pending
let compaction_stats t = t.comp_stats
let scsi_ms t = (Disk.Disk_sim.profile t.disk).Disk.Profile.scsi_overhead_ms

(* ---- inode part codec (self-describing, needed by recovery) ---- *)

(* Every part block ends in an 8-byte FNV checksum so recovery can
   reject garbage instead of decoding it. *)
let first_part_ptrs t = (t.block_bytes - inode_header_bytes - 8) / 4
let ptrs_per_part t = (t.block_bytes - 8) / 4

let seal_part t buf =
  Checksum.seal buf ~pos:0 ~len:(t.block_bytes - 8);
  buf

let part_checksum_ok t buf =
  Bytes.length buf = t.block_bytes
  && Checksum.sealed buf ~pos:0 ~len:(t.block_bytes - 8)

let parts_needed t nblocks =
  if nblocks <= first_part_ptrs t then 1
  else 1 + ((nblocks - first_part_ptrs t + ptrs_per_part t - 1) / ptrs_per_part t)

let part_of_fblock t fb =
  if fb < first_part_ptrs t then 0 else 1 + ((fb - first_part_ptrs t) / ptrs_per_part t)

(* The pointer array grows geometrically; the file's logical block count
   (from its size) is what the on-disk header records and what recovery
   sizes the array by. *)
let logical_blocks_of t vn = (vn.size + t.block_bytes - 1) / t.block_bytes

let encode_part t vn part =
  let buf = Bytes.make t.block_bytes '\000' in
  if part = 0 then begin
    Bytes.set_int32_le buf 0 (Int32.of_int vn.inum);
    Bytes.set_int64_le buf 4 (Int64.of_int vn.size);
    Bytes.set_int32_le buf 12 (Int32.of_int (logical_blocks_of t vn));
    for i = 0 to min (first_part_ptrs t) (Array.length vn.blocks) - 1 do
      Bytes.set_int32_le buf (inode_header_bytes + (i * 4)) (Int32.of_int vn.blocks.(i))
    done
  end
  else begin
    let offset = first_part_ptrs t + ((part - 1) * ptrs_per_part t) in
    for i = 0 to ptrs_per_part t - 1 do
      let idx = offset + i in
      if idx < Array.length vn.blocks then
        Bytes.set_int32_le buf (i * 4) (Int32.of_int vn.blocks.(idx))
    done
  end;
  seal_part t buf

let decode_part0 t ~inum buf =
  if not (part_checksum_ok t buf) then None
  else if Int32.to_int (Bytes.get_int32_le buf 0) <> inum then None
  else begin
  let size = Int64.to_int (Bytes.get_int64_le buf 4) in
  let nblocks = Int32.to_int (Bytes.get_int32_le buf 12) in
  if nblocks < 0 || nblocks > Vlog.Freemap.n_blocks (fm t) * max_parts
     || size < 0
     || size > (nblocks + 1) * t.block_bytes then None
  else begin
    let vn = { inum; size; blocks = Array.make nblocks (-1) } in
    for i = 0 to min (first_part_ptrs t) nblocks - 1 do
      vn.blocks.(i) <- Int32.to_int (Bytes.get_int32_le buf (inode_header_bytes + (i * 4)))
    done;
    Some vn
  end
  end

let decode_part_into t vn part buf =
  let offset = first_part_ptrs t + ((part - 1) * ptrs_per_part t) in
  for i = 0 to ptrs_per_part t - 1 do
    let idx = offset + i in
    if idx < Array.length vn.blocks then
      vn.blocks.(idx) <- Int32.to_int (Bytes.get_int32_le buf (i * 4))
  done

(* ---- construction ---- *)

let make ~disk ~vlog ~host ~clock cfg =
  let n_phys = Vlog.Freemap.n_blocks (Vlog.Virtual_log.freemap vlog) in
  {
    disk;
    vlog;
    host;
    clock;
    cfg;
    block_bytes = Vlog.Virtual_log.block_bytes vlog;
    spb = (Vlog.Virtual_log.config vlog).Vlog.Virtual_log.sectors_per_block;
    files = Hashtbl.create 256;
    by_inum = Hashtbl.create 256;
    file_dir_slot = Hashtbl.create 256;
    inode_used = Bytes.make cfg.n_inodes '\000';
    inode_rover = ref 1;
    owner_inum = Array.make n_phys (-1);
    owner_fblock = Array.make n_phys (-1);
    pending = Hashtbl.create 256;
    dirty_parts = Hashtbl.create 64;
    cache = Ufs.Buffer_cache.create ~capacity:cfg.cache_blocks;
    dir = [||];
    prng = Prng.create ~seed:0x7F5FL;
    comp_stats = { tracks_emptied = 0; blocks_moved = 0 };
    comp_resume = None;
    mode = `Rw;
  }

let format ~disk ~host ~clock cfg =
  let vlog =
    Vlog.Virtual_log.format ~disk
      (Vlog.Virtual_log.default_config ~logical_blocks:(cfg.n_inodes * max_parts))
  in
  let t = make ~disk ~vlog ~host ~clock cfg in
  Bytes.set t.inode_used dir_inum '\001';
  let dirn = { inum = dir_inum; size = 0; blocks = [||] } in
  Hashtbl.replace t.by_inum dir_inum dirn;
  Hashtbl.replace t.dirty_parts (dir_inum, 0) ();
  t

(* ---- flushing (the only path to the platter) ---- *)

let set_vnode_block vn fb pba =
  if fb >= Array.length vn.blocks then begin
    let grown = Array.make (max (fb + 1) (2 * (Array.length vn.blocks + 1))) (-1) in
    Array.blit vn.blocks 0 grown 0 (Array.length vn.blocks);
    vn.blocks <- grown
  end;
  vn.blocks.(fb) <- pba

(* Write one physical block via eager allocation.  [first] carries the
   SCSI charge of the host command that triggered the flush. *)
let eager_write t ?(exclude = fun _ -> false) ~first bytes =
  let lead = if first then scsi_ms t else 0. in
  match Vlog.Eager.choose ~exclude_tracks:exclude ~lead_time:lead (eager t) with
  | None -> Error `No_space
  | Some pba ->
    Vlog.Freemap.occupy (fm t) pba;
    let bd =
      Disk.Disk_sim.write ~scsi:first t.disk
        ~lba:(Vlog.Freemap.lba_of_block (fm t) pba)
        bytes
    in
    Ok (pba, bd)

(* Flush pending data blocks, dirty inode parts, and commit the inode-map
   transaction.  Everything between two flushes is atomic.  The whole
   flush runs under one span so callers fold a single child subtotal. *)
let rec flush t =
  let tr = sink t in
  let sp = Trace.enter tr "vlfs.flush" in
  Trace.incr tr "vlfs.flushes";
  let r = flush_inner t in
  (match r with Ok bd | Error (_, bd) -> Trace.exit tr ~bd sp);
  r

and flush_inner t =
  let bd = ref Breakdown.zero in
  let first = ref true in
  let to_release = ref [] in
  let err = ref None in
  let write_one ?exclude bytes =
    match eager_write t ?exclude ~first:!first bytes with
    | Ok (pba, cost) ->
      first := false;
      bd := Breakdown.add !bd cost;
      Some pba
    | Error e ->
      if !err = None then err := Some e;
      None
  in
  (* 1. data blocks *)
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.pending [] in
  Hashtbl.reset t.pending;
  List.iter
    (fun ((inum, fb), bytes) ->
      match Hashtbl.find_opt t.by_inum inum with
      | None -> () (* deleted while buffered *)
      | Some vn -> (
        match write_one bytes with
        | None -> ()
        | Some pba ->
          let old = if fb < Array.length vn.blocks then vn.blocks.(fb) else -1 in
          if old >= 0 then to_release := old :: !to_release;
          set_vnode_block vn fb pba;
          t.owner_inum.(pba) <- inum;
          t.owner_fblock.(pba) <- fb;
          ignore (Ufs.Buffer_cache.insert t.cache pba bytes ~dirty:false);
          Hashtbl.replace t.dirty_parts (inum, part_of_fblock t fb) ();
          Hashtbl.replace t.dirty_parts (inum, 0) ()))
    (List.sort compare items);
  (* 2. dirty inode parts only: a single-block update rewrites at most
     the part holding its pointer plus the header part. *)
  let entries = ref [] in
  let dirty = Hashtbl.fold (fun k () acc -> k :: acc) t.dirty_parts [] in
  Hashtbl.reset t.dirty_parts;
  List.iter
    (fun (inum, part) ->
      match Hashtbl.find_opt t.by_inum inum with
      | None ->
        (* Deleted: unmap all its inode-map entries (once). *)
        if part <= 0 then
          for p = 0 to max_parts - 1 do
            let logical = (inum * max_parts) + p in
            if Vlog.Virtual_log.lookup t.vlog logical <> None then
              entries := (logical, None) :: !entries
          done
      | Some vn ->
        if part < parts_needed t (logical_blocks_of t vn) then begin
          match write_one (encode_part t vn part) with
          | None -> ()
          | Some pba -> entries := ((inum * max_parts) + part, Some pba) :: !entries
        end)
    (List.sort_uniq compare dirty);
  (* 3. the inode-map transaction commits everything at once. *)
  if !entries <> [] then
    bd := Breakdown.add !bd (Vlog.Virtual_log.update t.vlog (List.rev !entries));
  (* 4. pre-images die only after the commit. *)
  List.iter
    (fun pba ->
      Vlog.Freemap.release (fm t) pba;
      t.owner_inum.(pba) <- -1;
      t.owner_fblock.(pba) <- -1;
      Ufs.Buffer_cache.forget t.cache pba)
    !to_release;
  match !err with Some e -> Error (e, !bd) | None -> Ok !bd

let flush_bd t =
  match flush t with Ok bd -> bd | Error (_, bd) -> bd

let maybe_flush t =
  if t.cfg.sync_writes || Hashtbl.length t.pending >= t.cfg.buffer_blocks then
    flush t
  else Ok Breakdown.zero

(* ---- directory (file 0, like the other file systems) ---- *)

let write_dir_block t fb =
  let d = Hashtbl.find t.by_inum dir_inum in
  d.size <- max d.size ((fb + 1) * t.block_bytes);
  Hashtbl.replace t.pending (dir_inum, fb) (Ufs.Dir.encode_block t.dir.(fb));
  Hashtbl.replace t.dirty_parts (dir_inum, part_of_fblock t fb) ();
  Hashtbl.replace t.dirty_parts (dir_inum, 0) ()

(* ---- public operations ---- *)

let lookup t name =
  match Hashtbl.find_opt t.files name with
  | Some vn -> Ok vn
  | None -> Error (`Not_found name)

let file_size t name = Result.map (fun vn -> vn.size) (lookup t name)

let create t name =
  Trace.op (sink t) "vlfs.create" ~bd_of:Fun.id (fun () ->
      if t.mode <> `Rw then Error `Read_only
      else if not (Ufs.Dir.valid_name name) then Error (`Bad_name name)
      else if Hashtbl.mem t.files name then Error (`Exists name)
      else
        match Ufs.Dir.alloc_inum t.inode_used ~rover:t.inode_rover with
        | None -> Error `No_inodes
        | Some inum ->
          let vn = { inum; size = 0; blocks = [||] } in
          Hashtbl.replace t.files name vn;
          Hashtbl.replace t.by_inum inum vn;
          Hashtbl.replace t.dirty_parts (inum, 0) ();
          let fb, slot = Ufs.Dir.free_slot t.dir in
          if fb = Array.length t.dir then
            t.dir <- Array.append t.dir [| Ufs.Dir.empty_block ~block_bytes:t.block_bytes |];
          t.dir.(fb).(slot) <- Some (name, inum);
          Hashtbl.replace t.file_dir_slot inum (fb, slot);
          write_dir_block t fb;
          let bd = charge t ~blocks:0 in
          (match maybe_flush t with
          | Ok fbd -> Ok (Breakdown.add bd fbd)
          | Error (e, _) -> Error e))

(* Defect-tolerant fetch of one physical block
   ({!Disk.Disk_sim.read_retrying}): the outcome, the retries made —
   counting them is the caller's choice — and [bd] plus every attempt's
   cost. *)
let read_pba_retrying t ~scsi ~bd pba =
  Disk.Disk_sim.read_retrying ~scsi ~bd t.disk
    ~lba:(Vlog.Freemap.lba_of_block (fm t) pba)
    ~sectors:t.spb

let read_data_block t vn fb =
  match Hashtbl.find_opt t.pending (vn.inum, fb) with
  | Some bytes -> (bytes, Breakdown.zero)
  | None ->
    let pba = if fb < Array.length vn.blocks then vn.blocks.(fb) else -1 in
    if pba < 0 then (Bytes.make t.block_bytes '\000', Breakdown.zero)
    else begin
      match Ufs.Buffer_cache.find t.cache pba with
      | Some bytes ->
        Trace.incr (sink t) "vlfs.cache_hits";
        (bytes, Breakdown.zero)
      | None ->
        (* Defect-tolerant fetch: retry transient errors a bounded number
           of times; a permanent error or ECC failure aborts the file
           operation with [`Io] rather than handing out corrupt bytes.
           Retries make this a multi-access subtotal, so it runs under
           its own span. *)
        let tr = sink t in
        let sp = Trace.enter tr "vlfs.rblock" in
        match read_pba_retrying t ~scsi:true ~bd:Breakdown.zero pba with
        | Ok bytes, retries, bd ->
          ignore (Ufs.Buffer_cache.insert t.cache pba bytes ~dirty:false);
          if retries > 0 then Trace.incr tr ~by:retries "vlfs.read_retries";
          Trace.exit tr ~bd sp;
          (bytes, bd)
        | Error e, retries, bd ->
          Trace.exit tr ~bd sp;
          raise (Io_abort (Blockdev.Device.err ~op:`Read ~block:pba ~e ~retries))
    end

let free_headroom t =
  Vlog.Freemap.free_total (fm t) - reserve_blocks - Vlog.Virtual_log.n_pieces t.vlog

let write_unchecked t name ~off data =
  match lookup t name with
  | Error _ as e -> e
  | Ok vn ->
    let len = Bytes.length data in
    if off < 0 || len = 0 then Error `Bad_offset
    else begin
      let first = off / t.block_bytes and last = (off + len - 1) / t.block_bytes in
      let fresh = ref 0 in
      for fb = first to last do
        let mapped = fb < Array.length vn.blocks && vn.blocks.(fb) >= 0 in
        if (not mapped) && not (Hashtbl.mem t.pending (vn.inum, fb)) then incr fresh
      done;
      if !fresh > free_headroom t - Hashtbl.length t.pending then Error `No_space
      else begin
        let bd = ref (charge t ~blocks:(last - first + 1)) in
        for fb = first to last do
          let block_off = fb * t.block_bytes in
          let lo = max off block_off and hi = min (off + len) (block_off + t.block_bytes) in
          let full = lo = block_off && hi = block_off + t.block_bytes in
          let contents, read_bd =
            if full then (Bytes.make t.block_bytes '\000', Breakdown.zero)
            else read_data_block t vn fb
          in
          bd := Breakdown.add !bd read_bd;
          let contents = Bytes.copy contents in
          Bytes.blit data (lo - off) contents (lo - block_off) (hi - lo);
          Hashtbl.replace t.pending (vn.inum, fb) contents;
          if fb >= Array.length vn.blocks then set_vnode_block vn fb (-1)
        done;
        vn.size <- max vn.size (off + len);
        for fb = first to last do
          Hashtbl.replace t.dirty_parts (vn.inum, part_of_fblock t fb) ()
        done;
        Hashtbl.replace t.dirty_parts (vn.inum, 0) ();
        match maybe_flush t with
        | Ok fbd -> Ok (Breakdown.add !bd fbd)
        | Error (e, _) -> Error e
      end
    end

let write t name ~off data =
  Trace.op (sink t) "vlfs.write" ~bd_of:Fun.id (fun () ->
      if t.mode <> `Rw then Error `Read_only
      else try write_unchecked t name ~off data with Io_abort e -> Error (`Io e))

let read_unchecked t name ~off ~len =
  match lookup t name with
  | Error _ as e -> e
  | Ok vn ->
    if off < 0 || len < 0 then Error `Bad_offset
    else begin
      let len = max 0 (min len (vn.size - off)) in
      let bd = ref (charge t ~blocks:((len + t.block_bytes - 1) / t.block_bytes)) in
      if len = 0 then Ok (Bytes.empty, !bd)
      else begin
        let first = off / t.block_bytes and last = (off + len - 1) / t.block_bytes in
        let out = Bytes.make len '\000' in
        for fb = first to last do
          let contents, cost = read_data_block t vn fb in
          bd := Breakdown.add !bd cost;
          let block_off = fb * t.block_bytes in
          let lo = max off block_off and hi = min (off + len) (block_off + t.block_bytes) in
          if hi > lo then Bytes.blit contents (lo - block_off) out (lo - off) (hi - lo)
        done;
        Ok (out, !bd)
      end
    end

let read t name ~off ~len =
  Trace.op (sink t) "vlfs.read" ~bd_of:snd (fun () ->
      try read_unchecked t name ~off ~len with Io_abort e -> Error (`Io e))

let rec delete t name =
  Trace.op (sink t) "vlfs.delete" ~bd_of:Fun.id (fun () -> delete_inner t name)

and delete_inner t name =
  if t.mode <> `Rw then Error `Read_only
  else
  match lookup t name with
  | Error _ as e -> e
  | Ok vn ->
    Hashtbl.remove t.files name;
    Hashtbl.remove t.by_inum vn.inum;
    Bytes.set t.inode_used vn.inum '\000';
    Hashtbl.replace t.dirty_parts (vn.inum, -1) (); (* unmaps its inode-map slots *)
    Hashtbl.iter
      (fun (inum, fb) _ -> if inum = vn.inum then Hashtbl.remove t.pending (vn.inum, fb))
      (Hashtbl.copy t.pending);
    (* Data blocks die with the inode; the map commit in the next flush
       makes it durable, but the space is reusable immediately because
       the in-memory inode (the pre-image owner) is gone. *)
    Array.iter
      (fun pba ->
        if pba >= 0 then begin
          Vlog.Freemap.release (fm t) pba;
          t.owner_inum.(pba) <- -1;
          t.owner_fblock.(pba) <- -1;
          Ufs.Buffer_cache.forget t.cache pba
        end)
      vn.blocks;
    (match Hashtbl.find_opt t.file_dir_slot vn.inum with
    | Some (didx, slot) ->
      t.dir.(didx).(slot) <- None;
      Hashtbl.remove t.file_dir_slot vn.inum;
      write_dir_block t didx
    | None -> ());
    let bd = charge t ~blocks:0 in
    (match maybe_flush t with
    | Ok fbd -> Ok (Breakdown.add bd fbd)
    | Error (e, _) -> Error e)

let sync t =
  Trace.group (sink t) "vlfs.sync" (fun () ->
      let bd = charge t ~blocks:0 in
      Breakdown.add bd (flush_bd t))

let fsync t name =
  Trace.incr (sink t) "vlfs.fsyncs";
  Trace.op (sink t) "vlfs.fsync" ~bd_of:Fun.id (fun () ->
      if t.mode <> `Rw then Error `Read_only
      else match lookup t name with Error _ as e -> e | Ok _ -> Ok (sync t))

let drop_caches t = Ufs.Buffer_cache.drop_clean t.cache

(* ---- compaction (hole-plugging; an optimization, never forced) ---- *)

let landing_track = 0

let is_empty_track t tr =
  Vlog.Freemap.free_in_track (fm t) tr = Vlog.Freemap.blocks_per_track (fm t)

let per_access_estimate t =
  let p = Disk.Disk_sim.profile t.disk in
  p.Disk.Profile.head_switch_ms +. Disk.Profile.revolution_ms p
  +. (float_of_int t.spb *. Disk.Profile.sector_ms p)

(* Empty one track as far as the deadline allows. *)
let compact_track t ~track ~deadline =
  let tr = sink t in
  let sp =
    if Trace.enabled tr then
      Trace.enter tr ~attrs:[ ("track", string_of_int track) ] ~unaccounted:true
        "vlfs.compact"
    else Io.no_span
  in
  let freemap = fm t in
  let est = per_access_estimate t in
  let exclude_target tr = tr = track in
  let exclude_data tr = tr = track || is_empty_track t tr in
  let entries = ref [] and rewrites = ref [] and moved = ref 0 in
  let out_of_time = ref false and stuck = ref false in
  let data_moves = ref [] in
  let base = track * Vlog.Freemap.blocks_per_track freemap in
  let relocate_inode_part logical =
    let inum = logical / max_parts and part = logical mod max_parts in
    match Hashtbl.find_opt t.by_inum inum with
    | None -> () (* stale entry about to be unmapped *)
    | Some vn -> (
      match
        Vlog.Eager.with_soft_exclusion (eager t) (is_empty_track t) (fun () ->
            Vlog.Eager.choose ~exclude_tracks:exclude_target ~greedy_only:true (eager t))
      with
      | None -> stuck := true
      | Some dest ->
        Vlog.Freemap.occupy freemap dest;
        ignore
          (Disk.Disk_sim.write ~scsi:false t.disk
             ~lba:(Vlog.Freemap.lba_of_block freemap dest)
             (encode_part t vn part));
        entries := (logical, Some dest) :: !entries;
        incr moved)
  in
  let relocate_data pba =
    match
      Vlog.Eager.with_soft_exclusion (eager t) (is_empty_track t) (fun () ->
          Vlog.Eager.choose ~exclude_tracks:exclude_data ~greedy_only:true (eager t))
    with
    | None -> stuck := true
    | Some dest ->
      let bytes, _ =
        Disk.Disk_sim.read ~scsi:false t.disk
          ~lba:(Vlog.Freemap.lba_of_block freemap pba)
          ~sectors:t.spb
      in
      Vlog.Freemap.occupy freemap dest;
      ignore
        (Disk.Disk_sim.write ~scsi:false t.disk
           ~lba:(Vlog.Freemap.lba_of_block freemap dest)
           bytes);
      data_moves := (pba, dest) :: !data_moves;
      incr moved
  in
  let consider pba =
    if (not !out_of_time) && not !stuck then begin
      if Clock.now t.clock +. (3. *. est) > deadline then out_of_time := true
      else if not (Vlog.Freemap.is_free freemap pba) then begin
        match Vlog.Virtual_log.logical_of_physical t.vlog pba with
        | Some logical -> relocate_inode_part logical
        | None ->
          if Vlog.Virtual_log.is_map_node t.vlog pba then begin
            let rec find i =
              if i >= Vlog.Virtual_log.n_pieces t.vlog then ()
              else if Vlog.Virtual_log.piece_location t.vlog i = Some pba then
                rewrites := i :: !rewrites
              else find (i + 1)
            in
            find 0
          end
          else if t.owner_inum.(pba) >= 0 then relocate_data pba
        (* anything else (the landing zone) is immovable: skip *)
      end
    end
  in
  for pba = base to base + Vlog.Freemap.blocks_per_track freemap - 1 do
    consider pba
  done;
  (* Commit: repoint moved data in the inodes and rewrite their parts,
     plus any map nodes that sat in the target, in one transaction. *)
  let dirty_parts = Hashtbl.create 8 in
  List.iter
    (fun (old_pba, dest) ->
      let inum = t.owner_inum.(old_pba) and fb = t.owner_fblock.(old_pba) in
      match Hashtbl.find_opt t.by_inum inum with
      | None -> ()
      | Some vn ->
        vn.blocks.(fb) <- dest;
        t.owner_inum.(dest) <- inum;
        t.owner_fblock.(dest) <- fb;
        t.owner_inum.(old_pba) <- -1;
        t.owner_fblock.(old_pba) <- -1;
        Ufs.Buffer_cache.forget t.cache old_pba;
        Hashtbl.replace dirty_parts (inum, part_of_fblock t fb) ();
        Hashtbl.replace dirty_parts (inum, 0) ())
    !data_moves;
  Hashtbl.iter
    (fun (inum, part) () ->
      match Hashtbl.find_opt t.by_inum inum with
      | None -> ()
      | Some vn -> (
        match
          Vlog.Eager.with_soft_exclusion (eager t) (is_empty_track t) (fun () ->
              Vlog.Eager.choose ~exclude_tracks:exclude_target ~greedy_only:true (eager t))
        with
        | None -> stuck := true
        | Some dest ->
          Vlog.Freemap.occupy freemap dest;
          ignore
            (Disk.Disk_sim.write ~scsi:false t.disk
               ~lba:(Vlog.Freemap.lba_of_block freemap dest)
               (encode_part t vn part));
          entries := ((inum * max_parts) + part, Some dest) :: !entries))
    dirty_parts;
  (* Apply in append order: when a part was both relocated during the
     scan and re-encoded after data moves, the later (fresher) entry must
     win, and the stale intermediate block is released by the update. *)
  if !entries <> [] || !rewrites <> [] then
    Vlog.Eager.with_exclusion (eager t) exclude_target (fun () ->
        Vlog.Eager.with_soft_exclusion (eager t) (is_empty_track t) (fun () ->
            ignore
              (Vlog.Virtual_log.update ~rewrite_pieces:!rewrites t.vlog
                 (List.rev !entries))));
  (* Old copies of moved data die now. *)
  List.iter (fun (old_pba, _) -> Vlog.Freemap.release freemap old_pba) !data_moves;
  let emptied = Vlog.Freemap.occupied_in_track freemap track = 0 in
  if emptied then Vlog.Eager.note_empty_track (eager t) track;
  t.comp_stats <-
    {
      tracks_emptied = (t.comp_stats.tracks_emptied + if emptied then 1 else 0);
      blocks_moved = t.comp_stats.blocks_moved + !moved;
    };
  if !moved > 0 then Trace.incr tr ~by:!moved "vlfs.compactor_moves";
  if emptied then Trace.incr tr "vlfs.tracks_emptied";
  Trace.exit tr sp;
  if emptied then `Emptied else if !out_of_time then `Out_of_time else `Stuck

let compact t ~deadline =
  let freemap = fm t in
  let eligible tr =
    tr <> landing_track
    && Some tr <> Vlog.Eager.active_track (eager t)
    && Vlog.Freemap.occupied_in_track freemap tr > 0
    && not (is_empty_track t tr)
  in
  let rec loop stuck_count =
    if Clock.now t.clock < deadline && stuck_count < 3 then begin
      let target =
        match t.comp_resume with
        | Some tr when eligible tr -> Some tr
        | _ ->
          let candidates =
            List.filter eligible (List.init (Vlog.Freemap.n_tracks freemap) Fun.id)
          in
          (match candidates with
          | [] -> None
          | cs -> Some (Prng.pick t.prng (Array.of_list cs)))
      in
      match target with
      | None -> ()
      | Some track ->
        t.comp_resume <- Some track;
        (match compact_track t ~track ~deadline with
        | `Emptied ->
          t.comp_resume <- None;
          loop 0
        | `Out_of_time -> ()
        | `Stuck ->
          t.comp_resume <- None;
          loop (stuck_count + 1))
    end
  in
  loop 0

let idle t dt =
  if dt > 0. then begin
    let tr = sink t in
    let sp = Trace.enter tr ~unaccounted:true "vlfs.idle" in
    let until = Clock.now t.clock +. dt in
    compact t ~deadline:until;
    (* Background-flush buffered writes with leftover idle time. *)
    if Hashtbl.length t.pending > 0 then begin
      let est = 1.5 *. per_access_estimate t *. float_of_int (Hashtbl.length t.pending) in
      if Clock.now t.clock +. est <= until then ignore (flush t)
    end;
    Trace.exit tr sp;
    Clock.advance_to t.clock until
  end

(* ---- power-down and recovery ---- *)

let power_down t =
  let bd = flush_bd t in
  Breakdown.add bd (Vlog.Virtual_log.power_down t.vlog)

type recovery_report = {
  vlog_report : Vlog.Virtual_log.recovery_report;
  inodes_loaded : int;
  inodes_skipped : int;
  files_found : int;
  dangling_dropped : int;
  duration : Breakdown.t;
}

let recover ~disk ~host ?(config = default_config) () =
  match Vlog.Virtual_log.recover ~disk () with
  | Error _ as e -> e
  | Ok (vlog, vreport) ->
    let clock = Disk.Disk_sim.clock disk in
    (* The inode count is a property of the on-disk format, not of the
       caller's expectations: derive it from the recovered log. *)
    let n_inodes =
      (Vlog.Virtual_log.config vlog).Vlog.Virtual_log.logical_blocks / max_parts
    in
    let config = { config with n_inodes } in
    let t = make ~disk ~vlog ~host ~clock config in
    let bd = ref vreport.Vlog.Virtual_log.duration in
    let reasons = ref [] in
    let degrade msg = if not (List.mem msg !reasons) then reasons := msg :: !reasons in
    let inodes_loaded = ref 0 and inodes_skipped = ref 0 and dangling = ref 0 in
    let n_phys = Vlog.Freemap.n_blocks (fm t) in
    (* Defect-tolerant fetch: bounded retry of transients, [None] for
       permanent damage — recovery must not raise on a rotted block. *)
    let read_pba pba =
      if pba < 0 || pba >= n_phys then None
      else
        let r, retries, total = read_pba_retrying t ~scsi:false ~bd:!bd pba in
        bd := total;
        match r with
        | Ok bytes ->
          if retries > 0 then Trace.incr (sink t) ~by:retries "vlfs.read_retries";
          Some bytes
        | Error _ -> None
    in
    (* Load every mapped inode; its part-0 header sizes the pointer
       array, later parts fill it in.  Unverifiable parts skip the whole
       inode and degrade the mount rather than serving garbage. *)
    for inum = 0 to config.n_inodes - 1 do
      match Vlog.Virtual_log.lookup vlog (inum * max_parts) with
      | None -> ()
      | Some pba0 ->
        let skip msg =
          incr inodes_skipped;
          degrade msg
        in
        (match read_pba pba0 with
        | None -> skip (Printf.sprintf "inode %d: part 0 unreadable" inum)
        | Some buf -> (
          match decode_part0 t ~inum buf with
          | None -> skip (Printf.sprintf "inode %d: part 0 corrupt" inum)
          | Some vn ->
            let ok = ref true in
            for p = 1 to parts_needed t (Array.length vn.blocks) - 1 do
              if !ok then
                match Vlog.Virtual_log.lookup vlog ((inum * max_parts) + p) with
                | None ->
                  ok := false;
                  skip (Printf.sprintf "inode %d: part %d missing from the map" inum p)
                | Some pba -> (
                  match read_pba pba with
                  | None ->
                    ok := false;
                    skip (Printf.sprintf "inode %d: part %d unreadable" inum p)
                  | Some pbuf ->
                    if not (part_checksum_ok t pbuf) then begin
                      ok := false;
                      skip (Printf.sprintf "inode %d: part %d corrupt" inum p)
                    end
                    else decode_part_into t vn p pbuf)
            done;
            if !ok then begin
              Hashtbl.replace t.by_inum inum vn;
              Bytes.set t.inode_used inum '\001';
              incr inodes_loaded;
              (* Re-derive data-block occupancy, rejecting pointers that
                 contradict what is already claimed. *)
              Array.iteri
                (fun fb pba ->
                  if pba >= 0 then begin
                    if pba >= n_phys then begin
                      degrade
                        (Printf.sprintf "inode %d block %d out of range" inum fb);
                      vn.blocks.(fb) <- -1
                    end
                    else if t.owner_inum.(pba) >= 0 then begin
                      degrade (Printf.sprintf "physical block %d double-claimed" pba);
                      vn.blocks.(fb) <- -1
                    end
                    else if not (Vlog.Freemap.is_free (fm t) pba) then begin
                      degrade
                        (Printf.sprintf
                           "inode %d block %d points into the log structure" inum fb);
                      vn.blocks.(fb) <- -1
                    end
                    else begin
                      Vlog.Freemap.occupy (fm t) pba;
                      t.owner_inum.(pba) <- inum;
                      t.owner_fblock.(pba) <- fb
                    end
                  end)
                vn.blocks
            end))
    done;
    (* Rebuild the directory from file 0's blocks.  Every flush commits
       dirents and inodes in one map transaction, so a dangling dirent is
       never a legal crash state here (unlike UFS/LFS) — it degrades. *)
    (match Hashtbl.find_opt t.by_inum dir_inum with
    | None ->
      let dirn = { inum = dir_inum; size = 0; blocks = [||] } in
      Hashtbl.replace t.by_inum dir_inum dirn;
      Bytes.set t.inode_used dir_inum '\001'
    | Some dirn ->
      let dir_blocks = (dirn.size + t.block_bytes - 1) / t.block_bytes in
      t.dir <-
        Array.init dir_blocks (fun fb ->
            let slots = Ufs.Dir.empty_block ~block_bytes:t.block_bytes in
            (if fb < Array.length dirn.blocks && dirn.blocks.(fb) >= 0 then begin
               match read_pba dirn.blocks.(fb) with
               | None -> degrade (Printf.sprintf "directory block %d unreadable" fb)
               | Some buf ->
                 List.iter
                   (function
                     | Error _ ->
                       degrade (Printf.sprintf "directory block %d: malformed entry" fb)
                     | Ok { Ufs.Dir.slot; name; inum } -> (
                       match Hashtbl.find_opt t.by_inum inum with
                       | None ->
                         incr dangling;
                         degrade
                           (Printf.sprintf "dirent %S references missing inode %d"
                              name inum)
                       | Some vn ->
                         if Hashtbl.mem t.files name then
                           degrade
                             (Printf.sprintf "duplicate directory entry %S" name)
                         else if Hashtbl.mem t.file_dir_slot inum then
                           degrade
                             (Printf.sprintf
                                "inode %d claimed by two directory entries" inum)
                         else begin
                           slots.(slot) <- Some (name, inum);
                           Hashtbl.replace t.files name vn;
                           Hashtbl.replace t.file_dir_slot inum (fb, slot)
                         end))
                   (Ufs.Dir.decode_block ~first_inum:1 ~n_inodes:config.n_inodes buf)
             end);
            slots));
    (* An inode no dirent names can only come from corruption (the same
       atomicity argument); drop it and release its claims. *)
    Hashtbl.fold
      (fun inum _ acc ->
        if inum <> dir_inum && not (Hashtbl.mem t.file_dir_slot inum) then inum :: acc
        else acc)
      t.by_inum []
    |> List.iter (fun inum ->
           degrade (Printf.sprintf "orphan inode %d" inum);
           (match Hashtbl.find_opt t.by_inum inum with
           | Some vn ->
             Array.iter
               (fun pba ->
                 if pba >= 0 && t.owner_inum.(pba) = inum then begin
                   Vlog.Freemap.release (fm t) pba;
                   t.owner_inum.(pba) <- -1;
                   t.owner_fblock.(pba) <- -1
                 end)
               vn.blocks
           | None -> ());
           Hashtbl.remove t.by_inum inum;
           Bytes.set t.inode_used inum '\000');
    Vlog.Eager.rescan_empty_tracks (eager t);
    if !reasons <> [] then t.mode <- `Degraded (String.concat "; " (List.rev !reasons));
    Ok
      ( t,
        {
          vlog_report = vreport;
          inodes_loaded = !inodes_loaded;
          inodes_skipped = !inodes_skipped;
          files_found = Hashtbl.length t.files;
          dangling_dropped = !dangling;
          duration = !bd;
        } )

let mode t = t.mode

let check_invariants t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match Vlog.Virtual_log.check_invariants t.vlog with
  | Ok () -> ()
  | Error e -> err "vlog: %s" e);
  Hashtbl.iter
    (fun inum vn ->
      Array.iteri
        (fun fb pba ->
          if pba >= 0 then begin
            if Vlog.Freemap.is_free (fm t) pba then
              err "inode %d block %d points at free physical %d" inum fb pba;
            if t.owner_inum.(pba) <> inum || t.owner_fblock.(pba) <> fb then
              err "owner map disagrees for physical %d" pba
          end)
        vn.blocks)
    t.by_inum;
  Array.iteri
    (fun pba inum ->
      if inum >= 0 then
        match Hashtbl.find_opt t.by_inum inum with
        | Some vn ->
          let fb = t.owner_fblock.(pba) in
          if fb >= Array.length vn.blocks || vn.blocks.(fb) <> pba then
            err "stale owner entry: physical %d -> inode %d block %d" pba inum fb
        | None -> err "owner entry for dead inode %d at physical %d" inum pba)
    t.owner_inum;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

(* ---- checker access ---- *)

let disk t = t.disk
let vlog t = t.vlog
let config t = t.cfg
let n_physical_blocks t = Vlog.Freemap.n_blocks (fm t)

let dir_entries t =
  Hashtbl.fold (fun name vn acc -> (name, vn.inum) :: acc) t.files []
  |> List.sort compare

let live_inums t =
  Hashtbl.fold (fun i _ acc -> i :: acc) t.by_inum [] |> List.sort compare

let inode_blocks t inum =
  Option.map
    (fun vn -> (vn.size, Array.copy vn.blocks))
    (Hashtbl.find_opt t.by_inum inum)

let owner_of t pba =
  if pba < 0 || pba >= Array.length t.owner_inum || t.owner_inum.(pba) < 0 then None
  else Some (t.owner_inum.(pba), t.owner_fblock.(pba))

let verify_media t =
  if Hashtbl.length t.pending > 0 || Hashtbl.length t.dirty_parts > 0 then
    [
      ( "unflushed",
        Printf.sprintf "%d data blocks and %d inode parts buffered"
          (Hashtbl.length t.pending)
          (Hashtbl.length t.dirty_parts) );
    ]
  else begin
    let findings = ref [] in
    let add c d = findings := (c, d) :: !findings in
    (* Retry transients like every other read path: only permanent
       damage is a media finding.  Uncounted and uncharged. *)
    let read_raw pba =
      let r, _, _ = read_pba_retrying t ~scsi:false ~bd:Breakdown.zero pba in
      Result.to_option r
    in
    Hashtbl.iter
      (fun inum vn ->
        for p = 0 to parts_needed t (logical_blocks_of t vn) - 1 do
          match Vlog.Virtual_log.lookup t.vlog ((inum * max_parts) + p) with
          | None ->
            (* Only reachable for an inode that has never been flushed —
               e.g. the empty directory recovery synthesizes when no
               durable dir part exists; loaded inodes always had their
               parts mapped. *)
            add "unflushed"
              (Printf.sprintf "inode %d part %d never written" inum p)
          | Some pba -> (
            match read_raw pba with
            | None ->
              add "io-unreadable"
                (Printf.sprintf "inode %d part %d (physical %d)" inum p pba)
            | Some buf ->
              let ok =
                if p = 0 then decode_part0 t ~inum buf <> None
                else part_checksum_ok t buf
              in
              if not ok then
                add "bad-checksum"
                  (Printf.sprintf "inode %d part %d (physical %d)" inum p pba))
        done)
      t.by_inum;
    List.rev !findings
  end
