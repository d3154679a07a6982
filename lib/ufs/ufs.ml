module Inode = Inode
module Buffer_cache = Buffer_cache
module Dir = Dir
open Vlog_util

type config = {
  sync_data : bool;
  n_inodes : int;
  cache_blocks : int;
  readahead_blocks : int;
}

let default_config =
  { sync_data = true; n_inodes = 4096; cache_blocks = 1536; readahead_blocks = 8 }

type error = Blockdev.Fs_error.t

let pp_error = Blockdev.Fs_error.pp

type file = {
  inode : Inode.t;
  name : string;
  mutable dir_slot : int * int; (* directory block index (in dir list), slot *)
  mutable seq_off : int;
  mutable seq_hits : int;
}

type dir_block = { dblock : int; slots : Dir.slots }

type t = {
  dev : Blockdev.Device.t;
  host : Host.t;
  clock : Clock.t;
  cfg : config;
  block_bytes : int;
  frag_bytes : int;
  frags_per_block : int;
  ptrs_per_block : int;
  inode_table_start : int;
  inode_table_blocks : int;
  inodes_per_block : int;
  data_start : int;
  n_blocks : int;
  bitmap : Bytes.t; (* device-block occupancy, reserved regions pre-marked *)
  mutable allocated_data : int;
  mutable rover : int;
  files : (string, file) Hashtbl.t;
  by_inum : (int, Inode.t) Hashtbl.t;
  inode_used : Bytes.t;
  mutable inode_rover : int;
  mutable dir : dir_block array;
  cache : Buffer_cache.t;
  ra_buf : Bytes.t; (* read-ahead destination: [readahead_blocks] blocks *)
  frag_slots : (int, bool array) Hashtbl.t; (* frag block -> slot occupancy *)
  frag_data : (int, Bytes.t) Hashtbl.t; (* authoritative frag block contents *)
  mutable last_frag_block : int; (* preferred frag block for new tails *)
  mutable sb_gen : int; (* superblock generation; slot = gen land 1 *)
  mutable mode : [ `Rw | `Degraded of string ];
}

let max_frag_slots = 3 (* a 4-slot tail is just a full block *)

(* ---- superblock ----

   UFS keeps no on-disk free bitmap (reachability from the inodes
   reconstructs it), but the directory blocks are reachable from nowhere
   else, so the superblock lists them.  Two alternating checksummed
   slots at device blocks 0 and 1: the superblock is rewritten whenever
   the directory grows, and a torn rewrite must not orphan the whole
   namespace. *)

let superblock_magic = "UFSSUPB2"

let encode_superblock_of ~block_bytes ~gen ~n_inodes ~dir_blocks =
  let sb = Bytes.make block_bytes '\000' in
  Bytes.blit_string superblock_magic 0 sb 0 8;
  Bytes.set_int64_le sb 8 (Int64.of_int gen);
  Bytes.set_int32_le sb 16 (Int32.of_int n_inodes);
  Bytes.set_int32_le sb 20 (Int32.of_int (Array.length dir_blocks));
  Array.iteri
    (fun i b -> Bytes.set_int32_le sb (24 + (i * 4)) (Int32.of_int b))
    dir_blocks;
  Checksum.seal sb ~pos:0 ~len:(block_bytes - 8);
  sb

let decode_superblock ~block_bytes buf =
  if Bytes.length buf <> block_bytes then None
  else if not (String.equal (Bytes.sub_string buf 0 8) superblock_magic) then None
  else if not (Checksum.sealed buf ~pos:0 ~len:(block_bytes - 8)) then None
  else
    let i32 off = Int32.to_int (Bytes.get_int32_le buf off) in
    let count = i32 20 in
    if count < 0 || 24 + (count * 4) > block_bytes - 8 then None
    else
      Some
        ( Int64.to_int (Bytes.get_int64_le buf 8),
          i32 16,
          Array.init count (fun i -> i32 (24 + (i * 4))) )

(* In-memory state of an empty file system on [dev]; [None] when the
   inode table leaves no data area.  [format] and [mount] both start here. *)
let blank ~dev ~host ~clock cfg =
  let block_bytes = dev.Blockdev.Device.block_bytes in
  let inodes_per_block = block_bytes / Inode.bytes_per_inode in
  let inode_table_blocks = (cfg.n_inodes + inodes_per_block - 1) / inodes_per_block in
  let n_blocks = dev.Blockdev.Device.n_blocks in
  let data_start = 2 + inode_table_blocks in
  if data_start >= n_blocks then None
  else begin
    let bitmap = Bytes.make n_blocks '\000' in
    Bytes.fill bitmap 0 data_start '\001';
    Some
      {
        dev;
        host;
        clock;
        cfg;
        block_bytes;
        frag_bytes = block_bytes / 4;
        frags_per_block = 4;
        ptrs_per_block = block_bytes / 4;
        inode_table_start = 2;
        inode_table_blocks;
        inodes_per_block;
        data_start;
        n_blocks;
        bitmap;
        allocated_data = 0;
        rover = data_start;
        files = Hashtbl.create 256;
        by_inum = Hashtbl.create 256;
        inode_used = Bytes.make cfg.n_inodes '\000';
        inode_rover = 0;
        dir = [||];
        cache = Buffer_cache.create ~capacity:cfg.cache_blocks;
        ra_buf = Bytes.create (max 0 cfg.readahead_blocks * block_bytes);
        frag_slots = Hashtbl.create 64;
        frag_data = Hashtbl.create 64;
        last_frag_block = -1;
        sb_gen = 0;
        mode = `Rw;
      }
  end

let format ~dev ~host ~clock cfg =
  match blank ~dev ~host ~clock cfg with
  | None -> invalid_arg "Ufs.format: device too small"
  | Some t ->
    let sb =
      encode_superblock_of ~block_bytes:t.block_bytes ~gen:0 ~n_inodes:cfg.n_inodes
        ~dir_blocks:[||]
    in
    ignore (Blockdev.Device.write t.dev 0 sb);
    t

let device t = t.dev
let block_bytes t = t.block_bytes
let exists t name = Hashtbl.mem t.files name
let files t = Hashtbl.fold (fun name _ acc -> name :: acc) t.files [] |> List.sort compare

let allocated_blocks t = t.data_start + t.allocated_data
let utilization t = float_of_int (allocated_blocks t) /. float_of_int t.n_blocks

let sink t = t.dev.Blockdev.Device.trace
let charge t ~blocks = Host.charge ~trace:(sink t) t.host ~clock:t.clock ~blocks

(* ---- block allocation ---- *)

let alloc_block t ~near =
  let start = if near >= t.data_start && near < t.n_blocks then near else t.rover in
  let try_at b = Bytes.get t.bitmap b = '\000' in
  let rec scan b remaining =
    if remaining = 0 then None
    else if try_at b then Some b
    else
      let b' = if b + 1 >= t.n_blocks then t.data_start else b + 1 in
      scan b' (remaining - 1)
  in
  match scan start (t.n_blocks - t.data_start) with
  | None -> None
  | Some b ->
    Bytes.set t.bitmap b '\001';
    t.allocated_data <- t.allocated_data + 1;
    t.rover <- (if b + 1 >= t.n_blocks then t.data_start else b + 1);
    Some b

let free_block t b =
  if Bytes.get t.bitmap b = '\000' then invalid_arg "Ufs.free_block: block already free";
  Bytes.set t.bitmap b '\000';
  t.allocated_data <- t.allocated_data - 1;
  Buffer_cache.forget t.cache b

(* ---- low-level I/O helpers (all flow through the buffer cache) ---- *)

(* Any helper whose returned breakdown folds several device operations
   runs under a [Trace.group] span, so a caller's accumulator adds one
   child subtotal in the same grouping the sink folds — [Breakdown.add]
   is not associative in floats. *)
let flush_victims t victims =
  if victims = [] then Breakdown.zero
  else
    Trace.group (sink t) "ufs.evict" (fun () ->
        List.fold_left
          (fun bd (block, bytes) ->
            Breakdown.add bd (Blockdev.Device.write t.dev block bytes))
          Breakdown.zero victims)

let cache_insert t block bytes ~dirty =
  let victims = Buffer_cache.insert t.cache block bytes ~dirty in
  flush_victims t victims

let write_block_sync t block bytes =
  Trace.group (sink t) "ufs.wsync" (fun () ->
      let bd = Blockdev.Device.write t.dev block bytes in
      let bd' = cache_insert t block bytes ~dirty:false in
      Buffer_cache.mark_clean t.cache block;
      Breakdown.add bd bd')

let write_block_async t block bytes = cache_insert t block bytes ~dirty:true

let read_block t block =
  match Buffer_cache.find t.cache block with
  | Some bytes ->
    Trace.incr (sink t) "ufs.cache_hits";
    (bytes, Breakdown.zero)
  | None ->
    let tr = sink t in
    let sp = Trace.enter tr "ufs.rblock" in
    let bytes, bd = Blockdev.Device.read t.dev block in
    let total = Breakdown.add bd (cache_insert t block bytes ~dirty:false) in
    Trace.exit tr ~bd:total sp;
    (bytes, total)

(* ---- metadata writes ---- *)

let inode_block_of t inum = t.inode_table_start + (inum / t.inodes_per_block)

let compose_inode_block t inum =
  let first = inum / t.inodes_per_block * t.inodes_per_block in
  let buf = Bytes.make t.block_bytes '\000' in
  for slot = 0 to t.inodes_per_block - 1 do
    let i = first + slot in
    match Hashtbl.find_opt t.by_inum i with
    | Some inode ->
      Bytes.blit (Inode.encode inode) 0 buf (slot * Inode.bytes_per_inode)
        Inode.bytes_per_inode
    | None -> ()
  done;
  buf

let write_inode t inode ~sync =
  let block = inode_block_of t inode.Inode.inum in
  let buf = compose_inode_block t inode.Inode.inum in
  if sync then write_block_sync t block buf else write_block_async t block buf

let ind1_window = Inode.direct_count

let write_indirect t inode which ~sync =
  let buf, block =
    match which with
    | `Ind1 ->
      ( Inode.encode_indirect ~ptrs_per_block:t.ptrs_per_block inode.Inode.blocks
          ~offset:ind1_window,
        inode.Inode.ind1 )
    | `Ind2 ->
      (* The double-indirect block stores pointers to its children. *)
      let children = inode.Inode.ind2_children in
      let buf = Bytes.make t.block_bytes '\000' in
      Array.iteri
        (fun i c -> if i * 4 + 4 <= t.block_bytes then Bytes.set_int32_le buf (i * 4) (Int32.of_int c))
        children;
      (buf, inode.Inode.ind2)
    | `Ind2_child j ->
      let offset = ind1_window + t.ptrs_per_block + (j * t.ptrs_per_block) in
      ( Inode.encode_indirect ~ptrs_per_block:t.ptrs_per_block inode.Inode.blocks ~offset,
        inode.Inode.ind2_children.(j) )
  in
  assert (block >= 0);
  if sync then write_block_sync t block buf else write_block_async t block buf

(* Ensure the metadata path for file block [i] exists; returns
   (allocated-something, error option, breakdown-free list of metadata to
   rewrite). *)
let ensure_metadata_path t inode i =
  let missing = ref [] in
  let failed = ref false in
  let need_ind1 = i >= ind1_window in
  let need_ind2 = i >= ind1_window + t.ptrs_per_block in
  if need_ind1 && (not need_ind2) && inode.Inode.ind1 < 0 then begin
    match alloc_block t ~near:t.rover with
    | Some b ->
      inode.Inode.ind1 <- b;
      missing := `Ind1 :: !missing
    | None -> failed := true
  end;
  if need_ind2 then begin
    if inode.Inode.ind2 < 0 then begin
      match alloc_block t ~near:t.rover with
      | Some b ->
        inode.Inode.ind2 <- b;
        missing := `Ind2 :: !missing
      | None -> failed := true
    end;
    let j = (i - ind1_window - t.ptrs_per_block) / t.ptrs_per_block in
    if not !failed then begin
      if Array.length inode.Inode.ind2_children <= j then begin
        let grown = Array.make (j + 1) (-1) in
        Array.blit inode.Inode.ind2_children 0 grown 0
          (Array.length inode.Inode.ind2_children);
        inode.Inode.ind2_children <- grown
      end;
      if inode.Inode.ind2_children.(j) < 0 then begin
        match alloc_block t ~near:t.rover with
        | Some b ->
          inode.Inode.ind2_children.(j) <- b;
          missing := `Ind2 :: `Ind2_child j :: !missing
        | None -> failed := true
      end
    end
  end;
  if !failed then Error `No_space else Ok !missing

(* ---- fragments ---- *)

let frag_capacity t = max_frag_slots * t.frag_bytes

let alloc_frags t ~slots =
  (* Prefer the most recent partially-filled frag block with a contiguous
     run; otherwise start a fresh one. *)
  let find_run occupancy =
    let n = Array.length occupancy in
    let rec go i =
      if i + slots > n then None
      else if Array.for_all Fun.id (Array.init slots (fun k -> not occupancy.(i + k))) then
        Some i
      else go (i + 1)
    in
    go 0
  in
  let in_existing =
    if t.last_frag_block >= 0 then
      match Hashtbl.find_opt t.frag_slots t.last_frag_block with
      | Some occ -> (
        match find_run occ with Some s -> Some (t.last_frag_block, s) | None -> None)
      | None -> None
    else None
  in
  match in_existing with
  | Some (block, slot) ->
    let occ = Hashtbl.find t.frag_slots block in
    for k = 0 to slots - 1 do
      occ.(slot + k) <- true
    done;
    Some (block, slot)
  | None -> (
    match alloc_block t ~near:t.rover with
    | None -> None
    | Some block ->
      let occ = Array.make t.frags_per_block false in
      for k = 0 to slots - 1 do
        occ.(k) <- true
      done;
      Hashtbl.replace t.frag_slots block occ;
      Hashtbl.replace t.frag_data block (Bytes.make t.block_bytes '\000');
      t.last_frag_block <- block;
      Some (block, 0))

let free_frags t (block, slot, slots) =
  match Hashtbl.find_opt t.frag_slots block with
  | None -> ()
  | Some occ ->
    for k = 0 to slots - 1 do
      occ.(slot + k) <- false
    done;
    if Array.for_all not occ then begin
      Hashtbl.remove t.frag_slots block;
      Hashtbl.remove t.frag_data block;
      if t.last_frag_block = block then t.last_frag_block <- -1;
      free_block t block
    end

let write_frag_block t block ~sync =
  let buf = Bytes.copy (Hashtbl.find t.frag_data block) in
  if sync then write_block_sync t block buf else write_block_async t block buf

(* ---- directory ---- *)

let write_dir_block t idx ~sync =
  let db = t.dir.(idx) in
  let buf = Dir.encode_block db.slots in
  if sync then write_block_sync t db.dblock buf else write_block_async t db.dblock buf

let write_superblock t =
  t.sb_gen <- t.sb_gen + 1;
  let dir_blocks = Array.map (fun db -> db.dblock) t.dir in
  let sb =
    encode_superblock_of ~block_bytes:t.block_bytes ~gen:t.sb_gen
      ~n_inodes:t.cfg.n_inodes ~dir_blocks
  in
  write_block_sync t (t.sb_gen land 1) sb

(* The allocation path performs device writes, so the returned breakdown
   must be folded into the caller's accumulator in chronological
   position. *)
let find_dir_slot t =
  match Dir.free_slot (Array.map (fun db -> db.slots) t.dir) with
  | i, slot when i < Array.length t.dir -> Some (i, slot, Breakdown.zero)
  | _ -> (
    match alloc_block t ~near:t.rover with
    | None -> None
    | Some b ->
      (* Zero the block on the platter before the superblock names it: a
         crash in between must not leave the superblock pointing at stale
         reallocated data that could decode as directory entries. *)
      let bd = write_block_sync t b (Bytes.make t.block_bytes '\000') in
      let db = { dblock = b; slots = Dir.empty_block ~block_bytes:t.block_bytes } in
      t.dir <- Array.append t.dir [| db |];
      let bd = Breakdown.add bd (write_superblock t) in
      Some (Array.length t.dir - 1, 0, bd))

(* ---- public operations ---- *)

let alloc_inum t =
  let n = t.cfg.n_inodes in
  let rec go tried i =
    if tried >= n then None
    else if Bytes.get t.inode_used i = '\000' then begin
      Bytes.set t.inode_used i '\001';
      t.inode_rover <- (i + 1) mod n;
      Some i
    end
    else go (tried + 1) ((i + 1) mod n)
  in
  go 0 t.inode_rover

let create_inner t name =
  if t.mode <> `Rw then Error `Read_only
  else if not (Dir.valid_name name) then Error (`Bad_name name)
  else if Hashtbl.mem t.files name then Error (`Exists name)
  else
    match alloc_inum t with
    | None -> Error `No_inodes
    | Some inum -> (
      match find_dir_slot t with
      | None ->
        Bytes.set t.inode_used inum '\000';
        Error `No_space
      | Some (didx, slot, alloc_bd) ->
        let inode = Inode.create ~inum in
        let file = { inode; name; dir_slot = (didx, slot); seq_off = -1; seq_hits = 0 } in
        Hashtbl.replace t.files name file;
        Hashtbl.replace t.by_inum inum inode;
        t.dir.(didx).slots.(slot) <- Some (name, inum);
        (* Namespace changes hit the platter synchronously. *)
        let bd = Breakdown.add alloc_bd (charge t ~blocks:0) in
        let bd = Breakdown.add bd (write_inode t inode ~sync:true) in
        let bd = Breakdown.add bd (write_dir_block t didx ~sync:true) in
        Ok bd)

let create t name =
  Trace.op (sink t) "ufs.create" ~bd_of:Fun.id (fun () -> create_inner t name)

let lookup t name =
  match Hashtbl.find_opt t.files name with
  | Some f -> Ok f
  | None -> Error (`Not_found name)

let file_size t name = Result.map (fun f -> f.inode.Inode.size) (lookup t name)

(* Read current contents of file block [i] for a read-modify-write, from
   cache or platter; zeros when unallocated. *)
let file_block_contents t inode i =
  let b = Inode.get_block inode i in
  if b < 0 then (Bytes.make t.block_bytes '\000', Breakdown.zero) else read_block t b

let promote_from_frags t file =
  let inode = file.inode in
  match inode.Inode.frag with
  | None -> Ok Breakdown.zero
  | Some (fblock, slot, slots) -> (
    match alloc_block t ~near:t.rover with
    | None -> Error `No_space
    | Some b ->
      let data = Bytes.make t.block_bytes '\000' in
      let src = Hashtbl.find t.frag_data fblock in
      Bytes.blit src (slot * t.frag_bytes) data 0 (slots * t.frag_bytes);
      Inode.set_block inode 0 b;
      inode.Inode.frag <- None;
      free_frags t (fblock, slot, slots);
      let bd =
        if t.cfg.sync_data then write_block_sync t b data else write_block_async t b data
      in
      Ok bd)

(* [init] is the breakdown accumulated so far inside the enclosing
   ["ufs.write"] span (non-zero only on the promote-then-retry path);
   threading it through keeps the final value a single chronological
   left-fold of the span's children. *)
let rec write_inner t name ~init ~off data =
  match lookup t name with
  | Error _ as e -> e
  | Ok file ->
    let len = Bytes.length data in
    if off < 0 || len = 0 then Error `Bad_offset
    else begin
      let inode = file.inode in
      let new_size = max inode.Inode.size (off + len) in
      let small = new_size <= frag_capacity t in
      let currently_frag = inode.Inode.frag <> None || Inode.file_blocks inode = 0 in
      if small && currently_frag && inode.Inode.size = 0 && off = 0 then
        write_small t file ~init data
      else if (not small) && inode.Inode.frag <> None then begin
        match promote_from_frags t file with
        | Error _ as e -> e
        | Ok bd -> write_inner t name ~init:(Breakdown.add init bd) ~off data
      end
      else if small && inode.Inode.frag <> None then
        write_small_update t file ~init ~off data
      else write_blocks t file ~init ~off data
    end

and write_small t file ~init data =
  (* First write of a small file: place it in fragments. *)
  let inode = file.inode in
  let len = Bytes.length data in
  let slots = (len + t.frag_bytes - 1) / t.frag_bytes in
  match alloc_frags t ~slots with
  | None -> Error `No_space
  | Some (block, slot) ->
    let buf = Hashtbl.find t.frag_data block in
    Bytes.blit data 0 buf (slot * t.frag_bytes) len;
    inode.Inode.frag <- Some (block, slot, slots);
    inode.Inode.size <- len;
    let bd = Breakdown.add init (charge t ~blocks:1) in
    let bd = Breakdown.add bd (write_frag_block t block ~sync:t.cfg.sync_data) in
    let bd = Breakdown.add bd (write_inode t inode ~sync:t.cfg.sync_data) in
    Ok bd

and write_small_update t file ~init ~off data =
  let inode = file.inode in
  let len = Bytes.length data in
  let new_size = max inode.Inode.size (off + len) in
  let need = (new_size + t.frag_bytes - 1) / t.frag_bytes in
  match inode.Inode.frag with
  | None -> Error `Bad_offset
  | Some (block, slot, slots) ->
    let grow () =
      if need <= slots then Ok (block, slot, slots)
      else begin
        (* Reallocate a bigger contiguous run and copy. *)
        match alloc_frags t ~slots:need with
        | None -> Error `No_space
        | Some (nb, ns) ->
          let src = Hashtbl.find t.frag_data block in
          let dst = Hashtbl.find t.frag_data nb in
          Bytes.blit src (slot * t.frag_bytes) dst (ns * t.frag_bytes)
            (slots * t.frag_bytes);
          free_frags t (block, slot, slots);
          Ok (nb, ns, need)
      end
    in
    (match grow () with
    | Error _ as e -> e
    | Ok (block, slot, slots) ->
      let buf = Hashtbl.find t.frag_data block in
      Bytes.blit data 0 buf ((slot * t.frag_bytes) + off) len;
      inode.Inode.frag <- Some (block, slot, slots);
      let meta_changed = new_size <> inode.Inode.size in
      inode.Inode.size <- new_size;
      let bd = Breakdown.add init (charge t ~blocks:1) in
      let bd = Breakdown.add bd (write_frag_block t block ~sync:t.cfg.sync_data) in
      let bd =
        if meta_changed then Breakdown.add bd (write_inode t inode ~sync:t.cfg.sync_data)
        else bd
      in
      Ok bd)

and write_blocks t file ~init ~off data =
  let inode = file.inode in
  let len = Bytes.length data in
  let first = off / t.block_bytes and last = (off + len - 1) / t.block_bytes in
  let bd = ref (Breakdown.add init (charge t ~blocks:(last - first + 1))) in
  let dirty_meta = ref [] and meta_err = ref None in
  let note_meta m = if not (List.mem m !dirty_meta) then dirty_meta := m :: !dirty_meta in
  for i = first to last do
    if !meta_err = None then begin
      let block_off = i * t.block_bytes in
      let lo = max off block_off and hi = min (off + len) (block_off + t.block_bytes) in
      let full = lo = block_off && hi = block_off + t.block_bytes in
      let contents, read_bd =
        if full then
          (* One copy of the payload range; a fresh buffer the cache may own. *)
          (Bytes.sub data (lo - off) t.block_bytes, Breakdown.zero)
        else begin
          let c, read_bd = file_block_contents t inode i in
          (* Shared cache contents: copy before modifying. *)
          let c = Bytes.copy c in
          Bytes.blit data (lo - off) c (lo - block_off) (hi - lo);
          (c, read_bd)
        end
      in
      bd := Breakdown.add !bd read_bd;
      (if Inode.get_block inode i < 0 then begin
         match ensure_metadata_path t inode i with
         | Error e -> meta_err := Some e
         | Ok missing ->
           List.iter note_meta missing;
           let near =
             if i > 0 && Inode.get_block inode (i - 1) >= 0 then
               Inode.get_block inode (i - 1) + 1
             else t.rover
           in
           (match alloc_block t ~near with
           | None -> meta_err := Some `No_space
           | Some b ->
             Inode.set_block inode i b;
             List.iter note_meta
               (List.filter (fun m -> m <> `Inode) (Inode.metadata_chain ~ptrs_per_block:t.ptrs_per_block i));
             note_meta `Inode)
       end);
      if !meta_err = None then begin
        let b = Inode.get_block inode i in
        let cost =
          if t.cfg.sync_data then write_block_sync t b contents
          else write_block_async t b contents
        in
        bd := Breakdown.add !bd cost
      end
    end
  done;
  match !meta_err with
  | Some e -> Error e
  | None ->
    let new_size = max inode.Inode.size (off + len) in
    if new_size <> inode.Inode.size then begin
      inode.Inode.size <- new_size;
      note_meta `Inode
    end;
    (* Allocation metadata follows the data-sync mount flag; namespace
       metadata (create/delete) is always synchronous. *)
    let sync = t.cfg.sync_data in
    List.iter
      (fun m ->
        let cost =
          match m with
          | `Inode -> write_inode t inode ~sync
          | (`Ind1 | `Ind2 | `Ind2_child _) as w -> write_indirect t inode w ~sync
        in
        bd := Breakdown.add !bd cost)
      (List.rev !dirty_meta);
    Ok !bd

let write t name ~off data =
  Trace.op (sink t) "ufs.write" ~bd_of:Fun.id (fun () ->
      if t.mode <> `Rw then Error `Read_only
      else write_inner t name ~init:Breakdown.zero ~off data)

(* Read file blocks [first..last] into [dst], block [i] at
   [(i - first) * block_bytes].  Uncached blocks whose device blocks are
   consecutive go down as one run, read straight into place; cache hits
   are copied in and holes zero-filled.  Every block read from the
   device enters the cache as its own copy, in file order.  [label]
   names the group span ("ufs.rblocks" or "ufs.readahead"). *)
let read_file_blocks t inode ~first ~last dst ~label =
  let tr = sink t in
  let sp = Trace.enter tr label in
  let bb = t.block_bytes in
  let at i = (i - first) * bb in
  let bd = ref Breakdown.zero in
  (* The pending run: file blocks [i0, i0 + n) on device blocks [b0, b0 + n). *)
  let flush ~i0 ~b0 ~n =
    if n > 0 then begin
      bd := Breakdown.add !bd (Blockdev.Device.read_into t.dev b0 n dst ~pos:(at i0));
      for k = 0 to n - 1 do
        let piece = Bytes.sub dst (at (i0 + k)) bb in
        bd := Breakdown.add !bd (cache_insert t (b0 + k) piece ~dirty:false)
      done
    end
  in
  let rec go i ~i0 ~b0 ~n =
    if i > last then flush ~i0 ~b0 ~n
    else begin
      let b = Inode.get_block inode i in
      if b < 0 then begin
        flush ~i0 ~b0 ~n;
        Bytes.fill dst (at i) bb '\000';
        go (i + 1) ~i0:(i + 1) ~b0:0 ~n:0
      end
      else
        match Buffer_cache.find t.cache b with
        | Some bytes ->
          Trace.incr tr "ufs.cache_hits";
          flush ~i0 ~b0 ~n;
          Bytes.blit bytes 0 dst (at i) bb;
          go (i + 1) ~i0:(i + 1) ~b0:0 ~n:0
        | None ->
          (* Continue the run only when this block directly follows it. *)
          if n > 0 && b = b0 + n then go (i + 1) ~i0 ~b0 ~n:(n + 1)
          else begin
            flush ~i0 ~b0 ~n;
            go (i + 1) ~i0:i ~b0:b ~n:1
          end
    end
  in
  go first ~i0:first ~b0:0 ~n:0;
  let total = !bd in
  Trace.exit tr ~bd:total sp;
  total

let read_op t name ~off ~len =
  match lookup t name with
  | Error _ as e -> e
  | Ok file ->
    if off < 0 || len < 0 then Error `Bad_offset
    else begin
      let inode = file.inode in
      let len = max 0 (min len (inode.Inode.size - off)) in
      let bd = ref (charge t ~blocks:((len + t.block_bytes - 1) / t.block_bytes)) in
      if len = 0 then Ok (Bytes.empty, !bd)
      else
        match inode.Inode.frag with
        | Some (block, slot, _) ->
          let contents, cost = read_block t block in
          bd := Breakdown.add !bd cost;
          Ok (Bytes.sub contents ((slot * t.frag_bytes) + off) len, !bd)
        | None ->
          let first = off / t.block_bytes and last = (off + len - 1) / t.block_bytes in
          (* The reply is read block-aligned and trimmed to the request. *)
          let whole = Bytes.create ((last - first + 1) * t.block_bytes) in
          bd :=
            Breakdown.add !bd
              (read_file_blocks t inode ~first ~last whole ~label:"ufs.rblocks");
          let skip = off - (first * t.block_bytes) in
          let out =
            if skip = 0 && len = Bytes.length whole then whole else Bytes.sub whole skip len
          in
          (* Sequential-read detection drives read-ahead. *)
          if off = file.seq_off then file.seq_hits <- file.seq_hits + 1
          else file.seq_hits <- 0;
          file.seq_off <- off + len;
          if file.seq_hits >= 1 && t.cfg.readahead_blocks > 0 then begin
            let ra_first = last + 1 in
            let ra_last =
              min (ra_first + t.cfg.readahead_blocks - 1)
                ((inode.Inode.size - 1) / t.block_bytes)
            in
            if ra_last >= ra_first then begin
              let uncached =
                List.exists
                  (fun i ->
                    let b = Inode.get_block inode i in
                    b >= 0 && Buffer_cache.find t.cache b = None)
                  (List.init (ra_last - ra_first + 1) (fun k -> ra_first + k))
              in
              if uncached then
                bd :=
                  Breakdown.add !bd
                    (read_file_blocks t inode ~first:ra_first ~last:ra_last t.ra_buf
                       ~label:"ufs.readahead")
            end
          end;
          Ok (out, !bd)
    end

let read t name ~off ~len =
  Trace.op (sink t) "ufs.read" ~bd_of:snd (fun () -> read_op t name ~off ~len)

let all_file_blocks inode =
  let acc = ref [] in
  Array.iter (fun b -> if b >= 0 then acc := b :: !acc) inode.Inode.blocks;
  if inode.Inode.ind1 >= 0 then acc := inode.Inode.ind1 :: !acc;
  if inode.Inode.ind2 >= 0 then acc := inode.Inode.ind2 :: !acc;
  Array.iter (fun b -> if b >= 0 then acc := b :: !acc) inode.Inode.ind2_children;
  !acc

let delete_inner t name =
  if t.mode <> `Rw then Error `Read_only
  else
  match lookup t name with
  | Error _ as e -> e
  | Ok file ->
    let inode = file.inode in
    (match inode.Inode.frag with
    | Some f -> free_frags t f
    | None -> List.iter (free_block t) (all_file_blocks inode));
    Hashtbl.remove t.files name;
    Hashtbl.remove t.by_inum inode.Inode.inum;
    Bytes.set t.inode_used inode.Inode.inum '\000';
    let didx, slot = file.dir_slot in
    t.dir.(didx).slots.(slot) <- None;
    let bd = charge t ~blocks:0 in
    let bd = Breakdown.add bd (write_inode t inode ~sync:true) in
    let bd = Breakdown.add bd (write_dir_block t didx ~sync:true) in
    Ok bd

let delete t name =
  Trace.op (sink t) "ufs.delete" ~bd_of:Fun.id (fun () -> delete_inner t name)

let flush_blocks t blocks =
  if blocks <> [] then Trace.incr (sink t) ~by:(List.length blocks) "ufs.flushes";
  List.fold_left
    (fun bd (block, bytes) ->
      let cost = Blockdev.Device.write t.dev block bytes in
      Buffer_cache.mark_clean t.cache block;
      Breakdown.add bd cost)
    Breakdown.zero blocks

let sync t =
  Trace.group (sink t) "ufs.sync" (fun () ->
      flush_blocks t (Buffer_cache.dirty_blocks t.cache))

let fsync t name =
  Trace.incr (sink t) "ufs.fsyncs";
  Trace.op (sink t) "ufs.fsync" ~bd_of:Fun.id (fun () ->
      if t.mode <> `Rw then Error `Read_only
      else
      match lookup t name with
      | Error _ as e -> e
      | Ok file ->
        let mine =
          match file.inode.Inode.frag with
          | Some (b, _, _) -> [ b ]
          | None -> all_file_blocks file.inode
        in
        let dirty =
          Buffer_cache.dirty_blocks t.cache |> List.filter (fun (b, _) -> List.mem b mine)
        in
        Ok (flush_blocks t dirty))

let drop_caches t = Buffer_cache.drop_clean t.cache

(* ---- crash recovery / mount ---- *)

let mode t = t.mode

type mount_report = {
  superblock_found : bool;
  inodes_loaded : int;
  files_found : int;
  orphans_cleared : int;
  dangling_dropped : int;
  duration : Breakdown.t;
}

let mount ~dev ~host ~clock cfg =
  match blank ~dev ~host ~clock cfg with
  | None -> Error "Ufs.mount: device too small"
  | Some t ->
    let { block_bytes; inodes_per_block; inode_table_blocks; data_start; n_blocks; _ } = t in
    let bd = ref Breakdown.zero in
    let reasons = ref [] in
    let degrade msg = if not (List.mem msg !reasons) then reasons := msg :: !reasons in
    let dread b =
      match t.dev.Blockdev.Device.read b with
      | Error _ -> None
      | Ok (buf, c) ->
        bd := Breakdown.add !bd (Io.bd c);
        Some buf
    in
    let layout_error = ref None in
    let sb_found = ref false in
    let inodes_loaded = ref 0 and orphans = ref 0 and dangling = ref 0 in
    let duration =
      Trace.group (sink t) "ufs.mount" (fun () ->
          (* Best of the two alternating superblock slots.  A torn rewrite
             tears the slot being written; the other slot is the previous
             generation and still checksums. *)
          let sb =
            List.fold_left
              (fun best slot ->
                match dread slot with
                | None -> best
                | Some buf -> (
                  match decode_superblock ~block_bytes buf with
                  | None -> best
                  | Some ((gen, _, _) as cand) -> (
                    match best with
                    | Some (g, _, _) when g >= gen -> best
                    | _ -> Some cand)))
              None [ 0; 1 ]
          in
          let dir_blocks =
            match sb with
            | None ->
              degrade "no valid superblock";
              [||]
            | Some (gen, sb_inodes, dblocks) ->
              if sb_inodes <> cfg.n_inodes then begin
                layout_error :=
                  Some
                    (Printf.sprintf
                       "Ufs.mount: superblock has n_inodes = %d, config says %d"
                       sb_inodes cfg.n_inodes);
                [||]
              end
              else begin
                sb_found := true;
                t.sb_gen <- gen;
                dblocks
              end
          in
          if !layout_error = None then begin
            (* Directory blocks: zero-filled before the superblock ever
               names them, so every slot is either a valid entry or
               free.  Torn dirent-block writes mix old and new sectors,
               but entries never straddle a sector, so they stay whole. *)
            let raw_dirents = ref [] in
            Array.iter
              (fun b ->
                if b < data_start || b >= n_blocks then
                  degrade "superblock lists an out-of-range directory block"
                else begin
                  Bytes.set t.bitmap b '\001';
                  let didx = Array.length t.dir in
                  let slots = Dir.empty_block ~block_bytes in
                  t.dir <- Array.append t.dir [| { dblock = b; slots } |];
                  match dread b with
                  | None -> degrade (Printf.sprintf "directory block %d unreadable" b)
                  | Some buf ->
                    List.iter
                      (function
                        | Ok (e : Dir.entry) -> raw_dirents := (didx, e) :: !raw_dirents
                        | Error _ ->
                          degrade (Printf.sprintf "directory block %d: malformed entry" b))
                      (Dir.decode_block ~first_inum:0 ~n_inodes:cfg.n_inodes buf)
                end)
              dir_blocks;
            (* Inode table, one result-typed read per block: a rotted
               block loses only its own inodes. *)
            for k = 0 to inode_table_blocks - 1 do
              match dread (t.inode_table_start + k) with
              | None -> degrade (Printf.sprintf "inode table block %d unreadable" k)
              | Some buf ->
                for slot = 0 to inodes_per_block - 1 do
                  let inum = (k * inodes_per_block) + slot in
                  if inum < cfg.n_inodes then
                    match
                      Inode.decode ~inum
                        (Bytes.sub buf (slot * Inode.bytes_per_inode)
                           Inode.bytes_per_inode)
                    with
                    | None -> ()
                    | Some inode ->
                      Hashtbl.replace t.by_inum inum inode;
                      incr inodes_loaded
                done
            done;
            (* Link directory entries to inodes.  A dirent whose inode is
               gone is the delete crash window (inode cleared first, dirent
               removal lost) — a legal state, quietly dropped. *)
            List.iter
              (fun (didx, { Dir.slot; name; inum }) ->
                match Hashtbl.find_opt t.by_inum inum with
                | None -> incr dangling
                | Some inode ->
                  if Hashtbl.mem t.files name then
                    degrade (Printf.sprintf "duplicate directory entry %S" name)
                  else if Bytes.get t.inode_used inum = '\001' then
                    degrade
                      (Printf.sprintf "inode %d claimed by two directory entries" inum)
                  else begin
                    Bytes.set t.inode_used inum '\001';
                    t.dir.(didx).slots.(slot) <- Some (name, inum);
                    Hashtbl.replace t.files name
                      { inode; name; dir_slot = (didx, slot); seq_off = -1; seq_hits = 0 }
                  end)
              (List.rev !raw_dirents);
            (* Orphan inodes are the create crash window (inode written
               first, dirent lost) — also legal; cleared. *)
            Hashtbl.fold
              (fun inum _ acc ->
                if Bytes.get t.inode_used inum = '\000' then inum :: acc else acc)
              t.by_inum []
            |> List.iter (fun inum ->
                   Hashtbl.remove t.by_inum inum;
                   incr orphans);
            (* Indirect pointers (the inode stores only the block
               addresses of the indirect blocks), then block accounting:
               reachability rebuilds the bitmap, and any double claim or
               out-of-range pointer is real corruption. *)
            let claim what b =
              if b < data_start || b >= n_blocks then
                degrade (Printf.sprintf "%s points outside the data area (block %d)" what b)
              else if Bytes.get t.bitmap b = '\001' then
                degrade (Printf.sprintf "block %d double-allocated (%s)" b what)
              else Bytes.set t.bitmap b '\001'
            in
            Hashtbl.iter
              (fun _ (file : file) ->
                let inode = file.inode in
                let what = Printf.sprintf "inode %d" inode.Inode.inum in
                if inode.Inode.size < 0 then degrade (what ^ ": negative size");
                match inode.Inode.frag with
                | Some (fb, fslot, fslots) ->
                  if
                    fb < data_start || fb >= n_blocks || fslot < 0 || fslots < 1
                    || fslots > max_frag_slots
                    || fslot + fslots > t.frags_per_block
                    || inode.Inode.size > fslots * t.frag_bytes
                  then degrade (what ^ ": malformed fragment descriptor")
                  else begin
                    match Hashtbl.find_opt t.frag_slots fb with
                    | Some occ ->
                      let overlap = ref false in
                      for k = fslot to fslot + fslots - 1 do
                        if occ.(k) then overlap := true;
                        occ.(k) <- true
                      done;
                      if !overlap then
                        degrade (Printf.sprintf "frag block %d: overlapping tails" fb)
                    | None ->
                      claim (what ^ " fragment block") fb;
                      let occ = Array.make t.frags_per_block false in
                      for k = fslot to fslot + fslots - 1 do
                        occ.(k) <- true
                      done;
                      Hashtbl.replace t.frag_slots fb occ;
                      (match dread fb with
                      | Some buf -> Hashtbl.replace t.frag_data fb buf
                      | None ->
                        degrade (Printf.sprintf "frag block %d unreadable" fb);
                        Hashtbl.replace t.frag_data fb (Bytes.make block_bytes '\000'))
                  end
                | None ->
                  if inode.Inode.ind1 >= 0 then begin
                    if inode.Inode.ind1 < data_start || inode.Inode.ind1 >= n_blocks
                    then degrade (what ^ ": indirect pointer out of range")
                    else
                      match dread inode.Inode.ind1 with
                      | None -> degrade (what ^ ": indirect block unreadable")
                      | Some buf ->
                        for k = 0 to t.ptrs_per_block - 1 do
                          let v = Int32.to_int (Bytes.get_int32_le buf (k * 4)) in
                          if v >= 0 then Inode.set_block inode (ind1_window + k) v
                        done
                  end;
                  if inode.Inode.ind2 >= 0 then begin
                    if inode.Inode.ind2 < data_start || inode.Inode.ind2 >= n_blocks
                    then degrade (what ^ ": double-indirect pointer out of range")
                    else
                      match dread inode.Inode.ind2 with
                      | None -> degrade (what ^ ": double-indirect block unreadable")
                      | Some buf ->
                        let len = ref 0 in
                        for k = 0 to t.ptrs_per_block - 1 do
                          if Int32.to_int (Bytes.get_int32_le buf (k * 4)) >= 0 then
                            len := k + 1
                        done;
                        inode.Inode.ind2_children <-
                          Array.init !len (fun k ->
                              Int32.to_int (Bytes.get_int32_le buf (k * 4)));
                        Array.iteri
                          (fun j c ->
                            if c >= 0 then begin
                              if c < data_start || c >= n_blocks then
                                degrade
                                  (what ^ ": double-indirect child out of range")
                              else
                                match dread c with
                                | None ->
                                  degrade
                                    (what ^ ": double-indirect child unreadable")
                                | Some cbuf ->
                                  let offset =
                                    ind1_window + t.ptrs_per_block
                                    + (j * t.ptrs_per_block)
                                  in
                                  for k = 0 to t.ptrs_per_block - 1 do
                                    let v =
                                      Int32.to_int (Bytes.get_int32_le cbuf (k * 4))
                                    in
                                    if v >= 0 then Inode.set_block inode (offset + k) v
                                  done
                            end)
                          inode.Inode.ind2_children
                  end;
                  List.iter (claim what) (all_file_blocks inode))
              t.files;
            let alloc = ref 0 in
            for b = data_start to n_blocks - 1 do
              if Bytes.get t.bitmap b = '\001' then incr alloc
            done;
            t.allocated_data <- !alloc
          end;
          !bd)
    in
    if !reasons <> [] then t.mode <- `Degraded (String.concat "; " (List.rev !reasons));
    match !layout_error with
    | Some e -> Error e
    | None ->
      Ok
        ( t,
          {
            superblock_found = !sb_found;
            inodes_loaded = !inodes_loaded;
            files_found = Hashtbl.length t.files;
            orphans_cleared = !orphans;
            dangling_dropped = !dangling;
            duration;
          } )

(* ---- checker access ---- *)

let config t = t.cfg
let total_blocks t = t.n_blocks
let data_area_start t = t.data_start
let inode_table_span t = (t.inode_table_start, t.inode_table_blocks)
let block_marked t b = b >= 0 && b < t.n_blocks && Bytes.get t.bitmap b = '\001'
let dir_data_blocks t = Array.to_list (Array.map (fun db -> db.dblock) t.dir)
let inode_of t inum = Hashtbl.find_opt t.by_inum inum

let dir_entries t =
  Hashtbl.fold (fun name f acc -> (name, f.inode.Inode.inum) :: acc) t.files []
  |> List.sort compare

let live_inums t =
  Hashtbl.fold (fun inum _ acc -> inum :: acc) t.by_inum [] |> List.sort compare

let frag_occupancy t =
  Hashtbl.fold (fun b occ acc -> (b, Array.copy occ) :: acc) t.frag_slots []
  |> List.sort compare

let verify_media t =
  let dirty = Buffer_cache.dirty_blocks t.cache in
  if dirty <> [] then
    [ ("unflushed", Printf.sprintf "%d dirty blocks in the cache" (List.length dirty)) ]
  else begin
    let findings = ref [] in
    let add cat detail = findings := (cat, detail) :: !findings in
    let dread b =
      match t.dev.Blockdev.Device.read b with Error _ -> None | Ok (buf, _) -> Some buf
    in
    (* The current superblock slot must decode to the in-memory state. *)
    (match dread (t.sb_gen land 1) with
    | None -> add "io-unreadable" "superblock slot unreadable"
    | Some buf -> (
      match decode_superblock ~block_bytes:t.block_bytes buf with
      | Some (gen, n_inodes, dblocks)
        when gen = t.sb_gen && n_inodes = t.cfg.n_inodes
             && Array.to_list dblocks = dir_data_blocks t -> ()
      | _ -> add "bad-checksum" "superblock slot stale or invalid"));
    (* Inode table: compare the slot of every live inode.  Slots of dead
       inodes may hold orphans dropped at mount; only a write re-zeroes
       them. *)
    Hashtbl.iter
      (fun inum inode ->
        let block = inode_block_of t inum in
        match dread block with
        | None -> add "io-unreadable" (Printf.sprintf "inode table block %d" block)
        | Some buf ->
          let off = inum mod t.inodes_per_block * Inode.bytes_per_inode in
          let slot = Bytes.sub buf off Inode.bytes_per_inode in
          if not (Bytes.equal slot (Inode.encode inode)) then
            add "bad-checksum" (Printf.sprintf "inode %d differs from the platter" inum))
      t.by_inum;
    (* Directory blocks: used slots must match; free slots may hold
       dirents dropped at mount. *)
    Array.iteri
      (fun didx db ->
        match dread db.dblock with
        | None -> add "io-unreadable" (Printf.sprintf "directory block %d" db.dblock)
        | Some buf ->
          let expect = Dir.encode_block db.slots in
          Array.iteri
            (fun slot entry ->
              match entry with
              | None -> ()
              | Some (name, _) ->
                if not (Dir.entry_equal buf expect slot) then
                  add "bad-checksum"
                    (Printf.sprintf "dirent %S (block %d of the directory) differs"
                       name didx))
            db.slots)
      t.dir;
    (* Fragment blocks: the in-memory copy is authoritative. *)
    Hashtbl.iter
      (fun b data ->
        match dread b with
        | None -> add "io-unreadable" (Printf.sprintf "frag block %d" b)
        | Some buf ->
          if not (Bytes.equal buf data) then
            add "bad-checksum" (Printf.sprintf "frag block %d differs" b))
      t.frag_data;
    List.rev !findings
  end
