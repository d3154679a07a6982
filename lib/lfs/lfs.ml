open Vlog_util

type config = {
  segment_blocks : int;
  partial_segment_threshold : float;
  buffer_blocks : int;
  cache_blocks : int;
  reserve_segments : int;
  checkpoint_interval : int;
  n_inodes : int;
}

let default_config =
  {
    segment_blocks = 128;
    partial_segment_threshold = 0.75;
    buffer_blocks = 1561; (* 6.1 MB of 4 KB blocks *)
    cache_blocks = 1536;
    reserve_segments = 2;
    checkpoint_interval = 16;
    n_inodes = 4096;
  }

type error = Blockdev.Fs_error.t

let pp_error = Blockdev.Fs_error.pp

type blkid =
  | Data of int * int (* inum, file block index *)
  | Inode_part of int * int (* inum, part index *)
  | Imap_chunk of int
  | Summary of int (* segment *)

(* Monomorphic keys: no [caml_hash] or [compare_val] on the write path. *)
module Blkid_tbl = struct
  let equal x y =
    match (x, y) with
    | Data (a, b), Data (c, d) | Inode_part (a, b), Inode_part (c, d) -> a = c && b = d
    | Imap_chunk a, Imap_chunk c | Summary a, Summary c -> a = c
    | _ -> false

  (* Tables index by the low bits: keep the operands there, the tag above. *)
  let hash = function
    | Data (a, b) -> ((a * 65599) + b) land max_int
    | Inode_part (a, b) -> ((a * 65599) + b) lxor (1 lsl 24) land max_int
    | Imap_chunk a -> a lxor (2 lsl 24) land max_int
    | Summary a -> a lxor (3 lsl 24) land max_int

  include Hashtbl.Make (struct type t = blkid let equal = equal let hash = hash end)
end

type lnode = {
  inum : int;
  mutable size : int;
  mutable blocks : int array; (* device block per file block, -1 = hole *)
}

type cleaner_stats = { segments_cleaned : int; blocks_copied : int; forced_cleans : int }

type t = {
  dev : Blockdev.Device.t;
  host : Host.t;
  clock : Clock.t;
  cfg : config;
  block_bytes : int;
  n_segments : int;
  owners : blkid option array; (* per device block *)
  digests : Bytes.t; (* 8 bytes per block: digest of what [append] put there *)
  on_media : Bytes.t; (* 1 byte per block: the platter holds what [digests] describes *)
  files : (string, lnode) Hashtbl.t;
  by_inum : (int, lnode) Hashtbl.t;
  file_dir_slot : (int, int * int) Hashtbl.t; (* inum -> (dir block idx, slot) *)
  inode_used : Bytes.t;
  mutable inode_rover : int;
  imap : (int, int array) Hashtbl.t; (* inum -> inode part device blocks *)
  imap_chunk_loc : int array;
  imap_entries_per_chunk : int;
  pending : Bytes.t Blkid_tbl.t;
  mutable pending_order : blkid list; (* newest first *)
  dirty_inodes : (int, unit) Hashtbl.t;
  dirty_chunks : (int, unit) Hashtbl.t;
  mutable open_seg : int; (* -1 = none *)
  mutable open_count : int;
  seg_buf : Bytes.t; (* the open segment's data run, [seg_capacity] blocks *)
  spill : Bytes.t; (* one block: the slot past [seg_capacity], see [append] *)
  live : int array; (* per segment: blocks [is_live] holds for *)
  mutable seals : int;
  mutable checkpoint_slot : int;
  mutable gen : int;
      (* generation counter: bumped on every segment write, stamped into
         the summary so recovery can order summaries and pick the newer
         of the two alternating slots *)
  mutable mode : [ `Rw | `Degraded of string ];
  cache : Ufs.Buffer_cache.t;
  mutable dir : (int * string option array) array; (* (dir-file block idx, slots) *)
  dir_entries_per_block : int;
  mutable cleaning : bool;
  mutable stats : cleaner_stats;
  mutable user_blocks : int; (* distinct file-block slots ever written and live *)
  mutable last_clean_ms : float; (* adaptive idle-clean estimate *)
}

let dir_inum = 0

(* ---- on-disk checkpoint (two alternating blocks at the device front) ----

   Magic, generation, seal count, the layout parameters the image was
   formatted with, the imap chunk locations, and a trailing FNV-1a
   checksum so a torn checkpoint write is detected and the other slot
   used.  One checkpoint is written at format time, so a freshly
   formatted (never synced) file system already mounts. *)

let checkpoint_magic = "LFSCKPT2"

let encode_checkpoint_of ~block_bytes ~gen ~seals ~n_inodes ~segment_blocks
    ~chunk_loc =
  let cp = Bytes.make block_bytes '\000' in
  Bytes.blit_string checkpoint_magic 0 cp 0 8;
  Bytes.set_int64_le cp 8 (Int64.of_int gen);
  Bytes.set_int32_le cp 16 (Int32.of_int seals);
  Bytes.set_int32_le cp 20 (Int32.of_int n_inodes);
  Bytes.set_int32_le cp 24 (Int32.of_int segment_blocks);
  Bytes.set_int32_le cp 28 (Int32.of_int (Array.length chunk_loc));
  Array.iteri
    (fun c loc -> Bytes.set_int32_le cp (32 + (c * 4)) (Int32.of_int loc))
    chunk_loc;
  Checksum.seal cp ~pos:0 ~len:(block_bytes - 8);
  cp

type checkpoint = {
  cp_gen : int;
  cp_seals : int;
  cp_n_inodes : int;
  cp_segment_blocks : int;
  cp_chunk_loc : int array;
}

let decode_checkpoint ~block_bytes buf =
  if Bytes.length buf <> block_bytes then None
  else if not (String.equal (Bytes.sub_string buf 0 8) checkpoint_magic) then None
  else if not (Checksum.sealed buf ~pos:0 ~len:(block_bytes - 8)) then None
  else
    let i32 off = Int32.to_int (Bytes.get_int32_le buf off) in
    let n_chunks = i32 28 in
    if n_chunks < 0 || 32 + (n_chunks * 4) > block_bytes - 8 then None
    else
      Some
        {
          cp_gen = Int64.to_int (Bytes.get_int64_le buf 8);
          cp_seals = i32 16;
          cp_n_inodes = i32 20;
          cp_segment_blocks = i32 24;
          cp_chunk_loc = Array.init n_chunks (fun c -> i32 (32 + (c * 4)));
        }

(* The segment area begins after two alternating checkpoint blocks. *)
let seg_start = 2

(* In-memory state of an empty log; [format] and [recover] fill it in. *)
let blank ~dev ~host ~clock cfg ~n_segments =
  let block_bytes = dev.Blockdev.Device.block_bytes in
  {
    dev;
    host;
    clock;
    cfg;
    block_bytes;
    n_segments;
    owners = Array.make dev.Blockdev.Device.n_blocks None;
    digests = Bytes.make (8 * dev.Blockdev.Device.n_blocks) '\000';
    on_media = Bytes.make dev.Blockdev.Device.n_blocks '\000';
    files = Hashtbl.create 256;
    by_inum = Hashtbl.create 256;
    file_dir_slot = Hashtbl.create 256;
    inode_used = Bytes.make cfg.n_inodes '\000';
    inode_rover = 1;
    imap = Hashtbl.create 256;
    imap_chunk_loc = Array.make ((cfg.n_inodes + (block_bytes / 4) - 1) / (block_bytes / 4)) (-1);
    imap_entries_per_chunk = block_bytes / 4;
    pending = Blkid_tbl.create 256;
    pending_order = [];
    dirty_inodes = Hashtbl.create 64;
    dirty_chunks = Hashtbl.create 8;
    open_seg = -1;
    open_count = 0;
    seg_buf = Bytes.make ((cfg.segment_blocks - 2) * block_bytes) '\000';
    spill = Bytes.make block_bytes '\000';
    live = Array.make n_segments 0;
    seals = 0;
    checkpoint_slot = 0;
    gen = 0;
    mode = `Rw;
    cache = Ufs.Buffer_cache.create ~capacity:cfg.cache_blocks;
    dir = [||];
    dir_entries_per_block = block_bytes / 32;
    cleaning = false;
    stats = { segments_cleaned = 0; blocks_copied = 0; forced_cleans = 0 };
    user_blocks = 0;
    last_clean_ms = 0.;
  }

let format ~dev ~host ~clock cfg =
  let block_bytes = dev.Blockdev.Device.block_bytes in
  let n_segments = (dev.Blockdev.Device.n_blocks - seg_start) / cfg.segment_blocks in
  if n_segments <= cfg.reserve_segments + 1 then invalid_arg "Lfs.format: device too small";
  if cfg.segment_blocks - 2 > (block_bytes - 32) / 20 then
    invalid_arg "Lfs.format: segment larger than the summary can describe";
  let t = blank ~dev ~host ~clock cfg ~n_segments in
  (* The directory is file 0, present from format time. *)
  Bytes.set t.inode_used dir_inum '\001';
  let dirn = { inum = dir_inum; size = 0; blocks = [||] } in
  Hashtbl.replace t.by_inum dir_inum dirn;
  Hashtbl.replace t.dirty_inodes dir_inum ();
  (* A formatted but never-synced log must already mount: write the first
     checkpoint so recovery can recognize the layout. *)
  let cp =
    encode_checkpoint_of ~block_bytes ~gen:0 ~seals:0 ~n_inodes:cfg.n_inodes
      ~segment_blocks:cfg.segment_blocks ~chunk_loc:t.imap_chunk_loc
  in
  ignore (Blockdev.Device.write t.dev 0 cp);
  t.checkpoint_slot <- 1;
  t

let device t = t.dev
let block_bytes t = t.block_bytes
let exists t name = Hashtbl.mem t.files name
let files t = Hashtbl.fold (fun name _ acc -> name :: acc) t.files [] |> List.sort compare
let cleaner_stats t = t.stats
let buffered_blocks t = Blkid_tbl.length t.pending

let sink t = t.dev.Blockdev.Device.trace
let charge t ~blocks = Host.charge ~trace:(sink t) t.host ~clock:t.clock ~blocks

let seg_base t seg = seg_start + (seg * t.cfg.segment_blocks)

(* Two alternating summary slots per segment (blocks [base] and
   [base+1]); the data run starts at [base+2].  A rewrite of a
   still-open segment goes to the slot the previous write did not use,
   so a torn summary write can never destroy the only description of
   data already on the platter. *)
let seg_capacity t = t.cfg.segment_blocks - 2

(* Where an open-segment slot's bytes live: (buffer, offset). *)
let slot_bytes t slot =
  if slot < seg_capacity t then (t.seg_buf, slot * t.block_bytes) else (t.spill, 0)

(* ---- liveness ---- *)

let lnode_block ln i = if i < Array.length ln.blocks then ln.blocks.(i) else -1

let is_live t b =
  match t.owners.(b) with
  | None -> false
  | Some (Data (inum, i)) -> (
    match Hashtbl.find_opt t.by_inum inum with
    | Some ln -> lnode_block ln i = b
    | None -> false)
  | Some (Inode_part (inum, p)) -> (
    match Hashtbl.find_opt t.imap inum with
    | Some parts -> p < Array.length parts && parts.(p) = b
    | None -> false)
  | Some (Imap_chunk c) -> t.imap_chunk_loc.(c) = b
  | Some (Summary seg) -> t.open_seg = seg

(* The reference count: [is_live] over every block of the segment.  The
   cleaner and the space accounting read the [live] counters instead,
   which must always agree with this scan. *)
let seg_live_scan t seg =
  let base = seg_base t seg in
  let n = ref 0 in
  for b = base to base + t.cfg.segment_blocks - 1 do
    if is_live t b then incr n
  done;
  !n

(* [live] stays exact because every change to an owner entry or to the
   pointer a block is live through goes through [settle]: the changed
   block's liveness before the change is compared with its liveness
   after.  The two summary slots of the open segment are counted while
   it is open; [recover] counts from scratch, once. *)
let settle t b ~was =
  let seg = (b - seg_start) / t.cfg.segment_blocks in
  if b >= seg_start && seg < t.n_segments then
    match (was, is_live t b) with
    | false, true -> t.live.(seg) <- t.live.(seg) + 1
    | true, false -> t.live.(seg) <- t.live.(seg) - 1
    | _ -> ()

(* The device block the metadata points [blkid] at, or -1. *)
let location t = function
  | Data (inum, i) -> (
    match Hashtbl.find_opt t.by_inum inum with Some ln -> lnode_block ln i | None -> -1)
  | Inode_part (inum, p) -> (
    match Hashtbl.find_opt t.imap inum with
    | Some parts when p < Array.length parts -> parts.(p)
    | _ -> -1)
  | Imap_chunk c -> t.imap_chunk_loc.(c)
  | Summary _ -> -1

let is_free_seg t seg = seg <> t.open_seg && t.live.(seg) = 0

let free_segments t =
  let n = ref 0 in
  for seg = 0 to t.n_segments - 1 do
    if is_free_seg t seg then incr n
  done;
  !n

let live_blocks t = Array.fold_left ( + ) 0 t.live

let utilization t =
  float_of_int (live_blocks t) /. float_of_int (t.n_segments * t.cfg.segment_blocks)

let user_capacity t = (t.n_segments - t.cfg.reserve_segments - 1) * seg_capacity t

(* ---- serialization ---- *)

let inode_header_bytes = 20

let inode_parts_needed t ln =
  let nblocks = Array.length ln.blocks in
  let first_ptrs = (t.block_bytes - inode_header_bytes) / 4 in
  if nblocks <= first_ptrs then 1
  else 1 + ((nblocks - first_ptrs + (t.block_bytes / 4) - 1) / (t.block_bytes / 4))

let encode_inode_part t ln part =
  let buf = Bytes.make t.block_bytes '\000' in
  let first_ptrs = (t.block_bytes - inode_header_bytes) / 4 in
  let ptrs_per_part = t.block_bytes / 4 in
  if part = 0 then begin
    Bytes.set_int32_le buf 0 (Int32.of_int ln.inum);
    Bytes.set_int64_le buf 4 (Int64.of_int ln.size);
    Bytes.set_int32_le buf 12 (Int32.of_int (Array.length ln.blocks));
    for i = 0 to min first_ptrs (Array.length ln.blocks) - 1 do
      Bytes.set_int32_le buf (inode_header_bytes + (i * 4)) (Int32.of_int ln.blocks.(i))
    done
  end
  else begin
    let offset = first_ptrs + ((part - 1) * ptrs_per_part) in
    for i = 0 to ptrs_per_part - 1 do
      let idx = offset + i in
      if idx < Array.length ln.blocks then
        Bytes.set_int32_le buf (i * 4) (Int32.of_int ln.blocks.(idx))
    done
  end;
  buf

let encode_imap_chunk t c =
  let buf = Bytes.make t.block_bytes '\000' in
  let first = c * t.imap_entries_per_chunk in
  for i = 0 to t.imap_entries_per_chunk - 1 do
    let inum = first + i in
    let v =
      match Hashtbl.find_opt t.imap inum with
      | Some parts when Array.length parts > 0 -> parts.(0)
      | _ -> -1
    in
    Bytes.set_int32_le buf (i * 4) (Int32.of_int v)
  done;
  buf

(* ---- segment summary codec ----

   Header: magic, segment number, item count, generation.  One 20-byte
   record per item: blkid tag, two operands, and the FNV-1a word digest
   of the item's block — recovery validates every metadata block it
   replays against this before trusting it.  A trailing whole-summary
   checksum rejects torn or rotted summaries outright. *)

let summary_magic = "LFSSUMM2"
let summary_header_bytes = 24
let summary_item_bytes = 20

let block_checksum bytes =
  Checksum.add_words Checksum.empty bytes ~pos:0 ~len:(Bytes.length bytes)

(* Item [i] describes the block appended at [first + i]: its owner and
   its [digests] entry. *)
let encode_summary t ~first ~count seg ~gen =
  let buf = Bytes.make t.block_bytes '\000' in
  Bytes.blit_string summary_magic 0 buf 0 8;
  Bytes.set_int32_le buf 8 (Int32.of_int seg);
  Bytes.set_int32_le buf 12 (Int32.of_int count);
  Bytes.set_int64_le buf 16 (Int64.of_int gen);
  for i = 0 to count - 1 do
    let off = summary_header_bytes + (i * summary_item_bytes) in
    assert (off + summary_item_bytes <= t.block_bytes - 8);
    let tag, a, b =
      match t.owners.(first + i) with
      | Some (Data (inum, fb)) -> (0, inum, fb)
      | Some (Inode_part (inum, p)) -> (1, inum, p)
      | Some (Imap_chunk c) -> (2, c, 0)
      | Some (Summary _) | None -> assert false
    in
    Bytes.set_int32_le buf off (Int32.of_int tag);
    Bytes.set_int32_le buf (off + 4) (Int32.of_int a);
    Bytes.set_int32_le buf (off + 8) (Int32.of_int b);
    Bytes.blit t.digests ((first + i) * 8) buf (off + 12) 8
  done;
  Checksum.seal buf ~pos:0 ~len:(t.block_bytes - 8);
  buf

type summary_item = { it_blkid : blkid; it_cksum : int64 }
type summary = { sm_seg : int; sm_gen : int; sm_items : summary_item list }

let decode_summary ~block_bytes ~seg buf =
  if Bytes.length buf <> block_bytes then None
  else if not (String.equal (Bytes.sub_string buf 0 8) summary_magic) then None
  else if not (Checksum.sealed buf ~pos:0 ~len:(block_bytes - 8)) then None
  else
    let i32 off = Int32.to_int (Bytes.get_int32_le buf off) in
    if i32 8 <> seg then None
    else
      let count = i32 12 in
      if
        count < 0
        || summary_header_bytes + (count * summary_item_bytes) > block_bytes - 8
      then None
      else
        let items = ref [] in
        let ok = ref true in
        for i = count - 1 downto 0 do
          let off = summary_header_bytes + (i * summary_item_bytes) in
          let a = i32 (off + 4) and b = i32 (off + 8) in
          let blkid =
            match i32 off with
            | 0 -> Some (Data (a, b))
            | 1 -> Some (Inode_part (a, b))
            | 2 -> Some (Imap_chunk a)
            | 3 -> Some (Summary a)
            | _ -> None
          in
          match blkid with
          | None -> ok := false
          | Some blkid ->
            items :=
              { it_blkid = blkid; it_cksum = Bytes.get_int64_le buf (off + 12) }
              :: !items
        done;
        if not !ok then None
        else
          Some
            {
              sm_seg = seg;
              sm_gen = Int64.to_int (Bytes.get_int64_le buf 16);
              sm_items = !items;
            }

(* ---- segment writing ---- *)

let rec ensure_open t =
  if t.open_seg < 0 then begin
    if (not t.cleaning) && free_segments t <= t.cfg.reserve_segments then
      ignore (force_clean t);
    (* Cleaning appends, so it may itself have opened a segment. *)
    if t.open_seg < 0 then begin
      let rec find seg =
        if seg >= t.n_segments then None
        else if is_free_seg t seg then Some seg
        else find (seg + 1)
      in
      match find 0 with
      | None -> failwith "Lfs: log is full (no free segment, cleaning cannot help)"
      | Some seg ->
        let base = seg_base t seg in
        for b = base to base + t.cfg.segment_blocks - 1 do
          t.owners.(b) <- None;
          Bytes.set t.on_media b '\000'
        done;
        t.open_seg <- seg;
        t.open_count <- 0;
        t.owners.(base) <- Some (Summary seg);
        t.owners.(base + 1) <- Some (Summary seg);
        (* Both summary slots are live while the segment is open. *)
        t.live.(seg) <- 2
    end
  end

and write_checkpoint t =
  let cp =
    encode_checkpoint_of ~block_bytes:t.block_bytes ~gen:t.gen ~seals:t.seals
      ~n_inodes:t.cfg.n_inodes ~segment_blocks:t.cfg.segment_blocks
      ~chunk_loc:t.imap_chunk_loc
  in
  (* Alternating checkpoint blocks at the front of the device. *)
  let slot = t.checkpoint_slot in
  t.checkpoint_slot <- 1 - slot;
  Trace.incr (sink t) "lfs.checkpoints";
  Blockdev.Device.write t.dev slot cp

and write_open_segment t ~seal =
  if t.open_seg < 0 then Breakdown.zero
  else
    Trace.group (sink t) "lfs.segwrite" (fun () ->
        let seg = t.open_seg in
        let base = seg_base t seg in
        let count = t.open_count in
        t.gen <- t.gen + 1;
        let gen = t.gen in
        (* Data first, then the summary describing it: a summary on the
           platter guarantees its data run is there too.  Rewrites of a
           still-open segment lay down a byte-identical prefix from
           [base+2], so items already covered by an earlier summary
           survive a torn rewrite; the summary alternates slots because
           consecutive generations of one open segment are consecutive
           integers. *)
        let bd =
          if count = 0 then Breakdown.zero
          else
            (* A full run goes out straight from [seg_buf], which the
               device hands back on completion; a partial run is a
               prefix, so it takes a copy, as does the rare run one past
               capacity (see [append]). *)
            let cap = seg_capacity t in
            let run =
              if count = cap then t.seg_buf
              else if count < cap then Bytes.sub t.seg_buf 0 (count * t.block_bytes)
              else Bytes.cat t.seg_buf t.spill
            in
            let bd = Blockdev.Device.write_run t.dev (base + 2) run in
            (* Trusted once written; a raising rewrite left earlier slots intact. *)
            Bytes.fill t.on_media (base + 2) count '\001';
            bd
        in
        let summary = encode_summary t ~first:(base + 2) ~count seg ~gen in
        let bd =
          Breakdown.add bd (Blockdev.Device.write t.dev (base + (gen land 1)) summary)
        in
        if seal then begin
          t.open_seg <- -1;
          t.live.(seg) <- t.live.(seg) - 2;
          t.open_count <- 0;
          t.seals <- t.seals + 1;
          Trace.incr (sink t) "lfs.seals";
          if t.cfg.checkpoint_interval > 0 && t.seals mod t.cfg.checkpoint_interval = 0
          then Breakdown.add bd (write_checkpoint t)
          else bd
        end
        else bd)

(* Append one block, read from [src] at [off], to the open segment:
   copy it into its slot, record its digest for the summary, assign its
   device address and update the metadata that points at it.  Seals (and
   writes) segments as they fill.  A cleaner copy names its victim block
   in [from] (else -1): when that is [on_media], its digest is copied.

   Known defect, kept so that every simulated number stays as it was:
   when the second [ensure_open] has to run a forced clean, the clean can
   leave the open segment exactly full, and this block then takes the
   slot one past [seg_capacity] — the next segment's first summary
   slot.  The next append seals, so the slot is never more than one
   past; it lives in [spill]. *)
and append t blkid src ~off ~from =
  ensure_open t;
  let bd =
    if t.open_count >= seg_capacity t then write_open_segment t ~seal:true else Breakdown.zero
  in
  ensure_open t;
  let slot = t.open_count in
  assert (slot <= seg_capacity t);
  let addr = seg_base t t.open_seg + 2 + slot in
  let buf, pos = slot_bytes t slot in
  Bytes.blit src off buf pos t.block_bytes;
  if from >= 0 && Bytes.get t.on_media from = '\001' then
    Bytes.blit t.digests (from * 8) t.digests (addr * 8) 8
  else
    Bytes.set_int64_le t.digests (addr * 8)
      (Checksum.add_words Checksum.empty buf ~pos ~len:t.block_bytes);
  Bytes.set t.on_media addr '\000';
  t.open_count <- slot + 1;
  (* The old location dies; the new one is live unless the owner is
     already gone (born dead). *)
  let old = location t blkid in
  let old_was = old >= 0 && is_live t old in
  t.owners.(addr) <- Some blkid;
  (* The block's previous occupant may still sit in the read cache, and
     a read-modify-write of this block would merge its stale bytes. *)
  Ufs.Buffer_cache.forget t.cache addr;
  (match blkid with
  | Data (inum, i) -> (
    match Hashtbl.find_opt t.by_inum inum with
    | Some ln ->
      set_lnode_block ln i addr;
      Hashtbl.replace t.dirty_inodes inum ()
    | None -> () (* deleted while buffered: the block is born dead *))
  | Inode_part (inum, p) ->
    let parts =
      match Hashtbl.find_opt t.imap inum with
      | Some parts when Array.length parts > p -> parts
      | Some parts ->
        let grown = Array.make (p + 1) (-1) in
        Array.blit parts 0 grown 0 (Array.length parts);
        grown
      | None -> Array.make (p + 1) (-1)
    in
    parts.(p) <- addr;
    Hashtbl.replace t.imap inum parts;
    Hashtbl.replace t.dirty_chunks (inum / t.imap_entries_per_chunk) ()
  | Imap_chunk c -> t.imap_chunk_loc.(c) <- addr
  | Summary _ -> assert false);
  if old >= 0 && old <> addr then settle t old ~was:old_was;
  settle t addr ~was:false;
  bd

and set_lnode_block ln i addr =
  if i >= Array.length ln.blocks then begin
    let grown = Array.make (max (i + 1) (2 * (Array.length ln.blocks + 1))) (-1) in
    Array.blit ln.blocks 0 grown 0 (Array.length ln.blocks);
    ln.blocks <- grown
  end;
  ln.blocks.(i) <- addr

(* Greedy cleaner: read the least-utilized sealed segment, reappend its
   live blocks. *)
and clean_one_segment t =
  let candidate = ref None in
  for seg = 0 to t.n_segments - 1 do
    if seg <> t.open_seg then begin
      let live = t.live.(seg) in
      if live > 0 then
        match !candidate with
        | Some (_, best) when best <= live -> ()
        | _ -> candidate := Some (seg, live)
    end
  done;
  match !candidate with
  | None -> None
  | Some (seg, live) ->
    let tr = sink t in
    let sp =
      if Trace.enabled tr then
        Trace.enter tr ~attrs:[ ("seg", string_of_int seg) ] "lfs.clean_seg"
      else Io.no_span
    in
    let base = seg_base t seg in
    let data, read_bd = Blockdev.Device.read_run t.dev base t.cfg.segment_blocks in
    let bd = ref read_bd in
    let copied = ref 0 in
    for b = base to base + t.cfg.segment_blocks - 1 do
      if is_live t b then begin
        match t.owners.(b) with
        | Some (Summary _) | None -> ()
        | Some blkid ->
          bd := Breakdown.add !bd (append t blkid data ~off:((b - base) * t.block_bytes) ~from:b);
          incr copied
      end
    done;
    t.stats <-
      {
        t.stats with
        segments_cleaned = t.stats.segments_cleaned + 1;
        blocks_copied = t.stats.blocks_copied + !copied;
      };
    Trace.incr tr "lfs.segments_cleaned";
    if !copied > 0 then Trace.incr tr ~by:!copied "lfs.blocks_copied";
    Trace.exit tr ~bd:!bd sp;
    Some (live, !bd)

and force_clean t =
  (* The callers of [ensure_open] never fold this cost into the
     breakdown the triggering operation returns, so the span is
     unaccounted: visible in the trace, excluded from the parent's
     child fold. *)
  Trace.group (sink t) ~unaccounted:true "lfs.clean" (fun () ->
      t.cleaning <- true;
      t.stats <- { t.stats with forced_cleans = t.stats.forced_cleans + 1 };
      Trace.incr (sink t) "lfs.forced_cleans";
      let bd = ref Breakdown.zero in
      (* Keep cleaning least-utilized segments until comfortably above the
         reserve.  Live copies accumulate in the open segment and only seal
         when it is actually full (inside [append]) — sealing half-empty
         segments after every clean would hand back the space just gained. *)
      let target_free = t.cfg.reserve_segments + 2 in
      let rec go guard =
        if guard > 0 && free_segments t < target_free then
          match clean_one_segment t with
          | Some (_, cost) ->
            bd := Breakdown.add !bd cost;
            go (guard - 1)
          | None -> ()
      in
      go t.n_segments;
      t.cleaning <- false;
      !bd)

(* ---- pending buffer ---- *)

let pending_put t blkid bytes =
  if not (Blkid_tbl.mem t.pending blkid) then t.pending_order <- blkid :: t.pending_order;
  Blkid_tbl.replace t.pending blkid bytes

let rec flush t =
  Trace.group (sink t) "lfs.flush" (fun () -> flush_inner t)

and flush_inner t =
  Trace.incr (sink t) "lfs.flushes";
  let bd = ref Breakdown.zero in
  let put blkid bytes = bd := Breakdown.add !bd (append t blkid bytes ~off:0 ~from:(-1)) in
  (* Data first, oldest first. *)
  let order = List.rev t.pending_order in
  t.pending_order <- [];
  List.iter
    (fun blkid ->
      match Blkid_tbl.find_opt t.pending blkid with
      | Some bytes ->
        Blkid_tbl.remove t.pending blkid;
        put blkid bytes
      | None -> ())
    order;
  Blkid_tbl.reset t.pending;
  (* Then inode parts for everything dirtied... *)
  let dirty = Hashtbl.fold (fun inum () acc -> inum :: acc) t.dirty_inodes [] in
  Hashtbl.reset t.dirty_inodes;
  List.iter
    (fun inum ->
      match Hashtbl.find_opt t.by_inum inum with
      | None -> ()
      | Some ln ->
        for p = 0 to inode_parts_needed t ln - 1 do
          put (Inode_part (inum, p)) (encode_inode_part t ln p)
        done)
    (List.sort compare dirty);
  (* ...then the inode-map chunks they dirtied. *)
  let chunks = Hashtbl.fold (fun c () acc -> c :: acc) t.dirty_chunks [] in
  Hashtbl.reset t.dirty_chunks;
  List.iter
    (fun c -> put (Imap_chunk c) (encode_imap_chunk t c))
    (List.sort compare chunks);
  (* Partial-segment threshold rule. *)
  (if t.open_seg >= 0 && t.open_count > 0 then
     let fill = float_of_int t.open_count /. float_of_int (seg_capacity t) in
     let seal = fill >= t.cfg.partial_segment_threshold in
     bd := Breakdown.add !bd (write_open_segment t ~seal));
  !bd

let maybe_autoflush t =
  if Blkid_tbl.length t.pending >= t.cfg.buffer_blocks then flush t else Breakdown.zero

(* ---- directory ---- *)

let dirn t = Hashtbl.find t.by_inum dir_inum

let encode_dir_block t slots =
  let buf = Bytes.make t.block_bytes '\000' in
  Array.iteri
    (fun slot entry ->
      match entry with
      | None -> ()
      | Some name ->
        let off = slot * 32 in
        let inum =
          match Hashtbl.find_opt t.files name with Some ln -> ln.inum | None -> -1
        in
        Bytes.set buf off '\001';
        Bytes.set_int32_le buf (off + 1) (Int32.of_int inum);
        let n = min (String.length name) 26 in
        Bytes.set buf (off + 5) (Char.chr n);
        Bytes.blit_string name 0 buf (off + 6) n)
    slots;
  buf

let write_dir_block t idx =
  let fb, slots = t.dir.(idx) in
  let d = dirn t in
  d.size <- max d.size ((fb + 1) * t.block_bytes);
  pending_put t (Data (dir_inum, fb)) (encode_dir_block t slots);
  Hashtbl.replace t.dirty_inodes dir_inum ()

let find_dir_slot t =
  let found = ref None in
  Array.iteri
    (fun i (_, slots) ->
      if !found = None then
        Array.iteri (fun s e -> if !found = None && e = None then found := Some (i, s)) slots)
    t.dir;
  match !found with
  | Some r -> r
  | None ->
    let fb = Array.length t.dir in
    t.dir <- Array.append t.dir [| (fb, Array.make t.dir_entries_per_block None) |];
    (Array.length t.dir - 1, 0)

(* ---- public operations ---- *)

let alloc_inum t =
  let n = t.cfg.n_inodes in
  let rec go tried i =
    if tried >= n then None
    else if Bytes.get t.inode_used i = '\000' then begin
      Bytes.set t.inode_used i '\001';
      t.inode_rover <- 1 + ((i + 1) mod (n - 1));
      Some i
    end
    else go (tried + 1) (1 + ((i + 1) mod (n - 1)))
  in
  go 0 (max 1 t.inode_rover)

let lookup t name =
  match Hashtbl.find_opt t.files name with
  | Some ln -> Ok ln
  | None -> Error (`Not_found name)

let file_size t name = Result.map (fun ln -> ln.size) (lookup t name)

let create t name =
  Trace.op (sink t) "lfs.create" ~bd_of:Fun.id (fun () ->
      if t.mode <> `Rw then Error `Read_only
      else if Hashtbl.mem t.files name then Error (`Exists name)
      else
        match alloc_inum t with
        | None -> Error `No_inodes
        | Some inum ->
          let ln = { inum; size = 0; blocks = [||] } in
          Hashtbl.replace t.files name ln;
          Hashtbl.replace t.by_inum inum ln;
          Hashtbl.replace t.dirty_inodes inum ();
          let didx, slot = find_dir_slot t in
          let _, slots = t.dir.(didx) in
          slots.(slot) <- Some name;
          Hashtbl.replace t.file_dir_slot inum (didx, slot);
          write_dir_block t didx;
          let bd = charge t ~blocks:0 in
          Ok (Breakdown.add bd (maybe_autoflush t)))

(* Content of file block [i], looking through the write path layers:
   a shared buffer and the block's offset in it, never to be modified. *)
let read_data_block t ln i =
  match Blkid_tbl.find_opt t.pending (Data (ln.inum, i)) with
  | Some bytes -> (bytes, 0, Breakdown.zero)
  | None ->
    let b = lnode_block ln i and first = seg_base t t.open_seg + 2 in
    if t.open_seg >= 0 && b >= first && b < first + t.open_count then
      let buf, pos = slot_bytes t (b - first) in
      (buf, pos, Breakdown.zero)
    else if b < 0 then (Bytes.make t.block_bytes '\000', 0, Breakdown.zero)
    else begin
      match Ufs.Buffer_cache.find t.cache b with
      | Some bytes ->
        Trace.incr (sink t) "lfs.cache_hits";
        (bytes, 0, Breakdown.zero)
      | None ->
        let bytes, bd = Blockdev.Device.read t.dev b in
        (* Cache insertion; evicted blocks are clean (LFS data reaches
           the device only through segment writes). *)
        ignore (Ufs.Buffer_cache.insert t.cache b bytes ~dirty:false);
        (bytes, 0, bd)
    end

let rec write t name ~off data =
  Trace.op (sink t) "lfs.write" ~bd_of:Fun.id (fun () -> write_inner t name ~off data)

and write_inner t name ~off data =
  if t.mode <> `Rw then Error `Read_only
  else
  match lookup t name with
  | Error _ as e -> e
  | Ok ln ->
    let len = Bytes.length data in
    if off < 0 || len = 0 then Error `Bad_offset
    else begin
      let first = off / t.block_bytes and last = (off + len - 1) / t.block_bytes in
      let fresh_slots = ref 0 in
      for i = first to last do
        if lnode_block ln i < 0 && not (Blkid_tbl.mem t.pending (Data (ln.inum, i)))
        then incr fresh_slots
      done;
      if t.user_blocks + !fresh_slots > user_capacity t then Error `No_space
      else begin
        let bd = ref (charge t ~blocks:(last - first + 1)) in
        t.user_blocks <- t.user_blocks + !fresh_slots;
        for i = first to last do
          let block_off = i * t.block_bytes in
          let lo = max off block_off and hi = min (off + len) (block_off + t.block_bytes) in
          let full = lo = block_off && hi = block_off + t.block_bytes in
          let contents, read_bd =
            if full then
              (* One copy of the payload range; fresh, so the pending
                 table may own it. *)
              (Bytes.sub data (lo - off) t.block_bytes, Breakdown.zero)
            else begin
              let c, c_off, read_bd = read_data_block t ln i in
              (* Shared contents: copy before modifying. *)
              let c = Bytes.sub c c_off t.block_bytes in
              Bytes.blit data (lo - off) c (lo - block_off) (hi - lo);
              (c, read_bd)
            end
          in
          bd := Breakdown.add !bd read_bd;
          pending_put t (Data (ln.inum, i)) contents;
          if lnode_block ln i < 0 then set_lnode_block ln i (-1)
        done;
        ln.size <- max ln.size (off + len);
        Hashtbl.replace t.dirty_inodes ln.inum ();
        bd := Breakdown.add !bd (maybe_autoflush t);
        Ok !bd
      end
    end

let rec read t name ~off ~len =
  Trace.op (sink t) "lfs.read" ~bd_of:snd (fun () -> read_inner t name ~off ~len)

and read_inner t name ~off ~len =
  match lookup t name with
  | Error _ as e -> e
  | Ok ln ->
    if off < 0 || len < 0 then Error `Bad_offset
    else begin
      let len = max 0 (min len (ln.size - off)) in
      let bd = ref (charge t ~blocks:((len + t.block_bytes - 1) / t.block_bytes)) in
      if len = 0 then Ok (Bytes.empty, !bd)
      else begin
        let first = off / t.block_bytes and last = (off + len - 1) / t.block_bytes in
        let out = Bytes.make len '\000' in
        for i = first to last do
          let contents, c_off, cost = read_data_block t ln i in
          bd := Breakdown.add !bd cost;
          let block_off = i * t.block_bytes in
          let lo = max off block_off and hi = min (off + len) (block_off + t.block_bytes) in
          if hi > lo then Bytes.blit contents (c_off + lo - block_off) out (lo - off) (hi - lo)
        done;
        Ok (out, !bd)
      end
    end

let rec delete t name =
  Trace.op (sink t) "lfs.delete" ~bd_of:Fun.id (fun () -> delete_inner t name)

and delete_inner t name =
  if t.mode <> `Rw then Error `Read_only
  else
  match lookup t name with
  | Error _ as e -> e
  | Ok ln ->
    (* Count the distinct block slots this file held, buffered or on disk. *)
    let slots = ref 0 in
    Array.iteri (fun i b -> if b >= 0 || Blkid_tbl.mem t.pending (Data (ln.inum, i)) then incr slots) ln.blocks;
    Blkid_tbl.iter
      (fun blkid _ ->
        match blkid with
        | Data (inum, i) when inum = ln.inum && i >= Array.length ln.blocks -> incr slots
        | Data _ | Inode_part _ | Imap_chunk _ | Summary _ -> ())
      t.pending;
    t.user_blocks <- t.user_blocks - !slots;
    (* Every block the file's pointers keep live dies with it. *)
    let parts = Option.value (Hashtbl.find_opt t.imap ln.inum) ~default:[||] in
    let doomed =
      List.filter (fun b -> b >= 0 && is_live t b) (Array.to_list (Array.append ln.blocks parts))
    in
    Hashtbl.remove t.files name;
    Hashtbl.remove t.by_inum ln.inum;
    Hashtbl.remove t.imap ln.inum;
    Hashtbl.remove t.dirty_inodes ln.inum;
    Bytes.set t.inode_used ln.inum '\000';
    Hashtbl.replace t.dirty_chunks (ln.inum / t.imap_entries_per_chunk) ();
    List.iter (fun b -> settle t b ~was:true) (List.sort_uniq compare doomed);
    (* Drop buffered blocks of the dead file. *)
    let stale =
      Blkid_tbl.fold
        (fun blkid _ acc ->
          match blkid with
          | Data (inum, _) when inum = ln.inum -> blkid :: acc
          | Data _ | Inode_part _ | Imap_chunk _ | Summary _ -> acc)
        t.pending []
    in
    List.iter (Blkid_tbl.remove t.pending) stale;
    (match Hashtbl.find_opt t.file_dir_slot ln.inum with
    | Some (didx, slot) ->
      let _, slots = t.dir.(didx) in
      slots.(slot) <- None;
      Hashtbl.remove t.file_dir_slot ln.inum;
      write_dir_block t didx
    | None -> ());
    let bd = charge t ~blocks:0 in
    Ok (Breakdown.add bd (maybe_autoflush t))

let sync t =
  Trace.group (sink t) "lfs.sync" (fun () ->
      let bd = charge t ~blocks:0 in
      Breakdown.add bd (flush t))

let fsync t name =
  Trace.incr (sink t) "lfs.fsyncs";
  Trace.op (sink t) "lfs.fsync" ~bd_of:Fun.id (fun () ->
      if t.mode <> `Rw then Error `Read_only
      else match lookup t name with Error _ as e -> e | Ok _ -> Ok (sync t))

(* Worth cleaning only while fragmented segments exist and free space is
   scarce enough that the next buffer flush could block on the cleaner. *)
let idle_clean_target t =
  t.cfg.reserve_segments + 2 + ((t.cfg.buffer_blocks + seg_capacity t - 1) / seg_capacity t)

let has_fragmented_segment t =
  let cap = seg_capacity t in
  let rec go seg =
    if seg >= t.n_segments then false
    else if seg <> t.open_seg then
      let live = t.live.(seg) in
      if live > 0 && live < (cap * 9 / 10) then true else go (seg + 1)
    else go (seg + 1)
  in
  go 0

let idle_clean ?target_free t ~deadline =
  if t.mode <> `Rw then 0
  else
  let tr = sink t in
  let sp = Trace.enter tr ~unaccounted:true "lfs.idle" in
  (* Rough per-segment estimate: read the segment, rewrite its live half,
     both at media bandwidth plus positioning. *)
  let target_free =
    match target_free with Some v -> v | None -> idle_clean_target t
  in
  let cleaned = ref 0 in
  let continue = ref true in
  while !continue do
    if free_segments t >= target_free || not (has_fragmented_segment t) then
      continue := false
    else
    let now = Clock.now t.clock in
    let est =
      (* Learned from the previous clean; before any clean, a transfer-
         bandwidth guess (read + rewrite the whole segment). *)
      if t.last_clean_ms > 0. then t.last_clean_ms
      else 4. *. float_of_int t.cfg.segment_blocks *. 0.25
    in
    if now +. est > deadline then continue := false
    else begin
      t.cleaning <- true;
      (match clean_one_segment t with
      | Some _ ->
        incr cleaned;
        t.last_clean_ms <- Clock.now t.clock -. now
      | None -> continue := false);
      t.cleaning <- false
    end
  done;
  (* Live copies gathered during idle get written now, while the disk is
     still idle, rather than on the next burst's critical path. *)
  if !cleaned > 0 && t.open_seg >= 0 && t.open_count > 0 then begin
    let seal =
      float_of_int t.open_count /. float_of_int (seg_capacity t)
      >= t.cfg.partial_segment_threshold
    in
    ignore (write_open_segment t ~seal)
  end;
  Trace.exit tr sp;
  !cleaned

let idle_work t ~deadline =
  let cleaned = idle_clean t ~deadline in
  (* With time left over, flush buffered writes in the background so the
     next burst finds an empty buffer (the paper's Figure 10 point D). *)
  let pending = Blkid_tbl.length t.pending in
  if pending > 0 then begin
    let est =
      if t.last_clean_ms > 0. then
        t.last_clean_ms *. float_of_int pending /. float_of_int t.cfg.segment_blocks
      else 0.5 *. float_of_int pending
    in
    if Clock.now t.clock +. est <= deadline then
      ignore (Trace.group (sink t) ~unaccounted:true "lfs.idle_flush" (fun () -> flush t))
  end;
  cleaned

let drop_caches t = Ufs.Buffer_cache.drop_clean t.cache

(* ---- crash recovery (mount) ----

   No roll-forward pointer is needed: every live block is described by an
   intact summary (a segment holding live data is never reused, and the
   last write of its open life left a checksummed summary in one of the
   two slots), so recovery scans both summary slots of every segment and
   replays the valid ones in generation order.  The imap chunk supplies
   the base image for inode locations (it records deletions); inode-part
   items newer than the winning chunk override it.  Every metadata block
   replayed is validated against the checksum its summary recorded. *)

let mode t = t.mode

let power_down t =
  Trace.group (sink t) "lfs.power_down" (fun () ->
      let bd = flush t in
      Breakdown.add bd (write_checkpoint t))

type recovery_report = {
  checkpoint_used : bool;
  segments_scanned : int;
  summaries_valid : int;
  items_replayed : int;
  corrupt_items : int;
  inodes_loaded : int;
  inodes_skipped : int;
  files_found : int;
  dangling_dropped : int;
  duration : Breakdown.t;
}

(* Both summary slots of every segment, valid ones only, generation
   ascending.  Item [i] of a summary describes device block
   [seg_base + 2 + i]. *)
let scan_summaries t ~bd =
  let out = ref [] in
  for seg = 0 to t.n_segments - 1 do
    let base = seg_base t seg in
    for slot = 0 to 1 do
      match t.dev.Blockdev.Device.read (base + slot) with
      | Error _ -> ()
      | Ok (buf, c) -> (
        bd := Breakdown.add !bd (Io.bd c);
        match decode_summary ~block_bytes:t.block_bytes ~seg buf with
        | Some s -> out := s :: !out
        | None -> ())
    done
  done;
  List.sort (fun a b -> compare a.sm_gen b.sm_gen) !out

(* blkid -> (gen, addr, checksum) list, newest first. *)
let item_history t summaries =
  let hist = Blkid_tbl.create 512 in
  let n = ref 0 in
  List.iter
    (fun s ->
      let base = seg_base t s.sm_seg in
      List.iteri
        (fun i it ->
          incr n;
          let addr = base + 2 + i in
          let prev =
            match Blkid_tbl.find_opt hist it.it_blkid with Some l -> l | None -> []
          in
          Blkid_tbl.replace hist it.it_blkid ((s.sm_gen, addr, it.it_cksum) :: prev))
        s.sm_items)
    summaries;
  (hist, !n)

let recover ~dev ~host ~clock cfg =
  let block_bytes = dev.Blockdev.Device.block_bytes in
  let n_segments = (dev.Blockdev.Device.n_blocks - seg_start) / cfg.segment_blocks in
  if n_segments <= cfg.reserve_segments + 1 then Error "Lfs.recover: device too small"
  else begin
    let t = blank ~dev ~host ~clock cfg ~n_segments in
    let layout_error = ref None in
    let report = ref None in
    let duration =
      Trace.group (sink t) "lfs.recover" (fun () ->
          let bd = ref Breakdown.zero in
          let degraded = ref [] in
          let note_degraded msg =
            if not (List.mem msg !degraded) then degraded := msg :: !degraded
          in
          let corrupt_items = ref 0 in
          (* Checkpoint: best of the two alternating slots. *)
          let cp =
            List.fold_left
              (fun best slot ->
                match t.dev.Blockdev.Device.read slot with
                | Error _ -> best
                | Ok (buf, c) -> (
                  bd := Breakdown.add !bd (Io.bd c);
                  match decode_checkpoint ~block_bytes buf with
                  | None -> best
                  | Some cp -> (
                    match best with
                    | Some (_, b) when b.cp_gen >= cp.cp_gen -> best
                    | _ -> Some (slot, cp))))
              None [ 0; 1 ]
          in
          (match cp with
          | Some (slot, cp) ->
            if cp.cp_n_inodes <> cfg.n_inodes || cp.cp_segment_blocks <> cfg.segment_blocks
            then
              layout_error :=
                Some
                  (Printf.sprintf
                     "Lfs.recover: image formatted with n_inodes=%d segment_blocks=%d, \
                      config says n_inodes=%d segment_blocks=%d"
                     cp.cp_n_inodes cp.cp_segment_blocks cfg.n_inodes
                     cfg.segment_blocks)
            else begin
              t.seals <- cp.cp_seals;
              t.gen <- cp.cp_gen;
              t.checkpoint_slot <- 1 - slot
            end
          | None ->
            (* Format always writes a checkpoint and checkpoint writes
               alternate slots, so losing both means media damage. *)
            note_degraded "no valid checkpoint");
          let summaries = scan_summaries t ~bd in
          let hist, items_replayed = item_history t summaries in
          List.iter (fun s -> t.gen <- max t.gen s.sm_gen) summaries;
          t.gen <- t.gen + 1;
          (* Read a block and validate it against the checksum recorded by
             the summary that logged it. *)
          let read_checked addr ~cksum =
            match t.dev.Blockdev.Device.read addr with
            | Error _ -> None
            | Ok (buf, c) ->
              bd := Breakdown.add !bd (Io.bd c);
              (match cksum with
              | Some k when block_checksum buf <> k -> None
              | _ -> Some buf)
          in
          (* Winning imap chunk per chunk index: newest version whose
             content still matches its recorded checksum (a stale version
             may sit in a since-reused segment). *)
          let chunk_info = Array.make (Array.length t.imap_chunk_loc) None in
          Array.iteri
            (fun c _ ->
              match Blkid_tbl.find_opt hist (Imap_chunk c) with
              | None -> ()
              | Some versions ->
                let rec try_versions = function
                  | [] ->
                    incr corrupt_items;
                    note_degraded
                      (Printf.sprintf "imap chunk %d unreadable or corrupt" c)
                  | (gen, addr, cksum) :: rest -> (
                    match read_checked addr ~cksum:(Some cksum) with
                    | Some buf ->
                      chunk_info.(c) <- Some (gen, addr, buf);
                      t.imap_chunk_loc.(c) <- addr
                    | None -> try_versions rest)
                in
                try_versions versions)
            chunk_info;
          (* Resolve each inode's part-0 location: chunk contents as the
             base image, inode-part items newer than the chunk override. *)
          let inodes_loaded = ref 0 and inodes_skipped = ref 0 in
          let first_ptrs = (block_bytes - inode_header_bytes) / 4 in
          let ptrs_per_part = block_bytes / 4 in
          for inum = 0 to cfg.n_inodes - 1 do
            let c = inum / t.imap_entries_per_chunk in
            let chunk_gen, chunk_addr =
              match chunk_info.(c) with
              | Some (gen, _, buf) ->
                (gen, Int32.to_int (Bytes.get_int32_le buf ((inum mod t.imap_entries_per_chunk) * 4)))
              | None -> (-1, -1)
            in
            let part_newest =
              match Blkid_tbl.find_opt hist (Inode_part (inum, 0)) with
              | Some ((gen, addr, cksum) :: _) -> Some (gen, addr, cksum)
              | _ -> None
            in
            let winner =
              match part_newest with
              | Some (gen, addr, cksum) when gen > chunk_gen -> Some (addr, Some cksum)
              | _ ->
                if chunk_addr >= 0 then
                  (* Find the item that logged this address, for its checksum. *)
                  let cksum =
                    match Blkid_tbl.find_opt hist (Inode_part (inum, 0)) with
                    | Some versions ->
                      List.find_map
                        (fun (_, a, k) -> if a = chunk_addr then Some k else None)
                        versions
                    | None -> None
                  in
                  Some (chunk_addr, cksum)
                else None
            in
            match winner with
            | None -> ()
            | Some (addr, cksum) -> (
              let skip msg =
                incr inodes_skipped;
                incr corrupt_items;
                note_degraded msg
              in
              match read_checked addr ~cksum with
              | None -> skip (Printf.sprintf "inode %d: part 0 unreadable or corrupt" inum)
              | Some buf ->
                let stored_inum = Int32.to_int (Bytes.get_int32_le buf 0) in
                let size = Int64.to_int (Bytes.get_int64_le buf 4) in
                let nblocks = Int32.to_int (Bytes.get_int32_le buf 12) in
                if
                  stored_inum <> inum || size < 0 || nblocks < 0
                  || nblocks > dev.Blockdev.Device.n_blocks
                  || size > (nblocks + 1) * block_bytes
                then skip (Printf.sprintf "inode %d: part 0 does not decode" inum)
                else begin
                  let parts_needed =
                    if nblocks <= first_ptrs then 1
                    else 1 + ((nblocks - first_ptrs + ptrs_per_part - 1) / ptrs_per_part)
                  in
                  let blocks = Array.make nblocks (-1) in
                  for i = 0 to min first_ptrs nblocks - 1 do
                    blocks.(i) <-
                      Int32.to_int (Bytes.get_int32_le buf (inode_header_bytes + (i * 4)))
                  done;
                  let parts = Array.make parts_needed (-1) in
                  parts.(0) <- addr;
                  let ok = ref true in
                  for p = 1 to parts_needed - 1 do
                    if !ok then
                      match Blkid_tbl.find_opt hist (Inode_part (inum, p)) with
                      | Some ((_, paddr, pcksum) :: _) -> (
                        match read_checked paddr ~cksum:(Some pcksum) with
                        | None ->
                          ok := false;
                          skip
                            (Printf.sprintf "inode %d: part %d unreadable or corrupt"
                               inum p)
                        | Some pbuf ->
                          parts.(p) <- paddr;
                          let offset = first_ptrs + ((p - 1) * ptrs_per_part) in
                          for i = 0 to ptrs_per_part - 1 do
                            let idx = offset + i in
                            if idx < nblocks then
                              blocks.(idx) <-
                                Int32.to_int (Bytes.get_int32_le pbuf (i * 4))
                          done)
                      | _ ->
                        ok := false;
                        skip (Printf.sprintf "inode %d: part %d missing from the log" inum p)
                  done;
                  if !ok
                     && Array.exists
                          (fun b ->
                            b <> -1
                            && (b < seg_start || b >= dev.Blockdev.Device.n_blocks))
                          blocks
                  then begin
                    ok := false;
                    skip (Printf.sprintf "inode %d: block pointer out of range" inum)
                  end;
                  if !ok then begin
                    incr inodes_loaded;
                    let ln = { inum; size; blocks } in
                    Hashtbl.replace t.by_inum inum ln;
                    Hashtbl.replace t.imap inum parts;
                    Bytes.set t.inode_used inum '\001'
                  end
                end)
          done;
          (* Directory: file 0's data blocks name every live file. *)
          let dangling_dropped = ref 0 in
          (if Hashtbl.length t.by_inum = 0 then begin
             (* Empty log (fresh format, or nothing ever synced): come up
                as format does. *)
             Bytes.set t.inode_used dir_inum '\001';
             Hashtbl.replace t.by_inum dir_inum { inum = dir_inum; size = 0; blocks = [||] };
             Hashtbl.replace t.dirty_inodes dir_inum ()
           end
           else
             match Hashtbl.find_opt t.by_inum dir_inum with
             | None ->
               note_degraded "directory inode missing";
               Bytes.set t.inode_used dir_inum '\001';
               Hashtbl.replace t.by_inum dir_inum
                 { inum = dir_inum; size = 0; blocks = [||] }
             | Some dirn ->
               let nblocks = Array.length dirn.blocks in
               t.dir <-
                 Array.init nblocks (fun fb ->
                     (fb, Array.make t.dir_entries_per_block None));
               for fb = 0 to nblocks - 1 do
                 let addr = dirn.blocks.(fb) in
                 if addr >= 0 then begin
                   let cksum =
                     match Blkid_tbl.find_opt hist (Data (dir_inum, fb)) with
                     | Some versions ->
                       List.find_map
                         (fun (_, a, k) -> if a = addr then Some k else None)
                         versions
                     | None -> None
                   in
                   match read_checked addr ~cksum with
                   | None ->
                     incr corrupt_items;
                     note_degraded
                       (Printf.sprintf "directory block %d unreadable or corrupt" fb)
                   | Some buf ->
                     let _, slots = t.dir.(fb) in
                     for slot = 0 to t.dir_entries_per_block - 1 do
                       let off = slot * 32 in
                       if off + 32 <= Bytes.length buf && Bytes.get buf off = '\001'
                       then begin
                         let inum = Int32.to_int (Bytes.get_int32_le buf (off + 1)) in
                         let namelen = Char.code (Bytes.get buf (off + 5)) in
                         if inum < 1 || inum >= cfg.n_inodes || namelen < 1 || namelen > 26
                         then begin
                           incr corrupt_items;
                           note_degraded
                             (Printf.sprintf "directory block %d: undecodable entry" fb)
                         end
                         else
                           let name = Bytes.sub_string buf (off + 6) namelen in
                           match Hashtbl.find_opt t.by_inum inum with
                           | None ->
                             (* Legal crash window: the directory block of a
                                create reached the log before the inode did. *)
                             incr dangling_dropped
                           | Some ln ->
                             if Hashtbl.mem t.files name then begin
                               incr corrupt_items;
                               note_degraded
                                 (Printf.sprintf "duplicate directory entry %S" name)
                             end
                             else begin
                               Hashtbl.replace t.files name ln;
                               Hashtbl.replace t.file_dir_slot inum (fb, slot);
                               slots.(slot) <- Some name
                             end
                       end
                     done
                 end
               done);
          (* Inodes named by no directory entry are creates whose dirent
             never reached the log: unacknowledged, so drop them. *)
          let orphans =
            Hashtbl.fold
              (fun inum _ acc ->
                if inum <> dir_inum && not (Hashtbl.mem t.file_dir_slot inum) then
                  inum :: acc
                else acc)
              t.by_inum []
          in
          List.iter
            (fun inum ->
              incr dangling_dropped;
              Hashtbl.remove t.by_inum inum;
              Hashtbl.remove t.imap inum;
              Bytes.set t.inode_used inum '\000')
            orphans;
          (* Rebuild the ownership table and space accounting from the
             reconstructed metadata alone. *)
          Hashtbl.iter
            (fun inum (ln : lnode) ->
              Array.iteri
                (fun i b ->
                  if b >= 0 then
                    match t.owners.(b) with
                    | Some _ ->
                      incr corrupt_items;
                      note_degraded
                        (Printf.sprintf "device block %d claimed twice" b)
                    | None ->
                      t.owners.(b) <- Some (Data (inum, i));
                      if inum <> dir_inum then t.user_blocks <- t.user_blocks + 1)
                ln.blocks;
              match Hashtbl.find_opt t.imap inum with
              | None -> ()
              | Some parts ->
                Array.iteri
                  (fun p b ->
                    if b >= 0 then
                      match t.owners.(b) with
                      | Some _ ->
                        incr corrupt_items;
                        note_degraded
                          (Printf.sprintf "device block %d claimed twice" b)
                      | None -> t.owners.(b) <- Some (Inode_part (inum, p)))
                  parts)
            t.by_inum;
          Array.iteri
            (fun c addr ->
              if addr >= 0 then
                match t.owners.(addr) with
                | Some _ ->
                  incr corrupt_items;
                  note_degraded (Printf.sprintf "device block %d claimed twice" addr)
                | None -> t.owners.(addr) <- Some (Imap_chunk c))
            t.imap_chunk_loc;
          Array.iteri (fun seg _ -> t.live.(seg) <- seg_live_scan t seg) t.live;
          (if !degraded <> [] then
             t.mode <- `Degraded (String.concat "; " (List.rev !degraded)));
          Trace.incr (sink t) "lfs.recoveries";
          if !corrupt_items > 0 then
            Trace.incr (sink t) ~by:!corrupt_items "lfs.recovery_corrupt_items";
          report :=
            Some
              {
                checkpoint_used = cp <> None;
                segments_scanned = t.n_segments;
                summaries_valid = List.length summaries;
                items_replayed;
                corrupt_items = !corrupt_items;
                inodes_loaded = !inodes_loaded;
                inodes_skipped = !inodes_skipped;
                files_found = Hashtbl.length t.files;
                dangling_dropped = !dangling_dropped;
                duration = Breakdown.zero;
              };
          !bd)
    in
    match (!layout_error, !report) with
    | Some e, _ -> Error e
    | None, Some report -> Ok (t, { report with duration })
    | None, None -> Error "Lfs.recover: internal error"
  end

(* ---- checker access ---- *)

let config t = t.cfg
let n_segments t = t.n_segments
let segment_area_start _ = seg_start
let dir_entries t =
  Hashtbl.fold (fun name (ln : lnode) acc -> (name, ln.inum) :: acc) t.files []
  |> List.sort compare

let inode_in_use t inum =
  inum >= 0 && inum < t.cfg.n_inodes && Bytes.get t.inode_used inum = '\001'

let inode_blocks t inum =
  match Hashtbl.find_opt t.by_inum inum with
  | None -> None
  | Some ln -> Some (ln.size, Array.copy ln.blocks)

let imap_parts t inum =
  match Hashtbl.find_opt t.imap inum with
  | None -> None
  | Some parts -> Some (Array.copy parts)

let imap_chunk_locations t = Array.copy t.imap_chunk_loc
let owner_of t b = if b >= 0 && b < Array.length t.owners then t.owners.(b) else None
let seg_live t seg = t.live.(seg)

let recorded_digest t b =
  if Bytes.get t.on_media b = '\001' then Some (Bytes.get_int64_le t.digests (b * 8)) else None
let generation t = t.gen

(* Media validation behind the fsck checkers: every live metadata and
   data block must be readable and match the checksum recorded by the
   summary item that logged it at its current address.  Requires a
   quiescent log (no buffered writes, no open segment) — recovery and
   [power_down] both leave the log that way. *)
let verify_media t =
  if Blkid_tbl.length t.pending > 0 || t.open_seg >= 0 then
    [ ("unflushed", "log has buffered or unsealed writes; media not verified") ]
  else begin
    let findings = ref [] in
    let add cat msg = findings := (cat, msg) :: !findings in
    let bd = ref Breakdown.zero in
    let summaries = scan_summaries t ~bd in
    let hist, _ = item_history t summaries in
    let check blkid addr what =
      match Blkid_tbl.find_opt hist blkid with
      | None -> add "bad-reference" (Printf.sprintf "%s at block %d: no summary item records it" what addr)
      | Some versions -> (
        match List.find_map (fun (_, a, k) -> if a = addr then Some k else None) versions
        with
        | None ->
          add "bad-reference"
            (Printf.sprintf "%s at block %d: no summary item records this address" what addr)
        | Some cksum -> (
          match t.dev.Blockdev.Device.read addr with
          | Error _ -> add "io-unreadable" (Printf.sprintf "%s at block %d: unreadable" what addr)
          | Ok (buf, _) ->
            if block_checksum buf <> cksum then
              add "bad-checksum" (Printf.sprintf "%s at block %d: checksum mismatch" what addr)))
    in
    Hashtbl.iter
      (fun inum (ln : lnode) ->
        Array.iteri
          (fun i b ->
            if b >= 0 then
              check (Data (inum, i)) b (Printf.sprintf "data block %d of inode %d" i inum))
          ln.blocks;
        match Hashtbl.find_opt t.imap inum with
        | None -> ()
        | Some parts ->
          Array.iteri
            (fun p b ->
              if b >= 0 then
                check (Inode_part (inum, p)) b
                  (Printf.sprintf "inode part %d of inode %d" p inum))
            parts)
      t.by_inum;
    Array.iteri
      (fun c addr ->
        if addr >= 0 then check (Imap_chunk c) addr (Printf.sprintf "imap chunk %d" c))
      t.imap_chunk_loc;
    List.rev !findings
  end
