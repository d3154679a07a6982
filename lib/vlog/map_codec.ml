open Vlog_util

type ptr = { pba : int; seq : int64 }
type kind = Node | Checkpoint

type node = {
  seq : int64;
  piece : int;
  kind : kind;
  txn_id : int64;
  txn_commit : bool;
  ptrs : ptr list;
  entries : int array;
}

let node_magic = "VLOGMAP\001"
let tail_magic = "VLOGTAIL"
let max_ptrs = 16
let header_bytes = 36
let ptr_bytes = 12
let checksum_bytes = 8

let max_entries ~block_bytes =
  (block_bytes - header_bytes - (max_ptrs * ptr_bytes) - checksum_bytes) / 4

(* A little-endian 32-bit store from a native int: [Bytes.set_int32_le]
   boxes its [Int32.t] argument, which on the hot encode path means one
   allocation per map entry. *)
let set_u32_le buf off v =
  Bytes.set_uint16_le buf off (v land 0xFFFF);
  Bytes.set_uint16_le buf (off + 2) ((v lsr 16) land 0xFFFF)

(* Unchecked store for the entries loop only: the loop's full extent is
   range-checked once up front, and a full node's entries span the whole
   block, so per-store bounds checks are the loop's dominant cost. *)
let set_u32_le_unsafe buf off v =
  Bytes.unsafe_set buf off (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set buf (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set buf (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set buf (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

(* Header and pointer list; returns the entry region's offset.  The
   encoders below overwrite the whole buffer between them: every byte up
   to the entry region is stored here, the entry region by the caller,
   and [finish_node] zero-fills the slack (empty for a full node) and
   appends the checksum. *)
let put_prelude buf n ~n_ptrs ~len =
  Bytes.blit_string node_magic 0 buf 0 8;
  Bytes.set_int64_le buf 8 n.seq;
  set_u32_le buf 16 n.piece;
  Bytes.set buf 20 (match n.kind with Node -> '\000' | Checkpoint -> '\001');
  Bytes.set buf 21 (if n.txn_commit then '\001' else '\000');
  Bytes.set_uint16_le buf 22 n_ptrs;
  Bytes.set_int64_le buf 24 n.txn_id;
  set_u32_le buf 32 len;
  List.iteri
    (fun i p ->
      let off = header_bytes + (i * ptr_bytes) in
      set_u32_le buf off p.pba;
      Bytes.set_int64_le buf (off + 4) p.seq)
    n.ptrs;
  header_bytes + (n_ptrs * ptr_bytes)

let finish_node buf ~entries_end =
  let body_len = Bytes.length buf - checksum_bytes in
  Bytes.fill buf entries_end (body_len - entries_end) '\000';
  Checksum.seal buf ~pos:0 ~len:body_len

let check_fit buf ~n_ptrs ~len =
  let need = header_bytes + (n_ptrs * ptr_bytes) + (len * 4) + checksum_bytes in
  if n_ptrs > max_ptrs then invalid_arg "Map_codec.encode_node: too many pointers";
  if need > Bytes.length buf then
    invalid_arg "Map_codec.encode_node: node does not fit"

let encode_node_into buf n ~entries ~pos ~len =
  let n_ptrs = List.length n.ptrs in
  check_fit buf ~n_ptrs ~len;
  if pos < 0 || len < 0 || pos + len > Array.length entries then
    invalid_arg "Map_codec.encode_node: bad entries slice";
  let entries_off = put_prelude buf n ~n_ptrs ~len in
  for i = 0 to len - 1 do
    set_u32_le_unsafe buf (entries_off + (i * 4)) (Array.unsafe_get entries (pos + i) + 1)
  done;
  finish_node buf ~entries_end:(entries_off + (len * 4))

(* Entry region supplied pre-encoded (each entry stored +1,
   little-endian): the virtual log patches a per-piece image as map
   entries change, so a node encode is a header write plus one blit
   instead of a walk over every entry. *)
let encode_node_image_into buf n ~image =
  let n_ptrs = List.length n.ptrs in
  let ilen = Bytes.length image in
  if ilen mod 4 <> 0 then invalid_arg "Map_codec.encode_node: ragged entry image";
  let len = ilen / 4 in
  check_fit buf ~n_ptrs ~len;
  let entries_off = put_prelude buf n ~n_ptrs ~len in
  Bytes.blit image 0 buf entries_off ilen;
  finish_node buf ~entries_end:(entries_off + ilen)

(* [encode_node] with the entries taken from [entries.(pos .. pos+len-1)]
   instead of [n.entries], so the virtual log can encode a map piece
   straight out of its backing array without an intermediate copy. *)
let encode_node_slice ~block_bytes n ~entries ~pos ~len =
  let buf = Bytes.create block_bytes in
  encode_node_into buf n ~entries ~pos ~len;
  buf

(* Same, into a caller-owned scratch block: the virtual log reuses one
   buffer for every node write, since the disk copies the data out
   before the call returns. *)
let encode_node_slice_into buf n ~entries ~pos ~len =
  encode_node_into buf n ~entries ~pos ~len

let encode_node ~block_bytes n =
  encode_node_slice ~block_bytes n ~entries:n.entries ~pos:0
    ~len:(Array.length n.entries)

let decode_node buf =
  let len = Bytes.length buf in
  if len < header_bytes + checksum_bytes then None
  else if Bytes.sub_string buf 0 8 <> node_magic then None
  else if not (Checksum.sealed buf ~pos:0 ~len:(len - checksum_bytes)) then None
  else begin
    let n_ptrs = Bytes.get_uint16_le buf 22 in
    let n_entries = Int32.to_int (Bytes.get_int32_le buf 32) in
    let need = header_bytes + (n_ptrs * ptr_bytes) + (n_entries * 4) + checksum_bytes in
    if n_ptrs > max_ptrs || n_entries < 0 || need > len then None
    else begin
      let kind =
        match Bytes.get buf 20 with '\001' -> Checkpoint | _ -> Node
      in
      let ptrs =
        List.init n_ptrs (fun i ->
            let off = header_bytes + (i * ptr_bytes) in
            {
              pba = Int32.to_int (Bytes.get_int32_le buf off);
              seq = Bytes.get_int64_le buf (off + 4);
            })
      in
      let entries_off = header_bytes + (n_ptrs * ptr_bytes) in
      let entries =
        Array.init n_entries (fun i ->
            Int32.to_int (Bytes.get_int32_le buf (entries_off + (i * 4))) - 1)
      in
      Some
        {
          seq = Bytes.get_int64_le buf 8;
          piece = Int32.to_int (Bytes.get_int32_le buf 16);
          kind;
          txn_id = Bytes.get_int64_le buf 24;
          txn_commit = Bytes.get buf 21 = '\001';
          ptrs;
          entries;
        }
    end
  end

type tail = {
  root_pba : int;
  root_seq : int64;
  n_pieces : int;
  entries_per_piece : int;
  logical_blocks : int;
  sectors_per_block : int;
}

let encode_tail ~block_bytes t =
  if block_bytes < 48 then invalid_arg "Map_codec.encode_tail: block too small";
  let buf = Bytes.make block_bytes '\000' in
  Bytes.blit_string tail_magic 0 buf 0 8;
  Bytes.set_int32_le buf 8 (Int32.of_int t.root_pba);
  Bytes.set_int64_le buf 12 t.root_seq;
  Bytes.set_int32_le buf 20 (Int32.of_int t.n_pieces);
  Bytes.set_int32_le buf 24 (Int32.of_int t.entries_per_piece);
  Bytes.set_int32_le buf 28 (Int32.of_int t.logical_blocks);
  Bytes.set_int32_le buf 32 (Int32.of_int t.sectors_per_block);
  Checksum.seal buf ~pos:0 ~len:(block_bytes - checksum_bytes);
  buf

let decode_tail buf =
  let len = Bytes.length buf in
  if len < 48 then None
  else if Bytes.sub_string buf 0 8 <> tail_magic then None
  else if not (Checksum.sealed buf ~pos:0 ~len:(len - checksum_bytes)) then None
  else
    Some
      {
        root_pba = Int32.to_int (Bytes.get_int32_le buf 8);
        root_seq = Bytes.get_int64_le buf 12;
        n_pieces = Int32.to_int (Bytes.get_int32_le buf 20);
        entries_per_piece = Int32.to_int (Bytes.get_int32_le buf 24);
        logical_blocks = Int32.to_int (Bytes.get_int32_le buf 28);
        sectors_per_block = Int32.to_int (Bytes.get_int32_le buf 32);
      }

let cleared_tail ~block_bytes = Bytes.make block_bytes '\000'
