(** On-disk format of virtual-log map nodes and the landing-zone tail
    record.

    A map node is one physical block holding one piece of the indirection
    map: a header, a list of backward pointers (each a physical block
    address plus the sequence number expected there, so a recycled target
    is detected), the piece's map entries, and a trailing checksum.  The
    checksum doubles as the "cryptographic signature" the scan-based
    recovery fallback looks for, and makes a torn multi-sector node write
    detectable (a torn node simply fails to decode, which is what renders
    node writes atomic). *)

type ptr = { pba : int; seq : int64 }

type kind = Node | Checkpoint

type node = {
  seq : int64;
  piece : int;
  kind : kind;
  txn_id : int64;
  txn_commit : bool;  (** true on the last node of a transaction *)
  ptrs : ptr list;
  entries : int array;
      (** logical-to-physical map entries of this piece; [-1] = unmapped,
          otherwise a physical block index *)
}

val max_ptrs : int
(** Upper bound on [ptrs] length the codec accepts (16); the virtual log
    writes a checkpoint node before a node would exceed it. *)

val max_entries : block_bytes:int -> int
(** How many map entries fit in a node of the given block size with a
    full pointer list. *)

val encode_node : block_bytes:int -> node -> Bytes.t
(** Raises [Invalid_argument] if the node does not fit. *)

val encode_node_slice_into :
  Bytes.t -> node -> entries:int array -> pos:int -> len:int -> unit
(** [encode_node], but the map entries come from
    [entries.(pos .. pos+len-1)] and the node's own [entries] field is
    ignored — the virtual log encodes a piece straight out of its backing
    map array without copying the slice first — into a caller-owned
    block-sized buffer (overwritten entirely).  The virtual log reuses one scratch block for
    every map-node write: the simulated disk copies the buffer out before
    returning, so the allocation per write would be pure GC churn. *)

val encode_node_image_into : Bytes.t -> node -> image:Bytes.t -> unit
(** Like {!encode_node_slice_into}, but the entry region comes
    pre-encoded: [image] holds the piece's entries already in their
    on-disk form (each entry stored [+1], 4 bytes little-endian), and is
    copied into place with one blit.  The virtual log maintains such an
    image per piece, patched whenever a map entry changes, which turns
    the per-node entry walk into O(1).  Must produce output identical to
    {!encode_node_slice_into} over the corresponding entries slice
    (property-tested). *)

val decode_node : Bytes.t -> node option
(** [None] on bad magic, bad checksum, or inconsistent sizes. *)

type tail = {
  root_pba : int;
  root_seq : int64;
  n_pieces : int;
  entries_per_piece : int;
  logical_blocks : int;
  sectors_per_block : int;
}

val encode_tail : block_bytes:int -> tail -> Bytes.t
val decode_tail : Bytes.t -> tail option
val cleared_tail : block_bytes:int -> Bytes.t
(** An all-zero block: what recovery writes to invalidate the tail record
    after using it. *)
