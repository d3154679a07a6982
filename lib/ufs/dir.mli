(** The directory-entry format UFS, LFS and VLFS share.

    A directory block is an array of 32-byte slots.  A used slot holds a
    flag byte [1], the inum as a little-endian int32 at offset 1, the
    name length at offset 5 and up to {!max_name} name bytes from
    offset 6; a free slot has flag [0].  Where the blocks live and how a
    bad entry degrades the mount stay with each file system; this
    module only knows the bytes, the in-memory slot table and the inum
    allocator LFS and VLFS share. *)

val entry_bytes : int
(** 32: the slot size, which divides every sector size, so a torn
    directory-block write never splits an entry. *)

val max_name : int
(** 26: the longest storable name. *)

val valid_name : string -> bool
(** Whether a name fits a slot: 1 to {!max_name} bytes. *)

type slots = (string * int) option array
(** A directory block in memory: the (name, inum) each slot holds. *)

val empty_block : block_bytes:int -> slots
(** All [block_bytes / entry_bytes] slots free. *)

val encode_block : slots -> Bytes.t
(** The on-disk form of a directory block, {!entry_bytes} per slot.  A
    name longer than {!max_name} is clipped; every [create] refuses
    such names, so none reaches the platter. *)

type entry = { slot : int; name : string; inum : int }

val decode_block :
  first_inum:int -> n_inodes:int -> Bytes.t -> (entry, int) result list
(** Every used slot of a directory block, in slot order: [Ok] for a
    well-formed entry, [Error slot] for a malformed one — a flag byte
    other than 0 or 1, an inum outside [\[first_inum, n_inodes)], or a
    name length outside [\[1, max_name\]].  UFS passes [first_inum = 0];
    LFS and VLFS pass 1, since inum 0 is their directory file. *)

val entry_equal : Bytes.t -> Bytes.t -> int -> bool
(** [entry_equal a b slot]: whether two directory blocks hold the same
    bytes in [slot]. *)

val free_slot : slots array -> int * int
(** The first free [(block, slot)] of a slot table, in block then slot
    order; [(Array.length table, 0)] when every block is full, for the
    caller to append a block. *)

val alloc_inum : Bytes.t -> rover:int ref -> int option
(** LFS and VLFS's inum allocator over a used-byte map: the first free
    inum from [max 1 !rover] on, stepping [i -> 1 + ((i + 1) mod (n - 1))]
    so inum 0 is never handed out; marks it used and moves the rover one
    step past it.  [None] when all [n] probes find a used inum. *)
