(** The virtual log: a persistent indirection map built on eager writing
    (Section 3 of the paper).

    The logical-to-physical map is split into fixed-size {e pieces}, one
    physical block each.  Whenever entries change, the affected pieces are
    rewritten to freshly eager-allocated blocks; each node carries
    backward pointers forming the paper's tree: one to the previous log
    tail, plus the pointers taken over from the node it supersedes, so the
    superseded block can be recycled immediately without breaking the
    chain (Figure 3b).  When a node's pointer list would overflow, a
    {e checkpoint} node is written instead, pointing at the current node
    of every piece — this bounds both pointer growth and recovery depth.

    A multi-entry update is a transaction: all data blocks are written by
    the caller first, then the dirty map nodes, the last one carrying the
    commit flag.  Recovery ignores map nodes of uncommitted transactions,
    so the update is atomic across a crash.

    On power-down the firmware records the log tail in the landing zone
    (physical block 0); recovery bootstraps from it and clears it, or
    falls back to scanning the disk for signed map nodes when the record
    is missing or torn. *)

type t

type config = {
  logical_blocks : int;
  sectors_per_block : int;
}

val default_config : logical_blocks:int -> config
(** 4 KB blocks (8 sectors) and [Sweep] eager mode.  The track-switch
    threshold is {!Eager.create}'s 25 %, and a checkpoint node is written
    every 64 node writes (bounding recovery depth). *)

val format : disk:Disk.Disk_sim.t -> config -> t
(** Initialize a fresh virtual log on the disk: reserves the landing
    zone, writes an initial node for every piece and a cleared tail
    record.  Raises [Invalid_argument] if the logical capacity leaves no
    headroom for the map itself. *)

val disk : t -> Disk.Disk_sim.t
val freemap : t -> Freemap.t
val eager : t -> Eager.t
val config : t -> config
val block_bytes : t -> int
val n_pieces : t -> int
val seq : t -> int64

val lookup : t -> int -> int option
(** Physical block currently holding a logical block, if mapped. *)

val logical_of_physical : t -> int -> int option
(** Reverse lookup: which logical block a physical data block holds. *)

val is_map_node : t -> int -> bool
(** Whether a physical block holds the current node of some piece. *)

val piece_location : t -> int -> int option

val update :
  ?rewrite_pieces:int list -> t -> (int * int option) list -> Vlog_util.Breakdown.t
(** [update t entries] atomically installs the logical-to-physical changes
    ([None] unmaps — the delete/trim case) and persists every dirty map
    piece, plus any [rewrite_pieces] forced by the compactor when it
    relocates a map node.  Physical blocks named in the entries must have
    been occupied (and their data written) by the caller beforehand;
    blocks displaced by the update are released only after the commit
    node is on disk.  Returns the disk-time breakdown of the map writes. *)

val power_down : t -> Vlog_util.Breakdown.t
(** The firmware's park sequence: write the checksummed tail record at the
    landing zone. *)

type recovery_report = {
  used_tail : bool;      (** tail record valid, tree traversal used *)
  nodes_read : int;      (** map nodes fetched during traversal *)
  blocks_scanned : int;  (** blocks examined by the scan fallback *)
  edges_pruned : int;    (** stale pointers detected and skipped *)
  uncommitted_skipped : int; (** nodes of rolled-back transactions *)
  corrupt_nodes : int;
      (** unreadable or ECC-failed blocks skipped: mid-chain nodes the
          traversal could not read, plus blocks the scan had to skip.
          When the tree traversal cannot reach every piece because of
          these, recovery falls back to the signature scan and merges
          ([used_tail] stays true and [blocks_scanned] is non-zero). *)
  duration : Vlog_util.Breakdown.t;
}

val recover : disk:Disk.Disk_sim.t -> unit -> (t * recovery_report, string) result
(** Rebuild the virtual log from the platters alone (after a crash or a
    clean power-down).  The recovered log places in [Sweep] eager mode.  Clears the tail record after using it, as the
    paper prescribes, so a later crash cannot trust a stale record.
    Defect-tolerant: transient read errors are retried, an unreadable or
    corrupt landing zone falls back to the signature scan, and corrupt
    map nodes mid-chain are skipped (scan fallback merge) rather than
    aborting recovery. *)

type stats = { node_writes : int; checkpoint_writes : int; txns : int }

val stats : t -> stats

val check_invariants : t -> (unit, string) result
(** Internal consistency: map/reverse agreement, freemap agreement, piece
    locations occupied and distinct.  Used by tests and assertions. *)
