open Vlog_util

type config = {
  logical_blocks : int;
  sectors_per_block : int;
}

let default_config ~logical_blocks =
  { logical_blocks; sectors_per_block = 8 }

(* A checkpoint node is written every this many node writes, bounding
   recovery depth. *)
let checkpoint_interval = 64L

type piece = {
  idx : int;
  first_logical : int;
  n_entries : int;
  image : Bytes.t;
      (* the piece's entry region in on-disk form (entry+1, 4 bytes LE
         each), patched in place whenever a map entry changes; node
         encoding blits it instead of walking the entries *)
  mutable loc : int; (* physical block of the current node, -1 before first write *)
  mutable node_seq : int64;
  mutable ptrs : Map_codec.ptr list;
}

type stats = { node_writes : int; checkpoint_writes : int; txns : int }

type t = {
  disk : Disk.Disk_sim.t;
  freemap : Freemap.t;
  eager : Eager.t;
  cfg : config;
  block_bytes : int;
  entries_per_piece : int;
  pieces : piece array;
  map : int array; (* logical -> physical block, -1 unmapped *)
  reverse : int array; (* physical -> logical, -1 = none *)
  landing_pba : int;
  scratch : Bytes.t; (* reusable node-encode block; never escapes a write *)
  mutable seq : int64;
  mutable txn_counter : int64;
  mutable root : (int * int64) option; (* newest node: (pba, seq) *)
  mutable st : stats;
}

let landing_pba = 0
let reserve_slack = 4

let disk t = t.disk
let sink t = Disk.Disk_sim.trace t.disk
let freemap t = t.freemap
let eager t = t.eager
let config t = t.cfg
let block_bytes t = t.block_bytes
let n_pieces t = Array.length t.pieces
let seq t = t.seq
let stats t = t.st

(* Every write to [t.map] goes through here so [piece.image] stays the
   exact on-disk encoding of the piece's map slice. *)
let set_map t logical v =
  t.map.(logical) <- v;
  let piece = t.pieces.(logical / t.entries_per_piece) in
  let off = (logical - piece.first_logical) * 4 in
  let enc = v + 1 in
  Bytes.set_uint16_le piece.image off (enc land 0xFFFF);
  Bytes.set_uint16_le piece.image (off + 2) ((enc lsr 16) land 0xFFFF)

let lookup t logical =
  if logical < 0 || logical >= t.cfg.logical_blocks then
    invalid_arg "Virtual_log.lookup: logical block out of range";
  let p = t.map.(logical) in
  if p < 0 then None else Some p

let logical_of_physical t pba =
  if pba < 0 || pba >= Array.length t.reverse then
    invalid_arg "Virtual_log.logical_of_physical: block out of range";
  let l = t.reverse.(pba) in
  if l < 0 then None else Some l

let is_map_node t pba = Array.exists (fun p -> p.loc = pba) t.pieces

let piece_location t idx =
  if idx < 0 || idx >= Array.length t.pieces then
    invalid_arg "Virtual_log.piece_location: piece out of range";
  let loc = t.pieces.(idx).loc in
  if loc < 0 then None else Some loc

let make_pieces ~logical_blocks ~entries_per_piece =
  let n = (logical_blocks + entries_per_piece - 1) / entries_per_piece in
  Array.init n (fun idx ->
      let first_logical = idx * entries_per_piece in
      let n_entries = min entries_per_piece (logical_blocks - first_logical) in
      {
        idx;
        first_logical;
        n_entries;
        (* all-zero = every entry -1 (unmapped) in the +1 encoding *)
        image = Bytes.make (n_entries * 4) '\000';
        loc = -1;
        node_seq = 0L;
        ptrs = [];
      })

(* Dedup pointers by target block, keeping the highest expected sequence
   number (older expectations are necessarily stale). *)
let dedup_ptrs ptrs =
  let keep p acc =
    match List.find_opt (fun q -> q.Map_codec.pba = p.Map_codec.pba) acc with
    | Some q when q.Map_codec.seq >= p.Map_codec.seq -> acc
    | Some q -> p :: List.filter (fun r -> r != q) acc
    | None -> p :: acc
  in
  List.fold_left (fun acc p -> keep p acc) [] ptrs

let checkpoint_ptrs t exclude_piece =
  Array.to_list t.pieces
  |> List.filter_map (fun p ->
         if p.idx = exclude_piece || p.loc < 0 then None
         else Some { Map_codec.pba = p.loc; seq = p.node_seq })

(* Write one map node for [piece] as part of transaction [txn_id],
   eager-allocating its block.  Returns the superseded node's block, which
   the caller releases only after the transaction's commit node is on
   disk — recycling it earlier could let a later write of the same
   transaction destroy the pre-image the crash recovery needs. *)
let write_node t piece ~txn_id ~commit =
  t.seq <- Int64.add t.seq 1L;
  let inherited =
    let prev_root =
      match t.root with
      | Some (rp, rs) -> [ { Map_codec.pba = rp; seq = rs } ]
      | None -> []
    in
    let taken_over = if piece.loc >= 0 then piece.ptrs else [] in
    dedup_ptrs (prev_root @ taken_over)
  in
  (* A checkpoint node points at every piece directly, truncating the
     history a recovery must walk.  One is written when takeover pointers
     would overflow the node, and periodically regardless (the analogue
     of VLFS writing its inode map out at intervals). *)
  let periodic = Int64.rem t.seq checkpoint_interval = 0L in
  let kind, ptrs =
    if periodic || List.length inherited > Map_codec.max_ptrs then
      (Map_codec.Checkpoint, dedup_ptrs (checkpoint_ptrs t piece.idx))
    else (Map_codec.Node, inherited)
  in
  let node =
    {
      Map_codec.seq = t.seq;
      piece = piece.idx;
      kind;
      txn_id;
      txn_commit = commit;
      ptrs;
      entries = [||];
    }
  in
  (* The disk copies the buffer out before the write returns, so one
     scratch block serves every node write. *)
  let buf = t.scratch in
  Map_codec.encode_node_image_into buf node ~image:piece.image;
  (* One "vlog.node" span per map-node commit: defect-retry writes fold
     inside it, so the enclosing transaction folds each node as a single
     child and the trace sums stay exact. *)
  let sp =
    if Trace.enabled (sink t) then
      Trace.enter (sink t)
        ~attrs:
          [
            ("piece", string_of_int piece.idx);
            ("kind", match kind with Map_codec.Checkpoint -> "checkpoint" | _ -> "node");
            ("commit", if commit then "true" else "false");
          ]
        "vlog.node"
    else Vlog_util.Io.no_span
  in
  (* Grown defects surface here as write errors: retire the block in the
     freemap (the VLD's defect list) and eager-allocate another — the
     same node lands elsewhere, exactly like firmware remapping to a
     spare sector, except the spare pool is the whole free space. *)
  let rec put attempts held acc =
    let pba =
      match held with
      | Some pba -> pba (* transient failure: retry the same home *)
      | None -> (
        match Eager.choose t.eager with
        | Some pba ->
          Freemap.occupy t.freemap pba;
          pba
        | None -> failwith "Virtual_log.write_node: disk full (reserve exhausted)")
    in
    match
      Disk.Disk_sim.write_checked ~scsi:false t.disk
        ~lba:(Freemap.lba_of_block t.freemap pba) buf
    with
    | Ok (), cost -> (pba, Breakdown.add acc cost)
    | Error e, cost when e.Disk.Disk_sim.transient ->
      (* A hung or flaky drive, not a defect: the media is fine, so the
         block must not be retired to the bad list. *)
      if attempts >= 8 then begin
        Freemap.release t.freemap pba;
        failwith "Virtual_log.write_node: persistent write failures (drive not responding)"
      end
      else put (attempts + 1) (Some pba) (Breakdown.add acc cost)
    | Error _, cost ->
      Freemap.mark_bad t.freemap pba;
      if attempts >= 8 then
        failwith "Virtual_log.write_node: persistent write failures (media worn out)"
      else put (attempts + 1) None (Breakdown.add acc cost)
  in
  let pba, bd = put 0 None Breakdown.zero in
  Trace.exit (sink t) ~bd sp;
  let superseded = if piece.loc >= 0 then Some piece.loc else None in
  piece.loc <- pba;
  piece.node_seq <- t.seq;
  piece.ptrs <- ptrs;
  t.root <- Some (pba, t.seq);
  let checkpoint = kind = Map_codec.Checkpoint in
  Trace.incr (sink t) "vlog.node_writes";
  if checkpoint then Trace.incr (sink t) "vlog.checkpoints";
  t.st <-
    {
      t.st with
      node_writes = t.st.node_writes + 1;
      checkpoint_writes = (t.st.checkpoint_writes + if checkpoint then 1 else 0);
    };
  (bd, superseded)

let update ?(rewrite_pieces = []) t entries =
  let sp =
    if Trace.enabled (sink t) then
      Trace.enter (sink t)
        ~attrs:[ ("entries", string_of_int (List.length entries)) ]
        "vlog.update"
    else Vlog_util.Io.no_span
  in
  t.txn_counter <- Int64.add t.txn_counter 1L;
  let txn_id = t.txn_counter in
  let dirty = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace dirty p ()) rewrite_pieces;
  let to_release = ref [] in
  let apply (logical, value) =
    if logical < 0 || logical >= t.cfg.logical_blocks then
      invalid_arg "Virtual_log.update: logical block out of range";
    let old = t.map.(logical) in
    let nw = match value with Some pba -> pba | None -> -1 in
    if nw >= 0 then begin
      if Freemap.is_free t.freemap nw then
        invalid_arg "Virtual_log.update: new physical block must be occupied by caller";
      t.reverse.(nw) <- logical
    end;
    set_map t logical nw;
    if old >= 0 && old <> nw then begin
      if t.reverse.(old) = logical then t.reverse.(old) <- -1;
      to_release := old :: !to_release
    end;
    Hashtbl.replace dirty (logical / t.entries_per_piece) ()
  in
  List.iter apply entries;
  let dirty_pieces =
    Hashtbl.fold (fun p () acc -> p :: acc) dirty [] |> List.sort compare
  in
  let n = List.length dirty_pieces in
  let bd = ref Breakdown.zero in
  List.iteri
    (fun i p ->
      let commit = i = n - 1 in
      let cost, superseded = write_node t t.pieces.(p) ~txn_id ~commit in
      bd := Breakdown.add !bd cost;
      Option.iter (fun old -> to_release := old :: !to_release) superseded)
    dirty_pieces;
  (* Overwritten blocks become reusable only once the commit node is on
     disk; releasing earlier could let this very transaction's map nodes
     destroy the pre-image. *)
  List.iter (Freemap.release t.freemap) !to_release;
  t.st <- { t.st with txns = t.st.txns + 1 };
  Trace.incr (sink t) "vlog.txns";
  Trace.exit (sink t) ~bd:!bd sp;
  !bd

let tail_record t =
  {
    Map_codec.root_pba = (match t.root with Some (p, _) -> p | None -> -1);
    root_seq = (match t.root with Some (_, s) -> s | None -> 0L);
    n_pieces = Array.length t.pieces;
    entries_per_piece = t.entries_per_piece;
    logical_blocks = t.cfg.logical_blocks;
    sectors_per_block = t.cfg.sectors_per_block;
  }

let power_down t =
  let buf = Map_codec.encode_tail ~block_bytes:t.block_bytes (tail_record t) in
  (* Best effort: if the landing zone has grown a defect the record is
     simply absent or torn, and the next recovery takes the scan path —
     the same outcome as a crash, which recovery must survive anyway. *)
  match
    Disk.Disk_sim.write_checked ~scsi:false t.disk
      ~lba:(Freemap.lba_of_block t.freemap t.landing_pba) buf
  with
  | (Ok () | Error _), bd -> bd

(* The map itself (plus slack for in-flight node rewrites) must fit; the
   logical space may exceed the physical block count — a sparse logical
   space is how VLFS uses the log as an inode map — in which case
   allocation pressure, not this check, bounds how much can be mapped. *)
let check_capacity ~freemap ~logical_blocks:_ ~n_pieces =
  let avail = Freemap.n_blocks freemap - 1 (* landing zone *) in
  if n_pieces + reserve_slack >= avail then
    invalid_arg
      (Printf.sprintf "Virtual_log: %d map pieces cannot fit %d physical blocks"
         n_pieces avail)

let format ~disk cfg =
  let g = Disk.Disk_sim.geometry disk in
  let block_bytes = cfg.sectors_per_block * g.Disk.Geometry.sector_bytes in
  let entries_per_piece = Map_codec.max_entries ~block_bytes in
  if cfg.logical_blocks <= 0 then invalid_arg "Virtual_log.format: logical_blocks <= 0";
  let pieces = make_pieces ~logical_blocks:cfg.logical_blocks ~entries_per_piece in
  if Array.length pieces > Map_codec.max_ptrs then
    invalid_arg "Virtual_log.format: too many map pieces for checkpoint nodes";
  let freemap = Freemap.create ~profile:(Disk.Disk_sim.profile disk) ~sectors_per_block:cfg.sectors_per_block in
  check_capacity ~freemap ~logical_blocks:cfg.logical_blocks ~n_pieces:(Array.length pieces);
  let eager = Eager.create ~disk ~freemap () in
  Freemap.occupy freemap landing_pba;
  let t =
    {
      disk;
      freemap;
      eager;
      cfg;
      block_bytes;
      entries_per_piece;
      pieces;
      map = Array.make cfg.logical_blocks (-1);
      reverse = Array.make (Freemap.n_blocks freemap) (-1);
      landing_pba;
      scratch = Bytes.create block_bytes;
      seq = 0L;
      txn_counter = 0L;
      root = None;
      st = { node_writes = 0; checkpoint_writes = 0; txns = 0 };
    }
  in
  Eager.rescan_empty_tracks eager;
  (* A cleared landing zone, then an initial node per piece as one
     formatting transaction. *)
  let cleared = Map_codec.cleared_tail ~block_bytes in
  ignore
    (Disk.Disk_sim.write ~scsi:false disk ~lba:(Freemap.lba_of_block freemap landing_pba)
       cleared);
  t.txn_counter <- 1L;
  let n = Array.length t.pieces in
  Array.iteri
    (fun i piece ->
      let _, superseded = write_node t piece ~txn_id:1L ~commit:(i = n - 1) in
      assert (superseded = None))
    t.pieces;
  t.st <- { t.st with txns = 1 };
  t

type recovery_report = {
  used_tail : bool;
  nodes_read : int;
  blocks_scanned : int;
  edges_pruned : int;
  uncommitted_skipped : int;
  corrupt_nodes : int;
  duration : Breakdown.t;
}

(* Rebuild in-memory state from recovered piece nodes. *)
let rebuild ~disk ~logical_blocks ~sectors_per_block ~recovered =
  let g = Disk.Disk_sim.geometry disk in
  let block_bytes = sectors_per_block * g.Disk.Geometry.sector_bytes in
  let entries_per_piece = Map_codec.max_entries ~block_bytes in
  let pieces = make_pieces ~logical_blocks ~entries_per_piece in
  let freemap = Freemap.create ~profile:(Disk.Disk_sim.profile disk) ~sectors_per_block in
  let eager = Eager.create ~disk ~freemap () in
  Freemap.occupy freemap landing_pba;
  let t =
    {
      disk;
      freemap;
      eager;
      cfg = { (default_config ~logical_blocks) with sectors_per_block };
      block_bytes;
      entries_per_piece;
      pieces;
      map = Array.make logical_blocks (-1);
      reverse = Array.make (Freemap.n_blocks freemap) (-1);
      landing_pba;
      scratch = Bytes.create block_bytes;
      seq = 0L;
      txn_counter = 0L;
      root = None;
      st = { node_writes = 0; checkpoint_writes = 0; txns = 0 };
    }
  in
  let install (pba, (node : Map_codec.node)) =
    let piece = pieces.(node.Map_codec.piece) in
    piece.loc <- pba;
    piece.node_seq <- node.Map_codec.seq;
    piece.ptrs <- node.Map_codec.ptrs;
    Array.iteri
      (fun i v ->
        let logical = piece.first_logical + i in
        if logical < logical_blocks then set_map t logical v)
      node.Map_codec.entries;
    if node.Map_codec.seq > t.seq then begin
      t.seq <- node.Map_codec.seq;
      t.root <- Some (pba, node.Map_codec.seq)
    end;
    if node.Map_codec.txn_id > t.txn_counter then t.txn_counter <- node.Map_codec.txn_id
  in
  List.iter install recovered;
  (* Occupancy: landing zone (already), live map nodes, mapped data. *)
  Array.iter (fun p -> if p.loc >= 0 then Freemap.occupy freemap p.loc) pieces;
  Array.iteri
    (fun logical pba ->
      if pba >= 0 then begin
        Freemap.occupy freemap pba;
        t.reverse.(pba) <- logical
      end)
    t.map;
  Eager.rescan_empty_tracks eager;
  t

(* Checked read with bounded retry: transient errors are retried a few
   times (drives do this in firmware); permanent errors and ECC
   mismatches surface as [Error].  The cost is the attempts' own sum,
   which the caller adds to its running total. *)
let read_retry ~disk ~lba ~sectors =
  let r, _, bd =
    Disk.Disk_sim.read_retrying ~scsi:false ~bd:Breakdown.zero disk ~lba ~sectors
  in
  (r, bd)

let read_block ~disk ~sectors_per_block pba =
  read_retry ~disk ~lba:(pba * sectors_per_block) ~sectors:sectors_per_block

(* Traverse the tree from the tail, frontier ordered by age (newest
   first), pruning recycled targets, skipping corrupt or unreadable nodes,
   skipping uncommitted transactions. *)
let traverse ~disk ~sectors_per_block ~n_pieces ~root =
  let bd = ref Breakdown.zero in
  let nodes_read = ref 0 and pruned = ref 0 and uncommitted = ref 0 in
  let corrupt = ref 0 in
  (* The log is written strictly sequentially with the commit node last in
     each transaction, and the frontier pops in descending sequence order,
     so once any commit node has been seen every older node belongs to a
     committed transaction — even when that transaction's own commit node
     was later superseded and recycled. *)
  let seen_commit = ref false in
  let visited = Hashtbl.create 64 in
  let found = Hashtbl.create 16 in
  (* Frontier kept sorted by expected seq, descending. *)
  let frontier = ref [ root ] in
  let push (p : Map_codec.ptr) =
    if not (Hashtbl.mem visited p.Map_codec.pba) then begin
      let rec ins : Map_codec.ptr list -> Map_codec.ptr list = function
        | [] -> [ p ]
        | (q : Map_codec.ptr) :: rest when q.seq >= p.Map_codec.seq -> q :: ins rest
        | rest -> p :: rest
      in
      frontier := ins !frontier
    end
  in
  let rec loop () =
    if Hashtbl.length found >= n_pieces then ()
    else
      match !frontier with
      | [] -> ()
      | p :: rest ->
        frontier := rest;
        if not (Hashtbl.mem visited p.Map_codec.pba) then begin
          Hashtbl.add visited p.Map_codec.pba ();
          let r, cost = read_block ~disk ~sectors_per_block p.Map_codec.pba in
          bd := Breakdown.add !bd cost;
          incr nodes_read;
          match r with
          | Error _ ->
            (* Unreadable mid-chain node: the nodes behind it may only be
               reachable through other takeover pointers — or not at all,
               in which case the caller falls back to the signature scan. *)
            incr corrupt
          | Ok buf -> (
            match Map_codec.decode_node buf with
            | Some node when node.Map_codec.seq = p.Map_codec.seq ->
              if node.Map_codec.txn_commit then seen_commit := true;
              let valid = node.Map_codec.txn_commit || !seen_commit in
              if valid then begin
                if not (Hashtbl.mem found node.Map_codec.piece) then
                  Hashtbl.add found node.Map_codec.piece (p.Map_codec.pba, node)
              end
              else incr uncommitted;
              List.iter push node.Map_codec.ptrs
            | Some _ | None ->
              (* Recycled, stale or torn target: the pointer no longer
                 leads to the node it was written for; the live contents
                 are reachable elsewhere. *)
              incr pruned)
        end;
        loop ()
  in
  loop ();
  let recovered = Hashtbl.fold (fun _ v acc -> v :: acc) found [] in
  (recovered, !bd, !nodes_read, !pruned, !uncommitted, !corrupt)

(* Scan every block for signed map nodes; keep the newest committed node
   of each piece.  Reads the platters track by track for honest timing;
   a track that fails to read wholesale is re-read block by block so one
   bad sector cannot hide the rest of the track's nodes. *)
let scan ~disk ~sectors_per_block =
  let g = Disk.Disk_sim.geometry disk in
  let spt = g.Disk.Geometry.sectors_per_track in
  let blocks_per_track = spt / sectors_per_block in
  let n_tracks = Disk.Geometry.total_tracks g in
  let block_bytes = sectors_per_block * g.Disk.Geometry.sector_bytes in
  let bd = ref Breakdown.zero in
  let nodes : (int, int * Map_codec.node) Hashtbl.t = Hashtbl.create 16 in
  let all_nodes = ref [] in
  let scanned = ref 0 and unreadable = ref 0 in
  let consider pba block =
    incr scanned;
    match Map_codec.decode_node block with
    | Some node -> all_nodes := (pba, node) :: !all_nodes
    | None -> ()
  in
  for track = 0 to n_tracks - 1 do
    let lba = track * spt in
    let r, cost = read_retry ~disk ~lba ~sectors:spt in
    bd := Breakdown.add !bd cost;
    match r with
    | Ok buf ->
      for b = 0 to blocks_per_track - 1 do
        consider
          ((track * blocks_per_track) + b)
          (Bytes.sub buf (b * block_bytes) block_bytes)
      done
    | Error _ ->
      for b = 0 to blocks_per_track - 1 do
        let pba = (track * blocks_per_track) + b in
        let r, cost = read_block ~disk ~sectors_per_block pba in
        bd := Breakdown.add !bd cost;
        match r with
        | Ok block -> consider pba block
        | Error _ ->
          incr scanned;
          incr unreadable
      done
  done;
  (* Anything at or below the newest commit node's sequence number is
     committed; only newer non-commit nodes are a rolled-back tail. *)
  let max_committed =
    List.fold_left
      (fun m (_, (n : Map_codec.node)) ->
        if n.Map_codec.txn_commit && n.Map_codec.seq > m then n.Map_codec.seq else m)
      Int64.min_int !all_nodes
  in
  let uncommitted = ref 0 in
  List.iter
    (fun (pba, (n : Map_codec.node)) ->
      let valid = n.Map_codec.txn_commit || n.Map_codec.seq < max_committed in
      if not valid then incr uncommitted
      else
        match Hashtbl.find_opt nodes n.Map_codec.piece with
        | Some (_, old) when old.Map_codec.seq >= n.Map_codec.seq -> ()
        | _ -> Hashtbl.replace nodes n.Map_codec.piece (pba, n))
    !all_nodes;
  let recovered = Hashtbl.fold (fun _ v acc -> v :: acc) nodes [] in
  (recovered, !bd, !scanned, !uncommitted, !unreadable)

let recover_untraced ~disk =
  (* Probe the landing zone with the smallest sensible block (one sector
     holds the whole record; we read 8 sectors to cover the common 4 KB
     layout, then re-read nothing: config comes from the record). *)
  let g = Disk.Disk_sim.geometry disk in
  let probe_sectors = min 8 g.Disk.Geometry.sectors_per_track in
  let tail_r, bd0 = read_retry ~disk ~lba:0 ~sectors:probe_sectors in
  (* Clear the record so a later crash cannot trust it; best effort — a
     defective landing zone just means the next recovery scans. *)
  let clear_tail block_bytes =
    let cleared = Map_codec.cleared_tail ~block_bytes in
    match Disk.Disk_sim.write_checked ~scsi:false disk ~lba:0 cleared with
    | (Ok () | Error _), bd -> bd
  in
  (* The signature-scan path, optionally merging nodes already recovered
     by a partial tree traversal (newest node per piece wins). *)
  let scan_recover ~sectors_per_block ~prior ~used_tail ~nodes_read ~pruned
      ~uncommitted ~corrupt ~logical_blocks_hint ~n_pieces_hint ~bd_acc =
    let scanned_nodes, bd1, scanned, unc, unreadable = scan ~disk ~sectors_per_block in
    let merged = Hashtbl.create 16 in
    let add (pba, (n : Map_codec.node)) =
      match Hashtbl.find_opt merged n.Map_codec.piece with
      | Some (_, (old : Map_codec.node)) when old.Map_codec.seq >= n.Map_codec.seq -> ()
      | _ -> Hashtbl.replace merged n.Map_codec.piece (pba, n)
    in
    List.iter add scanned_nodes;
    List.iter add prior;
    let recovered = Hashtbl.fold (fun _ v acc -> v :: acc) merged [] in
    if recovered = [] then Error "virtual log recovery: no valid map nodes found on disk"
    else begin
      let n_pieces =
        match n_pieces_hint with
        | Some n -> n
        | None -> 1 + List.fold_left (fun m (_, n) -> max m n.Map_codec.piece) 0 recovered
      in
      if List.length recovered < n_pieces then
        Error "virtual log recovery: scan found an incomplete set of map pieces"
      else begin
        let logical_blocks =
          match logical_blocks_hint with
          | Some n -> n
          | None ->
            List.fold_left
              (fun acc (_, (n : Map_codec.node)) ->
                acc + Array.length n.Map_codec.entries)
              0 recovered
        in
        let t =
          rebuild ~disk ~logical_blocks ~sectors_per_block ~recovered
        in
        let bd2 = clear_tail t.block_bytes in
        Ok
          ( t,
            {
              used_tail;
              nodes_read;
              blocks_scanned = scanned;
              edges_pruned = pruned;
              uncommitted_skipped = uncommitted + unc;
              corrupt_nodes = corrupt + unreadable;
              duration = Breakdown.add (Breakdown.add bd_acc bd1) bd2;
            } )
      end
    end
  in
  let fresh_scan bd_acc =
    scan_recover ~sectors_per_block:8 ~prior:[] ~used_tail:false ~nodes_read:0
      ~pruned:0 ~uncommitted:0 ~corrupt:0 ~logical_blocks_hint:None
      ~n_pieces_hint:None ~bd_acc
  in
  match tail_r with
  | Error _ ->
    (* Landing zone unreadable: same as a missing record. *)
    fresh_scan bd0
  | Ok buf -> (
    match Map_codec.decode_tail buf with
    | Some tail when tail.Map_codec.root_pba >= 0 ->
      let sectors_per_block = tail.Map_codec.sectors_per_block in
      let root =
        { Map_codec.pba = tail.Map_codec.root_pba; seq = tail.Map_codec.root_seq }
      in
      let recovered, bd1, nodes_read, pruned, uncommitted, corrupt =
        traverse ~disk ~sectors_per_block ~n_pieces:tail.Map_codec.n_pieces ~root
      in
      let bd_acc = Breakdown.add bd0 bd1 in
      if List.length recovered >= tail.Map_codec.n_pieces then begin
        let t =
          rebuild ~disk ~logical_blocks:tail.Map_codec.logical_blocks ~sectors_per_block
            ~recovered
        in
        let bd2 = clear_tail t.block_bytes in
        Ok
          ( t,
            {
              used_tail = true;
              nodes_read;
              blocks_scanned = 0;
              edges_pruned = pruned;
              uncommitted_skipped = uncommitted;
              corrupt_nodes = corrupt;
              duration = Breakdown.add bd_acc bd2;
            } )
      end
      else
        (* Corrupt or unreadable nodes cut the chain mid-way: do not
           abort — fall back to the signature scan and merge whatever the
           traversal did reach. *)
        scan_recover ~sectors_per_block ~prior:recovered ~used_tail:true ~nodes_read
          ~pruned ~uncommitted ~corrupt
          ~logical_blocks_hint:(Some tail.Map_codec.logical_blocks)
          ~n_pieces_hint:(Some tail.Map_codec.n_pieces) ~bd_acc
    | Some _ | None ->
      (* No trustworthy tail: scan for signed map nodes.  The node format
         is self-describing enough to infer the configuration. *)
      fresh_scan bd0)

let recover ~disk () =
  (* The recovery span is exited without an explicit breakdown: it
     records the fold of its children (every platter read and the
     landing-zone clear), which is exact by construction. *)
  let tr = Disk.Disk_sim.trace disk in
  let sp = if Trace.enabled tr then Trace.enter tr "vlog.recover" else Vlog_util.Io.no_span in
  let r = recover_untraced ~disk in
  Trace.exit tr sp;
  r

let check_invariants t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Array.iteri
    (fun logical pba ->
      if pba >= 0 then begin
        if Freemap.is_free t.freemap pba then
          err "logical %d maps to free physical block %d" logical pba;
        if t.reverse.(pba) <> logical then
          err "reverse map of physical %d is %d, expected %d" pba t.reverse.(pba) logical
      end)
    t.map;
  Array.iteri
    (fun pba logical ->
      if logical >= 0 && t.map.(logical) <> pba then
        err "dangling reverse entry: physical %d -> logical %d" pba logical)
    t.reverse;
  let locs = Array.to_list t.pieces |> List.filter_map (fun p -> if p.loc >= 0 then Some p.loc else None) in
  let sorted = List.sort compare locs in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  (match dup sorted with
  | Some pba -> err "two map pieces share physical block %d" pba
  | None -> ());
  List.iter
    (fun pba ->
      if Freemap.is_free t.freemap pba then err "map node block %d marked free" pba)
    locs;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)
