(* fsck for LFS: re-derive the live set (inode data blocks, on-disk
   inode parts, imap chunks) from the checker accessors and cross-check
   it against the owner table and the per-segment live counters LFS
   cleans by.  LFS cannot leak in the classical sense — segment liveness
   is derived by reachability, dead copies are simply cleanable garbage —
   so the leak-shaped failures here are stale owner entries that still
   claim liveness for a block nothing references. *)

let check (t : Lfs.t) : Report.t =
  let cfg = Lfs.config t in
  let live_inums = List.filter (Lfs.inode_in_use t) (List.init cfg.Lfs.n_inodes Fun.id) in
  let fd = ref [] in
  let add f = fd := f :: !fd in
  (* Inum 0 is the directory file itself and is never named. *)
  List.iter add (Namespace.check ~first_inum:1 ~entries:(Lfs.dir_entries t) ~live_inums);
  let area = Lfs.segment_area_start t in
  let area_end = area + (Lfs.n_segments t * cfg.Lfs.segment_blocks) in
  (* The live set, claimed once each, owner entries agreeing. *)
  let claims = Hashtbl.create 64 in
  let claim b owner expect_id =
    if b < area || b >= area_end then
      add
        (Report.findf Report.Malformed "%s points at out-of-segment block %d"
           owner b)
    else begin
      (match Hashtbl.find_opt claims b with
      | Some prev ->
        add
          (Report.findf Report.Double_alloc "block %d claimed by %s and %s" b
             prev owner)
      | None -> Hashtbl.replace claims b owner);
      if Lfs.owner_of t b <> Some expect_id then
        add
          (Report.findf Report.Map_inconsistent
             "owner table disagrees about block %d (%s)" b owner)
    end
  in
  List.iter
    (fun inum ->
      (match Lfs.inode_blocks t inum with
      | None ->
        add
          (Report.findf Report.Map_inconsistent
             "inode %d in use but has no in-memory node" inum)
      | Some (_size, blocks) ->
        Array.iteri
          (fun i b ->
            if b >= 0 then
              claim b
                (Printf.sprintf "inode %d block %d" inum i)
                (Lfs.Data (inum, i)))
          blocks);
      match Lfs.imap_parts t inum with
      | None ->
        (* Legal after crash recovery: the inode's latest version lives
           in replayed log items and reaches the imap at the next
           checkpoint. *)
        add
          (Report.findf Report.Unflushed
             "live inode %d has no on-disk inode-map parts yet" inum)
      | Some parts ->
        Array.iteri
          (fun p b ->
            if b >= 0 then
              claim b
                (Printf.sprintf "inode %d part %d" inum p)
                (Lfs.Inode_part (inum, p)))
          parts)
    live_inums;
  Array.iteri
    (fun c b ->
      if b >= 0 then
        claim b (Printf.sprintf "imap chunk %d" c) (Lfs.Imap_chunk c))
    (Lfs.imap_chunk_locations t);
  (* Per-segment live counts: every claimed block is live; the only
     other live blocks LFS counts are the open segment's two summary
     slots. *)
  let seg_claimed = Array.make (Lfs.n_segments t) 0 in
  Hashtbl.iter
    (fun b _ ->
      let seg = (b - area) / cfg.Lfs.segment_blocks in
      seg_claimed.(seg) <- seg_claimed.(seg) + 1)
    claims;
  let summary_slack = ref 0 in
  for seg = 0 to Lfs.n_segments t - 1 do
    let live = Lfs.seg_live t seg in
    if live < seg_claimed.(seg) || live > seg_claimed.(seg) + 2 then
      add
        (Report.findf Report.Leaked_block
           "segment %d counts %d live blocks but %d are reachable" seg live
           seg_claimed.(seg))
    else if live > seg_claimed.(seg) then incr summary_slack
  done;
  if !summary_slack > 1 then
    add
      (Report.findf Report.Leaked_block
         "%d segments count unreachable live blocks (only the open \
          segment's summary slots may)"
         !summary_slack);
  Report.v ~fs:"lfs" (List.rev !fd @ Report.of_media (Lfs.verify_media t))
