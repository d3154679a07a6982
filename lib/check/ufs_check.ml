(* fsck for UFS: walk the mounted state through the read-only checker
   accessors and re-derive everything the file system keeps redundantly —
   directory <-> inode linkage, block reachability vs the allocator
   bitmap, fragment-slot occupancy — then ask the file system to verify
   its metadata against the platters.  UFS keeps no on-disk free bitmap
   (mount rebuilds it by reachability), so [Leaked_block]/[Double_alloc]
   here catch in-memory accounting drift, and [Dangling_dirent]/
   [Orphan_inode] catch namespace damage a mount failed to clear. *)

let frags_per_block = 4

let check (t : Ufs.t) : Report.t =
  let fd = ref [] in
  let add f = fd := f :: !fd in
  List.iter add
    (Namespace.check ~first_inum:0 ~entries:(Ufs.dir_entries t)
       ~live_inums:(Ufs.live_inums t));
  let total = Ufs.total_blocks t in
  let data_start = Ufs.data_area_start t in
  (* Block reachability: every reachable block claimed once, in range,
     and marked in the allocator bitmap. *)
  let claims = Hashtbl.create 64 in
  let claim b owner =
    if b < data_start || b >= total then
      add
        (Report.findf Report.Malformed "%s points at out-of-range block %d"
           owner b)
    else
      match Hashtbl.find_opt claims b with
      | Some prev ->
        add
          (Report.findf Report.Double_alloc "block %d claimed by %s and %s" b
             prev owner)
      | None ->
        Hashtbl.replace claims b owner;
        if not (Ufs.block_marked t b) then
          add
            (Report.findf Report.Map_inconsistent
               "allocator bitmap misses live block %d (%s)" b owner)
  in
  List.iter (fun b -> claim b "directory") (Ufs.dir_data_blocks t);
  let frag_expect = Hashtbl.create 8 in
  List.iter
    (fun inum ->
      match Ufs.inode_of t inum with
      | None -> ()
      | Some ino ->
        let owner = Printf.sprintf "inode %d" inum in
        (match ino.Ufs.Inode.frag with
        | None -> ()
        | Some (fb, slot, slots) ->
          if
            fb < data_start || fb >= total || slot < 0 || slots < 1
            || slot + slots > frags_per_block
          then
            add
              (Report.findf Report.Malformed
                 "%s has malformed fragment descriptor (%d, %d, %d)" owner fb
                 slot slots)
          else begin
            let occ =
              match Hashtbl.find_opt frag_expect fb with
              | Some occ -> occ
              | None ->
                let occ = Array.make frags_per_block false in
                Hashtbl.replace frag_expect fb occ;
                (* Shared block: claimed once, by the frag population. *)
                claim fb (Printf.sprintf "fragment block %d" fb);
                occ
            in
            for s = slot to slot + slots - 1 do
              if occ.(s) then
                add
                  (Report.findf Report.Double_alloc
                     "fragment slot %d of block %d claimed twice (%s)" s fb
                     owner);
              occ.(s) <- true
            done
          end);
        for i = 0 to Ufs.Inode.file_blocks ino - 1 do
          let b = Ufs.Inode.get_block ino i in
          if b >= 0 then claim b owner
        done;
        if ino.Ufs.Inode.ind1 >= 0 then
          claim ino.Ufs.Inode.ind1 (owner ^ " ind1");
        if ino.Ufs.Inode.ind2 >= 0 then
          claim ino.Ufs.Inode.ind2 (owner ^ " ind2");
        Array.iter
          (fun c -> if c >= 0 then claim c (owner ^ " ind2 child"))
          ino.Ufs.Inode.ind2_children)
    (Ufs.live_inums t);
  (* Fragment occupancy must agree with what the inodes imply. *)
  List.iter
    (fun (fb, occ) ->
      match Hashtbl.find_opt frag_expect fb with
      | None ->
        add
          (Report.findf Report.Leaked_block
             "fragment block %d tracked but no inode uses it" fb)
      | Some expect ->
        if occ <> expect then
          add
            (Report.findf Report.Map_inconsistent
               "fragment occupancy of block %d disagrees with the inodes" fb);
        Hashtbl.remove frag_expect fb)
    (Ufs.frag_occupancy t);
  Hashtbl.iter
    (fun fb _ ->
      add
        (Report.findf Report.Map_inconsistent
           "fragment block %d used by inodes but not tracked" fb))
    frag_expect;
  (* Marked-but-unreachable blocks are leaks. *)
  for b = data_start to total - 1 do
    if Ufs.block_marked t b && not (Hashtbl.mem claims b) then
      add
        (Report.findf Report.Leaked_block
           "block %d marked allocated but unreachable" b)
  done;
  for b = 0 to data_start - 1 do
    if not (Ufs.block_marked t b) then
      add
        (Report.findf Report.Map_inconsistent
           "reserved block %d not marked in the bitmap" b)
  done;
  Report.v ~fs:"ufs" (List.rev !fd @ Report.of_media (Ufs.verify_media t))
