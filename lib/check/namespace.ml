let check ~first_inum ~entries ~live_inums =
  let live = Hashtbl.create 16 in
  List.iter (fun inum -> Hashtbl.replace live inum ()) live_inums;
  let named = Hashtbl.create 16 in
  let dirent_findings =
    List.filter_map
      (fun (name, inum) ->
        if not (Hashtbl.mem live inum) then
          Some
            (Report.findf Report.Dangling_dirent "entry %S names dead inode %d"
               name inum)
        else if Hashtbl.mem named inum then
          Some
            (Report.findf Report.Map_inconsistent
               "inode %d named by two directory entries" inum)
        else begin
          Hashtbl.replace named inum ();
          None
        end)
      entries
  in
  dirent_findings
  @ List.filter_map
      (fun inum ->
        if inum >= first_inum && not (Hashtbl.mem named inum) then
          Some
            (Report.findf Report.Orphan_inode
               "live inode %d has no directory entry" inum)
        else None)
      live_inums
