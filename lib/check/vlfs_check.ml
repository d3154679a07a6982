(* fsck for VLFS: the virtual log checks its own map/freemap invariants
   and VLFS checks its occupancy/owner invariants; this checker layers
   the file-level walk on top — namespace <-> inode linkage, data-block
   claims agreeing with the owner table and the freemap — and finishes
   with the map-and-checksum verification of every live inode part. *)

let check (t : Vlfs.t) : Report.t =
  let fd = ref [] in
  let add f = fd := f :: !fd in
  (match Vlog.Virtual_log.check_invariants (Vlfs.vlog t) with
  | Ok () -> ()
  | Error e ->
    add (Report.findf Report.Map_inconsistent "virtual log: %s" e));
  (match Vlfs.check_invariants t with
  | Ok () -> ()
  | Error e -> add (Report.findf Report.Map_inconsistent "vlfs: %s" e));
  let n_phys = Vlfs.n_physical_blocks t in
  let fm = Vlog.Virtual_log.freemap (Vlfs.vlog t) in
  (* Inum 0 is the directory file. *)
  List.iter add
    (Namespace.check ~first_inum:1 ~entries:(Vlfs.dir_entries t)
       ~live_inums:(Vlfs.live_inums t));
  (* Data-block claims: in range, claimed once, owner table and freemap
     agreeing. *)
  let claims = Hashtbl.create 64 in
  List.iter
    (fun inum ->
      match Vlfs.inode_blocks t inum with
      | None -> ()
      | Some (_size, blocks) ->
        Array.iteri
          (fun fb pba ->
            if pba >= 0 then begin
              let owner = Printf.sprintf "inode %d block %d" inum fb in
              if pba >= n_phys then
                add
                  (Report.findf Report.Malformed
                     "%s points at out-of-range physical block %d" owner pba)
              else begin
                (match Hashtbl.find_opt claims pba with
                | Some prev ->
                  add
                    (Report.findf Report.Double_alloc
                       "physical block %d claimed by %s and %s" pba prev owner)
                | None -> Hashtbl.replace claims pba owner);
                if Vlfs.owner_of t pba <> Some (inum, fb) then
                  add
                    (Report.findf Report.Map_inconsistent
                       "owner table disagrees about physical block %d (%s)"
                       pba owner);
                if Vlog.Freemap.is_free fm pba then
                  add
                    (Report.findf Report.Map_inconsistent
                       "freemap thinks live block %d is free (%s)" pba owner)
              end
            end)
          blocks)
    (Vlfs.live_inums t);
  (* The owner table must not claim liveness for unreachable blocks. *)
  for pba = 0 to n_phys - 1 do
    match Vlfs.owner_of t pba with
    | None -> ()
    | Some (inum, fb) ->
      if not (Hashtbl.mem claims pba) then
        add
          (Report.findf Report.Leaked_block
             "owner table says block %d belongs to inode %d block %d but \
              nothing reaches it"
             pba inum fb)
  done;
  Report.v ~fs:"vlfs" (List.rev !fd @ Report.of_media (Vlfs.verify_media t))
