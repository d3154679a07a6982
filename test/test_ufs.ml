open Vlog_util

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 8

let make_fs ?(sync_data = true) ?(on_vld = false) () =
  let clock = Clock.create () in
  let policy =
    if on_vld then Disk.Track_buffer.Whole_track else Disk.Track_buffer.Forward_discard
  in
  let disk = Disk.Disk_sim.create ~buffer_policy:policy ~profile ~clock () in
  let dev =
    if on_vld then
      let prng = Prng.create ~seed:41L in
      Blockdev.Vld.device
        (Blockdev.Vld.create ~disk ~logical_blocks:3500 ~prng ())
    else Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk ())
  in
  let fs =
    Ufs.format ~dev ~host:Host.free ~clock { Ufs.default_config with sync_data }
  in
  (fs, clock)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Format.asprintf "%a" Ufs.pp_error e)

let bytes_of_string = Bytes.of_string

let test_create_read_empty () =
  let fs, _ = make_fs () in
  ignore (ok (Ufs.create fs "a"));
  Alcotest.(check bool) "exists" true (Ufs.exists fs "a");
  Alcotest.(check int) "size 0" 0 (ok (Ufs.file_size fs "a"));
  let data, _ = ok (Ufs.read fs "a" ~off:0 ~len:100) in
  Alcotest.(check int) "empty read" 0 (Bytes.length data)

let test_create_duplicate_rejected () =
  let fs, _ = make_fs () in
  ignore (ok (Ufs.create fs "a"));
  match Ufs.create fs "a" with
  | Error (`Exists "a") -> ()
  | Error e -> Alcotest.fail (Format.asprintf "wrong error %a" Ufs.pp_error e)
  | Ok _ -> Alcotest.fail "duplicate accepted"

let test_small_file_roundtrip () =
  let fs, _ = make_fs () in
  ignore (ok (Ufs.create fs "small"));
  let payload = bytes_of_string "hello fragment world" in
  ignore (ok (Ufs.write fs "small" ~off:0 payload));
  let got, _ = ok (Ufs.read fs "small" ~off:0 ~len:(Bytes.length payload)) in
  Alcotest.(check bytes) "roundtrip" payload got;
  Alcotest.(check int) "size" (Bytes.length payload) (ok (Ufs.file_size fs "small"))

let test_1kb_files_share_frag_blocks () =
  let fs, _ = make_fs () in
  let before = Ufs.allocated_blocks fs in
  for i = 0 to 3 do
    let name = Printf.sprintf "f%d" i in
    ignore (ok (Ufs.create fs name));
    ignore (ok (Ufs.write fs name ~off:0 (Bytes.make 1024 'x')))
  done;
  let after = Ufs.allocated_blocks fs in
  (* Four 1 KB files share fragment blocks plus a couple of dir blocks:
     far fewer than 4 full blocks of data. *)
  Alcotest.(check bool)
    (Printf.sprintf "frag sharing (%d blocks for 4 files)" (after - before))
    true
    (after - before <= 3)

let test_frag_promotion () =
  let fs, _ = make_fs () in
  ignore (ok (Ufs.create fs "grow"));
  ignore (ok (Ufs.write fs "grow" ~off:0 (Bytes.make 1024 'a')));
  (* Grow past the fragment capacity. *)
  ignore (ok (Ufs.write fs "grow" ~off:1024 (Bytes.make 8192 'b')));
  let got, _ = ok (Ufs.read fs "grow" ~off:0 ~len:9216) in
  Alcotest.(check bytes) "promoted content"
    (Bytes.cat (Bytes.make 1024 'a') (Bytes.make 8192 'b'))
    got

let test_large_file_roundtrip () =
  let fs, _ = make_fs ~sync_data:false () in
  ignore (ok (Ufs.create fs "big"));
  (* 300 blocks exercises the single-indirect window. *)
  let chunk = 64 * 1024 in
  let pattern i = Char.chr ((i * 7) mod 256) in
  for c = 0 to 18 do
    let data = Bytes.init chunk (fun i -> pattern ((c * chunk) + i)) in
    ignore (ok (Ufs.write fs "big" ~off:(c * chunk) data))
  done;
  ignore (Ufs.sync fs);
  Ufs.drop_caches fs;
  let total = 19 * chunk in
  let got, _ = ok (Ufs.read fs "big" ~off:0 ~len:total) in
  Alcotest.(check int) "length" total (Bytes.length got);
  let rec verify i =
    if i >= total then ()
    else if Bytes.get got i <> pattern i then
      Alcotest.fail (Printf.sprintf "mismatch at %d" i)
    else verify (i + 4097)
  in
  verify 0

let test_double_indirect_file () =
  let fs, _ = make_fs ~sync_data:false () in
  ignore (ok (Ufs.create fs "huge"));
  (* Write a block beyond direct + single indirect (12 + 1024 blocks). *)
  let far = (12 + 1024 + 5) * 4096 in
  ignore (ok (Ufs.write fs "huge" ~off:far (bytes_of_string "deep data")));
  let got, _ = ok (Ufs.read fs "huge" ~off:far ~len:9) in
  Alcotest.(check bytes) "deep" (bytes_of_string "deep data") got

let test_overwrite_in_place () =
  let fs, _ = make_fs () in
  ignore (ok (Ufs.create fs "f"));
  ignore (ok (Ufs.write fs "f" ~off:0 (Bytes.make 8192 'a')));
  let blocks_before = Ufs.allocated_blocks fs in
  ignore (ok (Ufs.write fs "f" ~off:0 (Bytes.make 8192 'b')));
  Alcotest.(check int) "no new allocation" blocks_before (Ufs.allocated_blocks fs);
  let got, _ = ok (Ufs.read fs "f" ~off:0 ~len:8192) in
  Alcotest.(check bytes) "updated" (Bytes.make 8192 'b') got

let test_partial_block_write () =
  let fs, _ = make_fs ~sync_data:false () in
  ignore (ok (Ufs.create fs "p"));
  ignore (ok (Ufs.write fs "p" ~off:0 (Bytes.make 8192 'a')));
  ignore (ok (Ufs.write fs "p" ~off:100 (bytes_of_string "XYZ")));
  let got, _ = ok (Ufs.read fs "p" ~off:99 ~len:5) in
  Alcotest.(check bytes) "patched" (bytes_of_string "aXYZa") got

let test_delete_frees_space () =
  let fs, _ = make_fs ~sync_data:false () in
  let before = Ufs.allocated_blocks fs in
  ignore (ok (Ufs.create fs "d"));
  ignore (ok (Ufs.write fs "d" ~off:0 (Bytes.make (100 * 4096) 'x')));
  ignore (Ufs.sync fs);
  ignore (ok (Ufs.delete fs "d"));
  (* Directory block stays allocated; everything else returns. *)
  Alcotest.(check bool) "freed" true (Ufs.allocated_blocks fs <= before + 1);
  Alcotest.(check bool) "gone" false (Ufs.exists fs "d")

let test_delete_then_recreate () =
  let fs, _ = make_fs () in
  ignore (ok (Ufs.create fs "x"));
  ignore (ok (Ufs.write fs "x" ~off:0 (Bytes.make 1024 '1')));
  ignore (ok (Ufs.delete fs "x"));
  ignore (ok (Ufs.create fs "x"));
  Alcotest.(check int) "fresh size" 0 (ok (Ufs.file_size fs "x"))

let test_not_found_errors () =
  let fs, _ = make_fs () in
  (match Ufs.read fs "nope" ~off:0 ~len:1 with
  | Error (`Not_found "nope") -> ()
  | _ -> Alcotest.fail "expected Not_found");
  match Ufs.delete fs "nope" with
  | Error (`Not_found "nope") -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_sync_data_writes_synchronously () =
  let fs, clock = make_fs ~sync_data:true () in
  ignore (ok (Ufs.create fs "s"));
  let t0 = Clock.now clock in
  ignore (ok (Ufs.write fs "s" ~off:0 (Bytes.make 4096 'q')));
  Alcotest.(check bool) "disk time consumed" true (Clock.now clock -. t0 > 0.1)

let test_async_writes_deferred () =
  let fs, _ = make_fs ~sync_data:false () in
  ignore (ok (Ufs.create fs "a"));
  (* Data writes should not touch the disk until sync. *)
  let dev = Ufs.device fs in
  ignore dev;
  ignore (ok (Ufs.write fs "a" ~off:0 (Bytes.make 4096 'q')));
  let bd = Ufs.sync fs in
  Alcotest.(check bool) "sync flushed something" true (Breakdown.total bd > 0.)

let test_sequential_read_uses_readahead () =
  let fs, clock = make_fs ~sync_data:false () in
  ignore (ok (Ufs.create fs "seq"));
  let n = 64 in
  ignore (ok (Ufs.write fs "seq" ~off:0 (Bytes.make (n * 4096) 's')));
  ignore (Ufs.sync fs);
  Ufs.drop_caches fs;
  (* Sequential pass. *)
  let t0 = Clock.now clock in
  for i = 0 to n - 1 do
    ignore (ok (Ufs.read fs "seq" ~off:(i * 4096) ~len:4096))
  done;
  let seq_ms = Clock.now clock -. t0 in
  Ufs.drop_caches fs;
  (* Random pass over the same blocks. *)
  let prng = Prng.create ~seed:55L in
  let t1 = Clock.now clock in
  for _ = 0 to n - 1 do
    ignore (ok (Ufs.read fs "seq" ~off:(Prng.int prng n * 4096) ~len:4096))
  done;
  let rnd_ms = Clock.now clock -. t1 in
  Alcotest.(check bool)
    (Printf.sprintf "sequential (%.1f) beats random (%.1f)" seq_ms rnd_ms)
    true (seq_ms < rnd_ms)

let test_runs_on_vld () =
  let fs, _ = make_fs ~on_vld:true () in
  ignore (ok (Ufs.create fs "v"));
  ignore (ok (Ufs.write fs "v" ~off:0 (Bytes.make 8192 'v')));
  let got, _ = ok (Ufs.read fs "v" ~off:0 ~len:8192) in
  Alcotest.(check bytes) "roundtrip on vld" (Bytes.make 8192 'v') got

let test_many_small_files () =
  let fs, _ = make_fs () in
  for i = 0 to 199 do
    let name = Printf.sprintf "m%04d" i in
    ignore (ok (Ufs.create fs name));
    ignore (ok (Ufs.write fs name ~off:0 (Bytes.make 1024 (Char.chr (i mod 256)))))
  done;
  Alcotest.(check int) "count" 200 (List.length (Ufs.files fs));
  for i = 0 to 199 do
    let name = Printf.sprintf "m%04d" i in
    let got, _ = ok (Ufs.read fs name ~off:0 ~len:1024) in
    Alcotest.(check bytes) name (Bytes.make 1024 (Char.chr (i mod 256))) got
  done;
  (* Delete everything; space is reclaimed. *)
  for i = 0 to 199 do
    ignore (ok (Ufs.delete fs (Printf.sprintf "m%04d" i)))
  done;
  Alcotest.(check int) "empty" 0 (List.length (Ufs.files fs))

let test_utilization_grows () =
  let fs, _ = make_fs ~sync_data:false () in
  let u0 = Ufs.utilization fs in
  ignore (ok (Ufs.create fs "u"));
  ignore (ok (Ufs.write fs "u" ~off:0 (Bytes.make (500 * 4096) 'u')));
  Alcotest.(check bool) "grew" true (Ufs.utilization fs > u0)

let test_inode_codec_roundtrip () =
  let inode = Ufs.Inode.create ~inum:7 in
  inode.Ufs.Inode.size <- 12345;
  Ufs.Inode.set_block inode 0 100;
  Ufs.Inode.set_block inode 11 111;
  inode.Ufs.Inode.ind1 <- 500;
  let buf = Ufs.Inode.encode inode in
  match Ufs.Inode.decode ~inum:7 buf with
  | None -> Alcotest.fail "decode failed"
  | Some i2 ->
    Alcotest.(check int) "size" 12345 i2.Ufs.Inode.size;
    Alcotest.(check int) "direct 0" 100 (Ufs.Inode.get_block i2 0);
    Alcotest.(check int) "direct 11" 111 (Ufs.Inode.get_block i2 11);
    Alcotest.(check int) "ind1" 500 i2.Ufs.Inode.ind1

let test_inode_decode_unused () =
  Alcotest.(check bool) "unused slot" true
    (Ufs.Inode.decode ~inum:0 (Bytes.make 128 '\000') = None)

let test_buffer_cache_lru () =
  let c = Ufs.Buffer_cache.create ~capacity:2 in
  ignore (Ufs.Buffer_cache.insert c 1 (Bytes.make 1 'a') ~dirty:false);
  ignore (Ufs.Buffer_cache.insert c 2 (Bytes.make 1 'b') ~dirty:false);
  ignore (Ufs.Buffer_cache.find c 1);
  let evicted = Ufs.Buffer_cache.insert c 3 (Bytes.make 1 'c') ~dirty:false in
  Alcotest.(check int) "clean eviction silent" 0 (List.length evicted);
  Alcotest.(check bool) "2 evicted" true (Ufs.Buffer_cache.find c 2 = None);
  Alcotest.(check bool) "1 kept" true (Ufs.Buffer_cache.find c 1 <> None)

let test_buffer_cache_dirty_eviction () =
  let c = Ufs.Buffer_cache.create ~capacity:1 in
  ignore (Ufs.Buffer_cache.insert c 1 (Bytes.make 1 'a') ~dirty:true);
  let evicted = Ufs.Buffer_cache.insert c 2 (Bytes.make 1 'b') ~dirty:false in
  Alcotest.(check int) "dirty returned" 1 (List.length evicted);
  Alcotest.(check int) "which block" 1 (fst (List.hd evicted))

let test_buffer_cache_dirty_sticky () =
  let c = Ufs.Buffer_cache.create ~capacity:4 in
  ignore (Ufs.Buffer_cache.insert c 1 (Bytes.make 1 'a') ~dirty:true);
  ignore (Ufs.Buffer_cache.insert c 1 (Bytes.make 1 'b') ~dirty:false);
  Alcotest.(check bool) "still dirty" true (Ufs.Buffer_cache.is_dirty c 1)

let test_buffer_cache_dirty_order () =
  let c = Ufs.Buffer_cache.create ~capacity:10 in
  List.iter
    (fun b -> ignore (Ufs.Buffer_cache.insert c b (Bytes.make 1 'x') ~dirty:true))
    [ 5; 1; 9; 3 ];
  let order = List.map fst (Ufs.Buffer_cache.dirty_blocks c) in
  Alcotest.(check (list int)) "elevator order" [ 1; 3; 5; 9 ] order

(* Names the directory format cannot store, and the longest it can;
   the LFS and VLFS tests use them too. *)
let bad_names = [ "abcdefghijklmnopqrstuvwxyz_one"; "abcdefghijklmnopqrstuvwxyz_"; "" ]
let longest_name = "abcdefghijklmnopqrstuvwxyz"

let test_bad_names_refused () =
  let fs, clock = make_fs () in
  List.iter
    (fun name ->
      match Ufs.create fs name with
      | Error (`Bad_name n) when n = name -> ()
      | Error e -> Alcotest.failf "%S: wrong error %a" name Ufs.pp_error e
      | Ok _ -> Alcotest.failf "%S accepted" name)
    bad_names;
  ignore (ok (Ufs.create fs longest_name));
  ignore (ok (Ufs.write fs longest_name ~off:0 (Bytes.of_string "kept")));
  ignore (Ufs.sync fs);
  match Ufs.mount ~dev:(Ufs.device fs) ~host:Host.free ~clock (Ufs.config fs) with
  | Error e -> Alcotest.fail e
  | Ok (fs2, _) ->
    Alcotest.(check bool) "mounts read-write" true (Ufs.mode fs2 = `Rw);
    Alcotest.(check (list string)) "files" [ longest_name ] (Ufs.files fs2);
    let got, _ = ok (Ufs.read fs2 longest_name ~off:0 ~len:4) in
    Alcotest.(check bytes) "data" (Bytes.of_string "kept") got

(* The slot layout, byte by byte: flag, int32 inum, length, name. *)
let test_dir_layout () =
  let buf = Ufs.Dir.encode_block [| None; Some ("ab", 0x0102) |] in
  let expect = Bytes.make 64 '\000' in
  Bytes.blit_string "\001\002\001\000\000\002ab" 0 expect 32 8;
  Alcotest.(check bytes) "encoded" expect buf;
  match Ufs.Dir.decode_block ~first_inum:1 ~n_inodes:0x0103 buf with
  | [ Ok { Ufs.Dir.slot = 1; name = "ab"; inum = 0x0102 } ] -> ()
  | _ -> Alcotest.fail "decoded wrongly"

let dir_slots = Array.length (Ufs.Dir.empty_block ~block_bytes:4096)

(* A random slot table: names of 1 to [max_name] arbitrary bytes, inums
   in [first_inum, n_inodes). *)
let dir_table_gen =
  let open QCheck.Gen in
  let* first_inum = int_range 0 1 in
  let* n_inodes = int_range 2 5000 in
  let entry =
    pair (string_size ~gen:char (1 -- Ufs.Dir.max_name)) (int_range first_inum (n_inodes - 1))
  in
  let+ slots = array_repeat dir_slots (opt entry) in
  (first_inum, n_inodes, slots)

(* Encode a table, then the entries [decode_block] must return for it. *)
let dir_encode (_, _, slots) =
  let expect =
    List.concat
      (List.mapi
         (fun slot -> function
           | None -> []
           | Some (name, inum) -> [ Ok { Ufs.Dir.slot; name; inum } ])
         (Array.to_list slots))
  in
  (Ufs.Dir.encode_block slots, expect)

let print_dir_table (first_inum, n_inodes, slots) =
  Printf.sprintf "first_inum %d, n_inodes %d, %d used slots" first_inum n_inodes
    (Array.fold_left (fun n e -> if e = None then n else n + 1) 0 slots)

let dir_tests =
  let open QCheck in
  let table = make ~print:print_dir_table dir_table_gen in
  [
    Test.make ~name:"dir encode/decode roundtrip" ~count:200 table
      (fun ((first_inum, n_inodes, _) as tbl) ->
        let buf, expect = dir_encode tbl in
        Ufs.Dir.decode_block ~first_inum ~n_inodes buf = expect);
    (* One slot given a bad flag, a bad inum or a bad name length shows
       up as [Error slot] in its place; every other entry still decodes. *)
    Test.make ~name:"dir decode flags malformed slots" ~count:200
      (pair table (pair small_nat (int_range 0 5)))
      (fun (((first_inum, n_inodes, _) as tbl), (pick, how)) ->
        let buf, expect = dir_encode tbl in
        let slot = pick mod dir_slots in
        let off = slot * Ufs.Dir.entry_bytes in
        (match how with
        | 0 -> Bytes.set buf off (Char.chr (2 + (pick mod 254)))
        | 1 | 2 | 3 ->
          Bytes.set buf off '\001';
          Bytes.set buf (off + 5) '\001';
          let inum = match how with 1 -> first_inum - 1 | 2 -> n_inodes | _ -> -7 in
          Bytes.set_int32_le buf (off + 1) (Int32.of_int inum)
        | _ ->
          Bytes.set buf off '\001';
          Bytes.set_int32_le buf (off + 1) (Int32.of_int first_inum);
          Bytes.set buf (off + 5) (Char.chr (if how = 4 then 0 else Ufs.Dir.max_name + 1)));
        let others =
          List.filter (function Ok e -> e.Ufs.Dir.slot <> slot | Error _ -> true) expect
        in
        let before, after =
          List.partition (function Ok e -> e.Ufs.Dir.slot < slot | Error _ -> true) others
        in
        Ufs.Dir.decode_block ~first_inum ~n_inodes buf = before @ (Error slot :: after));
  ]

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"ufs random ops match in-memory model" ~count:10
      (list_of_size Gen.(1 -- 40)
         (triple (int_range 0 4) (int_range 0 20) (int_range 1 3000)))
      (fun ops ->
        let fs, _ = make_fs ~sync_data:false () in
        let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
        let name i = Printf.sprintf "q%d" i in
        List.iter
          (fun (f, off_blocks, len) ->
            let n = name (f mod 5) in
            let off = off_blocks * 512 in
            if not (Hashtbl.mem model n) then begin
              ignore (Ufs.create fs n);
              Hashtbl.replace model n Bytes.empty
            end;
            let data = Bytes.init len (fun i -> Char.chr ((i + off) mod 256)) in
            (match Ufs.write fs n ~off data with
            | Ok _ ->
              let old = Hashtbl.find model n in
              let size = max (Bytes.length old) (off + len) in
              let next = Bytes.make size '\000' in
              Bytes.blit old 0 next 0 (Bytes.length old);
              Bytes.blit data 0 next off len;
              Hashtbl.replace model n next
            | Error _ -> ()))
          ops;
        Hashtbl.fold
          (fun n expect ok ->
            ok
            &&
            match Ufs.read fs n ~off:0 ~len:(Bytes.length expect) with
            | Ok (got, _) -> got = expect
            | Error _ -> false)
          model true);
  ]

(* A cold, block-aligned read goes down as run reads straight into the
   reply: it allocates the reply and the cache's own copy of each block,
   and no run buffer on top (one block's worth of slack covers the
   bookkeeping, about 2.2 KB). *)
let test_cold_read_allocation () =
  let fs, _ = make_fs ~on_vld:true () in
  let bb = 4096 and n = 16 in
  let payload = Bytes.init (n * bb) (fun i -> Char.chr (((i * 7) + (i / bb)) land 0xff)) in
  ignore (ok (Ufs.create fs "cold"));
  ignore (ok (Ufs.write fs "cold" ~off:0 payload));
  let read () =
    Ufs.drop_caches fs;
    let before = Gc.allocated_bytes () in
    let got, _ = ok (Ufs.read fs "cold" ~off:0 ~len:(n * bb)) in
    (got, Gc.allocated_bytes () -. before)
  in
  let got, _ = read () in
  Alcotest.(check bytes) "contents" payload got;
  (* The least of a few reads, so a GC slice that happens to run (and
     allocate) inside one of them does not count. *)
  let allocated = List.fold_left min infinity (List.init 5 (fun _ -> snd (read ()))) in
  let budget = float_of_int (((2 * n) + 1) * bb) in
  if allocated > budget then
    Alcotest.failf "cold %d-block read allocated %.0f bytes (budget %.0f)" n allocated
      budget

let suites =
  [
    ( "ufs:files",
      [
        Alcotest.test_case "create/read empty" `Quick test_create_read_empty;
        Alcotest.test_case "duplicate rejected" `Quick test_create_duplicate_rejected;
        Alcotest.test_case "small roundtrip" `Quick test_small_file_roundtrip;
        Alcotest.test_case "frag sharing" `Quick test_1kb_files_share_frag_blocks;
        Alcotest.test_case "frag promotion" `Quick test_frag_promotion;
        Alcotest.test_case "large roundtrip" `Quick test_large_file_roundtrip;
        Alcotest.test_case "double indirect" `Quick test_double_indirect_file;
        Alcotest.test_case "overwrite in place" `Quick test_overwrite_in_place;
        Alcotest.test_case "partial block write" `Quick test_partial_block_write;
        Alcotest.test_case "delete frees" `Quick test_delete_frees_space;
        Alcotest.test_case "delete recreate" `Quick test_delete_then_recreate;
        Alcotest.test_case "not found" `Quick test_not_found_errors;
        Alcotest.test_case "many small files" `Quick test_many_small_files;
        Alcotest.test_case "utilization" `Quick test_utilization_grows;
        Alcotest.test_case "bad names refused" `Quick test_bad_names_refused;
      ] );
    ( "ufs:modes",
      [
        Alcotest.test_case "sync writes synchronous" `Quick test_sync_data_writes_synchronously;
        Alcotest.test_case "async deferred" `Quick test_async_writes_deferred;
        Alcotest.test_case "readahead" `Quick test_sequential_read_uses_readahead;
        Alcotest.test_case "runs on vld" `Quick test_runs_on_vld;
      ] );
    ( "ufs:alloc",
      [ Alcotest.test_case "cold read: reply and cache copies only" `Quick test_cold_read_allocation ] );
    ( "ufs:inode",
      [
        Alcotest.test_case "codec roundtrip" `Quick test_inode_codec_roundtrip;
        Alcotest.test_case "unused slot" `Quick test_inode_decode_unused;
      ] );
    ( "ufs:cache",
      [
        Alcotest.test_case "lru" `Quick test_buffer_cache_lru;
        Alcotest.test_case "dirty eviction" `Quick test_buffer_cache_dirty_eviction;
        Alcotest.test_case "dirty sticky" `Quick test_buffer_cache_dirty_sticky;
        Alcotest.test_case "dirty order" `Quick test_buffer_cache_dirty_order;
      ] );
    ("ufs:properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ( "ufs:dir",
      Alcotest.test_case "slot layout" `Quick test_dir_layout
      :: List.map QCheck_alcotest.to_alcotest dir_tests );
  ]
