open Vlog_util

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 8

let make_fs ?(buffer_blocks = 64) ?(on_vld = false) ?(segment_blocks = 32) () =
  let clock = Clock.create () in
  let policy =
    if on_vld then Disk.Track_buffer.Whole_track else Disk.Track_buffer.Forward_discard
  in
  let disk = Disk.Disk_sim.create ~buffer_policy:policy ~profile ~clock () in
  let dev =
    if on_vld then
      let prng = Prng.create ~seed:61L in
      Blockdev.Vld.device (Blockdev.Vld.create ~disk ~logical_blocks:3500 ~prng ())
    else Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk ())
  in
  let cfg = { Lfs.default_config with Lfs.buffer_blocks; segment_blocks } in
  (Lfs.format ~dev ~host:Host.free ~clock cfg, clock)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Format.asprintf "%a" Lfs.pp_error e)

let test_create_write_read () =
  let fs, _ = make_fs () in
  ignore (ok (Lfs.create fs "a"));
  let payload = Bytes.of_string "log structured" in
  ignore (ok (Lfs.write fs "a" ~off:0 payload));
  let got, _ = ok (Lfs.read fs "a" ~off:0 ~len:(Bytes.length payload)) in
  Alcotest.(check bytes) "roundtrip from buffer" payload got

let test_read_after_flush () =
  let fs, _ = make_fs () in
  ignore (ok (Lfs.create fs "a"));
  let payload = Bytes.make 8192 'z' in
  ignore (ok (Lfs.write fs "a" ~off:0 payload));
  ignore (Lfs.sync fs);
  Lfs.drop_caches fs;
  let got, _ = ok (Lfs.read fs "a" ~off:0 ~len:8192) in
  Alcotest.(check bytes) "roundtrip from disk" payload got

let test_writes_buffered_until_flush () =
  let fs, clock = make_fs ~buffer_blocks:128 () in
  ignore (ok (Lfs.create fs "b"));
  let t0 = Clock.now clock in
  for i = 0 to 9 do
    ignore (ok (Lfs.write fs "b" ~off:(i * 4096) (Bytes.make 4096 'b')))
  done;
  (* All buffered: only host time (zero here) passes. *)
  Alcotest.(check (float 1e-9)) "no disk time" t0 (Clock.now clock);
  (* 10 data blocks plus the directory block dirtied by create. *)
  Alcotest.(check int) "buffered" 11 (Lfs.buffered_blocks fs);
  ignore (Lfs.sync fs);
  Alcotest.(check int) "drained" 0 (Lfs.buffered_blocks fs);
  Alcotest.(check bool) "disk time now" true (Clock.now clock > t0)

let test_autoflush_when_buffer_full () =
  let fs, clock = make_fs ~buffer_blocks:8 () in
  ignore (ok (Lfs.create fs "c"));
  for i = 0 to 19 do
    ignore (ok (Lfs.write fs "c" ~off:(i * 4096) (Bytes.make 4096 'c')))
  done;
  Alcotest.(check bool) "autoflushed" true (Clock.now clock > 0.);
  Alcotest.(check bool) "buffer bounded" true (Lfs.buffered_blocks fs < 20)

let test_partial_segment_rewrite_cost () =
  (* Frequent fsync of tiny writes rewrites the open segment each time:
     the k-th flush writes more than the first. *)
  let fs, clock = make_fs ~segment_blocks:64 () in
  ignore (ok (Lfs.create fs "d"));
  ignore (ok (Lfs.write fs "d" ~off:0 (Bytes.make 4096 'd')));
  let t0 = Clock.now clock in
  ignore (Lfs.sync fs);
  let first = Clock.now clock -. t0 in
  for i = 1 to 20 do
    ignore (ok (Lfs.write fs "d" ~off:(i * 4096) (Bytes.make 4096 'd')));
    ignore (Lfs.sync fs)
  done;
  ignore (ok (Lfs.write fs "d" ~off:(21 * 4096) (Bytes.make 4096 'd')));
  let t1 = Clock.now clock in
  ignore (Lfs.sync fs);
  let late = Clock.now clock -. t1 in
  Alcotest.(check bool)
    (Printf.sprintf "rewrite grows (first %.2f, late %.2f)" first late)
    true (late > first)

let test_partial_segment_seals_at_threshold () =
  let fs, _ = make_fs ~segment_blocks:16 () in
  ignore (ok (Lfs.create fs "e"));
  (* Fill beyond 75% of a 16-block segment, then sync: the segment must
     seal (next sync starts a new one, so buffered state is empty). *)
  for i = 0 to 13 do
    ignore (ok (Lfs.write fs "e" ~off:(i * 4096) (Bytes.make 4096 'e')))
  done;
  ignore (Lfs.sync fs);
  ignore (ok (Lfs.write fs "e" ~off:(20 * 4096) (Bytes.make 4096 'e')));
  ignore (Lfs.sync fs);
  let got, _ = ok (Lfs.read fs "e" ~off:0 ~len:4096) in
  Alcotest.(check bytes) "sealed data intact" (Bytes.make 4096 'e') got

let test_overwrite_supersedes () =
  let fs, _ = make_fs () in
  ignore (ok (Lfs.create fs "f"));
  ignore (ok (Lfs.write fs "f" ~off:0 (Bytes.make 4096 '1')));
  ignore (Lfs.sync fs);
  ignore (ok (Lfs.write fs "f" ~off:0 (Bytes.make 4096 '2')));
  ignore (Lfs.sync fs);
  Lfs.drop_caches fs;
  let got, _ = ok (Lfs.read fs "f" ~off:0 ~len:4096) in
  Alcotest.(check bytes) "latest wins" (Bytes.make 4096 '2') got

let test_delete_makes_blocks_dead () =
  let fs, _ = make_fs () in
  ignore (ok (Lfs.create fs "g"));
  ignore (ok (Lfs.write fs "g" ~off:0 (Bytes.make (20 * 4096) 'g')));
  ignore (Lfs.sync fs);
  let live_before = Lfs.live_blocks fs in
  ignore (ok (Lfs.delete fs "g"));
  ignore (Lfs.sync fs);
  Alcotest.(check bool) "blocks died" true (Lfs.live_blocks fs < live_before);
  Alcotest.(check bool) "gone" false (Lfs.exists fs "g")

let test_cleaner_reclaims () =
  let fs, clock = make_fs ~buffer_blocks:16 ~segment_blocks:16 () in
  (* Fill a large share of the disk, then delete most files and keep
     writing: the cleaner must produce free segments. *)
  let blocks_per_file = 12 in
  let n_files = 40 in
  for f = 0 to n_files - 1 do
    let name = Printf.sprintf "h%d" f in
    ignore (ok (Lfs.create fs name));
    ignore (ok (Lfs.write fs name ~off:0 (Bytes.make (blocks_per_file * 4096) 'h')))
  done;
  ignore (Lfs.sync fs);
  for f = 0 to n_files - 1 do
    if f mod 2 = 0 then ignore (ok (Lfs.delete fs (Printf.sprintf "h%d" f)))
  done;
  ignore (Lfs.sync fs);
  let free_before = Lfs.free_segments fs in
  ignore (Lfs.idle_clean ~target_free:max_int fs ~deadline:(Clock.now clock +. 60_000.));
  Alcotest.(check bool) "freed segments" true (Lfs.free_segments fs > free_before);
  (* Remaining files still intact after cleaning moved them. *)
  let got, _ = ok (Lfs.read fs "h1" ~off:0 ~len:(blocks_per_file * 4096)) in
  Alcotest.(check bytes) "survivor intact" (Bytes.make (blocks_per_file * 4096) 'h') got

let test_forced_clean_on_write_path () =
  let fs, _ = make_fs ~buffer_blocks:8 ~segment_blocks:16 () in
  (* Interleave blocks of many files so every segment mixes files, then
     delete half the files: segments end up half-live (never wholly dead,
     so they cannot become free without copying), and continued writing
     must eventually invoke the cleaner inline. *)
  let n_files = 60 and blocks_per_file = 40 in
  let name f = Printf.sprintf "i%d" f in
  for f = 0 to n_files - 1 do
    ignore (ok (Lfs.create fs (name f)))
  done;
  for b = 0 to blocks_per_file - 1 do
    for f = 0 to n_files - 1 do
      ignore (ok (Lfs.write fs (name f) ~off:(b * 4096) (Bytes.make 4096 'i')))
    done
  done;
  ignore (Lfs.sync fs);
  for f = 0 to n_files - 1 do
    if f mod 2 = 0 then ignore (ok (Lfs.delete fs (name f)))
  done;
  ignore (Lfs.sync fs);
  (* Now write fresh data into the reclaimed-but-fragmented space. *)
  ignore (ok (Lfs.create fs "fresh"));
  for b = 0 to (n_files * blocks_per_file / 3) - 1 do
    ignore (ok (Lfs.write fs "fresh" ~off:(b * 4096) (Bytes.make 4096 'n')))
  done;
  ignore (Lfs.sync fs);
  Alcotest.(check bool) "cleaner ran forced" true
    ((Lfs.cleaner_stats fs).Lfs.forced_cleans > 0);
  let got, _ = ok (Lfs.read fs "i1" ~off:0 ~len:4096) in
  Alcotest.(check bytes) "data survives cleaning" (Bytes.make 4096 'i') got

(* A block the cleaner has just copied into a still-open segment is
   served from the segment buffer: the read costs no simulated time
   (the new address was never cached) and returns the copied bytes. *)
let test_read_cleaner_copy () =
  let fs, clock = make_fs ~buffer_blocks:64 ~segment_blocks:32 () in
  ignore (ok (Lfs.create fs "a"));
  let block i = Bytes.make 4096 (Char.chr (65 + i)) in
  for i = 0 to 29 do
    ignore (ok (Lfs.write fs "a" ~off:(i * 4096) (block i)))
  done;
  ignore (Lfs.sync fs);
  (* Overwrite most of the first segment, leaving it fragmented. *)
  for i = 0 to 24 do
    ignore (ok (Lfs.write fs "a" ~off:(i * 4096) (block (i + 30))))
  done;
  ignore (Lfs.sync fs);
  let addr () =
    match Lfs.inode_blocks fs (List.assoc "a" (Lfs.dir_entries fs)) with
    | Some (_, blocks) -> blocks.(26)
    | None -> Alcotest.fail "inode of a missing"
  in
  let before = addr () in
  ignore (Lfs.idle_clean ~target_free:max_int fs ~deadline:(Clock.now clock +. 60_000.));
  Alcotest.(check bool) "cleaner copied blocks" true ((Lfs.cleaner_stats fs).Lfs.blocks_copied > 0);
  Alcotest.(check bool) "block 26 moved" true (addr () <> before);
  let t0 = Clock.now clock in
  let got, _ = ok (Lfs.read fs "a" ~off:(26 * 4096) ~len:4096) in
  Alcotest.(check (float 0.)) "served from the open segment" t0 (Clock.now clock);
  Alcotest.(check bytes) "copied bytes" (block 26) got

let test_idle_clean_respects_deadline () =
  let fs, clock = make_fs ~buffer_blocks:16 ~segment_blocks:16 () in
  for f = 0 to 30 do
    let name = Printf.sprintf "j%d" f in
    ignore (ok (Lfs.create fs name));
    ignore (ok (Lfs.write fs name ~off:0 (Bytes.make (8 * 4096) 'j')))
  done;
  ignore (Lfs.sync fs);
  for f = 0 to 30 do
    if f mod 2 = 0 then ignore (ok (Lfs.delete fs (Printf.sprintf "j%d" f)))
  done;
  ignore (Lfs.sync fs);
  let t0 = Clock.now clock in
  ignore (Lfs.idle_clean fs ~deadline:(t0 +. 1.));
  (* Too short an idle window to clean a whole segment: nothing happens
     (or at most one segment whose estimate was optimistic). *)
  Alcotest.(check bool) "short window, little work" true (Clock.now clock -. t0 < 100.)

let test_file_not_found () =
  let fs, _ = make_fs () in
  match Lfs.read fs "nope" ~off:0 ~len:1 with
  | Error (`Not_found "nope") -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_no_space () =
  let fs, _ = make_fs ~segment_blocks:16 () in
  ignore (ok (Lfs.create fs "big"));
  let cap_bytes = (Lfs.device fs).Blockdev.Device.n_blocks * 4096 in
  match Lfs.write fs "big" ~off:0 (Bytes.make (cap_bytes + 409600) 'x') with
  | Error `No_space -> ()
  | Ok _ -> Alcotest.fail "overfull write accepted"
  | Error e -> Alcotest.fail (Format.asprintf "wrong error %a" Lfs.pp_error e)

let test_runs_on_vld () =
  let fs, _ = make_fs ~on_vld:true () in
  ignore (ok (Lfs.create fs "v"));
  ignore (ok (Lfs.write fs "v" ~off:0 (Bytes.make 8192 'v')));
  ignore (Lfs.sync fs);
  Lfs.drop_caches fs;
  let got, _ = ok (Lfs.read fs "v" ~off:0 ~len:8192) in
  Alcotest.(check bytes) "roundtrip on vld" (Bytes.make 8192 'v') got

let test_many_files_roundtrip () =
  let fs, _ = make_fs ~buffer_blocks:32 () in
  for i = 0 to 99 do
    let name = Printf.sprintf "k%03d" i in
    ignore (ok (Lfs.create fs name));
    ignore (ok (Lfs.write fs name ~off:0 (Bytes.make 1024 (Char.chr (40 + (i mod 80))))))
  done;
  ignore (Lfs.sync fs);
  Lfs.drop_caches fs;
  for i = 0 to 99 do
    let name = Printf.sprintf "k%03d" i in
    let got, _ = ok (Lfs.read fs name ~off:0 ~len:1024) in
    Alcotest.(check bytes) name (Bytes.make 1024 (Char.chr (40 + (i mod 80)))) got
  done

let test_utilization_reflects_live_data () =
  let fs, _ = make_fs () in
  let u0 = Lfs.utilization fs in
  ignore (ok (Lfs.create fs "u"));
  ignore (ok (Lfs.write fs "u" ~off:0 (Bytes.make (64 * 4096) 'u')));
  ignore (Lfs.sync fs);
  Alcotest.(check bool) "grew" true (Lfs.utilization fs > u0)

(* ---- golden pin of simulated behaviour ----

   A fixed-seed burst/idle run on a small regular disk: buffer-full
   flushes, fsyncs that rewrite the open segment, deletes, write-path
   cleans and idle cleans.  Writes are whole blocks, so no read goes
   through the read cache.  The digest covers the final simulated time,
   the drive's counters, the cleaner's counters and every written sector
   on the platter, so any change to a device request, a byte written or a
   cleaner decision shows up.  [step] runs after every op, numbered
   from 0, and may only look. *)

let golden_run ?(step = fun _ _ -> ()) () =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Forward_discard
      ~profile:(Disk.Profile.with_cylinders Disk.Profile.st19101 2)
      ~clock ()
  in
  let dev = Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk ()) in
  let cfg = { Lfs.default_config with Lfs.buffer_blocks = 24; segment_blocks = 16 } in
  let fs = Lfs.format ~dev ~host:Host.sparc10 ~clock cfg in
  let prng = Prng.create ~seed:1313L in
  let n_files = 6 and file_blocks = 110 in
  let name f = Printf.sprintf "g%d" f in
  for f = 0 to n_files - 1 do
    ignore (ok (Lfs.create fs (name f)));
    for b = 0 to (file_blocks / 10) - 1 do
      ignore
        (ok (Lfs.write fs (name f) ~off:(b * 40960) (Bytes.make 40960 (Char.chr (65 + f)))))
    done
  done;
  ignore (ok (Lfs.create fs "tmp"));
  let block = Bytes.create 4096 in
  let idle = ref 0 and n = ref 0 in
  let after_op () =
    step fs !n;
    incr n
  in
  for round = 0 to 79 do
    for op = 0 to 39 do
      let f = Prng.int prng n_files in
      let r = Prng.int prng 100 in
      Bytes.fill block 0 4096 (Char.chr ((round + op) land 0xff));
      Bytes.set_int64_le block 0 (Int64.of_int ((round * 1000) + op));
      if r < 86 then
        ignore (ok (Lfs.write fs (name f) ~off:(Prng.int prng file_blocks * 4096) block))
      else if r < 92 then ignore (ok (Lfs.fsync fs (name f)))
      else if r < 97 then
        ignore (ok (Lfs.write fs "tmp" ~off:(Prng.int prng 6 * 4096) block))
      else begin
        ignore (ok (Lfs.delete fs "tmp"));
        ignore (ok (Lfs.create fs "tmp"))
      end;
      after_op ()
    done;
    let window = [| 2.; 30.; 120. |].(round mod 3) in
    idle := !idle + Lfs.idle_clean fs ~deadline:(Clock.now clock +. window);
    after_op ()
  done;
  ignore (Lfs.sync fs);
  after_op ();
  (fs, disk, clock, !idle)

let golden_digest () =
  let fs, disk, clock, idle = golden_run () in
  let store = Disk.Disk_sim.store disk in
  let sectors = Disk.Geometry.total_sectors (Disk.Disk_sim.geometry disk) in
  let sum = ref Checksum.empty in
  for lba = 0 to sectors - 1 do
    if Disk.Sector_store.written store ~lba then
      sum :=
        Checksum.add_bytes (Checksum.add_int !sum lba)
          (Disk.Sector_store.read store ~lba ~sectors:1)
  done;
  let d = Disk.Disk_sim.stats disk and c = Lfs.cleaner_stats fs in
  Printf.sprintf
    "util=%h idle=%d clock=%h reads=%d writes=%d sr=%d sw=%d hits=%d busy=%h cleaned=%d \
     copied=%d forced=%d sectors=%s"
    (Lfs.utilization fs) idle (Clock.now clock) d.reads d.writes d.sectors_read
    d.sectors_written d.buffer_hits d.busy_ms c.Lfs.segments_cleaned c.blocks_copied
    c.forced_cleans (Checksum.to_hex !sum)

let golden_expected =
  "util=0x1.5659659659659p-1 idle=255 clock=0x1.0711bp+14 reads=767 writes=2156 \
   sr=98176 sw=110856 hits=79 busy=0x1.d88ef9999996ep+13 cleaned=767 copied=6227 \
   forced=103 sectors=7d1380cca0e426f6"

let test_golden_pin () =
  Alcotest.(check string) "simulated behaviour unchanged" golden_expected (golden_digest ())

(* The first two blocks of every segment are its summary slots: after
   every op of the golden run, no file block points into one and no
   block other than a summary owns one. *)
let test_no_block_in_summary_slot () =
  let step fs n =
    let start = Lfs.segment_area_start fs
    and seg_blocks = (Lfs.config fs).Lfs.segment_blocks in
    let summary_slot b = b >= start && (b - start) mod seg_blocks < 2 in
    List.iter
      (fun (name, inum) ->
        match Lfs.inode_blocks fs inum with
        | None -> ()
        | Some (_, blocks) ->
          Array.iteri
            (fun i b ->
              if summary_slot b then
                Alcotest.failf "op %d: %s block %d lives in summary slot %d" n name i b)
            blocks)
      (Lfs.dir_entries fs);
    for b = start to start + (Lfs.n_segments fs * seg_blocks) - 1 do
      match Lfs.owner_of fs b with
      | Some (Lfs.Data _ | Inode_part _ | Imap_chunk _) when summary_slot b ->
        Alcotest.failf "op %d: summary slot %d owned by a non-summary block" n b
      | _ -> ()
    done
  in
  ignore (golden_run ~step ())

(* ---- live counters ---- *)

let leaked fs = Check.Report.count (Check.Lfs_check.check fs) Check.Report.Leaked_block

(* A sync below the partial-segment threshold leaves the segment open,
   with both of its summary slots counted live: fsck must accept that. *)
let test_check_open_segment () =
  let fs, _ = make_fs ~segment_blocks:16 () in
  ignore (ok (Lfs.create fs "o"));
  ignore (ok (Lfs.write fs "o" ~off:0 (Bytes.make (3 * 4096) 'o')));
  ignore (Lfs.sync fs);
  Alcotest.(check int) "no leak reported" 0 (leaked fs)

(* The digest oracle: every block whose digest the log recorded (every
   live block of a sealed segment among them) holds, on the platter,
   bytes with that digest.  [platter b] is a buffer holding device block
   [b], and the block's offset in it. *)
let check_digests what fs platter =
  for b = 0 to (Lfs.device fs).Blockdev.Device.n_blocks - 1 do
    match Lfs.recorded_digest fs b with
    | None -> ()
    | Some d ->
      let buf, pos = platter b in
      if Checksum.add_words Checksum.empty buf ~pos ~len:(Lfs.block_bytes fs) <> d then
        Alcotest.failf "%s: block %d does not match its recorded digest" what b
  done

(* Seeded random create/write/overwrite/delete/sync/idle-clean sequences
   on a small, nearly full log: after every step each segment's counter
   equals the reference scan and fsck finds no leak; at the end every
   file reads back as the shadow says.  The sequences are long enough for
   write-path cleans.  The digest oracle runs after every step on the
   regular disk, reading the platter without moving the clock, and once
   at the end on the VLD, through the device.  A remount trusts no
   recorded digest. *)
let counters_run ~on_vld ~seed =
  let clock = Clock.create () in
  let small = Disk.Profile.with_cylinders Disk.Profile.st19101 2 in
  let policy =
    if on_vld then Disk.Track_buffer.Whole_track else Disk.Track_buffer.Forward_discard
  in
  let disk = Disk.Disk_sim.create ~buffer_policy:policy ~profile:small ~clock () in
  let dev =
    if on_vld then
      Blockdev.Vld.device
        (Blockdev.Vld.create ~disk ~logical_blocks:900 ~prng:(Prng.create ~seed:61L) ())
    else Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk ())
  in
  let cfg = { Lfs.default_config with Lfs.buffer_blocks = 8; segment_blocks = 16 } in
  let fs = Lfs.format ~dev ~host:Host.free ~clock cfg in
  let prng = Prng.create ~seed in
  (* Five files spanning 85 % of what the log can hold. *)
  let span = (Lfs.n_segments fs - 3) * (16 - 2) * 85 / 100 / 5 in
  let shadow : (string, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
  let name f = Printf.sprintf "p%d" f in
  let store = Disk.Disk_sim.store disk in
  let sectors_per_block =
    Lfs.block_bytes fs / (Disk.Disk_sim.geometry disk).Disk.Geometry.sector_bytes
  in
  let checked_writes = ref (-1) in
  let step_check what =
    for seg = 0 to Lfs.n_segments fs - 1 do
      if Lfs.seg_live fs seg <> Lfs.seg_live_scan fs seg then
        Alcotest.failf "%s: segment %d counter %d, scan %d" what seg (Lfs.seg_live fs seg)
          (Lfs.seg_live_scan fs seg)
    done;
    if leaked fs > 0 then Alcotest.failf "%s: fsck reports a leaked block" what;
    if not on_vld then begin
      (* Recorded digests and platter bytes change only with a disk write. *)
      let writes = (Disk.Disk_sim.stats disk).Disk.Disk_sim.writes in
      if writes <> !checked_writes then begin
        checked_writes := writes;
        let n = dev.Blockdev.Device.n_blocks * sectors_per_block in
        let image = Disk.Sector_store.read store ~lba:0 ~sectors:n in
        check_digests what fs (fun b -> (image, b * Lfs.block_bytes fs))
      end
    end
  in
  for step = 0 to 1499 do
    let f = name (Prng.int prng 5) in
    let r = Prng.int prng 100 in
    let what = Printf.sprintf "step %d" step in
    (if not (Hashtbl.mem shadow f) then begin
       ignore (ok (Lfs.create fs f));
       Hashtbl.replace shadow f Bytes.empty
     end
     else if r < 80 then begin
       let off, len =
         if r < 72 then (Prng.int prng span * 4096, 4096)
         else (Prng.int prng (span * 4096), 1 + Prng.int prng 6000)
       in
       let data = Bytes.init len (fun i -> Char.chr ((step + i) land 0xff)) in
       ignore (ok (Lfs.write fs f ~off data));
       let old = Hashtbl.find shadow f in
       let next = Bytes.make (max (Bytes.length old) (off + len)) '\000' in
       Bytes.blit old 0 next 0 (Bytes.length old);
       Bytes.blit data 0 next off len;
       Hashtbl.replace shadow f next
     end
     else if r < 81 then begin
       ignore (ok (Lfs.delete fs f));
       Hashtbl.remove shadow f
     end
     else if r < 94 then ignore (Lfs.sync fs)
     else ignore (Lfs.idle_clean fs ~deadline:(Clock.now clock +. float_of_int (Prng.int prng 200))));
    step_check what
  done;
  Alcotest.(check bool) "write-path cleans ran" true ((Lfs.cleaner_stats fs).Lfs.forced_cleans > 0);
  Lfs.drop_caches fs;
  Hashtbl.iter
    (fun f expect ->
      let got, _ = ok (Lfs.read fs f ~off:0 ~len:(Bytes.length expect)) in
      Alcotest.(check bytes) ("read back " ^ f) expect got)
    shadow;
  if on_vld then check_digests "end" fs (fun b -> (fst (Blockdev.Device.read dev b), 0));
  ignore (Lfs.power_down fs);
  match Lfs.recover ~dev ~host:Host.free ~clock cfg with
  | Error e -> Alcotest.fail e
  | Ok (fs, _) ->
    for b = 0 to dev.Blockdev.Device.n_blocks - 1 do
      if Lfs.recorded_digest fs b <> None then
        Alcotest.failf "block %d has a recorded digest right after recovery" b
    done

let test_counters_regular () = List.iter (fun seed -> counters_run ~on_vld:false ~seed) [ 3L; 4L ]
let test_counters_vld () = List.iter (fun seed -> counters_run ~on_vld:true ~seed) [ 5L; 6L ]

let blkid_arb =
  let open QCheck in
  (* Mostly tiny operands, so equal ids are common; some of any size. *)
  let small = Gen.(frequency [ (3, int_range 0 3); (1, int) ]) in
  make
    ~print:(function
      | Lfs.Data (a, b) -> Printf.sprintf "Data (%d, %d)" a b
      | Inode_part (a, b) -> Printf.sprintf "Inode_part (%d, %d)" a b
      | Imap_chunk a -> Printf.sprintf "Imap_chunk %d" a
      | Summary a -> Printf.sprintf "Summary %d" a)
    Gen.(
      oneof
        [
          map2 (fun a b -> Lfs.Data (a, b)) small small;
          map2 (fun a b -> Lfs.Inode_part (a, b)) small small;
          map (fun a -> Lfs.Imap_chunk a) small;
          map (fun a -> Lfs.Summary a) small;
        ])

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"lfs random ops match in-memory model" ~count:8
      (list_of_size Gen.(1 -- 30)
         (triple (int_range 0 3) (int_range 0 15) (int_range 1 6000)))
      (fun ops ->
        let fs, _ = make_fs ~buffer_blocks:16 () in
        let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
        let name i = Printf.sprintf "q%d" i in
        List.iter
          (fun (f, off_blocks, len) ->
            let n = name (f mod 4) in
            let off = off_blocks * 512 in
            if not (Hashtbl.mem model n) then begin
              ignore (Lfs.create fs n);
              Hashtbl.replace model n Bytes.empty
            end;
            let data = Bytes.init len (fun i -> Char.chr ((i + off + f) mod 256)) in
            match Lfs.write fs n ~off data with
            | Ok _ ->
              let old = Hashtbl.find model n in
              let size = max (Bytes.length old) (off + len) in
              let next = Bytes.make size '\000' in
              Bytes.blit old 0 next 0 (Bytes.length old);
              Bytes.blit data 0 next off len;
              Hashtbl.replace model n next
            | Error _ -> ())
          ops;
        ignore (Lfs.sync fs);
        Lfs.drop_caches fs;
        Hashtbl.fold
          (fun n expect ok ->
            ok
            &&
            match Lfs.read fs n ~off:0 ~len:(Bytes.length expect) with
            | Ok (got, _) -> got = expect
            | Error _ -> false)
          model true);
    Test.make ~name:"blkid_tbl equal is structural equality" ~count:500
      (pair blkid_arb blkid_arb)
      (fun (a, b) -> Lfs.Blkid_tbl.equal a b = (a = b));
    Test.make ~name:"blkid_tbl equal keys hash equal" ~count:500
      (pair blkid_arb blkid_arb)
      (fun (a, b) -> (not (Lfs.Blkid_tbl.equal a b)) || Lfs.Blkid_tbl.hash a = Lfs.Blkid_tbl.hash b);
    Test.make ~name:"blkid_tbl hash is never negative" ~count:500 blkid_arb (fun a ->
        Lfs.Blkid_tbl.hash a >= 0);
    Test.make ~name:"blkid_tbl matches the polymorphic hashtbl" ~count:200
      (list (triple (int_range 0 4) blkid_arb small_nat))
      (fun ops ->
        let mono = Lfs.Blkid_tbl.create 4 and poly = Hashtbl.create 4 in
        List.for_all
          (fun (op, k, v) ->
            match op with
            | 0 ->
              Lfs.Blkid_tbl.replace mono k v;
              Hashtbl.replace poly k v;
              true
            | 1 ->
              Lfs.Blkid_tbl.remove mono k;
              Hashtbl.remove poly k;
              true
            | 2 -> Lfs.Blkid_tbl.find_opt mono k = Hashtbl.find_opt poly k
            | 3 -> Lfs.Blkid_tbl.mem mono k = Hashtbl.mem poly k
            | _ -> Lfs.Blkid_tbl.length mono = Hashtbl.length poly)
          ops);
    (* Writes, syncs that mostly leave the segment open, idle cleans
       that copy into it, and whole-file reads with the read cache kept:
       blocks in the open segment are served from its buffer through the
       file's block map. *)
    Test.make ~name:"lfs open-segment reads match in-memory model" ~count:20
      (list_of_size Gen.(1 -- 60)
         (quad (int_range 0 9) (int_range 0 2) (int_range 0 40) (int_range 1 9000)))
      (fun ops ->
        let fs, clock = make_fs ~buffer_blocks:8 ~segment_blocks:16 () in
        let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 4 in
        let name i = Printf.sprintf "s%d" i in
        List.for_all
          (fun (kind, f, off_blocks, len) ->
            let n = name f in
            if not (Hashtbl.mem model n) then begin
              ignore (ok (Lfs.create fs n));
              Hashtbl.replace model n Bytes.empty
            end;
            let off = off_blocks * 1024 in
            if kind < 5 then begin
              let data = Bytes.init len (fun i -> Char.chr ((i + off + kind) land 0xff)) in
              ignore (ok (Lfs.write fs n ~off data));
              let old = Hashtbl.find model n in
              let next = Bytes.make (max (Bytes.length old) (off + len)) '\000' in
              Bytes.blit old 0 next 0 (Bytes.length old);
              Bytes.blit data 0 next off len;
              Hashtbl.replace model n next;
              true
            end
            else if kind = 5 then (ignore (Lfs.sync fs); true)
            else if kind = 6 then begin
              ignore
                (Lfs.idle_clean ~target_free:max_int fs ~deadline:(Clock.now clock +. 5_000.));
              true
            end
            else
              let expect = Hashtbl.find model n in
              let got, _ = ok (Lfs.read fs n ~off:0 ~len:(Bytes.length expect)) in
              got = expect)
          ops);
  ]

(* Names the directory format cannot store are refused; the longest
   it can store survives power-down and recovery. *)
let test_bad_names_refused () =
  let fs, clock = make_fs () in
  List.iter
    (fun name ->
      match Lfs.create fs name with
      | Error (`Bad_name n) when n = name -> ()
      | Error e -> Alcotest.failf "%S: wrong error %a" name Lfs.pp_error e
      | Ok _ -> Alcotest.failf "%S accepted" name)
    Test_ufs.bad_names;
  let longest = Test_ufs.longest_name in
  ignore (ok (Lfs.create fs longest));
  ignore (ok (Lfs.write fs longest ~off:0 (Bytes.of_string "kept")));
  ignore (Lfs.power_down fs);
  match Lfs.recover ~dev:(Lfs.device fs) ~host:Host.free ~clock (Lfs.config fs) with
  | Error e -> Alcotest.fail e
  | Ok (fs2, _) ->
    Alcotest.(check bool) "recovers read-write" true (Lfs.mode fs2 = `Rw);
    Alcotest.(check (list string)) "files" [ longest ] (Lfs.files fs2);
    let got, _ = ok (Lfs.read fs2 longest ~off:0 ~len:4) in
    Alcotest.(check bytes) "data" (Bytes.of_string "kept") got

let suites =
  [
    ( "lfs:files",
      [
        Alcotest.test_case "create/write/read" `Quick test_create_write_read;
        Alcotest.test_case "read after flush" `Quick test_read_after_flush;
        Alcotest.test_case "overwrite supersedes" `Quick test_overwrite_supersedes;
        Alcotest.test_case "delete kills blocks" `Quick test_delete_makes_blocks_dead;
        Alcotest.test_case "not found" `Quick test_file_not_found;
        Alcotest.test_case "no space" `Quick test_no_space;
        Alcotest.test_case "runs on vld" `Quick test_runs_on_vld;
        Alcotest.test_case "many files" `Quick test_many_files_roundtrip;
        Alcotest.test_case "utilization" `Quick test_utilization_reflects_live_data;
        Alcotest.test_case "bad names refused" `Quick test_bad_names_refused;
      ] );
    ( "lfs:log",
      [
        Alcotest.test_case "buffered until flush" `Quick test_writes_buffered_until_flush;
        Alcotest.test_case "autoflush on full buffer" `Quick test_autoflush_when_buffer_full;
        Alcotest.test_case "partial segment rewrite" `Quick test_partial_segment_rewrite_cost;
        Alcotest.test_case "seals at threshold" `Quick test_partial_segment_seals_at_threshold;
      ] );
    ( "lfs:cleaner",
      [
        Alcotest.test_case "reclaims" `Quick test_cleaner_reclaims;
        Alcotest.test_case "forced on write path" `Quick test_forced_clean_on_write_path;
        Alcotest.test_case "idle respects deadline" `Quick test_idle_clean_respects_deadline;
        Alcotest.test_case "read a copy in the open segment" `Quick test_read_cleaner_copy;
      ] );
    ( "lfs:golden",
      [
        Alcotest.test_case "burst/idle pin" `Quick test_golden_pin;
        Alcotest.test_case "no block in a summary slot" `Quick test_no_block_in_summary_slot;
      ] );
    ( "lfs:counters",
      [
        Alcotest.test_case "fsck accepts open segment" `Quick test_check_open_segment;
        Alcotest.test_case "match scan on regular disk" `Quick test_counters_regular;
        Alcotest.test_case "match scan on vld" `Quick test_counters_vld;
      ] );
    ("lfs:properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
