open Vlog_util

let check_float = Alcotest.(check (float 1e-9))

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_matters () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_split_independent () =
  let parent = Prng.create ~seed:7L in
  let child = Prng.split parent in
  let c1 = Prng.next_int64 child in
  (* Draw a lot from the parent; child continues its own stream. *)
  let parent2 = Prng.create ~seed:7L in
  let child2 = Prng.split parent2 in
  Alcotest.(check int64) "child reproducible" c1 (Prng.next_int64 child2)

let test_prng_int_range () =
  let p = Prng.create ~seed:3L in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_rejects_bad_bound () =
  let p = Prng.create ~seed:3L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int p 0))

let test_prng_float_range () =
  let p = Prng.create ~seed:4L in
  for _ = 1 to 10_000 do
    let v = Prng.float p 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 2.5)
  done

let test_prng_uniformity () =
  let p = Prng.create ~seed:9L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int p 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      Alcotest.(check bool) "roughly uniform" true (abs (c - expected) < expected / 5))
    buckets

let test_shuffle_permutes () =
  let p = Prng.create ~seed:5L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_pick_member () =
  let p = Prng.create ~seed:6L in
  let a = [| 2; 4; 6; 8 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Prng.pick p a) a)
  done

(* ---- Stats ---- *)

let test_mean () =
  check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_float "empty" 0. (Stats.mean [])

let test_stddev () =
  check_float "constant" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  check_float "spread" 1. (Stats.stddev [ 1.; 3.; 1.; 3. ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50. (Stats.percentile 0.5 xs);
  check_float "p99" 99. (Stats.percentile 0.99 xs);
  check_float "p100" 100. (Stats.percentile 1.0 xs)

let test_percentile_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty list")
    (fun () -> ignore (Stats.percentile 0.5 []))

let test_summary () =
  let s = Stats.summarize [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  check_float "min" 1. s.Stats.min;
  check_float "max" 4. s.Stats.max;
  check_float "mean" 2.5 s.Stats.mean

let test_acc_matches_list () =
  let xs = List.init 1000 (fun i -> float_of_int (i * i) /. 7.) in
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) xs;
  Alcotest.(check (float 1e-6)) "mean" (Stats.mean xs) (Stats.Acc.mean acc);
  Alcotest.(check (float 1e-6)) "stddev" (Stats.stddev xs) (Stats.Acc.stddev acc);
  Alcotest.(check int) "n" 1000 (Stats.Acc.n acc)

(* ---- Checksum ---- *)

let test_checksum_deterministic () =
  Alcotest.(check int64) "same" (Checksum.string "hello") (Checksum.string "hello")

let test_checksum_sensitive () =
  Alcotest.(check bool) "differs" true (Checksum.string "hello" <> Checksum.string "hellp");
  Alcotest.(check bool)
    "order matters" true
    (Checksum.string "ab" <> Checksum.string "ba")

let test_checksum_incremental () =
  let whole = Checksum.string "abcdef" in
  let part = Checksum.add_string (Checksum.add_string Checksum.empty "abc") "def" in
  Alcotest.(check int64) "incremental" whole part

let test_checksum_int_encoding () =
  Alcotest.(check bool) "int differs" true (Checksum.add_int Checksum.empty 1 <> Checksum.add_int Checksum.empty 256)

(* Known answers, recorded before the word kernel was rewritten.  Every
   stored seal (LFS summaries and checkpoints, VLD map nodes and tail,
   UFS superblock, VLFS inode parts, NVM WAL records) and every per-block
   digest in an LFS summary is an [add_words] digest, so any drift here
   is an on-disk format change. *)

let pattern n = Bytes.init n (fun i -> Char.chr (((i * 131) + 7) land 0xff))
let page = pattern 4100
let kat_seed = 0x0123456789ABCDEFL

(* (name, digest in hex, computation) *)
let checksum_kats =
  let words ?(seed = Checksum.empty) ~pos len () =
    Checksum.add_words seed page ~pos ~len
  in
  List.mapi
    (fun len want -> (Printf.sprintf "words len %d" len, want, words ~pos:0 len))
    [
      "cbf29ce484222325"; "af63ba4c8601b2c6"; "0827dc07b4e1f724"; "bdb20a185bf6faab";
      "4c81626444ab3241"; "ab0c8260aee68156"; "8cc34a4931ae7940"; "de50935f6b78323b";
      "940cc3d74cfc64c6"; "8e159fd7d0df5cbb"; "4e1ab4b7eb897e7b"; "40df72853aa1b9ba";
      "dd68aa62a0cd7996"; "065342973d25dc27"; "e556affce755bccb"; "080a04bd16b01cce";
    ]
  @ [
      ("words len 4088", "5e58efbcd3603728", words ~pos:0 4088);
      ("words len 4096", "9b77a3c88ea59125", words ~pos:0 4096);
      ("words pos 3 len 12", "97adc8a4c328fd27", words ~pos:3 12);
      ("words pos 5 len 4093", "cd8fad434d6c21a5", words ~pos:5 4093);
      ("words seeded len 4088", "a83d1c88e3ca4c3a", words ~seed:kat_seed ~pos:0 4088);
      ("words seeded pos 1 len 13", "e53a12b1d6889aa7", words ~seed:kat_seed ~pos:1 13);
      ("sub_bytes len 0", "cbf29ce484222325", fun () -> Checksum.add_sub_bytes Checksum.empty page ~pos:0 ~len:0);
      ("sub_bytes pos 3 len 100", "9513e2ae9780878d", fun () -> Checksum.add_sub_bytes Checksum.empty page ~pos:3 ~len:100);
      ("sub_bytes seeded len 4096", "b748046a6e4addef", fun () -> Checksum.add_sub_bytes kat_seed page ~pos:0 ~len:4096);
      ("bytes 4096", "982d801461094325", fun () -> Checksum.bytes (pattern 4096));
      ("string empty", "cbf29ce484222325", fun () -> Checksum.string "");
      ("string hello", "a430d84680aabd0b", fun () -> Checksum.string "hello");
      ("add_string seeded", "9610552e14f59c6a", fun () -> Checksum.add_string kat_seed "vlog\000\255");
      ("add_int 0", "a8c7f832281a39c5", fun () -> Checksum.add_int Checksum.empty 0);
      ("add_int 0x1234", "07b32d0dc6fdf72b", fun () -> Checksum.add_int Checksum.empty 0x1234);
      ("add_int -1", "8cf59a8bfca461bd", fun () -> Checksum.add_int Checksum.empty (-1));
      ("add_int max_int", "ee7f1e610b288a87", fun () -> Checksum.add_int kat_seed max_int);
      ("add_int min_int", "a8c83832281aa685", fun () -> Checksum.add_int Checksum.empty min_int);
      ("add_int64 0", "a8c7f832281a39c5", fun () -> Checksum.add_int64 Checksum.empty 0L);
      ("add_int64 min_int", "a8c7783228196045", fun () -> Checksum.add_int64 Checksum.empty Int64.min_int);
      ("add_int64 seeded", "912fdcf2f5dd7e2e", fun () -> Checksum.add_int64 kat_seed 0x8000_0000_0000_0001L);
    ]

let test_checksum_known_answers () =
  List.iter
    (fun (name, want, digest) ->
      Alcotest.(check string) name want (Checksum.to_hex (digest ())))
    checksum_kats

(* Definitional folds the kernel must equal: one FNV-1a step per
   [Bytes.get_int64_le] word (then per trailing byte), and one per byte. *)
let fnv_prime = 0x100000001B3L
let fnv_step h x = Int64.mul (Int64.logxor h x) fnv_prime

let reference_bytes h buf ~pos ~len =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := fnv_step !h (Int64.of_int (Char.code (Bytes.get buf i)))
  done;
  !h

let reference_words h buf ~pos ~len =
  let n = len / 8 in
  let h = ref h in
  for w = 0 to n - 1 do
    h := fnv_step !h (Bytes.get_int64_le buf (pos + (w * 8)))
  done;
  reference_bytes !h buf ~pos:(pos + (n * 8)) ~len:(len - (n * 8))

let test_checksum_seal () =
  let buf = pattern 4096 in
  Checksum.seal buf ~pos:0 ~len:4088;
  Alcotest.(check int64) "stored little-endian"
    (Checksum.add_words Checksum.empty buf ~pos:0 ~len:4088)
    (Bytes.get_int64_le buf 4088);
  Alcotest.(check bool) "sealed" true (Checksum.sealed buf ~pos:0 ~len:4088);
  Bytes.set buf 17 (Char.chr (Char.code (Bytes.get buf 17) lxor 4));
  Alcotest.(check bool) "flip detected" false (Checksum.sealed buf ~pos:0 ~len:4088);
  Alcotest.check_raises "no room for the seal" (Invalid_argument "index out of bounds")
    (fun () -> Checksum.seal buf ~pos:8 ~len:4088);
  Alcotest.check_raises "region outside buf" (Invalid_argument "Checksum.sealed")
    (fun () -> ignore (Checksum.sealed buf ~pos:(-1) ~len:8))

(* Minor-heap words per call of [f], over 1000 calls after a warm-up. *)
let words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. 1000.

(* The hash stays unboxed inside the loops: a 4 KiB digest allocates
   only its boxed int64 result (3 words), and a seal or its check
   nothing at all. *)
let test_checksum_allocation () =
  let buf = pattern 4096 in
  let digest () = Checksum.add_words Checksum.empty buf ~pos:0 ~len:4088 in
  let within name limit words =
    if words > limit then
      Alcotest.failf "%s: %.2f minor words per call, at most %.0f allowed" name words limit
  in
  within "add_words 4 KiB" 3. (words_per_call digest);
  within "add_sub_bytes 4 KiB" 3.
    (words_per_call (fun () -> Checksum.add_sub_bytes Checksum.empty buf ~pos:0 ~len:4096));
  within "seal" 0. (words_per_call (fun () -> Checksum.seal buf ~pos:0 ~len:4088));
  within "sealed" 0. (words_per_call (fun () -> Checksum.sealed buf ~pos:0 ~len:4088))

(* ---- Breakdown ---- *)

let test_breakdown_total () =
  let b =
    Breakdown.add
      (Breakdown.add (Breakdown.of_scsi 1.) (Breakdown.of_locate 2.))
      (Breakdown.add (Breakdown.of_transfer 3.) (Breakdown.of_other 4.))
  in
  check_float "total" 10. (Breakdown.total b);
  let s, l, x, o = Breakdown.fractions b in
  check_float "scsi frac" 0.1 s;
  check_float "locate frac" 0.2 l;
  check_float "xfer frac" 0.3 x;
  check_float "other frac" 0.4 o

let test_breakdown_zero_fractions () =
  let s, l, x, o = Breakdown.fractions Breakdown.zero in
  check_float "s" 0. s;
  check_float "l" 0. l;
  check_float "x" 0. x;
  check_float "o" 0. o

let test_breakdown_acc () =
  let acc = Breakdown.Acc.create () in
  Breakdown.Acc.add acc (Breakdown.of_scsi 2.);
  Breakdown.Acc.add acc (Breakdown.of_scsi 4.);
  check_float "mean scsi" 3. (Breakdown.Acc.mean acc).Breakdown.scsi;
  Alcotest.(check int) "count" 2 (Breakdown.Acc.count acc)

(* ---- Clock ---- *)

let test_clock () =
  let c = Clock.create () in
  check_float "zero" 0. (Clock.now c);
  Clock.advance c 1.5;
  check_float "advanced" 1.5 (Clock.now c);
  Clock.advance_to c 1.0;
  check_float "no backwards" 1.5 (Clock.now c);
  Clock.advance_to c 3.0;
  check_float "forward" 3.0 (Clock.now c);
  Clock.reset c;
  check_float "reset" 0. (Clock.now c)

let test_clock_rejects_negative () =
  let c = Clock.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance: negative duration")
    (fun () -> Clock.advance c (-1.))

(* ---- Table ---- *)

let test_table_renders () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "3" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 4 = "== T")

let test_table_rejects_wide_row () =
  let t = Table.create ~title:"T" ~columns:[ "a" ] in
  Alcotest.check_raises "too wide" (Invalid_argument "Table.add_row: more cells than columns")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_cells () =
  Alcotest.(check string) "f" "1.50" (Table.cell_f 1.5);
  Alcotest.(check string) "ms" "1.500 ms" (Table.cell_ms 1.5);
  Alcotest.(check string) "x" "2.5x" (Table.cell_x 2.5);
  Alcotest.(check string) "pct" "42.0%" (Table.cell_pct 0.42)

(* ---- Json ---- *)

let test_json_escaping () =
  Alcotest.(check string) "quote, backslash, control characters"
    {|"a\"b\\c\nd\te\u0001f\u001f"|}
    (Json.to_string (Json.String "a\"b\\c\nd\te\001f\031"))

let test_json_non_finite () =
  Alcotest.(check string) "nan and infinities print as null" "[null,null,null,1.0,0.1]"
    (Json.to_string
       (Json.List
          [ Float Float.nan; Float Float.infinity; Float Float.neg_infinity; Float 1.; Float 0.1 ]))

let test_json_key_order () =
  Alcotest.(check string) "keys in list order, compact"
    {|{"z":1,"a":[true,false,null],"m":{"y":"s","b":-2}}|}
    (Json.to_string
       (Json.Obj
          [
            ("z", Int 1); ("a", List [ Bool true; Bool false; Null ]);
            ("m", Obj [ ("y", String "s"); ("b", Int (-2)) ]);
          ]))

(* ---- property tests ---- *)

(* A seed and a region [pos, pos + len) of a random buffer, len 0–4100
   (any residue mod 8), with slack on both sides. *)
let checksum_region =
  let open QCheck in
  let gen =
    Gen.(
      int_range 0 4100 >>= fun len ->
      int_range 0 23 >>= fun pos ->
      int_range 0 9 >>= fun slack ->
      bytes_size (return (pos + len + slack)) >>= fun buf ->
      int64 >|= fun seed -> (seed, buf, pos, len))
  in
  make gen ~print:(fun (seed, buf, pos, len) ->
      Printf.sprintf "seed %Lx, %d-byte buffer, pos %d, len %d" seed (Bytes.length buf) pos len)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"percentile within min..max" ~count:200
      (pair (list_of_size Gen.(1 -- 50) (float_range 0. 100.)) (float_range 0. 1.))
      (fun (xs, p) ->
        let v = Stats.percentile p xs in
        v >= List.fold_left min infinity xs && v <= List.fold_left max neg_infinity xs);
    Test.make ~name:"breakdown add is componentwise" ~count:200
      (pair (quad (float_range 0. 9.) (float_range 0. 9.) (float_range 0. 9.) (float_range 0. 9.))
         (quad (float_range 0. 9.) (float_range 0. 9.) (float_range 0. 9.) (float_range 0. 9.)))
      (fun ((a1, a2, a3, a4), (b1, b2, b3, b4)) ->
        let open Breakdown in
        let a = { scsi = a1; locate = a2; transfer = a3; other = a4 } in
        let b = { scsi = b1; locate = b2; transfer = b3; other = b4 } in
        abs_float (total (add a b) -. (total a +. total b)) < 1e-9);
    Test.make ~name:"json float round-trips" ~count:1000
      (map Int64.float_of_bits int64)
      (fun f ->
        assume (Float.is_finite f);
        Float.equal (float_of_string (Json.to_string (Json.Float f))) f);
    Test.make ~name:"checksum roundtrip stability on bytes" ~count:200 (string_of_size Gen.(0 -- 200))
      (fun s -> Checksum.string s = Checksum.bytes (Bytes.of_string s));
    Test.make ~name:"checksum add_words = per-word fold" ~count:300 checksum_region
      (fun (seed, buf, pos, len) ->
        Checksum.add_words seed buf ~pos ~len = reference_words seed buf ~pos ~len);
    Test.make ~name:"checksum add_sub_bytes = byte walk" ~count:300 checksum_region
      (fun (seed, buf, pos, len) ->
        Checksum.add_sub_bytes seed buf ~pos ~len = reference_bytes seed buf ~pos ~len);
  ]

let suites =
  [
    ( "util:prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed matters" `Quick test_prng_seed_matters;
        Alcotest.test_case "split independent" `Quick test_prng_split_independent;
        Alcotest.test_case "int range" `Quick test_prng_int_range;
        Alcotest.test_case "int bad bound" `Quick test_prng_int_rejects_bad_bound;
        Alcotest.test_case "float range" `Quick test_prng_float_range;
        Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
        Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
        Alcotest.test_case "pick member" `Quick test_pick_member;
      ] );
    ( "util:stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "percentile" `Quick test_percentile;
        Alcotest.test_case "percentile empty" `Quick test_percentile_empty;
        Alcotest.test_case "summary" `Quick test_summary;
        Alcotest.test_case "acc matches list" `Quick test_acc_matches_list;
      ] );
    ( "util:checksum",
      [
        Alcotest.test_case "deterministic" `Quick test_checksum_deterministic;
        Alcotest.test_case "sensitive" `Quick test_checksum_sensitive;
        Alcotest.test_case "incremental" `Quick test_checksum_incremental;
        Alcotest.test_case "int encoding" `Quick test_checksum_int_encoding;
        Alcotest.test_case "known answers" `Quick test_checksum_known_answers;
        Alcotest.test_case "seal and sealed" `Quick test_checksum_seal;
        Alcotest.test_case "allocates only its result" `Quick test_checksum_allocation;
      ] );
    ( "util:breakdown",
      [
        Alcotest.test_case "total and fractions" `Quick test_breakdown_total;
        Alcotest.test_case "zero fractions" `Quick test_breakdown_zero_fractions;
        Alcotest.test_case "acc" `Quick test_breakdown_acc;
      ] );
    ( "util:clock",
      [
        Alcotest.test_case "advance" `Quick test_clock;
        Alcotest.test_case "rejects negative" `Quick test_clock_rejects_negative;
      ] );
    ( "util:table",
      [
        Alcotest.test_case "renders" `Quick test_table_renders;
        Alcotest.test_case "rejects wide row" `Quick test_table_rejects_wide_row;
        Alcotest.test_case "cells" `Quick test_table_cells;
      ] );
    ( "util:json",
      [
        Alcotest.test_case "escaping" `Quick test_json_escaping;
        Alcotest.test_case "non-finite is null" `Quick test_json_non_finite;
        Alcotest.test_case "key order" `Quick test_json_key_order;
      ] );
    ("util:properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
