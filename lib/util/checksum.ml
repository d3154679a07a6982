type t = int64

let empty = 0xCBF29CE484222325L
let prime = 0x100000001B3L

external big_endian : unit -> bool = "%big_endian"
external bswap64 : int64 -> int64 = "%bswap_int64"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* The one update rule, h := (h xor x) * prime, as a byte step and a
   word step.  Both are inlined into loops that keep the hash in a local
   [ref]: a non-escaping int64 ref is a mutable variable that ocamlopt
   keeps unboxed, so a digest allocates only its boxed result.  The ref
   must never be captured by a closure or passed to a non-inlined
   function, or every step boxes again. *)
let[@inline] step h x = Int64.mul (Int64.logxor h x) prime
let[@inline] add_byte h b = step h (Int64.of_int (b land 0xff))

(* Words are little-endian on every host, so a digest is a property of
   the bytes alone. *)
let[@inline] word_le buf o =
  let w = get64u buf o in
  if big_endian () then bswap64 w else w

let check_range name buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg name

let[@inline] fold_bytes h buf ~pos ~len =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := add_byte !h (Char.code (Bytes.unsafe_get buf i))
  done;
  !h

(* FNV-1a over the region as little-endian 64-bit words, trailing bytes
   one at a time.  The caller checks the range once; that check is what
   makes the unchecked loads safe. *)
let[@inline] fold_words h buf ~pos ~len =
  let h = ref h in
  let words_end = pos + (len land lnot 7) in
  let o = ref pos in
  while !o < words_end do
    h := step !h (word_le buf !o);
    o := !o + 8
  done;
  fold_bytes !h buf ~pos:words_end ~len:(pos + len - words_end)

let add_sub_bytes h buf ~pos ~len =
  check_range "Checksum.add_sub_bytes" buf ~pos ~len;
  fold_bytes h buf ~pos ~len

let add_bytes h buf = add_sub_bytes h buf ~pos:0 ~len:(Bytes.length buf)

let add_words h buf ~pos ~len =
  check_range "Checksum.add_words" buf ~pos ~len;
  fold_words h buf ~pos ~len

(* The seal is stored and compared as an unboxed int64, so sealing and
   verifying allocate nothing.  The checked store and load guard the
   8-byte slot. *)
let seal buf ~pos ~len =
  check_range "Checksum.seal" buf ~pos ~len;
  let d = fold_words empty buf ~pos ~len in
  set64 buf (pos + len) (if big_endian () then bswap64 d else d)

let sealed buf ~pos ~len =
  check_range "Checksum.sealed" buf ~pos ~len;
  let d = fold_words empty buf ~pos ~len in
  let stored = get64 buf (pos + len) in
  (if big_endian () then bswap64 stored else stored) = d

let add_string h s =
  add_sub_bytes h (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let add_int h x =
  let h = ref h in
  for shift = 0 to 7 do
    h := add_byte !h (x lsr (shift * 8))
  done;
  !h

let add_int64 h x =
  let h = ref h in
  for shift = 0 to 7 do
    h := add_byte !h (Int64.to_int (Int64.shift_right_logical x (shift * 8)))
  done;
  !h

let bytes buf = add_bytes empty buf
let string s = add_string empty s
let to_hex t = Printf.sprintf "%016Lx" t
