open Vlog_util

(* Occupancy bytes are the truth; three indices are kept beside them by
   [occupy], [release] and [mark_bad], each in O(1) and without
   allocating: per-track and per-cylinder free counts, a free bitset
   (positional queries within a track) and the rotational index (which
   surfaces of a cylinder have a free block at each platter angle, for
   the eager search).  [index_consistent] audits all three. *)

type t = {
  geometry : Disk.Geometry.t;
  sectors_per_block : int;
  sectors_per_track : int;
  track_skew : int;
  tracks_per_cylinder : int;
  blocks_per_track : int;
  blocks_per_cylinder : int;
  n_blocks : int;
  n_tracks : int;
  occupied : Bytes.t;
  bad : Bytes.t;
  (* Allocation index: one bit per block, set = free.  Kept consistent
     with [occupied] by the three mutators below; padded to a whole
     number of 64-bit words so the scanners can read full words. *)
  free_bits : Bytes.t;
  free_per_track : int array;
  free_per_cyl : int array;
  (* Rotational index: [angle.(c * sectors_per_track + a)] has bit [s]
     set iff surface [s] of cylinder [c] has a free block whose first
     sector passes under the head at absolute platter angle [a], i.e.
     [(slot * sectors_per_block + track_skew * track) mod
     sectors_per_track = a].  The slots of one track start at distinct
     angles, so each bit belongs to exactly one block. *)
  angle : int array;
  mutable free_total : int;
  mutable n_bad : int;
}

let create ~profile ~sectors_per_block =
  let geometry = profile.Disk.Profile.geometry in
  let spt = geometry.Disk.Geometry.sectors_per_track in
  let tpc = geometry.Disk.Geometry.tracks_per_cylinder in
  if sectors_per_block <= 0 || spt mod sectors_per_block <> 0 then
    invalid_arg "Freemap.create: sectors_per_block must divide sectors_per_track";
  if tpc > Sys.int_size - 1 then
    invalid_arg "Freemap.create: tracks_per_cylinder does not fit an int mask";
  let blocks_per_track = spt / sectors_per_block in
  let n_tracks = Disk.Geometry.total_tracks geometry in
  let n_blocks = blocks_per_track * n_tracks in
  let n_words = (n_blocks + 63) / 64 in
  let free_bits = Bytes.make (n_words * 8) '\000' in
  (* All blocks start free: set the first [n_blocks] bits. *)
  for b = 0 to n_blocks - 1 do
    let i = b lsr 3 in
    Bytes.set free_bits i
      (Char.chr (Char.code (Bytes.get free_bits i) lor (1 lsl (b land 7))))
  done;
  (* And every block's bit in the rotational index: track by track, one
     per slot, [sectors_per_block] apart from the track's skewed origin. *)
  let track_skew = profile.Disk.Profile.track_skew in
  let cylinders = geometry.Disk.Geometry.cylinders in
  let angle = Array.make (cylinders * spt) 0 in
  for tr = 0 to n_tracks - 1 do
    let row = tr / tpc * spt and bit = 1 lsl (tr mod tpc) in
    let a = ref (track_skew * tr mod spt) in
    for _ = 1 to blocks_per_track do
      angle.(row + !a) <- angle.(row + !a) lor bit;
      a := !a + sectors_per_block;
      if !a >= spt then a := !a - spt
    done
  done;
  {
    geometry;
    sectors_per_block;
    sectors_per_track = spt;
    track_skew;
    tracks_per_cylinder = tpc;
    blocks_per_track;
    blocks_per_cylinder = blocks_per_track * tpc;
    n_blocks;
    n_tracks;
    occupied = Bytes.make n_blocks '\000';
    bad = Bytes.make n_blocks '\000';
    free_bits;
    free_per_track = Array.make n_tracks blocks_per_track;
    free_per_cyl = Array.make cylinders (blocks_per_track * tpc);
    angle;
    free_total = n_blocks;
    n_bad = 0;
  }

let geometry t = t.geometry
let sectors_per_block t = t.sectors_per_block
let track_skew t = t.track_skew
let blocks_per_track t = t.blocks_per_track
let n_blocks t = t.n_blocks
let n_tracks t = t.n_tracks

let check t b =
  if b < 0 || b >= t.n_blocks then invalid_arg "Freemap: block index out of range"

let lba_of_block t b =
  check t b;
  b * t.sectors_per_block

let block_of_lba t lba =
  let b = lba / t.sectors_per_block in
  check t b;
  b

let track_of_block t b =
  check t b;
  b / t.blocks_per_track

let start_sector_of_block t b =
  check t b;
  b mod t.blocks_per_track * t.sectors_per_block

let cylinder_of_track t track = track / t.tracks_per_cylinder
let track_in_cylinder t track = track mod t.tracks_per_cylinder

let is_free t b =
  check t b;
  Bytes.get t.occupied b = '\000'

let set_free_bit t b =
  let i = b lsr 3 in
  Bytes.unsafe_set t.free_bits i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.free_bits i) lor (1 lsl (b land 7))))

let clear_free_bit t b =
  let i = b lsr 3 in
  Bytes.unsafe_set t.free_bits i
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.free_bits i) land (lnot (1 lsl (b land 7)) land 0xFF)))

(* [b]'s cell in the rotational index ([angle_bit] is its bit there). *)
let[@inline] angle_cell t b =
  let tr = b / t.blocks_per_track in
  let a =
    ((b mod t.blocks_per_track * t.sectors_per_block) + (t.track_skew * tr))
    mod t.sectors_per_track
  in
  (tr / t.tracks_per_cylinder * t.sectors_per_track) + a

let[@inline] angle_bit t b = 1 lsl (b / t.blocks_per_track mod t.tracks_per_cylinder)

let note_occupied t b =
  clear_free_bit t b;
  let cell = angle_cell t b in
  t.angle.(cell) <- t.angle.(cell) land lnot (angle_bit t b);
  let tr = b / t.blocks_per_track in
  t.free_per_track.(tr) <- t.free_per_track.(tr) - 1;
  t.free_per_cyl.(b / t.blocks_per_cylinder) <- t.free_per_cyl.(b / t.blocks_per_cylinder) - 1;
  t.free_total <- t.free_total - 1

let occupy t b =
  check t b;
  if Bytes.get t.occupied b <> '\000' then invalid_arg "Freemap.occupy: block already occupied";
  Bytes.set t.occupied b '\001';
  note_occupied t b

let release t b =
  check t b;
  if Bytes.get t.occupied b = '\000' then invalid_arg "Freemap.release: block already free";
  if Bytes.get t.bad b <> '\000' then invalid_arg "Freemap.release: block is a grown defect";
  Bytes.set t.occupied b '\000';
  set_free_bit t b;
  let cell = angle_cell t b in
  t.angle.(cell) <- t.angle.(cell) lor angle_bit t b;
  let tr = b / t.blocks_per_track in
  t.free_per_track.(tr) <- t.free_per_track.(tr) + 1;
  t.free_per_cyl.(b / t.blocks_per_cylinder) <- t.free_per_cyl.(b / t.blocks_per_cylinder) + 1;
  t.free_total <- t.free_total + 1

let is_bad t b =
  check t b;
  Bytes.get t.bad b <> '\000'

let mark_bad t b =
  check t b;
  if Bytes.get t.bad b = '\000' then begin
    Bytes.set t.bad b '\001';
    t.n_bad <- t.n_bad + 1;
    (* A defective block is permanently occupied: the allocator can never
       hand it out again and [release] refuses to free it. *)
    if Bytes.get t.occupied b = '\000' then begin
      Bytes.set t.occupied b '\001';
      note_occupied t b
    end
  end

let n_bad t = t.n_bad

let free_total t = t.free_total
let free_in_track t track = t.free_per_track.(track)
let free_in_cylinder t cyl = t.free_per_cyl.(cyl)
let occupied_in_track t track = t.blocks_per_track - t.free_per_track.(track)
let utilization t = 1. -. (float_of_int t.free_total /. float_of_int t.n_blocks)

(* Trailing zero count of a nonzero 32-bit word held in a native int;
   the scanners below touch at most a couple of words per query, so a
   branchy version is fine, and native ints keep it allocation-free. *)
let ctz v =
  let n = ref 0 and v = ref v in
  if !v land 0xFFFF = 0 then begin
    n := !n + 16;
    v := !v lsr 16
  end;
  if !v land 0xFF = 0 then begin
    n := !n + 8;
    v := !v lsr 8
  end;
  if !v land 0xF = 0 then begin
    n := !n + 4;
    v := !v lsr 4
  end;
  if !v land 0x3 = 0 then begin
    n := !n + 2;
    v := !v lsr 2
  end;
  if !v land 0x1 = 0 then incr n;
  !n

(* First free block in [lo, hi), or -1.  Scans the bitset 32 bits at a
   time as native ints (the index is padded to whole 64-bit words, so
   every 32-bit word read is in bounds); track ranges are not
   word-aligned (9 blocks/track on the HP profile), so the first and
   last word are masked. *)
let first_free_in_range t ~lo ~hi =
  if lo >= hi then -1
  else begin
    let w0 = lo lsr 5 and w1 = (hi - 1) lsr 5 in
    let w = ref w0 and found = ref (-1) in
    while !found < 0 && !w <= w1 do
      let v = Int32.to_int (Bytes.get_int32_le t.free_bits (!w lsl 2)) land 0xFFFF_FFFF in
      let v = if !w = w0 then v land (-1 lsl (lo land 31)) else v in
      let live = hi - (!w lsl 5) in
      let v = if live < 32 then v land ((1 lsl live) - 1) else v in
      if v <> 0 then found := (!w lsl 5) + ctz v else incr w
    done;
    !found
  end

let first_free_at_or_after t ~track ~slot =
  if track < 0 || track >= t.n_tracks then
    invalid_arg "Freemap.first_free_at_or_after: track out of range";
  if slot < 0 || slot > t.blocks_per_track then
    invalid_arg "Freemap.first_free_at_or_after: slot out of range";
  let base = track * t.blocks_per_track in
  let b = first_free_in_range t ~lo:(base + slot) ~hi:(base + t.blocks_per_track) in
  if b < 0 then None else Some b

(* Cyclically-first free block of the track at or after [slot]: the one
   whose start sector next passes under the head when the head is at the
   rotational position of slot [slot]. *)
let nearest_free_in_track t ~track ~slot =
  if track < 0 || track >= t.n_tracks then
    invalid_arg "Freemap.nearest_free_in_track: track out of range";
  if slot < 0 || slot >= t.blocks_per_track then
    invalid_arg "Freemap.nearest_free_in_track: slot out of range";
  let base = track * t.blocks_per_track in
  let b = first_free_in_range t ~lo:(base + slot) ~hi:(base + t.blocks_per_track) in
  if b >= 0 then b else first_free_in_range t ~lo:base ~hi:(base + slot)

let check_cylinder_angle name t ~cyl ~angle =
  if cyl < 0 || cyl >= t.geometry.Disk.Geometry.cylinders then
    invalid_arg (name ^ ": cylinder out of range");
  if angle < 0 || angle >= t.sectors_per_track then
    invalid_arg (name ^ ": angle out of range")

let surfaces_free_at t ~cyl ~angle =
  check_cylinder_angle "Freemap.surfaces_free_at" t ~cyl ~angle;
  t.angle.((cyl * t.sectors_per_track) + angle)

(* Cyclic scan of one cylinder's row of the rotational index. *)
let first_angle_free t ~cyl ~angle ~surfaces =
  check_cylinder_angle "Freemap.first_angle_free" t ~cyl ~angle;
  let spt = t.sectors_per_track in
  let row = cyl * spt in
  let a = ref angle and seen = ref 0 in
  while !seen < spt && Array.unsafe_get t.angle (row + !a) land surfaces = 0 do
    incr seen;
    a := if !a = spt - 1 then 0 else !a + 1
  done;
  if !seen < spt then !a else -1

(* Consistency of the redundant representations; used by tests and
   debugging, not by the hot path. *)
let index_consistent t =
  let ok = ref true in
  for b = 0 to t.n_blocks - 1 do
    let byte_free = Bytes.get t.occupied b = '\000' in
    let bit_free =
      Char.code (Bytes.get t.free_bits (b lsr 3)) land (1 lsl (b land 7)) <> 0
    in
    if byte_free <> bit_free then ok := false;
    if Bytes.get t.bad b <> '\000' && bit_free then ok := false
  done;
  for tr = 0 to t.n_tracks - 1 do
    let n = ref 0 in
    for b = tr * t.blocks_per_track to ((tr + 1) * t.blocks_per_track) - 1 do
      if Bytes.get t.occupied b = '\000' then incr n
    done;
    if !n <> t.free_per_track.(tr) then ok := false
  done;
  let tpc = t.geometry.Disk.Geometry.tracks_per_cylinder in
  for c = 0 to t.geometry.Disk.Geometry.cylinders - 1 do
    let n = ref 0 in
    for tr = c * tpc to ((c + 1) * tpc) - 1 do
      n := !n + t.free_per_track.(tr)
    done;
    if !n <> t.free_per_cyl.(c) then ok := false
  done;
  (* The rotational index, rebuilt from [occupied] alone. *)
  let angle = Array.make (Array.length t.angle) 0 in
  for b = 0 to t.n_blocks - 1 do
    if Bytes.get t.occupied b = '\000' then begin
      let cell = angle_cell t b in
      angle.(cell) <- angle.(cell) lor angle_bit t b
    end
  done;
  if angle <> t.angle then ok := false;
  !ok

let fold_free_in_track t ~track ~init ~f =
  let base = track * t.blocks_per_track in
  let acc = ref init in
  for i = base to base + t.blocks_per_track - 1 do
    if Bytes.get t.occupied i = '\000' then acc := f !acc i
  done;
  !acc

let empty_tracks t =
  let rec go tr acc =
    if tr < 0 then acc
    else if t.free_per_track.(tr) = t.blocks_per_track then go (tr - 1) (tr :: acc)
    else go (tr - 1) acc
  in
  go (t.n_tracks - 1) []

let random_occupy t prng ~utilization:target =
  if target < 0. || target > 1. then invalid_arg "Freemap.random_occupy: bad utilization";
  let want_occupied = int_of_float (target *. float_of_int t.n_blocks) in
  let have_occupied = t.n_blocks - t.free_total in
  let need = want_occupied - have_occupied in
  if need > 0 then begin
    let free = Array.make t.free_total 0 in
    let j = ref 0 in
    for b = 0 to t.n_blocks - 1 do
      if Bytes.get t.occupied b = '\000' then begin
        free.(!j) <- b;
        incr j
      end
    done;
    Prng.shuffle prng free;
    for i = 0 to min need (Array.length free) - 1 do
      occupy t free.(i)
    done
  end
