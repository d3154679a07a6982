(* The platter contents live in per-track chunks allocated on first
   touch: a store models a ~24 MB disk, and experiment rigs create (and
   drop) many of them, so zeroing the whole medium eagerly would cost
   more than some entire experiment runs.  An untouched track reads as
   zeroes, exactly as the eager allocation did. *)
type t = {
  geometry : Geometry.t;
  track_bytes : int;
  chunks : Bytes.t array; (* per track; [Bytes.empty] = never touched *)
  written : Bytes.t;
  rotten : Bytes.t; (* sectors whose media ECC no longer matches the data *)
}

let create geometry =
  let sectors = Geometry.total_sectors geometry in
  let spt = geometry.Geometry.sectors_per_track in
  {
    geometry;
    track_bytes = spt * geometry.Geometry.sector_bytes;
    chunks = Array.make (Geometry.total_tracks geometry) Bytes.empty;
    written = Bytes.make sectors '\000';
    rotten = Bytes.make sectors '\000';
  }

let geometry t = t.geometry

let chunk t track =
  let c = t.chunks.(track) in
  if Bytes.length c > 0 then c
  else begin
    let c = Bytes.make t.track_bytes '\000' in
    t.chunks.(track) <- c;
    c
  end

let check_range t ~lba ~sectors =
  let total = Geometry.total_sectors t.geometry in
  if lba < 0 || sectors < 0 || lba + sectors > total then
    invalid_arg "Sector_store: range out of bounds"

let write t ~lba buf =
  let sb = t.geometry.Geometry.sector_bytes in
  if Bytes.length buf mod sb <> 0 then
    invalid_arg "Sector_store.write: buffer is not a whole number of sectors";
  let sectors = Bytes.length buf / sb in
  check_range t ~lba ~sectors;
  (* [write] and [read_into] walk the range one per-track span at a
     time in a plain loop: a per-span callback would allocate a closure
     on every transfer. *)
  let spt = t.geometry.Geometry.sectors_per_track in
  let s = ref lba in
  while !s < lba + sectors do
    let first = !s mod spt in
    let n = min (spt - first) (lba + sectors - !s) in
    Bytes.blit buf ((!s - lba) * sb) (chunk t (!s / spt)) (first * sb) (n * sb);
    s := !s + n
  done;
  Bytes.fill t.written lba sectors '\001';
  (* A fresh write lays down data and ECC together. *)
  Bytes.fill t.rotten lba sectors '\000'

let read_into t ~lba ~sectors buf ~pos =
  check_range t ~lba ~sectors;
  let sb = t.geometry.Geometry.sector_bytes in
  if pos < 0 || pos + (sectors * sb) > Bytes.length buf then
    invalid_arg "Sector_store.read_into: buffer too small";
  let spt = t.geometry.Geometry.sectors_per_track in
  let s = ref lba in
  while !s < lba + sectors do
    let first = !s mod spt in
    let n = min (spt - first) (lba + sectors - !s) in
    let c = t.chunks.(!s / spt) and dst = pos + ((!s - lba) * sb) in
    if Bytes.length c > 0 then Bytes.blit c (first * sb) buf dst (n * sb)
    else Bytes.fill buf dst (n * sb) '\000';
    s := !s + n
  done

let read t ~lba ~sectors =
  check_range t ~lba ~sectors;
  let out = Bytes.create (sectors * t.geometry.Geometry.sector_bytes) in
  read_into t ~lba ~sectors out ~pos:0;
  out

let written t ~lba =
  check_range t ~lba ~sectors:1;
  Bytes.get t.written lba = '\001'

let set_byte t i v =
  let sb = t.geometry.Geometry.sector_bytes in
  let spt = t.geometry.Geometry.sectors_per_track in
  let track = i / (spt * sb) in
  Bytes.set (chunk t track) (i mod (spt * sb)) v

let get_byte t i =
  let sb = t.geometry.Geometry.sector_bytes in
  let spt = t.geometry.Geometry.sectors_per_track in
  let track = i / (spt * sb) in
  let c = t.chunks.(track) in
  if Bytes.length c = 0 then '\000' else Bytes.get c (i mod (spt * sb))

let corrupt t ~lba ~sectors prng =
  check_range t ~lba ~sectors;
  let sb = t.geometry.Geometry.sector_bytes in
  for i = lba * sb to ((lba + sectors) * sb) - 1 do
    set_byte t i (Char.chr (Vlog_util.Prng.int prng 256))
  done;
  Bytes.fill t.written lba sectors '\001';
  (* The head physically wrote the garbage, so its sector ECC is valid. *)
  Bytes.fill t.rotten lba sectors '\000'

let rot t ~lba ~sectors prng =
  check_range t ~lba ~sectors;
  let sb = t.geometry.Geometry.sector_bytes in
  for s = lba to lba + sectors - 1 do
    (* Flip one random bit per sector: enough to invalidate the ECC. *)
    let byte = (s * sb) + Vlog_util.Prng.int prng sb in
    let bit = Vlog_util.Prng.int prng 8 in
    set_byte t byte (Char.chr (Char.code (get_byte t byte) lxor (1 lsl bit)));
    Bytes.set t.rotten s '\001'
  done

let ecc_error t ~lba ~sectors =
  check_range t ~lba ~sectors;
  let rec go s =
    if s >= lba + sectors then None
    else if Bytes.get t.rotten s = '\001' then Some s
    else go (s + 1)
  in
  go lba

(* On-disk image format (vlsim fsck/mkimage): a fixed magic line, the
   four geometry fields, the written/rotten maps, then one presence byte
   per track followed by the chunk bytes of touched tracks.  Everything
   little-endian, nothing compressed — images are a test vehicle, not an
   archival format. *)
let image_magic = "VLSIMG1\n"

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc image_magic;
      let w32 v =
        let b = Bytes.create 4 in
        Bytes.set_int32_le b 0 (Int32.of_int v);
        output_bytes oc b
      in
      let g = t.geometry in
      w32 g.Geometry.sector_bytes;
      w32 g.Geometry.sectors_per_track;
      w32 g.Geometry.tracks_per_cylinder;
      w32 g.Geometry.cylinders;
      output_bytes oc t.written;
      output_bytes oc t.rotten;
      Array.iter
        (fun c ->
          if Bytes.length c = 0 then output_char oc '\000'
          else begin
            output_char oc '\001';
            output_bytes oc c
          end)
        t.chunks)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fail msg = failwith (Printf.sprintf "Sector_store.load: %s: %s" path msg) in
      let magic = really_input_string ic (String.length image_magic) in
      if magic <> image_magic then fail "bad magic";
      let r32 () =
        let b = Bytes.create 4 in
        really_input ic b 0 4;
        Int32.to_int (Bytes.get_int32_le b 0)
      in
      let sector_bytes = r32 () in
      let sectors_per_track = r32 () in
      let tracks_per_cylinder = r32 () in
      let cylinders = r32 () in
      let geometry =
        try
          Geometry.v ~sector_bytes ~sectors_per_track ~tracks_per_cylinder
            ~cylinders
        with Invalid_argument m -> fail m
      in
      let t = create geometry in
      really_input ic t.written 0 (Bytes.length t.written);
      really_input ic t.rotten 0 (Bytes.length t.rotten);
      Array.iteri
        (fun i _ ->
          match input_char ic with
          | '\000' -> ()
          | '\001' ->
            let c = Bytes.create t.track_bytes in
            really_input ic c 0 t.track_bytes;
            t.chunks.(i) <- c
          | _ -> fail "bad track presence flag"
          | exception End_of_file -> fail "truncated image")
        t.chunks;
      t)

let snapshot t =
  {
    t with
    chunks =
      Array.map (fun c -> if Bytes.length c = 0 then c else Bytes.copy c) t.chunks;
    written = Bytes.copy t.written;
    rotten = Bytes.copy t.rotten;
  }
