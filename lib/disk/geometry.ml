type t = {
  sector_bytes : int;
  sectors_per_track : int;
  tracks_per_cylinder : int;
  cylinders : int;
}

type addr = { cyl : int; track : int; sector : int }

let v ~sector_bytes ~sectors_per_track ~tracks_per_cylinder ~cylinders =
  if sector_bytes <= 0 || sectors_per_track <= 0 || tracks_per_cylinder <= 0 || cylinders <= 0
  then invalid_arg "Geometry.v: all components must be positive";
  { sector_bytes; sectors_per_track; tracks_per_cylinder; cylinders }

let sectors_per_cylinder t = t.sectors_per_track * t.tracks_per_cylinder
let total_sectors t = sectors_per_cylinder t * t.cylinders
let total_tracks t = t.tracks_per_cylinder * t.cylinders
let capacity_bytes t = total_sectors t * t.sector_bytes

let valid_lba t lba = lba >= 0 && lba < total_sectors t

let valid_addr t { cyl; track; sector } =
  cyl >= 0 && cyl < t.cylinders
  && track >= 0
  && track < t.tracks_per_cylinder
  && sector >= 0
  && sector < t.sectors_per_track

let addr_of_lba t lba =
  if not (valid_lba t lba) then invalid_arg "Geometry.addr_of_lba: lba out of range";
  let per_cyl = sectors_per_cylinder t in
  let cyl = lba / per_cyl in
  let rest = lba mod per_cyl in
  { cyl; track = rest / t.sectors_per_track; sector = rest mod t.sectors_per_track }

let lba_of_addr t a =
  if not (valid_addr t a) then invalid_arg "Geometry.lba_of_addr: address out of range";
  (a.cyl * sectors_per_cylinder t) + (a.track * t.sectors_per_track) + a.sector

let track_index t a = (a.cyl * t.tracks_per_cylinder) + a.track
