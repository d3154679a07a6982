type t =
  [ `No_space
  | `No_inodes
  | `Not_found of string
  | `Exists of string
  | `Bad_name of string
  | `Bad_offset
  | `Read_only
  | `Io of Device.io_error ]

let pp ppf = function
  | `No_space -> Format.pp_print_string ppf "no space"
  | `No_inodes -> Format.pp_print_string ppf "out of inodes"
  | `Not_found name -> Format.fprintf ppf "%s: not found" name
  | `Exists name -> Format.fprintf ppf "%s: already exists" name
  | `Bad_name name -> Format.fprintf ppf "%S: not a storable file name" name
  | `Bad_offset -> Format.pp_print_string ppf "bad offset"
  | `Read_only -> Format.pp_print_string ppf "file system is read-only (degraded)"
  | `Io e -> Format.fprintf ppf "I/O error: %a" Device.pp_io_error e
