type log = string list ref

let failf log fmt = Printf.ksprintf (fun m -> log := m :: !log) fmt
let failed log = !log <> []

type judgement = { tallies : int list; verdict : string }

type ('config, 'cell) sweep = {
  keys : string list;
  coords : 'config -> 'cell -> string list;
  cell_of : (string -> string) -> ('cell, string) result;
  with_seed : 'config -> int64 -> 'config;
  cells : 'config -> (int -> 'cell) list;
  tallies : string list;
  judge : 'config -> 'cell -> log -> judgement;
}

type failure = { coords : (string * string) list; message : string }

let print_coords kvs =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)

let repro_of_failure f = print_coords f.coords

let pp_failure ppf f =
  Format.fprintf ppf "%s (--repro %s)" f.message (repro_of_failure f)

type outcome = {
  cells : int;
  tallies : (string * int) list;
  verdicts : (string * string) list;
  failures : failure list;
}

let merge a b =
  {
    cells = a.cells + b.cells;
    tallies = List.map2 (fun (l, x) (_, y) -> (l, x + y)) a.tallies b.tallies;
    verdicts = a.verdicts @ b.verdicts;
    failures = a.failures @ b.failures;
  }

let tally o label = Option.value (List.assoc_opt label o.tallies) ~default:0

let zero (s : _ sweep) =
  { cells = 0; tallies = List.map (fun l -> (l, 0)) s.tallies; verdicts = [];
    failures = [] }

let cells (s : _ sweep) c = List.mapi (fun i mk -> mk (i + 1)) (s.cells c)

(* One judged cell, or one whose judge never reported, as an outcome: a
   cell with failures is "failed" whatever verdict its judge chose. *)
let cell_outcome (s : _ sweep) c cell ~tallies ~verdict messages =
  let coords = List.combine s.keys (s.coords c cell) in
  {
    cells = 1;
    tallies = List.combine s.tallies tallies;
    verdicts =
      [ (print_coords coords, if messages = [] then verdict else "failed") ];
    failures = List.map (fun message -> { coords; message }) messages;
  }

let judge (s : _ sweep) c cell =
  let log = ref [] in
  let j = s.judge c cell log in
  cell_outcome s c cell ~tallies:j.tallies ~verdict:j.verdict (List.rev !log)

let run ?(jobs = 1) ?(timeout_s = 300.) (s : _ sweep) c =
  let cells = cells s c in
  let results = Par.map ~timeout_s ~jobs (judge s c) cells in
  List.fold_left2
    (fun acc cell -> function
      | Ok o -> merge acc o
      | Error (e : Par.error) ->
        merge acc
          (cell_outcome s c cell
             ~tallies:(List.map (fun _ -> 0) s.tallies)
             ~verdict:"failed"
             [ Par.reason_to_string e.Par.reason ]))
    (zero s) cells results

let int_value key v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> Ok n
  | _ -> Error (Printf.sprintf "bad %s %S" key v)

let bool_value key v =
  match bool_of_string_opt v with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "bad %s %S" key v)

let parse_repro (s : _ sweep) c spec =
  let ( let* ) = Result.bind in
  let* fields =
    List.fold_left
      (fun acc field ->
        let* seen = acc in
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "malformed repro field %S" field)
        | Some i ->
          let k = String.sub field 0 i in
          let v = String.sub field (i + 1) (String.length field - i - 1) in
          if not (List.mem k s.keys) then
            Error (Printf.sprintf "unknown repro field %S" k)
          else if List.mem_assoc k seen then
            Error (Printf.sprintf "repeated repro field %S" k)
          else Ok ((k, v) :: seen))
      (Ok [])
      (String.split_on_char ',' (String.trim spec))
  in
  let required = List.filter (fun k -> k <> "seed") s.keys in
  let* () =
    if List.for_all (fun k -> List.mem_assoc k fields) required then Ok ()
    else
      Error
        (Printf.sprintf "repro spec needs %s"
           (String.concat "," (List.map (fun k -> k ^ "=") required)))
  in
  let* c =
    match List.assoc_opt "seed" fields with
    | None -> Ok c
    | Some v -> (
      match Int64.of_string_opt v with
      | Some seed -> Ok (s.with_seed c seed)
      | None -> Error (Printf.sprintf "bad seed %S" v))
  in
  let* cell = s.cell_of (fun k -> List.assoc k fields) in
  Ok (c, cell)

let repro s c spec =
  Result.map (fun (c, cell) -> judge s c cell) (parse_repro s c spec)
