type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Shortest decimal that round-trips: parsing the printed value yields
   the original float, so exact-sum checks survive the serialization. *)
let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" f)
  else
    let s = Printf.sprintf "%.15g" f in
    Buffer.add_string b (if float_of_string s = f then s else Printf.sprintf "%.17g" f)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_seq b l r f xs =
  Buffer.add_char b l;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f x)
    xs;
  Buffer.add_char b r

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | String s -> add_string b s
  | List vs -> add_seq b '[' ']' (add b) vs
  | Obj kvs ->
    add_seq b '{' '}'
      (fun (k, v) ->
        add_string b k;
        Buffer.add_char b ':';
        add b v)
      kvs

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b
