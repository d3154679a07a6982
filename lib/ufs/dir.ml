let entry_bytes = 32
let max_name = 26

(* Slot layout: flag, inum, name length, name. *)
let inum_off = 1
let len_off = 5
let name_off = 6

let valid_name name =
  let n = String.length name in
  n >= 1 && n <= max_name

type slots = (string * int) option array

let empty_block ~block_bytes = Array.make (block_bytes / entry_bytes) None

let encode_block slots =
  let buf = Bytes.make (Array.length slots * entry_bytes) '\000' in
  Array.iteri
    (fun slot entry ->
      match entry with
      | None -> ()
      | Some (name, inum) ->
        let off = slot * entry_bytes in
        Bytes.set buf off '\001';
        Bytes.set_int32_le buf (off + inum_off) (Int32.of_int inum);
        let n = min (String.length name) max_name in
        Bytes.set buf (off + len_off) (Char.chr n);
        Bytes.blit_string name 0 buf (off + name_off) n)
    slots;
  buf

type entry = { slot : int; name : string; inum : int }

let decode_block ~first_inum ~n_inodes buf =
  let out = ref [] in
  for slot = (Bytes.length buf / entry_bytes) - 1 downto 0 do
    let off = slot * entry_bytes in
    match Bytes.get buf off with
    | '\000' -> ()
    | '\001' ->
      let inum = Int32.to_int (Bytes.get_int32_le buf (off + inum_off)) in
      let n = Char.code (Bytes.get buf (off + len_off)) in
      out :=
        (if inum < first_inum || inum >= n_inodes || n < 1 || n > max_name then
           Error slot
         else Ok { slot; name = Bytes.sub_string buf (off + name_off) n; inum })
        :: !out
    | _ -> out := Error slot :: !out
  done;
  !out

let entry_equal a b slot =
  let off = slot * entry_bytes in
  Bytes.equal (Bytes.sub a off entry_bytes) (Bytes.sub b off entry_bytes)

let free_slot table =
  let rec go b s =
    if b >= Array.length table then (b, 0)
    else if s >= Array.length table.(b) then go (b + 1) 0
    else if Option.is_none table.(b).(s) then (b, s)
    else go b (s + 1)
  in
  go 0 0

let alloc_inum used ~rover =
  let n = Bytes.length used in
  let step i = 1 + ((i + 1) mod (n - 1)) in
  let rec go tried i =
    if tried >= n then None
    else if Bytes.get used i = '\000' then begin
      Bytes.set used i '\001';
      rover := step i;
      Some i
    end
    else go (tried + 1) (step i)
  in
  go 0 (max 1 !rover)
