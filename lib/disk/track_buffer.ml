type policy = Forward_discard | Whole_track

type slot = { track_index : int; lo : int; hi : int; mutable age : int }

type t = { policy : policy; mutable entries : slot list; mutable tick : int }

(* Tracks' worth of buffer the drive has under [Whole_track]. *)
let slots = 2

let create policy = { policy; entries = []; tick = 0 }

let policy t = t.policy

let hit t ~track_index ~sector ~sectors =
  let covered s = s.track_index = track_index && sector >= s.lo && sector + sectors <= s.hi in
  match List.find_opt covered t.entries with
  | None -> false
  | Some s ->
    t.tick <- t.tick + 1;
    s.age <- t.tick;
    true

let note_read t ~track_index ~sector ~sectors_per_track =
  t.tick <- t.tick + 1;
  let entry =
    match t.policy with
    | Forward_discard -> { track_index; lo = sector; hi = sectors_per_track; age = t.tick }
    | Whole_track -> { track_index; lo = 0; hi = sectors_per_track; age = t.tick }
  in
  let others = List.filter (fun s -> s.track_index <> track_index) t.entries in
  let keep =
    match t.policy with
    | Forward_discard -> [] (* a single range, as in the Dartmouth model *)
    | Whole_track ->
      (* retain up to slots-1 other tracks, youngest first *)
      let sorted = List.sort (fun a b -> compare b.age a.age) others in
      List.filteri (fun i _ -> i < slots - 1) sorted
  in
  t.entries <- entry :: keep

let invalidate_track t ~track_index =
  t.entries <- List.filter (fun s -> s.track_index <> track_index) t.entries

let clear t = t.entries <- []
