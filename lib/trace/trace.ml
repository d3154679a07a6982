open Vlog_util

type span = int

type span_record = {
  id : int;
  parent : int;
  name : string;
  start_ms : float;
  end_ms : float;
  bd : Breakdown.t;
  child_sum : Breakdown.t;
  n_children : int;
  unaccounted : bool;
  attrs : (string * string) list;
}

(* Geometric buckets: bucket 0 holds values <= lo (including zero — many
   spans cost exactly nothing), bucket i >= 1 holds (lo*g^(i-1), lo*g^i].
   g = 1.05 gives ~5 % relative precision over any range. *)
module Histogram = struct
  let lo = 1e-4 (* ms *)
  let gamma = 1.05
  let log_gamma = log gamma

  type t = {
    mutable counts : int array;
    mutable n : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let create () =
    { counts = Array.make 64 0; n = 0; sum = 0.; vmin = infinity; vmax = neg_infinity }

  let bucket_of v =
    if v <= lo then 0 else 1 + int_of_float (Float.floor (log (v /. lo) /. log_gamma))

  (* Geometric midpoint of bucket i's range. *)
  let representative i =
    if i = 0 then 0. else lo *. (gamma ** (float_of_int i -. 0.5))

  let observe h v =
    let b = bucket_of v in
    if b >= Array.length h.counts then begin
      let counts = Array.make (b + 16) 0 in
      Array.blit h.counts 0 counts 0 (Array.length h.counts);
      h.counts <- counts
    end;
    h.counts.(b) <- h.counts.(b) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v

  let count h = h.n
  let sum h = h.sum
  let min_value h = if h.n = 0 then 0. else h.vmin
  let max_value h = if h.n = 0 then 0. else h.vmax

  let percentile h p =
    if h.n = 0 then 0.
    else begin
      let rank =
        let r = int_of_float (Float.ceil (p /. 100. *. float_of_int h.n)) in
        if r < 1 then 1 else if r > h.n then h.n else r
      in
      let i = ref 0 and seen = ref 0 in
      while !seen < rank && !i < Array.length h.counts do
        seen := !seen + h.counts.(!i);
        if !seen < rank then incr i
      done;
      let v = representative !i in
      Float.min h.vmax (Float.max h.vmin v)
    end
end

type frame = {
  f_id : int;
  f_name : string;
  f_start : float;
  f_attrs : (string * string) list;
  f_unaccounted : bool;
  mutable f_child_sum : Breakdown.t;
  mutable f_children : int;
}

type inner = {
  clock : Clock.t;
  mutable next_id : int;
  mutable stack : frame list;  (* innermost first *)
  mutable recs : span_record list;  (* reverse exit order *)
  counters : (string, int ref) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
}

type sink = inner option

let null = None
let create ~clock () =
  Some
    {
      clock;
      next_id = 0;
      stack = [];
      recs = [];
      counters = Hashtbl.create 32;
      hists = Hashtbl.create 32;
    }

let enabled = function None -> false | Some _ -> true

let enter sink ?(attrs = []) ?(unaccounted = false) name =
  match sink with
  | None -> Io.no_span
  | Some s ->
    let id = s.next_id in
    s.next_id <- id + 1;
    s.stack <-
      {
        f_id = id;
        f_name = name;
        f_start = Clock.now s.clock;
        f_attrs = attrs;
        f_unaccounted = unaccounted;
        f_child_sum = Breakdown.zero;
        f_children = 0;
      }
      :: s.stack;
    id

let hist_of s name =
  match Hashtbl.find_opt s.hists name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.add s.hists name h;
    h

(* Close the top frame with breakdown [bd] (defaulting to its children's
   fold), record it, and fold its breakdown into the new top frame. *)
let close s ?bd () =
  match s.stack with
  | [] -> ()
  | f :: rest ->
    s.stack <- rest;
    let bd = match bd with Some b -> b | None -> f.f_child_sum in
    let now = Clock.now s.clock in
    let parent = match rest with [] -> -1 | p :: _ -> p.f_id in
    s.recs <-
      {
        id = f.f_id;
        parent;
        name = f.f_name;
        start_ms = f.f_start;
        end_ms = now;
        bd;
        child_sum = f.f_child_sum;
        n_children = f.f_children;
        unaccounted = f.f_unaccounted;
        attrs = f.f_attrs;
      }
      :: s.recs;
    (match rest with
    | [] -> ()
    | _ when f.f_unaccounted ->
      (* Cost the enclosing operation deliberately does not bill (e.g. a
         forced cleaner run): visible in the tree, excluded from the
         parent's accounted fold. *)
      ()
    | p :: _ ->
      p.f_child_sum <- Breakdown.add p.f_child_sum bd;
      p.f_children <- p.f_children + 1);
    Histogram.observe (hist_of s f.f_name) (now -. f.f_start)

let exit sink ?bd span =
  match sink with
  | None -> ()
  | Some s ->
    if span >= 0 && List.exists (fun f -> f.f_id = span) s.stack then begin
      (* Implicitly close anything an exception unwound past. *)
      while
        match s.stack with f :: _ -> f.f_id <> span | [] -> false
      do
        close s ()
      done;
      close s ?bd ()
    end

let group sink ?attrs ?unaccounted name f =
  match sink with
  | None -> f ()
  | Some _ ->
    let sp = enter sink ?attrs ?unaccounted name in
    (match f () with
    | bd ->
      exit sink ~bd sp;
      bd
    | exception e ->
      exit sink sp;
      raise e)

let op sink ?attrs name ~bd_of f =
  match sink with
  | None -> f ()
  | Some _ ->
    let sp = enter sink ?attrs name in
    (match f () with
    | Ok v as r ->
      exit sink ~bd:(bd_of v) sp;
      r
    | Error _ as r ->
      exit sink sp;
      r
    | exception e ->
      exit sink sp;
      raise e)

let incr sink ?(by = 1) name =
  match sink with
  | None -> ()
  | Some s -> (
    match Hashtbl.find_opt s.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add s.counters name (ref by))

let counter sink name =
  match sink with
  | None -> 0
  | Some s -> (
    match Hashtbl.find_opt s.counters name with Some r -> !r | None -> 0)

let counters sink =
  match sink with
  | None -> []
  | Some s ->
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) s.counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let spans sink =
  match sink with None -> [] | Some s -> List.rev s.recs

let observe sink name v =
  match sink with None -> () | Some s -> Histogram.observe (hist_of s name) v

let histogram sink name =
  match sink with None -> None | Some s -> Hashtbl.find_opt s.hists name

(* --- JSONL export --- *)

let to_jsonl sink =
  match sink with
  | None -> ""
  | Some s ->
    let b = Buffer.create 4096 in
    let line fields =
      Buffer.add_string b (Json.to_string (Json.Obj fields));
      Buffer.add_char b '\n'
    in
    let sps = spans sink in
    line
      [
        ("type", String "meta"); ("version", Int 1); ("clock_ms", Float (Clock.now s.clock));
        ("spans", Int (List.length sps));
      ];
    List.iter
      (fun r ->
        let bd = r.bd in
        line
          ([
             ("type", Json.String "span"); ("id", Int r.id); ("parent", Int r.parent);
             ("name", String r.name); ("start", Float r.start_ms); ("end", Float r.end_ms);
             ( "bd",
               Obj
                 [
                   ("scsi", Float bd.Breakdown.scsi); ("locate", Float bd.Breakdown.locate);
                   ("transfer", Float bd.Breakdown.transfer); ("other", Float bd.Breakdown.other);
                 ] );
             ("children", Int r.n_children);
           ]
          @ (if r.unaccounted then [ ("unaccounted", Json.Bool true) ] else [])
          @
          if r.attrs = [] then []
          else [ ("attrs", Obj (List.map (fun (k, v) -> (k, Json.String v)) r.attrs)) ]))
      sps;
    List.iter
      (fun (k, v) -> line [ ("type", String "counter"); ("name", String k); ("value", Int v) ])
      (counters sink);
    let hist_names =
      Hashtbl.fold (fun k _ acc -> k :: acc) s.hists [] |> List.sort String.compare
    in
    List.iter
      (fun name ->
        let h = Hashtbl.find s.hists name in
        let open Histogram in
        line
          [
            ("type", String "hist"); ("name", String name); ("count", Int (count h));
            ("sum", Float (sum h)); ("min", Float (min_value h)); ("max", Float (max_value h));
            ("p50", Float (percentile h 50.)); ("p90", Float (percentile h 90.));
            ("p99", Float (percentile h 99.));
          ])
      hist_names;
    Buffer.contents b

(* --- renderers --- *)

let pp_summary ppf sink =
  match sink with
  | None -> Format.fprintf ppf "tracing disabled@."
  | Some s ->
    let names =
      Hashtbl.fold (fun k _ acc -> k :: acc) s.hists [] |> List.sort String.compare
    in
    Format.fprintf ppf "%-28s %8s %10s %10s %10s %10s %10s@." "span" "count"
      "mean ms" "p50 ms" "p90 ms" "p99 ms" "max ms";
    List.iter
      (fun name ->
        let h = Hashtbl.find s.hists name in
        let n = Histogram.count h in
        if n > 0 then
          Format.fprintf ppf "%-28s %8d %10.4f %10.4f %10.4f %10.4f %10.4f@." name
            n
            (Histogram.sum h /. float_of_int n)
            (Histogram.percentile h 50.) (Histogram.percentile h 90.)
            (Histogram.percentile h 99.) (Histogram.max_value h))
      names;
    let cs = counters sink in
    if cs <> [] then begin
      Format.fprintf ppf "@.%-40s %12s@." "counter" "value";
      List.iter (fun (k, v) -> Format.fprintf ppf "%-40s %12d@." k v) cs
    end

(* Aggregate spans by their name-path and render as an indented tree:
   inclusive simulated time, call count, and self time (inclusive minus
   children — the share attributed to the span's own level). *)
let pp_flamegraph ppf sink =
  match sink with
  | None -> Format.fprintf ppf "tracing disabled@."
  | Some _ ->
    let sps = spans sink in
    let by_id = Hashtbl.create 256 in
    List.iter (fun r -> Hashtbl.replace by_id r.id r) sps;
    let child_dur_of = Hashtbl.create 256 in
    List.iter
      (fun r ->
        if r.parent >= 0 then
          let prev =
            match Hashtbl.find_opt child_dur_of r.parent with Some d -> d | None -> 0.
          in
          Hashtbl.replace child_dur_of r.parent (prev +. (r.end_ms -. r.start_ms)))
      sps;
    let rec path r =
      if r.parent = -1 then [ r.name ]
      else
        match Hashtbl.find_opt by_id r.parent with
        | None -> [ r.name ]
        | Some p -> path p @ [ r.name ]
    in
    (* node key: the full path *)
    let tbl = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun r ->
        let key = String.concat ";" (path r) in
        let dur = r.end_ms -. r.start_ms in
        let child_dur =
          match Hashtbl.find_opt child_dur_of r.id with Some d -> d | None -> 0.
        in
        match Hashtbl.find_opt tbl key with
        | Some (n, total, self) ->
          Hashtbl.replace tbl key (n + 1, total +. dur, self +. Float.max 0. (dur -. child_dur))
        | None ->
          order := key :: !order;
          Hashtbl.replace tbl key (1, dur, Float.max 0. (dur -. child_dur)))
      sps;
    let keys = List.rev !order in
    let keys = List.sort String.compare keys in
    List.iter
      (fun key ->
        let n, total, self = Hashtbl.find tbl key in
        let parts = String.split_on_char ';' key in
        let depth = List.length parts - 1 in
        let name = List.nth parts depth in
        Format.fprintf ppf "%s%-*s %10.3f ms %8d calls %10.3f ms self@."
          (String.make (2 * depth) ' ')
          (max 1 (32 - (2 * depth)))
          name total n self)
      keys
