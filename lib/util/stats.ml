type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.
  | xs ->
    let m = mean xs in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs
      /. float_of_int (List.length xs)
    in
    sqrt var

let percentile p xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    let idx = if rank <= 0 then 0 else if rank > n then n - 1 else rank - 1 in
    a.(idx)

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty list"
  | xs ->
    {
      n = List.length xs;
      mean = mean xs;
      stddev = stddev xs;
      min = List.fold_left min infinity xs;
      max = List.fold_left max neg_infinity xs;
      p50 = percentile 0.5 xs;
      p90 = percentile 0.9 xs;
      p99 = percentile 0.99 xs;
    }

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f" s.n
    s.mean s.stddev s.min s.p50 s.p90 s.p99 s.max

module Acc = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable total : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; total = 0. }

  let add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let n t = t.n
  let mean t = t.mean
  let stddev t = if t.n < 2 then 0. else sqrt (t.m2 /. float_of_int t.n)
  let total t = t.total
end
