open Vlog_util

(* Exponential interarrival with the given mean; [1 - u] keeps the
   argument of [log] in (0, 1]. *)
let exp_ms prng ~mean_ms = -.mean_ms *. log (1. -. Prng.float prng 1.)

let arrivals ~prng ~rate_per_s ~start n =
  if rate_per_s <= 0. then invalid_arg "Open_loop.arrivals: rate must be positive";
  if n < 0 then invalid_arg "Open_loop.arrivals: negative count";
  let mean_ms = 1000. /. rate_per_s in
  let t = ref start in
  List.init n (fun _ ->
      t := !t +. exp_ms prng ~mean_ms;
      !t)
