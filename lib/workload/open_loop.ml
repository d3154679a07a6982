open Vlog_util

type process =
  | Poisson
  | Bursty of { burst : int; spread_ms : float }

(* Exponential interarrival with the given mean; [1 - u] keeps the
   argument of [log] in (0, 1]. *)
let exp_ms prng ~mean_ms = -.mean_ms *. log (1. -. Prng.float prng 1.)

let arrivals ~prng ~process ~rate_per_s ~start n =
  if rate_per_s <= 0. then invalid_arg "Open_loop.arrivals: rate must be positive";
  if n < 0 then invalid_arg "Open_loop.arrivals: negative count";
  let mean_ms = 1000. /. rate_per_s in
  match process with
  | Poisson ->
    let t = ref start in
    List.init n (fun _ ->
        t := !t +. exp_ms prng ~mean_ms;
        !t)
  | Bursty { burst; spread_ms } ->
    if burst <= 0 then invalid_arg "Open_loop.arrivals: burst must be positive";
    if spread_ms < 0. then invalid_arg "Open_loop.arrivals: negative spread";
    let burst_mean_ms = mean_ms *. float_of_int burst in
    let t = ref start in
    let rec gen acc remaining =
      if remaining <= 0 then acc
      else begin
        t := !t +. exp_ms prng ~mean_ms:burst_mean_ms;
        let k = min burst remaining in
        let members =
          List.init k (fun _ -> !t +. Prng.float prng (Float.max spread_ms 1e-9))
        in
        gen (List.rev_append members acc) (remaining - k)
      end
    in
    List.sort compare (gen [] n)
