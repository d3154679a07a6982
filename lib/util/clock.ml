type t = { mutable now : float }

(* Simulated time consumed across every clock ever created; the bench
   harness reports per-experiment simulated time as deltas of this. *)
let total = ref 0.

let advanced_total () = !total

let create () = { now = 0. }
let now t = t.now

let advance t dt =
  if dt < 0. then invalid_arg "Clock.advance: negative duration";
  t.now <- t.now +. dt;
  total := !total +. dt

let advance_to t when_ =
  if when_ > t.now then begin
    total := !total +. (when_ -. t.now);
    t.now <- when_
  end

let warp t when_ = t.now <- when_

let elapsed t f =
  let t0 = t.now in
  let v = f () in
  (v, t.now -. t0)

let reset t = t.now <- 0.
