open Vlog_util

type policy = Fifo | Elevator | Satf

let policy_to_string = function
  | Fifo -> "fifo"
  | Elevator -> "elevator"
  | Satf -> "satf"

type outcome =
  | Data of Bytes.t
  | Wrote of int
  | Failed of Disk_sim.media_error

type op =
  | Read of { lba : int; sectors : int }
  | Write of { lba : int; buf : Bytes.t }
  | Hosted of {
      cost : unit -> float;
      cylinder : unit -> int;
      service : unit -> outcome * Breakdown.t;
    }

type completion = {
  tag : int;
  outcome : outcome;
  submitted : float;
  started : float;
  finished : float;
  queue_wait : float;
  bd : Breakdown.t;
}

type cmd = {
  c_tag : int;
  c_op : op;
  c_submitted : float;
  c_background : bool;
      (* low-priority tag: dispatched only when no foreground command is
         eligible (rebuild copies, scrubbing) *)
  c_owner : string option;  (* latency tag: feeds [queue.<owner>.lat] *)
  mutable c_not_before : float;
      (* a stalled tag may not be re-dispatched before this instant *)
  mutable c_stalls : int;
}

type stats = {
  submitted : int;
  completed : int;
  stall_requeues : int;
  retry_requeues : int;
  max_depth : int;
}

type t = {
  disk : Disk_sim.t;
  pol : policy;
  stall_probe : unit -> float option;
  max_stall_retries : int;
  retry_backoff : float option;
  retry_jitter : Prng.t option;
  stall_budget_ms : float option;
  mutable next_tag : int;
  mutable queue : cmd list;  (* submission order *)
  mutable done_rev : (int * completion) list;
  mutable n_submitted : int;
  mutable n_completed : int;
  mutable n_stall_requeues : int;
  mutable n_retry_requeues : int;
  mutable hw_depth : int;
}

let create ?(policy = Fifo) ?(stall_probe = fun () -> None)
    ?(max_stall_retries = 64) ?retry_backoff ?retry_jitter ?stall_budget_ms
    ~disk () =
  {
    disk;
    pol = policy;
    stall_probe;
    max_stall_retries;
    retry_backoff;
    retry_jitter;
    stall_budget_ms;
    next_tag = 0;
    queue = [];
    done_rev = [];
    n_submitted = 0;
    n_completed = 0;
    n_stall_requeues = 0;
    n_retry_requeues = 0;
    hw_depth = 0;
  }

let policy t = t.pol
let disk t = t.disk
let clock t = Disk_sim.clock t.disk
let now t = Clock.now (clock t)

let submit ?at ?(background = false) ?owner t op =
  let at = match at with Some a -> a | None -> now t in
  if at < now t -. 1e-9 then
    invalid_arg "Disk_queue.submit: arrival time is in the past";
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  t.n_submitted <- t.n_submitted + 1;
  t.queue <-
    t.queue
    @ [
        {
          c_tag = tag;
          c_op = op;
          c_submitted = at;
          c_background = background;
          c_owner = owner;
          c_not_before = at;
          c_stalls = 0;
        };
      ];
  tag

let pending t = List.length t.queue

let depth t =
  let n = now t in
  List.length (List.filter (fun c -> c.c_submitted <= n) t.queue)

(* --- scheduling ------------------------------------------------------- *)

let ready_at c = Float.max c.c_submitted c.c_not_before

(* Mechanical cost of a command if dispatched now; the SATF comparator.
   Every candidate would pay the same SCSI overhead, so it cancels. *)
let cost t c =
  match c.c_op with
  | Read { lba; sectors } -> Disk_sim.estimate_access t.disk ~lba ~sectors
  | Write { lba; buf } ->
    let sectors = Bytes.length buf / (Disk_sim.geometry t.disk).sector_bytes in
    Disk_sim.estimate_access t.disk ~lba ~sectors
  | Hosted { cost; _ } -> cost ()

let cylinder_of t c =
  match c.c_op with
  | Read { lba; _ } | Write { lba; _ } ->
    (Geometry.addr_of_lba (Disk_sim.geometry t.disk) lba).cyl
  | Hosted { cylinder; _ } -> cylinder ()

(* Earlier submission wins ties, then lower tag. *)
let fifo_before a b =
  a.c_submitted < b.c_submitted
  || (a.c_submitted = b.c_submitted && a.c_tag < b.c_tag)

let pick_min before = function
  | [] -> invalid_arg "Disk_queue.pick: no eligible command"
  | c :: cs -> List.fold_left (fun best c -> if before c best then c else best) c cs

let pick t eligible =
  (* Background tags yield: they are considered only when no foreground
     command is eligible, so rebuild traffic never outranks a client. *)
  let eligible =
    match List.filter (fun c -> not c.c_background) eligible with
    | [] -> eligible
    | fg -> fg
  in
  match t.pol with
  | Fifo -> pick_min fifo_before eligible
  | Satf ->
    let keyed = List.map (fun c -> (cost t c, c)) eligible in
    let best =
      pick_min
        (fun (ca, a) (cb, b) -> ca < cb || (ca = cb && fifo_before a b))
        keyed
    in
    snd best
  | Elevator -> (
    (* C-SCAN: serve the smallest cylinder at or ahead of the head,
       wrapping to the lowest cylinder when the sweep runs out. *)
    let head = Disk_sim.current_cylinder t.disk in
    let keyed = List.map (fun c -> (cylinder_of t c, c)) eligible in
    let cyl_before (ca, a) (cb, b) = ca < cb || (ca = cb && fifo_before a b) in
    match List.filter (fun (cyl, _) -> cyl >= head) keyed with
    | [] -> snd (pick_min cyl_before keyed)
    | ahead -> snd (pick_min cyl_before ahead))

(* --- service ---------------------------------------------------------- *)

let finish t c outcome bd ~started =
  let finished = now t in
  let comp =
    {
      tag = c.c_tag;
      outcome;
      submitted = c.c_submitted;
      started;
      finished;
      queue_wait = started -. c.c_submitted;
      bd;
    }
  in
  t.queue <- List.filter (fun c' -> c'.c_tag <> c.c_tag) t.queue;
  t.done_rev <- (c.c_tag, comp) :: t.done_rev;
  t.n_completed <- t.n_completed + 1;
  let sink = Disk_sim.trace t.disk in
  Trace.observe sink "queue.wait" comp.queue_wait;
  Trace.incr sink "queue.completions";
  if c.c_background then Trace.incr sink "queue.background_completions";
  match c.c_owner with
  | None -> ()
  | Some o -> Trace.observe sink ("queue." ^ o ^ ".lat") (finished -. c.c_submitted)

(* In-flight failure policy for a transiently failed tag.  A hang (the
   stall probe yields a deadline) stalls just this tag behind the
   deadline so other tags dispatch meanwhile; a flaky drive (no
   deadline) retries with seeded exponential backoff when the queue was
   created with [retry_backoff].  Both are bounded twice over: at most
   [max_stall_retries] requeues per tag, and — when [stall_budget_ms]
   is set — the tag may never be pushed past its submission time plus
   the budget.  Exhausting either bound, or a non-transient error,
   completes the tag as [Failed]: escalation (suspect legs, failover)
   lives in the device layer above. *)
let requeue_or_fail t c (e : Disk_sim.media_error) bd ~started =
  let n = now t in
  let target =
    if not e.transient then None
    else
      match t.stall_probe () with
      | Some until -> Some (Float.max until n, `Stall)
      | None -> (
        match t.retry_backoff with
        | None -> None
        | Some base ->
          let mult = float_of_int (1 lsl min c.c_stalls 6) in
          let jitter =
            match t.retry_jitter with
            | None -> 1.
            | Some prng -> 0.75 +. Prng.float prng 0.5
          in
          Some (n +. (base *. mult *. jitter), `Retry))
  in
  let within_budget nb =
    match t.stall_budget_ms with
    | None -> true
    | Some budget -> nb -. c.c_submitted <= budget
  in
  match target with
  | Some (nb, counter) when c.c_stalls < t.max_stall_retries && within_budget nb
    ->
    c.c_not_before <- nb;
    c.c_stalls <- c.c_stalls + 1;
    let sink = Disk_sim.trace t.disk in
    (match counter with
    | `Stall ->
      t.n_stall_requeues <- t.n_stall_requeues + 1;
      Trace.incr sink "queue.stall_requeues"
    | `Retry ->
      t.n_retry_requeues <- t.n_retry_requeues + 1;
      Trace.incr sink "queue.retry_requeues")
  | _ -> finish t c (Failed e) bd ~started

let service t c =
  let started = now t in
  let d = depth t in
  if d > t.hw_depth then t.hw_depth <- d;
  Trace.observe (Disk_sim.trace t.disk) "queue.depth" (float_of_int d);
  match c.c_op with
  | Read { lba; sectors } -> (
    match Disk_sim.read_checked t.disk ~lba ~sectors with
    | Ok data, bd -> finish t c (Data data) bd ~started
    | Error e, bd -> requeue_or_fail t c e bd ~started)
  | Write { lba; buf } -> (
    match Disk_sim.write_checked t.disk ~lba buf with
    | Ok (), bd -> finish t c (Wrote lba) bd ~started
    | Error e, bd -> requeue_or_fail t c e bd ~started)
  | Hosted { service = run; _ } -> (
    (* The host layer above (volume leg, queued VLD write) runs its own
       retry/remap and failure policy inside [run]; a non-transient
       [Failed] outcome is final.  A {e transient} failure goes through
       the same stall/backoff machinery as native commands — the service
       closure runs again when the tag is re-dispatched. *)
    match run () with
    | Failed e, bd when e.transient -> requeue_or_fail t c e bd ~started
    | outcome, bd -> finish t c outcome bd ~started)

let step t =
  match t.queue with
  | [] -> false
  | q ->
    let n = now t in
    let eligible = List.filter (fun c -> ready_at c <= n) q in
    let eligible =
      match eligible with
      | _ :: _ -> eligible
      | [] ->
        (* idle: advance to the earliest arrival / stall deadline *)
        let t0 =
          List.fold_left (fun acc c -> Float.min acc (ready_at c)) infinity q
        in
        Clock.advance_to (clock t) t0;
        let n = now t in
        List.filter (fun c -> ready_at c <= n) q
    in
    service t (pick t eligible);
    true

let poll t =
  let cs = List.rev t.done_rev in
  t.done_rev <- [];
  cs

let drain t =
  let rec loop () = if step t then loop () in
  loop ();
  poll t

let stats t =
  {
    submitted = t.n_submitted;
    completed = t.n_completed;
    stall_requeues = t.n_stall_requeues;
    retry_requeues = t.n_retry_requeues;
    max_depth = t.hw_depth;
  }
