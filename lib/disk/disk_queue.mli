(** Tagged command queueing over {!Disk_sim}: the drive-side half of the
    async disk core.

    A queue holds many outstanding commands, each identified by a small
    integer {e tag}.  Commands arrive with a timestamp (possibly in the
    simulated future — an open-loop arrival process submits its whole
    schedule up front), the drive picks the next one to service according
    to its scheduling {!policy}, and the event loop advances the shared
    {!Vlog_util.Clock.t} to the next arrival whenever the queue goes
    idle.  Servicing itself reuses the synchronous {!Disk_sim} mechanics
    unchanged — seek, rotation, transfer and fault injection are exactly
    the depth-1 model — so a queue run at depth 1 is byte-identical to
    calling {!Disk_sim.read}/{!Disk_sim.write} directly.

    {2 Scheduling policies}

    - [Fifo]: strict arrival order (ties broken by tag).
    - [Elevator]: C-SCAN — serve the eligible command with the smallest
      cylinder at or ahead of the head in the sweep direction, wrapping
      to the lowest cylinder when the sweep runs out.
    - [Satf]: shortest access time first — the in-drive scheduler the
      paper's programmable disk enables.  Every eligible command is
      priced with {!Disk_sim.estimate_access} (positioning + rotation +
      transfer from the head's position {e now}) and the cheapest wins.
      [Hosted] commands price themselves through their [cost] callback
      (for a VLD write placed at dispatch, the eager allocator's own
      cost model).

    {2 Tag lifecycle}

    [submit] → pending → (dispatch, service) → completed → [poll].
    Each tag completes exactly once; {!poll} hands completions to the
    host in completion order and forgets them.  A command whose service
    attempt fails transiently {e while the stall probe reports the drive
    hanging} is re-queued with a [not_before] deadline instead of
    completing, so one hung tag stalls only itself — other tags keep
    dispatching around it. *)

type policy = Fifo | Elevator | Satf

val policy_to_string : policy -> string

type outcome =
  | Data of Bytes.t  (** read payload *)
  | Wrote of int
      (** write done; the lba ([Write]) or physical block ([Hosted])
          it landed on *)
  | Failed of Disk_sim.media_error

type op =
  | Read of { lba : int; sectors : int }
  | Write of { lba : int; buf : Bytes.t }
  | Hosted of {
      cost : unit -> float;
          (** pure preview of the mechanical cost if dispatched now — the
              SATF comparator; must not move the head or advance time *)
      cylinder : unit -> int;  (** target cylinder for the elevator *)
      service : unit -> outcome * Vlog_util.Breakdown.t;
          (** perform the command now, advancing the shared clock.  Runs
              the host layer's own retry/remap/failure policy; a
              non-transient [Failed] outcome is final, while a transient
              one goes through the queue's stall/backoff machinery like
              any native command (the closure runs again on
              re-dispatch). *)
    }
      (** A host-defined command: the full device-level logic of a volume
          leg (VLD placement + map commit, regular-disk remap), or a VLD
          write placed at dispatch time, runs as a schedulable tagged
          command. *)

type completion = {
  tag : int;
  outcome : outcome;
  submitted : float;  (** arrival time (ms, simulated) *)
  started : float;  (** dispatch time of the attempt that completed *)
  finished : float;
  queue_wait : float;  (** [started - submitted]: time spent queued *)
  bd : Vlog_util.Breakdown.t;  (** mechanical cost of the final attempt *)
}

type t

val create :
  ?policy:policy ->
  ?stall_probe:(unit -> float option) ->
  ?max_stall_retries:int ->
  ?retry_backoff:float ->
  ?retry_jitter:Vlog_util.Prng.t ->
  ?stall_budget_ms:float ->
  disk:Disk_sim.t ->
  unit ->
  t
(** [policy] defaults to [Fifo].  [stall_probe] reports the absolute
    deadline until which the drive is hanging ([None] = not hanging);
    a transiently-failed service attempt while hanging re-queues the tag
    with [not_before] = that deadline instead of completing it.
    [max_stall_retries] (default 64) bounds the re-queues of one tag
    before it completes as [Failed].

    [retry_backoff] (off by default) arms seeded retry-with-backoff for
    transient failures the stall probe does {e not} claim (a flaky
    drive, not a hanging one): the tag is re-queued [base * 2^attempt]
    ms out, the exponent capped at 6, multiplied by a deterministic
    jitter factor in [0.75, 1.25) drawn from [retry_jitter] when given.
    [stall_budget_ms] is the per-op stall budget: a requeue (stall or
    retry) that would push the tag past [submitted + budget] instead
    completes it as [Failed], so no tag can be parked unboundedly even
    while the drive keeps hanging.  The queue observes queue-wait and
    depth through the disk's trace sink. *)

val policy : t -> policy
val disk : t -> Disk_sim.t

val submit : ?at:float -> ?background:bool -> ?owner:string -> t -> op -> int
(** Enqueue a command and return its tag.  [at] (default now) is the
    arrival timestamp; it may lie in the simulated future (open-loop
    arrivals) but not in the past.  [background] (default false) marks a
    low-priority tag: it dispatches only when no foreground command is
    eligible (rebuild copies, scrubbing).  [owner] is a latency tag: each
    completion of a tagged command feeds its submit-to-completion time
    into the [queue.<owner>.lat] histogram of the disk's trace sink, so
    a study measures only the commands it tags (untagged prefill stays
    out). *)

val pending : t -> int
(** Commands submitted but not yet completed (queued or stalled). *)

val depth : t -> int
(** Commands whose arrival time has been reached but which have not yet
    completed — the queue depth a host would observe now. *)

val step : t -> bool
(** Service exactly one command: if none is eligible now, first advance
    the clock to the earliest arrival / stall deadline.  Returns [false]
    when the queue is empty (nothing pending at any time). *)

val poll : t -> (int * completion) list
(** Completions since the last poll, in completion order.  Each tag is
    reported exactly once. *)

val drain : t -> (int * completion) list
(** Barrier: {!step} until nothing is pending, then {!poll}. *)

type stats = {
  submitted : int;
  completed : int;
  stall_requeues : int;  (** service attempts re-queued by the stall probe *)
  retry_requeues : int;
      (** service attempts re-queued by [retry_backoff] (flaky-drive
          retries, as opposed to hang stalls) *)
  max_depth : int;  (** high-water mark of {!depth} at dispatch points *)
}

val stats : t -> stats
