(** Simulated wall clock.

    All components of the simulator share one clock and advance it as they
    consume simulated time.  Time is a [float] count of milliseconds since
    the start of the run — the unit the paper reports latencies in. *)

type t = private { mutable now : float }
(** Readable in place: [c.now] is {!now} without boxing the result, for
    hot paths that must not allocate. *)

val create : unit -> t
(** A clock at time 0. *)

val now : t -> float
val advance : t -> float -> unit
(** [advance t dt] moves time forward by [dt] ms. Requires [dt >= 0.]. *)

val advance_to : t -> float -> unit
(** [advance_to t when_] moves time forward to [when_] if it is in the
    future; a [when_] in the past is a no-op (the event already fits). *)

val warp : t -> float -> unit
(** [warp t when_] repositions the clock at [when_], possibly in the
    past.  Unlike [advance]/[advance_to] a warp does not add to
    [advanced_total]: it repositions the timeline rather than consuming
    simulated time.  Meant for engines that simulate independently-timed
    devices (e.g. the spindles of a disk array) on one shared clock:
    park the clock at a device's dispatch instant, let the device
    advance it while servicing, record the finish, and warp to the next
    device's window. *)

val elapsed : t -> (unit -> 'a) -> 'a * float
(** Run a closure and report the simulated milliseconds it consumed. *)

val reset : t -> unit

val advanced_total : unit -> float
(** Simulated milliseconds consumed so far across every clock created in
    this process ([reset] does not subtract).  Monotone; meant for
    harnesses that report the simulated time a run consumed as a delta
    of two samples. *)
