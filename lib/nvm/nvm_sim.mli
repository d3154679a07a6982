(** Byte-addressable NVM device model.

    Models a small non-volatile memory (an NVDIMM region or a
    battery-backed controller buffer): loads and stores complete in the
    100ns–1µs range instead of the disk's milliseconds, bandwidth is
    memory-like, and persistence is split into two domains — a
    {e volatile front} (CPU caches / the memory controller's
    write-pending queue) whose contents a power cut can tear, and the
    persisted media behind it.  A store enters the volatile front at
    store speed; it is guaranteed to survive power loss only once a
    {!persist} barrier (CLWB+fence / ADR drain) has carried it across.

    Writes that overflow the volatile front drain oldest-first into the
    persisted image automatically (the ADR queue has finite depth), so
    the legally-losable window is bounded by
    [profile.volatile_front_bytes].

    All timing goes through the shared {!Vlog_util.Clock.t}, so NVM
    operations interleave on the same simulated timeline as the disks. *)

type profile = {
  size_bytes : int;  (** capacity of the region *)
  read_latency_ms : float;  (** fixed cost per load *)
  write_latency_ms : float;  (** fixed cost per store *)
  bandwidth_bytes_per_ms : float;  (** streaming transfer rate *)
  persist_latency_ms : float;  (** cost of a {!persist} barrier *)
  volatile_front_bytes : int;
      (** bytes of recently-stored data a power cut may tear *)
}

type t

val create : ?image:Bytes.t -> ?trace:Trace.sink -> clock:Vlog_util.Clock.t -> unit -> t
(** A fresh NVM region: an 8 MiB one with 300 ns loads, 700 ns stores,
    2 GB/s, a 500 ns persist barrier and a 16 KiB volatile front.
    It is zeroed unless [image] supplies existing persisted
    contents (e.g. a {!snapshot} taken at a simulated power failure; it
    is copied, and must be exactly [profile.size_bytes] long). *)

val profile : t -> profile
val clock : t -> Vlog_util.Clock.t
val size : t -> int

val read : t -> off:int -> len:int -> Bytes.t
(** Load [len] bytes at [off] from the merged view (volatile front over
    persisted media).  Charges load latency + transfer time. *)

val write : t -> off:int -> Bytes.t -> unit
(** Store the buffer at [off].  The data lands in the volatile front and
    is {e not} yet guaranteed durable; the store is visible to
    subsequent {!read}s immediately.  Charges store latency + transfer
    time, and auto-drains the oldest front entries into the persisted
    image when the front overflows. *)

val persist : t -> unit
(** Persistence barrier: every store made so far is on the persisted
    media when this returns.  This is the commit point an injected fault
    can strike — see {!injector}.  Charges the barrier latency. *)

val pending_bytes : t -> int
(** Bytes currently in the volatile front (stored, not yet persisted). *)

val snapshot : t -> Bytes.t
(** Copy of the persisted image {e only} — what a remount after power
    loss finds.  Volatile-front contents are absent, exactly as a real
    cut would leave them. *)

(** {2 Fault injection}

    Mirrors {!Disk.Disk_sim.injector}: a deterministic plan interposes
    on every {!persist} barrier.  Both faults raise
    {!Disk.Disk_sim.Power_cut} — tearing the volatile front only makes
    sense when the power actually dies. *)

type persist_fault =
  | Torn_persist of int
      (** power dies mid-drain: only the oldest [n] bytes of the
          volatile front reach the media, then {!Disk.Disk_sim.Power_cut} *)
  | Cut_before_persist
      (** power dies on the barrier boundary: nothing pending is
          persisted *)

type injector = { on_persist : pending_bytes:int -> persist_fault option }

val set_injector : t -> injector option -> unit

type stats = {
  nvm_reads : int;
  nvm_writes : int;
  bytes_read : int;
  bytes_written : int;
  persists : int;
  auto_drains : int;  (** front-overflow drains (writes persisted early) *)
}

val stats : t -> stats
