(** Latency-under-load curves: throughput and tail latency per
    (fs-style × queue depth × scheduling policy) under an open-loop
    arrival process.

    Each cell drives a random-small-write stream shaped like one of the
    three file systems' block placement — [ufs] updates random blocks in
    place, [lfs] appends sequentially, [vlfs] eager-writes through a
    real VLD with placed writes bound at dispatch — into a
    {!Disk.Disk_queue} capped at the cell's tagged-command depth.  The
    cell first measures its saturation throughput (closed backlog), then
    replays Poisson arrivals at multiples of the {e depth-1 FIFO}
    saturation rate of the same stream, reporting achieved throughput
    and p50/p99/p999 completion latency per offered load.  Everything is
    derived from the cell coordinates, so cells run as independent
    {!Suite} jobs with byte-identical output for any [--jobs]. *)

type fs = Ufs | Lfs | Vlfs

type cell = { fs : fs; depth : int; policy : Disk.Disk_queue.policy }

val cell_label : cell -> string

type row = {
  load : float;  (** offered-load multiplier of the depth-1 FIFO rate *)
  rate_ops_s : float;  (** offered arrival rate, requests per second *)
  throughput_ops_s : float;  (** achieved completion rate *)
  n : int;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
}

type result = {
  r_cell : cell;
  base_ops_s : float;  (** depth-1 FIFO saturation rate of this stream *)
  sat_ops_s : float;  (** saturation rate at the cell's depth and policy *)
  rows : row list;
}

val depths : int list
(** {[1; 4; 8; 16; 32]} at every scale. *)

val cells : scale:Rigs.scale -> cell list

val run_cell : ?seed:int -> scale:Rigs.scale -> cell -> result
(** [seed] (default 0) salts every derived PRNG seed of the cell. *)

val report : result list -> string * Vlog_util.Json.t
(** The rendered table, and one JSON object per (cell × row) with keys
    [fs], [policy], [depth], [load], [rate_ops_s], [throughput_ops_s],
    [n], [mean_ms], [p50_ms], [p99_ms], [p999_ms], [max_ms],
    [base_ops_s], [sat_ops_s]. *)
