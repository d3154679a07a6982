(* Host-side measurement helpers: wall-clock timers around calls into a
   layer, exact percentiles over recorded samples, GC deltas, and the
   stamped payloads every workload writes and verifies. *)

open Vlog_util

let wall = Unix.gettimeofday

(* Host CPU seconds of this single-threaded process: what the end-to-end
   host metrics use, so time the machine spends on other work does not
   count against the simulator. *)
let cpu = Sys.time

(* --- timers ---------------------------------------------------------- *)

(* Calls into one layer boundary: how many, the host seconds spent inside
   them and the simulated milliseconds they advanced the clock by. *)
type timer = { mutable calls : int; mutable host_s : float; mutable sim_ms : float }

let timer () = { calls = 0; host_s = 0.; sim_ms = 0. }
let snapshot t = { t with calls = t.calls }

let time t clock f =
  let h0 = wall () and s0 = Clock.now clock in
  let r = f () in
  t.calls <- t.calls + 1;
  t.host_s <- t.host_s +. (wall () -. h0);
  t.sim_ms <- t.sim_ms +. (Clock.now clock -. s0);
  r

(* Every boundary the traced run times from outside the program. *)
type probes = {
  fs_write : timer;
  mutable fs_write_in_dev_s : float;  (** blockdev host time inside fs writes *)
  fs_read : timer;
  fs_idle : timer;
  bd_write : timer;
  bd_read : timer;
  bd_idle : timer;
  mutable bd_retries : int;
  vol_batch : timer;
}

let probes () =
  {
    fs_write = timer ();
    fs_write_in_dev_s = 0.;
    fs_read = timer ();
    fs_idle = timer ();
    bd_write = timer ();
    bd_read = timer ();
    bd_idle = timer ();
    bd_retries = 0;
    vol_batch = timer ();
  }

let copy_probes p =
  {
    fs_write = snapshot p.fs_write;
    fs_write_in_dev_s = p.fs_write_in_dev_s;
    fs_read = snapshot p.fs_read;
    fs_idle = snapshot p.fs_idle;
    bd_write = snapshot p.bd_write;
    bd_read = snapshot p.bd_read;
    bd_idle = snapshot p.bd_idle;
    bd_retries = p.bd_retries;
    vol_batch = snapshot p.vol_batch;
  }

let dev_host_s p = p.bd_write.host_s +. p.bd_read.host_s

(* A file-system write, with the blockdev time spent inside it set aside
   so the file system's self time can be reported. *)
let time_fs_write p clock f =
  let d0 = dev_host_s p in
  let r = time p.fs_write clock f in
  p.fs_write_in_dev_s <- p.fs_write_in_dev_s +. (dev_host_s p -. d0);
  r

(* The device record a file system is formatted on, rebuilt over timed
   closures.  The queue front is re-derived with [Device.sync_queue], so
   the file system's submit-then-drain calls land in the timed closures;
   [trace], [trim] and [utilization] are the device's own. *)
let timed_device p clock (d : Blockdev.Device.t) =
  let tapped t completion f =
    let r = time t clock f in
    (match r with
    | Ok v -> p.bd_retries <- p.bd_retries + Io.counter (completion v) "retries"
    | Error (e : Blockdev.Device.io_error) -> p.bd_retries <- p.bd_retries + e.retries);
    r
  in
  let read b = tapped p.bd_read snd (fun () -> d.read b) in
  let read_run b n = tapped p.bd_read snd (fun () -> d.read_run b n) in
  let write b buf = tapped p.bd_write Fun.id (fun () -> d.write b buf) in
  let write_run b buf = tapped p.bd_write Fun.id (fun () -> d.write_run b buf) in
  let submit, poll, drain = Blockdev.Device.sync_queue ~read ~read_run ~write ~write_run in
  {
    d with
    read;
    read_run;
    write;
    write_run;
    submit;
    poll;
    drain;
    idle = (fun dt -> time p.bd_idle clock (fun () -> d.idle dt));
  }

(* --- samples and percentiles ------------------------------------------ *)

(* A fixed-capacity sample buffer, sized before the measured phase so
   recording a latency allocates nothing. *)
type samples = { v : float array; mutable n : int }

let samples cap = { v = Array.make (max 1 cap) 0.; n = 0 }

let record s x =
  s.v.(s.n) <- x;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.v 0 s.n in
  Array.sort Float.compare a;
  a

(* Percentile of a sorted, non-empty array.  Simulated latencies are
   quantised — to whole sector times, or to a fixed host cost — so the
   plain nearest-rank value sits on one step for long runs of ties and
   ignores a shift of part of the distribution within it.  The tied run
   holding the rank is therefore read as spread evenly over at most half
   a [tick] to each side (never past the midpoint to the neighbouring
   value, never below the minimum or above the maximum), and the rank is
   interpolated inside it.  With no ties this is the nearest-rank value
   up to half the gap to its neighbours. *)
let pct ~tick a p =
  let n = Array.length a in
  let r = p /. 100. *. float_of_int n in
  let i = max 0 (min (n - 1) (int_of_float (Float.ceil r) - 1)) in
  let v = a.(i) in
  let lo = ref i and hi = ref i in
  while !lo > 0 && a.(!lo - 1) = v do
    decr lo
  done;
  while !hi < n - 1 && a.(!hi + 1) = v do
    incr hi
  done;
  let below = if !lo = 0 then 0. else Float.min (tick /. 2.) ((v -. a.(!lo - 1)) /. 2.) in
  let above = if !hi = n - 1 then 0. else Float.min (tick /. 2.) ((a.(!hi + 1) -. v) /. 2.) in
  let run = float_of_int (!hi - !lo + 1) in
  let frac = Float.min 1. (Float.max 0. ((r -. float_of_int !lo) /. run)) in
  v -. below +. (frac *. (below +. above))

let sum s =
  let t = ref 0. in
  for i = 0 to s.n - 1 do
    t := !t +. s.v.(i)
  done;
  !t

(* --- GC ---------------------------------------------------------------- *)

type gc = { minor_w : float; promoted_w : float; major_w : float; minors : int; majors : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    minor_w = s.Gc.minor_words;
    promoted_w = s.Gc.promoted_words;
    major_w = s.Gc.major_words;
    minors = s.Gc.minor_collections;
    majors = s.Gc.major_collections;
  }

(* Words allocated anywhere, and words allocated in or promoted to the
   major heap, between two samples. *)
let allocated a b =
  (b.minor_w -. a.minor_w) +. (b.major_w -. a.major_w) -. (b.promoted_w -. a.promoted_w)

let major_allocated a b = b.major_w -. a.major_w

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* --- stamped payloads ---------------------------------------------------- *)

(* Each block written carries its own block number and a write sequence
   number in its first 16 bytes; the rest is a fixed filler.  A host-side
   shadow of the last sequence per block is what read-back compares
   against, so a lost, stale or misdirected write shows as a mismatch. *)
let filler = 'v'

let stamp buf ~pos ~block ~seq =
  Bytes.set_int64_le buf pos (Int64.of_int block);
  Bytes.set_int64_le buf (pos + 8) (Int64.of_int seq)

let payload bytes = Bytes.make bytes filler

let stamped_ok buf ~pos ~len ~block ~seq =
  Bytes.length buf >= pos + len
  && Int64.equal (Bytes.get_int64_le buf pos) (Int64.of_int block)
  && Int64.equal (Bytes.get_int64_le buf (pos + 8)) (Int64.of_int seq)
  &&
  let rec rest i = i >= pos + len || (Bytes.unsafe_get buf i = filler && rest (i + 1)) in
  rest (pos + 16)
