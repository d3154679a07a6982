open Vlog_util

type config = { shards : int; ops_per_tenant : int }

(* Four tenants, each offering 150 requests/s, on shards of 128 blocks
   mirrored over two VLD legs; every schedule and shard derives from one
   seed. *)
let tenants = 4
let rate_per_s = 150.
let blocks_per_shard = 128
let seed = 0x7e4a47L

type op = { o_tenant : int; o_at : float; o_block : int }

(* Namespace hash: splitmix64 finalizer over (tenant, request index).
   Stateless, so any node of a distributed front end routes a name to
   the same shard. *)
let shard_of ~shards ~tenant ~idx =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int (tenant + 1)) 0x9E3779B97F4A7C15L)
      (Int64.of_int idx)
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z 0x3FFFFFFFL) mod shards

let plan cfg =
  if cfg.shards < 1 then invalid_arg "Tenant.plan: need at least one shard";
  let buckets = Array.make cfg.shards [] in
  for t = 0 to tenants - 1 do
    let prng = Prng.create ~seed:(Int64.add seed (Int64.of_int ((t + 1) * 0x10001))) in
    let arrivals =
      Workload.Open_loop.arrivals ~prng ~process:Workload.Open_loop.Poisson ~rate_per_s
        ~start:0. cfg.ops_per_tenant
    in
    List.iteri
      (fun i at ->
        let s = shard_of ~shards:cfg.shards ~tenant:t ~idx:i in
        buckets.(s) <- { o_tenant = t; o_at = at; o_block = 0 } :: buckets.(s))
      arrivals
  done;
  Array.map
    (fun ops ->
      (* shard-local blocks from a per-shard counter: collision-free by
         construction, wrapping over the shard's capacity *)
      let next = ref 0 in
      List.rev ops
      |> List.stable_sort (fun a b -> compare a.o_at b.o_at)
      |> List.map (fun o ->
             let b = !next mod blocks_per_shard in
             incr next;
             { o with o_block = b }))
    buckets

type tenant_stats = {
  tenant : int;
  ops : int;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  tput_iops : float;
}

type fairness = { p99_ratio : float; tput_ratio : float }

type result = {
  per_tenant : tenant_stats list;
  fairness : fairness;
  elapsed_ms : float;
  total_ops : int;
  agg_iops : float;
}

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 4

let run_shard ?(trace = false) ~shard ops =
  let clock = Clock.create () in
  let sink = if trace then Trace.create ~clock () else Trace.null in
  let vol =
    Workload.Rig.volume ~trace:sink ~spare:false ~profile ~clock ~layout:(Volume.Mirror 2)
      ~leg_kind:Volume.Vld_leg ~logical_blocks:blocks_per_shard
      ~prng:(Prng.create ~seed:(Int64.add seed (Int64.of_int (shard * 17))))
      ()
  in
  let bs = Volume.block_bytes vol in
  let samples =
    List.map
      (fun o ->
        let buf = Bytes.make bs (Char.chr (Char.code 'a' + (o.o_tenant mod 26))) in
        let owner = "t" ^ string_of_int o.o_tenant in
        match Volume.write_result_at vol ~owner ~at:o.o_at o.o_block buf with
        | Ok _ -> (o.o_tenant, o.o_at, Clock.now clock -. o.o_at)
        | Error e ->
          failwith
            (Format.asprintf "Tenant.run_shard: write failed: %a"
               Blockdev.Device.pp_io_error e))
      ops
  in
  (samples, sink)

let summarize samples ~elapsed_ms =
  let per_tenant =
    List.init tenants (fun t ->
        let mine = List.filter (fun (t', _, _) -> t' = t) samples in
        let lats = List.map (fun (_, _, l) -> l) mine in
        let n = List.length lats in
        if n = 0 then
          {
            tenant = t;
            ops = 0;
            mean_ms = 0.;
            p50_ms = 0.;
            p99_ms = 0.;
            max_ms = 0.;
            tput_iops = 0.;
          }
        else
          let first =
            List.fold_left (fun a (_, at, _) -> Float.min a at) infinity mine
          in
          let last =
            List.fold_left
              (fun a (_, at, l) -> Float.max a (at +. l))
              neg_infinity mine
          in
          let span = if last > first then last -. first else elapsed_ms in
          {
            tenant = t;
            ops = n;
            mean_ms = Stats.mean lats;
            p50_ms = Stats.percentile 0.5 lats;
            p99_ms = Stats.percentile 0.99 lats;
            max_ms = List.fold_left Float.max 0. lats;
            tput_iops = (if span > 0. then float_of_int n /. span *. 1000. else 0.);
          })
  in
  let live = List.filter (fun s -> s.ops > 0) per_tenant in
  let ratio f =
    match live with
    | [] | [ _ ] -> 1.
    | _ ->
      let vs = List.map f live in
      let lo = List.fold_left Float.min infinity vs
      and hi = List.fold_left Float.max neg_infinity vs in
      if lo > 0. then hi /. lo else infinity
  in
  let total_ops = List.length samples in
  {
    per_tenant;
    fairness = { p99_ratio = ratio (fun s -> s.p99_ms); tput_ratio = ratio (fun s -> s.tput_iops) };
    elapsed_ms;
    total_ops;
    agg_iops =
      (if elapsed_ms > 0. then float_of_int total_ops /. elapsed_ms *. 1000. else 0.);
  }

let run cfg =
  let schedule = plan cfg in
  let samples =
    List.concat
      (List.init cfg.shards (fun s -> fst (run_shard ~shard:s schedule.(s))))
  in
  (* Shards are independent timelines running concurrently: the study's
     simulated span is the slowest shard's span. *)
  let elapsed_ms =
    List.fold_left (fun a (_, at, l) -> Float.max a (at +. l)) 0. samples
  in
  summarize samples ~elapsed_ms
