(* The process-parallel map: order preservation, degenerate shapes, and
   the failure paths (raised exception, wedged worker, worker that dies
   without delivering a frame) that the sweeps rely on for per-cell
   fault isolation. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let ok = function Ok v -> v | Error _ -> Alcotest.fail "expected Ok"

let err = function
  | Error (e : Par.error) -> e
  | Ok _ -> Alcotest.fail "expected Error"

(* --- order preservation and degenerate shapes --- *)

let test_order_preserved () =
  let items = List.init 23 Fun.id in
  let expect = List.map (fun i -> i * i) items in
  List.iter
    (fun jobs ->
      let got = Par.map ~jobs (fun i -> i * i) items |> List.map ok in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves input order" jobs)
        expect got)
    [ 1; 2; 4 ]

let test_empty_input () =
  List.iter
    (fun jobs ->
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d on [] is []" jobs)
        0
        (List.length (Par.map ~jobs (fun i -> i) [])))
    [ 1; 4 ]

let test_more_jobs_than_items () =
  let got = Par.map ~jobs:8 (fun i -> i + 1) [ 10; 20; 30 ] |> List.map ok in
  Alcotest.(check (list int)) "3 items on 8 workers" [ 11; 21; 31 ] got

(* --- failure isolation --- *)

let test_worker_exception () =
  List.iter
    (fun jobs ->
      let results =
        Par.map ~jobs
          (fun i -> if i = 1 then failwith "deliberate boom" else i)
          [ 0; 1; 2 ]
      in
      (match results with
      | [ Ok 0; Error e; Ok 2 ] ->
        Alcotest.(check int) "error carries its index" 1 e.Par.index;
        (match e.Par.reason with
        | Par.Exn msg ->
          Alcotest.(check bool)
            "exception text survives the pipe" true
            (contains ~needle:"deliberate boom" msg)
        | r -> Alcotest.failf "wrong reason: %s" (Par.reason_to_string r))
      | _ -> Alcotest.failf "unexpected shape at jobs=%d" jobs))
    [ 1; 2 ]

let test_worker_crash () =
  (* A worker that dies without writing its frame must surface as
     [Crashed], and must not disturb its neighbours. *)
  let results =
    Par.map ~jobs:2 (fun i -> if i = 1 then Unix._exit 3 else i) [ 0; 1; 2 ]
  in
  match results with
  | [ Ok 0; Error e; Ok 2 ] -> (
    Alcotest.(check int) "crash carries its index" 1 e.Par.index;
    match e.Par.reason with
    | Par.Crashed _ -> ()
    | r -> Alcotest.failf "wrong reason: %s" (Par.reason_to_string r))
  | _ -> Alcotest.fail "unexpected shape"

let test_timeout_kill () =
  let t0 = Unix.gettimeofday () in
  let results =
    Par.map ~jobs:2 ~timeout_s:0.5
      (fun i ->
        if i = 1 then
          while true do
            ignore (Sys.opaque_identity i)
          done;
        i)
      [ 0; 1; 2 ]
  in
  let span = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "wedged worker killed promptly (%.1fs)" span)
    true (span < 10.);
  match results with
  | [ Ok 0; Error e; Ok 2 ] -> (
    match e.Par.reason with
    | Par.Timeout _ -> ()
    | r -> Alcotest.failf "wrong reason: %s" (Par.reason_to_string r))
  | _ -> Alcotest.fail "unexpected shape"

(* --- parallel = sequential --- *)

let test_parallel_equals_sequential () =
  (* A job mixing success and failure: the full result list, errors
     included, must be identical between the in-process and the forked
     paths. *)
  let f i = if i mod 5 = 3 then failwith "planned" else i * 7 in
  let seq = Par.map ~jobs:1 f (List.init 17 Fun.id) in
  let par = Par.map ~jobs:3 f (List.init 17 Fun.id) in
  List.iteri
    (fun i (s, p) ->
      match (s, p) with
      | Ok a, Ok b -> Alcotest.(check int) (Printf.sprintf "item %d" i) a b
      | Error a, Error b ->
        Alcotest.(check int) "same index" a.Par.index b.Par.index;
        Alcotest.(check string) "same reason"
          (Par.reason_to_string a.Par.reason)
          (Par.reason_to_string b.Par.reason)
      | _ -> Alcotest.failf "item %d: Ok/Error disagree across paths" i)
    (List.combine seq par)

let test_progress_hooks () =
  let started = ref [] and done_ = ref [] in
  let results =
    Par.map ~jobs:2
      ~on_start:(fun i -> started := i :: !started)
      ~on_done:(fun i -> done_ := i :: !done_)
      (fun i -> i)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "all ok" 4 (List.length (List.filter_map Result.to_option results));
  Alcotest.(check (list int)) "every item started" [ 0; 1; 2; 3 ]
    (List.sort compare !started);
  Alcotest.(check (list int)) "every item finished" [ 0; 1; 2; 3 ]
    (List.sort compare !done_)

(* --- the sweeps through the harness --- *)

open Check

(* One harness test set, run over every sweep. *)
type sweep = Sweep : string * ('c, 'cell) Cells.sweep * 'c -> sweep

let smoke =
  [
    Sweep ("fault", Vld_sweep.sweep, Vld_sweep.smoke);
    Sweep ("fs", Fs_sweep.sweep, Fs_sweep.smoke);
    Sweep ("array", Array_sweep.sweep, Array_sweep.smoke);
  ]

let defaults =
  [
    Sweep ("fault", Vld_sweep.sweep, Vld_sweep.default);
    Sweep ("fs", Fs_sweep.sweep, Fs_sweep.default);
    Sweep ("array", Array_sweep.sweep, Array_sweep.default);
  ]

let jobs_invariant (Sweep (_, s, c)) () =
  let o1 = Cells.run ~jobs:1 s c in
  let o2 = Cells.run ~jobs:2 s c in
  Alcotest.(check int) "every cell judged"
    (List.length (Cells.cells s c))
    o1.Cells.cells;
  Alcotest.(check bool) "jobs=2 = jobs=1" true (o1 = o2)

(* Order-independent seeding (the property that justifies fanning out):
   every cell's outcome must be the same whether the matrix runs
   forward or reversed.  A cell that leaked PRNG state to its successor
   would diverge here. *)
let order_independent (Sweep (_, s, c)) () =
  let cells = Cells.cells s c in
  let forward = List.map (Cells.judge s c) cells in
  let reversed = List.rev_map (Cells.judge s c) (List.rev cells) in
  Alcotest.(check bool) "reversed execution, identical outcomes" true
    (forward = reversed)

(* A cell's coordinates as its repro spec. *)
let printed s c cell =
  Cells.repro_of_failure
    { Cells.coords = List.combine s.Cells.keys (s.Cells.coords c cell);
      message = "" }

(* A sweep whose cells crash or wedge must degrade those cells to
   structured failures with live repro coordinates and keep going. *)
let test_sweep_survives_crashing_cells () =
  List.iter
    (fun (Sweep (name, s, c)) ->
      let cells = Cells.cells s c in
      let crash = List.nth cells 1 and wedge = List.nth cells 2 in
      let judge _c cell _log =
        if cell = crash then failwith "deliberate crash"
        else if cell = wedge then (
          while true do
            ignore (Sys.opaque_identity cell)
          done;
          assert false)
        else
          { Cells.tallies = List.map (fun _ -> 0) s.Cells.tallies;
            verdict = "ok" }
      in
      let o = Cells.run ~jobs:2 ~timeout_s:0.5 { s with judge } c in
      Alcotest.(check int)
        (name ^ ": every cell accounted for")
        (List.length cells) o.Cells.cells;
      (match o.Cells.failures with
      | [ f1; f2 ] ->
        (* The repro string must parse back to the failing cell. *)
        List.iter
          (fun (f, cell, needle) ->
            Alcotest.(check bool)
              (name ^ ": repro names the planted cell")
              true
              (Cells.parse_repro s c (Cells.repro_of_failure f)
              = Ok (c, cell));
            Alcotest.(check bool)
              (Printf.sprintf "%s: %S reported" name needle)
              true
              (contains ~needle f.Cells.message))
          [ (f1, crash, "deliberate crash"); (f2, wedge, "timed out") ]
      | fs ->
        Alcotest.failf "%s: %d failures, expected two" name (List.length fs));
      Alcotest.(check int)
        (name ^ ": planted cells are failed verdicts")
        2
        (List.length
           (List.filter (fun (_, v) -> v = "failed") o.Cells.verdicts)))
    smoke

(* Every cell of every default matrix survives the print/parse cycle: a
   cell whose coordinates do not roundtrip cannot be reproduced from a CI
   failure line. *)
let test_repro_roundtrip () =
  List.iter
    (fun (Sweep (name, s, c)) ->
      List.iter
        (fun cell ->
          let spec = printed s c cell in
          match Cells.parse_repro s c spec with
          | Ok back ->
            if back <> (c, cell) then
              Alcotest.failf "%s: repro %S did not roundtrip" name spec
          | Error e -> Alcotest.failf "%s: repro %S did not parse: %s" name spec e)
        (Cells.cells s c))
    defaults

(* A misspelled key must be an error, never a silently ignored field. *)
let test_misspelled_key_rejected () =
  List.iter
    (fun (Sweep (name, s, c)) ->
      let spec =
        String.concat ","
          (List.map
             (fun kv -> if String.sub kv 0 5 = "seed=" then "sed=1" else kv)
             (String.split_on_char ',' (printed s c (List.hd (Cells.cells s c)))))
      in
      match Cells.parse_repro s c spec with
      | Ok _ -> Alcotest.failf "%s accepted %S" name spec
      | Error _ -> ())
    defaults

let suites =
  let tc = Alcotest.test_case in
  [
    ( "par:pool",
      [
        tc "results come back in input order" `Quick test_order_preserved;
        tc "empty input" `Quick test_empty_input;
        tc "more workers than items" `Quick test_more_jobs_than_items;
        tc "raised exception becomes a structured error" `Quick
          test_worker_exception;
        tc "worker crash is isolated" `Quick test_worker_crash;
        tc "wedged worker is killed on timeout" `Quick test_timeout_kill;
        tc "parallel results equal sequential" `Quick
          test_parallel_equals_sequential;
        tc "progress hooks fire once per item" `Quick test_progress_hooks;
      ] );
    ( "par:sweeps",
      List.concat_map
        (fun (Sweep (name, _, _) as sw) ->
          [
            tc (name ^ " sweep is jobs-invariant") `Quick (jobs_invariant sw);
            tc (name ^ " cells are order-independent") `Quick
              (order_independent sw);
          ])
        smoke
      @ [
          tc "crashing and wedged cells degrade to repro failures" `Quick
            test_sweep_survives_crashing_cells;
          tc "repro coordinates roundtrip over every default matrix" `Quick
            test_repro_roundtrip;
          tc "misspelled repro key is rejected by every sweep" `Quick
            test_misspelled_key_rejected;
        ] );
  ]
