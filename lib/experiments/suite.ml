(* The bench suite as a parallel job plan.

   Every experiment is decomposed into one or more independent jobs,
   each returning a rendered payload; the whole run is one flat job list
   through [Par.map], so figures and cells from different experiments
   fill the worker pool together.  Sub-splittable experiments (fig8's
   utilization sweep, fig10/fig11's idle grids, the qdepth, array,
   array-faults and nvm studies) contribute one job per cell and a merge
   function that regroups cell results into the rendered tables and a
   JSON result; everything else is a single job rendering its own
   output.  Because every cell derives its state from its own
   coordinates (constant rig seeds, per-cell PRNGs), the merged output
   is byte-identical whatever [jobs] is. *)

open Vlog_util

type timing = {
  t_name : string;
  t_output : string;
  t_wall_s : float;
  t_elapsed_s : float;
  t_sim_ms : float;
  t_result : Json.t;
  t_failures : string list;
}

(* A plan is either one job rendering a table, or a fan-out whose typed
   merge returns the rendered text and the experiment's JSON result.
   ['r] is existential: it never crosses the module boundary, only the
   wire (where it is marshalled, so it must be closure-free data). *)
type plan =
  | Single of (unit -> string)
  | Split : {
      subs : (string * (unit -> 'r)) list;
      merge : 'r list -> string * Json.t;
    }
      -> plan

let render t = Table.render t

(* Jobs are labelled [name[cell]]; [grid] makes one job per cell. *)
let sub name (label, job) = (Printf.sprintf "%s[%s]" name label, job)
let grid name label run cells = List.map (fun c -> sub name (label c, fun () -> run c)) cells

let plan ?seed ~scale name : plan =
  let table (run : scale:Rigs.scale -> unit -> Table.t) =
    Single (fun () -> render (run ~scale ()))
  in
  match name with
  | "table1" -> table Table1.run
  | "fig1" -> table Fig1.run
  | "fig2" -> table Fig2.run
  | "fig6" -> table Fig6.run
  | "fig7" -> table Fig7.run
  | "fig8" ->
    let cells = Fig8.cells ~scale in
    Split
      {
        subs = grid name Fig8.cell_label (Fig8.run_cell ~scale) cells;
        merge =
          (fun points ->
            let pts = List.combine cells points in
            let cell (c, p) =
              Option.map
                (fun (p : Fig8.point) ->
                  Json.Obj
                    [
                      ("label", String (Fig8.cell_label c)); ("p50_ms", Float p.Fig8.p50_ms);
                      ("p99_ms", Float p.Fig8.p99_ms);
                    ])
                p
            in
            (render (Fig8.table_of (Fig8.collate pts)), Json.List (List.filter_map cell pts)));
      }
  | "table2" ->
    (* One measurement feeds both Table 2 and Figure 9. *)
    Single
      (fun () ->
        let rows = Tech_trends.series ~scale () in
        render (Tech_trends.table2_of rows) ^ "\n" ^ render (Tech_trends.fig9_of rows))
  | "fig10" | "fig11" ->
    let study = if name = "fig10" then Burst_idle.Lfs_nvram else Burst_idle.Ufs_vld in
    let cells = Burst_idle.cells ~scale study in
    Split
      {
        subs = grid name Burst_idle.cell_label (Burst_idle.run_cell ~scale study) cells;
        merge =
          (fun points ->
            ( render (Burst_idle.table_of study (Burst_idle.collate (List.combine cells points))),
              Json.Null ));
      }
  | "apps" -> table Apps.run
  | "vlfs" ->
    Single
      (fun () ->
        render (Vlfs_bench.sync_updates ~scale ())
        ^ "\n"
        ^ render (Vlfs_bench.buffered_small_files ~scale ())
        ^ "\n"
        ^ render (Vlfs_bench.recovery_cost ~scale ()))
  | "volume" -> table Volume_bench.run
  | "ablation-blocksize" -> table Ablations.block_size
  | "ablation-mapbatch" -> table Ablations.map_batching
  | "qdepth" ->
    Split
      {
        subs =
          grid name Qdepth.cell_label (Qdepth.run_cell ?seed ~scale) (Qdepth.cells ~scale);
        merge = Qdepth.report;
      }
  | "array" ->
    Split
      {
        subs = List.map (sub name) (Array_bench.jobs ?seed ~scale ());
        merge = Array_bench.report;
      }
  | "array-faults" ->
    Split
      {
        subs =
          grid name Array_bench.fault_mode_label
            (Array_bench.run_fault_mode ?seed ~scale)
            Array_bench.fault_modes;
        merge = Array_bench.fault_report;
      }
  | "nvm" ->
    Split
      {
        subs =
          grid name Nvm_bench.cell_label (Nvm_bench.run_cell ?seed ~scale)
            (Nvm_bench.cells ~scale);
        merge = Nvm_bench.report ~scale;
      }
  | other -> invalid_arg ("Suite.plan: unknown experiment " ^ other)

let names =
  [
    "table1"; "fig1"; "fig2"; "fig6"; "fig7"; "fig8"; "table2"; "fig10";
    "fig11"; "apps"; "vlfs"; "volume"; "ablation-blocksize";
    "ablation-mapbatch"; "qdepth"; "array"; "array-faults"; "nvm";
  ]

(* Type erasure at the job boundary: sub-results travel marshalled, and
   the typed merge is rebuilt on strings.  ['r] stays bound inside each
   match arm, so this needs no [Obj]. *)
type erased = {
  e_name : string;
  e_subs : (string * (unit -> string)) list;
  e_merge : string list -> string * Json.t;
}

let erase e_name = function
  | Single f ->
    {
      e_name;
      e_subs = [ (e_name, f) ];
      e_merge = (fun frags -> (String.concat "" frags, Json.Null));
    }
  | Split { subs; merge } ->
    {
      e_name;
      e_subs =
        List.map (fun (lbl, f) -> (lbl, fun () -> Marshal.to_string (f ()) [])) subs;
      e_merge = (fun frags -> merge (List.map (fun s -> Marshal.from_string s 0) frags));
    }

(* What one job ships back: payload plus its own compute and simulated
   time, measured in the worker so attribution survives the fan-out. *)
type job_out = { jo_payload : string; jo_elapsed_s : float; jo_sim_ms : float }

let run ?(jobs = 1) ?timeout_s ?(progress = fun ~completed:_ ~total:_ ~label:_ -> ())
    ?seed ~scale ~names:wanted () =
  let plans = List.map (fun n -> erase n (plan ?seed ~scale n)) wanted in
  let flat =
    List.concat
      (List.mapi
         (fun ei e -> List.map (fun (lbl, th) -> (ei, lbl, th)) e.e_subs)
         plans)
  in
  let total = List.length flat in
  let labels = Array.of_list (List.map (fun (_, lbl, _) -> lbl) flat) in
  let starts = Array.make total 0. in
  let dones = Array.make total 0. in
  let completed = ref 0 in
  let results =
    Par.map ?timeout_s ~jobs
      ~on_start:(fun i -> starts.(i) <- Unix.gettimeofday ())
      ~on_done:(fun i ->
        dones.(i) <- Unix.gettimeofday ();
        incr completed;
        progress ~completed:!completed ~total ~label:labels.(i))
      (fun (_, _, thunk) ->
        let t0 = Unix.gettimeofday () in
        let s0 = Clock.advanced_total () in
        let jo_payload = thunk () in
        {
          jo_payload;
          jo_elapsed_s = Unix.gettimeofday () -. t0;
          jo_sim_ms = Clock.advanced_total () -. s0;
        })
      flat
  in
  (* Regroup the flat results per experiment, in input order. *)
  let indexed = List.mapi (fun i ((ei, lbl, _), r) -> (i, ei, lbl, r)) (List.combine flat results) in
  List.mapi
    (fun ei e ->
      let mine = List.filter (fun (_, ei', _, _) -> ei' = ei) indexed in
      let failures =
        List.filter_map
          (fun (_, _, lbl, r) ->
            match r with
            | Ok _ -> None
            | Error (err : Par.error) ->
              Some (Printf.sprintf "%s: %s" lbl (Par.reason_to_string err.Par.reason)))
          mine
      in
      let oks = List.filter_map (fun (_, _, _, r) -> Result.to_option r) mine in
      let t_output, t_result =
        if failures = [] then e.e_merge (List.map (fun j -> j.jo_payload) oks)
        else
          ( Printf.sprintf "(%s: %d of %d jobs failed; no output)\n" e.e_name
              (List.length failures) (List.length mine),
            Json.Null )
      in
      let sum f = List.fold_left (fun a j -> a +. f j) 0. oks in
      let span =
        let idxs = List.map (fun (i, _, _, _) -> i) mine in
        match idxs with
        | [] -> 0.
        | _ ->
          let first = List.fold_left (fun a i -> Float.min a starts.(i)) infinity idxs in
          let last = List.fold_left (fun a i -> Float.max a dones.(i)) 0. idxs in
          Float.max 0. (last -. first)
      in
      {
        t_name = e.e_name;
        t_output;
        t_wall_s = span;
        t_elapsed_s = sum (fun j -> j.jo_elapsed_s);
        t_sim_ms = sum (fun j -> j.jo_sim_ms);
        t_result;
        t_failures = failures;
      })
    plans
