(* Randomized differential tests.

   {!Branch_bound} at one worker vs the frozen sequential loop
   ({!Reference_bb}) bit for bit, and across worker counts on status and
   objective; presolved vs raw solves; and end-to-end floorplans
   re-checked by the independent {!Rfloor_analysis.Solution_audit}.
   Every failure message leads with the case seed: re-export it as
   RFLOOR_TEST_SEED to replay the exact instance. *)

open Milp
module G = Generators
module Bb = Branch_bound
module Ref_bb = Reference_bb

let status_name = function
  | Bb.Optimal -> "Optimal"
  | Bb.Feasible -> "Feasible"
  | Bb.Infeasible -> "Infeasible"
  | Bb.Unbounded -> "Unbounded"
  | Bb.Unknown -> "Unknown"

(* Both solvers prune within the relative MIP gap (default 1e-6), so on
   these O(100)-objective instances agreement must be far tighter than
   this. *)
let obj_tol = 1e-4

let check_incumbent ~seed ~what lp (obj, x) =
  (match Lp.validate lp x with
  | Ok () -> ()
  | Error m -> Alcotest.failf "seed %d: %s incumbent infeasible: %s" seed what m);
  let v = Lp.objective_value lp x in
  if Float.abs (v -. obj) > 1e-6 *. Float.max 1. (Float.abs v) then
    Alcotest.failf "seed %d: %s reports objective %g but its assignment evaluates to %g"
      seed what obj v

let check_case seed =
  let case = G.milp_case ~seed in
  let lp = case.G.c_lp in
  let seq = Ref_bb.solve lp in
  (* known-optimal families: the sequential solver must hit the optimum *)
  (match (case.G.c_optimum, seq.Bb.status, seq.Bb.incumbent) with
  | Some opt, Bb.Optimal, Some (obj, _) ->
    if Float.abs (obj -. opt) > obj_tol then
      Alcotest.failf "seed %d (%s): sequential objective %.6f, known optimum %.6f"
        seed case.G.c_family obj opt
  | Some opt, st, _ ->
    Alcotest.failf "seed %d (%s): expected Optimal (optimum %.6f), sequential says %s"
      seed case.G.c_family opt (status_name st)
  | None, _, _ -> ());
  Option.iter (check_incumbent ~seed ~what:"sequential" lp) seq.Bb.incumbent;
  List.iter
    (fun w ->
      let par = Bb.solve ~workers:w lp in
      if par.Bb.status <> seq.Bb.status then
        Alcotest.failf "seed %d (%s): status differs with %d workers: sequential %s, parallel %s"
          seed case.G.c_family w (status_name seq.Bb.status) (status_name par.Bb.status);
      (match (seq.Bb.incumbent, par.Bb.incumbent) with
      | Some (a, _), Some (b, _) ->
        if Float.abs (a -. b) > obj_tol then
          Alcotest.failf "seed %d (%s): objective differs with %d workers: %.6f vs %.6f"
            seed case.G.c_family w a b
      | None, None -> ()
      | Some _, None ->
        Alcotest.failf "seed %d (%s): parallel (%d workers) lost the incumbent"
          seed case.G.c_family w
      | None, Some _ ->
        Alcotest.failf
          "seed %d (%s): parallel (%d workers) found an incumbent the sequential solver missed"
          seed case.G.c_family w);
      Option.iter
        (check_incumbent ~seed ~what:(Printf.sprintf "parallel(%d workers)" w) lp)
        par.Bb.incumbent)
    (G.worker_counts ())

let test_seq_vs_parallel () =
  let base = G.base_seed () in
  for i = 0 to 199 do
    check_case (G.case_seed base i)
  done

let test_presolve_differential () =
  let base = G.base_seed () in
  for i = 0 to 99 do
    let seed = G.case_seed base (1_000 + i) in
    let case = G.milp_case ~seed in
    let raw = Bb.solve case.G.c_lp in
    let tightened = Lp.copy case.G.c_lp in
    match Presolve.tighten tightened with
    | Presolve.Proven_infeasible ->
      if raw.Bb.status <> Bb.Infeasible then
        Alcotest.failf "seed %d (%s): presolve proved infeasibility but raw solve says %s"
          seed case.G.c_family (status_name raw.Bb.status)
    | Presolve.Tightened _ -> (
      let cooked = Bb.solve tightened in
      if cooked.Bb.status <> raw.Bb.status then
        Alcotest.failf "seed %d (%s): presolve changed status: raw %s, tightened %s"
          seed case.G.c_family (status_name raw.Bb.status) (status_name cooked.Bb.status);
      match (raw.Bb.incumbent, cooked.Bb.incumbent) with
      | Some (a, _), Some (b, _) ->
        if Float.abs (a -. b) > obj_tol then
          Alcotest.failf "seed %d (%s): presolve changed objective: raw %.6f, tightened %.6f"
            seed case.G.c_family a b
      | None, None -> ()
      | _ ->
        Alcotest.failf "seed %d (%s): presolve changed incumbent presence" seed
          case.G.c_family)
  done

(* ------------------------------------------------------------------ *)
(* Sparse revised simplex vs the frozen dense reference, and the
   warm-start path vs cold re-solves.

   [Reference_simplex] is the pre-sparse dense-tableau solver kept in
   test/ as an oracle; it shares no code with the live [Simplex].
   RFLOOR_SIMPLEX_DIFF scales the instance count (default 200, which
   bin/lint.sh simplex-check runs at three seeds). *)

module Ref = Reference_simplex

let simplex_diff_count () =
  match Sys.getenv_opt "RFLOOR_SIMPLEX_DIFF" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> 200)
  | None -> 200

let ref_status_name = function
  | Ref.Optimal -> "Optimal"
  | Ref.Infeasible -> "Infeasible"
  | Ref.Unbounded -> "Unbounded"
  | Ref.Iter_limit -> "Iter_limit"

let lp_status_name = function
  | Simplex.Optimal -> "Optimal"
  | Simplex.Infeasible -> "Infeasible"
  | Simplex.Unbounded -> "Unbounded"
  | Simplex.Iter_limit -> "Iter_limit"

let test_sparse_vs_reference () =
  let base = G.base_seed () in
  for i = 0 to simplex_diff_count () - 1 do
    let seed = G.case_seed base (5_000 + i) in
    let case = G.milp_case ~seed in
    let lp = case.G.c_lp in
    let old_r = Ref.solve lp in
    let new_r = Simplex.solve lp in
    if ref_status_name old_r.Ref.status <> lp_status_name new_r.Simplex.status
    then
      Alcotest.failf "seed %d (%s): LP status differs: reference %s, sparse %s"
        seed case.G.c_family
        (ref_status_name old_r.Ref.status)
        (lp_status_name new_r.Simplex.status);
    match old_r.Ref.status with
    | Ref.Optimal ->
      let a = old_r.Ref.objective and b = new_r.Simplex.objective in
      if Float.abs (a -. b) > 1e-6 *. Float.max 1. (Float.abs a) then
        Alcotest.failf
          "seed %d (%s): LP objective differs: reference %.9f, sparse %.9f"
          seed case.G.c_family a b
    | _ -> ()
  done

(* Branch-style child re-solves: tighten one variable bound off the
   root optimum (exactly what B&B does) and pin the warm dual re-solve
   against a cold solve of the same child. *)
let test_warm_child_resolves () =
  let base = G.base_seed () in
  let checked = ref 0 in
  for i = 0 to simplex_diff_count () - 1 do
    let seed = G.case_seed base (6_000 + i) in
    let case = G.milp_case ~seed in
    let lp = case.G.c_lp in
    let core = Simplex.Core.of_lp lp in
    let n = Simplex.Core.num_vars core in
    let root, basis = Simplex.Core.solve_warm core in
    match (root.Simplex.status, basis) with
    | Simplex.Optimal, Some parent when n > 0 ->
      let prng = G.Prng.make (seed + 17) in
      let v = G.Prng.int prng n in
      let fl = Float.round (floor (root.Simplex.x.(v) +. 1e-6)) in
      let root_lb = Array.init n (fun j -> Lp.var_lb lp j) in
      let root_ub = Array.init n (fun j -> Lp.var_ub lp j) in
      let children =
        [
          ( "down",
            root_lb,
            Array.init n (fun j ->
                if j = v then Float.min root_ub.(j) fl else root_ub.(j)) );
          ( "up",
            Array.init n (fun j ->
                if j = v then Float.max root_lb.(j) (fl +. 1.) else root_lb.(j)),
            root_ub );
        ]
      in
      List.iter
        (fun (tag, lb, ub) ->
          let cold = Simplex.Core.solve ~lb ~ub core in
          let wr, _ = Simplex.Core.solve_warm ~lb ~ub ~warm:parent core in
          incr checked;
          if lp_status_name cold.Simplex.status
             <> lp_status_name wr.Simplex.status
          then
            Alcotest.failf
              "seed %d (%s, %s child): cold status %s, warm status %s" seed
              case.G.c_family tag
              (lp_status_name cold.Simplex.status)
              (lp_status_name wr.Simplex.status);
          match cold.Simplex.status with
          | Simplex.Optimal ->
            let a = cold.Simplex.objective and b = wr.Simplex.objective in
            if Float.abs (a -. b) > 1e-6 *. Float.max 1. (Float.abs a) then
              Alcotest.failf
                "seed %d (%s, %s child): cold objective %.9f, warm %.9f" seed
                case.G.c_family tag a b
          | _ -> ())
        children
    | _ -> ()
  done;
  Alcotest.(check bool) "some warm child re-solves exercised" true (!checked > 0)

(* Whole-tree cold-vs-warm: disabling warm starts must not change what
   any solver configuration returns, the frozen sequential loop or the
   engine across the worker matrix. *)
let test_cold_vs_warm_bb () =
  let base = G.base_seed () in
  let cold_opts = { Bb.default_options with Bb.warm_lp = false } in
  for i = 0 to (simplex_diff_count () / 2) - 1 do
    let seed = G.case_seed base (7_000 + i) in
    let case = G.milp_case ~seed in
    let lp = case.G.c_lp in
    let warm = Ref_bb.solve lp in
    let cold = Ref_bb.solve ~options:cold_opts lp in
    let check_pair what a b =
      if a.Bb.status <> b.Bb.status then
        Alcotest.failf "seed %d (%s): %s: warm status %s, cold status %s" seed
          case.G.c_family what (status_name a.Bb.status)
          (status_name b.Bb.status);
      match (a.Bb.incumbent, b.Bb.incumbent) with
      | Some (oa, _), Some (ob, _) ->
        if Float.abs (oa -. ob) > obj_tol then
          Alcotest.failf "seed %d (%s): %s: warm objective %.6f, cold %.6f"
            seed case.G.c_family what oa ob
      | None, None -> ()
      | _ ->
        Alcotest.failf "seed %d (%s): %s: incumbent presence differs" seed
          case.G.c_family what
    in
    check_pair "sequential" warm cold;
    Option.iter (check_incumbent ~seed ~what:"cold sequential" lp)
      cold.Bb.incumbent;
    List.iter
      (fun w ->
        let pw = Bb.solve ~workers:w lp in
        let pc = Bb.solve ~workers:w ~options:cold_opts lp in
        check_pair (Printf.sprintf "parallel(%d) warm vs seq warm" w) warm pw;
        check_pair (Printf.sprintf "parallel(%d) warm vs cold" w) pw pc)
      (G.worker_counts ())
  done

let test_generated_partitions_properties () =
  let base = G.base_seed () in
  for i = 0 to 49 do
    let seed = G.case_seed base (3_000 + i) in
    let part = G.random_partition (G.Prng.make seed) in
    if not (Device.Partition.check_adjacent_types_differ part) then
      Alcotest.failf "seed %d: generated partition violates Property .3" seed;
    if not (Device.Partition.check_ordered part) then
      Alcotest.failf "seed %d: generated partition violates Property .4" seed;
    if not (Device.Partition.check_cover_disjoint part) then
      Alcotest.failf "seed %d: generated portions do not tile the device" seed
  done

(* End-to-end: solve randomized specs (alternating sequential / 2-worker
   and feasibility-only / lexicographic), then re-audit every decoded
   plan with the solver-independent checker. *)
let test_random_floorplans_audit () =
  let base = G.base_seed () in
  let solved = ref 0 in
  for i = 0 to 11 do
    let seed = G.case_seed base (2_000 + i) in
    let prng = G.Prng.make seed in
    let part = G.random_partition prng in
    let spec = G.random_spec prng part in
    let options =
      {
        Rfloor.Solver.default_options with
        objective_mode =
          (if i mod 2 = 0 then Rfloor.Solver.Feasibility_only
           else Rfloor.Solver.Lexicographic);
        time_limit = Some 20.;
        strategy =
          Rfloor.Solver.Strategy.milp
            ~workers:(if i mod 2 = 0 then 2 else 1)
            ();
      }
    in
    let out = Rfloor.Solver.solve ~options part spec in
    match out.Rfloor.Solver.plan with
    | None -> ()
    | Some plan ->
      incr solved;
      let ds = Rfloor_analysis.Solution_audit.run part spec plan in
      if Rfloor_diag.Diagnostic.has_errors ds then
        Alcotest.failf "seed %d: decoded floorplan fails the audit:@.%s" seed
          (Format.asprintf "%a" Rfloor_diag.Diagnostic.pp_report ds)
  done;
  Alcotest.(check bool) "at least one random spec solved" true (!solved > 0)

(* Satellite: parallel wall clock should not exceed sequential on a
   harder instance — a soft check (logged, not failed) because single-
   core CI hosts cannot show a gain.  Objective agreement stays hard. *)
let test_parallel_elapsed_soft () =
  let seed = G.base_seed () in
  let lp = G.hard_knapsack ~seed in
  let opts = { Bb.default_options with time_limit = Some 30. } in
  let seq = Bb.solve ~options:opts lp in
  let par = Bb.solve ~options:opts ~workers:4 lp in
  (match (seq.Bb.status, par.Bb.status, seq.Bb.incumbent, par.Bb.incumbent) with
  | Bb.Optimal, Bb.Optimal, Some (a, _), Some (b, _) ->
    if Float.abs (a -. b) > obj_tol then
      Alcotest.failf "seed %d: hard knapsack objective differs: %.6f vs %.6f" seed a b
  | _ -> ());
  if par.Bb.elapsed > seq.Bb.elapsed then
    Printf.eprintf
      "[soft] parallel (4 workers) %.3fs vs sequential %.3fs on hard knapsack seed %d — logged, not failed (host exposes %d core(s))\n%!"
      par.Bb.elapsed seq.Bb.elapsed seed
      (Domain.recommended_domain_count ());
  Alcotest.(check bool) "parallel elapsed is wall time >= 0" true (par.Bb.elapsed >= 0.)

(* Tentpole: the event stream must cohere with the solver's own
   counters.  For workers in {1, 2, 4}, capture every event in a ring
   buffer and check that (a) Node_explored events sum to result.nodes,
   (b) per-worker event counts match the report's per-worker totals,
   (c) every span opened by a worker is closed, and (d) the report's
   headline totals equal the legacy result fields. *)
let test_trace_coherence () =
  let seed = G.case_seed (G.base_seed ()) 4_000 in
  let lp = (G.milp_case ~seed).G.c_lp in
  List.iter
    (fun workers ->
      let ring = Rfloor_trace.Ring.create () in
      let tracer = Rfloor_trace.create ~sink:(Rfloor_trace.Ring.sink ring) () in
      let opts =
        { Bb.default_options with trace = tracer; node_limit = Some 2_000 }
      in
      let r = Bb.solve ~options:opts ~workers lp in
      let report =
        Rfloor_trace.report tracer ~nodes:r.Bb.nodes
          ~simplex_iterations:r.Bb.simplex_iterations ~elapsed:r.Bb.elapsed
      in
      let events = Rfloor_trace.Ring.events ring in
      Alcotest.(check int)
        (Printf.sprintf "no dropped events (%d workers)" workers)
        0
        (Rfloor_trace.Ring.dropped ring);
      (* (a) node events vs solver counter *)
      let node_events_of w =
        List.length
          (List.filter
             (fun (e : Rfloor_trace.Event.t) ->
               (w = None || Some e.Rfloor_trace.Event.worker = w)
               &&
               match e.Rfloor_trace.Event.payload with
               | Rfloor_trace.Event.Node_explored _ -> true
               | _ -> false)
             events)
      in
      Alcotest.(check int)
        (Printf.sprintf "node events = result.nodes (%d workers)" workers)
        r.Bb.nodes (node_events_of None);
      (* (b) per-worker report totals vs per-worker event counts *)
      List.iter
        (fun (ws : Rfloor_trace.Report.worker_stat) ->
          Alcotest.(check int)
            (Printf.sprintf "worker %d node events (%d workers)"
               ws.Rfloor_trace.Report.ws_worker workers)
            ws.Rfloor_trace.Report.ws_nodes
            (node_events_of (Some ws.Rfloor_trace.Report.ws_worker)))
        report.Rfloor_trace.Report.workers;
      (* (c) span balance per (worker, phase) *)
      let spans = Hashtbl.create 16 in
      List.iter
        (fun (e : Rfloor_trace.Event.t) ->
          let bump k d =
            Hashtbl.replace spans k
              (d + Option.value ~default:0 (Hashtbl.find_opt spans k))
          in
          match e.Rfloor_trace.Event.payload with
          | Rfloor_trace.Event.Span_start p ->
            bump (e.Rfloor_trace.Event.worker, p) 1
          | Rfloor_trace.Event.Span_end p ->
            bump (e.Rfloor_trace.Event.worker, p) (-1)
          | _ -> ())
        events;
      Hashtbl.iter
        (fun (w, p) depth ->
          if depth <> 0 then
            Alcotest.failf "worker %d: unbalanced %s spans (%+d) with %d workers"
              w
              (Rfloor_trace.Event.phase_name p)
              depth workers)
        spans;
      (* (d) report totals = legacy result fields *)
      Alcotest.(check int) "report.nodes" r.Bb.nodes
        report.Rfloor_trace.Report.nodes;
      Alcotest.(check int) "report.simplex_iterations" r.Bb.simplex_iterations
        report.Rfloor_trace.Report.simplex_iterations;
      Alcotest.(check (float 0.)) "report.elapsed" r.Bb.elapsed
        report.Rfloor_trace.Report.elapsed)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* The engine at one worker vs the frozen sequential loop.

   [Reference_bb] is the loop the engine replaced.  At one worker the
   engine must run the very same search: equal status, stop, node and
   simplex-iteration counts, the best bound and the incumbent to the
   bit, the same trace events in the same order (timestamps aside), and
   the same report counters, steal attempts included (a lone worker
   steals nothing). *)

module T = Rfloor_trace

type observed = {
  o_fields : (string * string) list;
  o_events : (int * T.Event.payload) list;
}

let observe solve (options : Bb.options) lp =
  let ring = T.Ring.create () in
  let tracer = T.create ~sink:(T.Ring.sink ring) () in
  let r : Bb.result = solve { options with Bb.trace = tracer } lp in
  let rep =
    T.report tracer ~nodes:r.Bb.nodes
      ~simplex_iterations:r.Bb.simplex_iterations ~elapsed:r.Bb.elapsed
  in
  let hex = Printf.sprintf "%h" in
  let ints l = String.concat " " (List.map string_of_int l) in
  {
    o_fields =
      [
        ("status", status_name r.Bb.status);
        ( "stop",
          match r.Bb.stop with
          | None -> "none"
          | Some Bb.Budget -> "budget"
          | Some Bb.Cancelled -> "cancelled" );
        ("nodes", string_of_int r.Bb.nodes);
        ("simplex iterations", string_of_int r.Bb.simplex_iterations);
        ("best bound", hex r.Bb.best_bound);
        ( "incumbent objective",
          match r.Bb.incumbent with None -> "none" | Some (o, _) -> hex o );
        ( "incumbent x",
          match r.Bb.incumbent with
          | None -> "none"
          | Some (_, x) -> String.concat " " (Array.to_list (Array.map hex x)) );
        ("dropped events", string_of_int (T.Ring.dropped ring));
        ( "report counters",
          T.Report.(
            Printf.sprintf
              "incumbents %d, cuts %d, steal attempts %d, steal successes %d, \
               tasks donated %d, idle events %d, restarts %d, warnings %d"
              rep.incumbents rep.cuts rep.steal_attempts rep.steal_successes
              rep.tasks_donated rep.idle_events rep.restarts rep.warnings) );
        ( "report workers",
          ints
            (List.concat_map
               (fun (w : T.Report.worker_stat) ->
                 T.Report.[ w.ws_worker; w.ws_nodes; w.ws_iterations ])
               rep.T.Report.workers) );
        ( "report depth histogram",
          ints
            (List.concat_map (fun (d, k) -> [ d; k ])
               rep.T.Report.depth_histogram) );
        ( "report phase counts",
          String.concat " "
            (List.map
               (fun (p : T.Report.phase_stat) ->
                 Printf.sprintf "%s:%d"
                   (T.Event.phase_name p.T.Report.ps_phase)
                   p.T.Report.ps_count)
               rep.T.Report.phases) );
      ];
    o_events =
      List.map
        (fun (e : T.Event.t) -> (e.T.Event.worker, e.T.Event.payload))
        (T.Ring.events ring);
  }

let check_same_search ~what options lp =
  let a = observe (fun options lp -> Ref_bb.solve ~options lp) (options ()) lp in
  let b = observe (fun options lp -> Bb.solve ~options lp) (options ()) lp in
  List.iter2
    (fun (label, va) (_, vb) ->
      if va <> vb then
        Alcotest.failf "%s: %s differs: reference %s, engine %s" what label va vb)
    a.o_fields b.o_fields;
  let show (w, p) = Format.asprintf "%a" T.Event.pp { T.Event.at = 0.; worker = w; payload = p } in
  let rec first_diff i xs ys =
    match (xs, ys) with
    | [], [] -> ()
    | x :: xs', y :: ys' ->
      if compare x y = 0 then first_diff (i + 1) xs' ys'
      else
        Alcotest.failf "%s: event %d differs: reference %s, engine %s" what i
          (show x) (show y)
    | _ ->
      Alcotest.failf "%s: %d events from the reference, %d from the engine"
        what (List.length a.o_events) (List.length b.o_events)
  in
  first_diff 0 a.o_events b.o_events

(* Each variant builds fresh options per run, so the cancel token's poll
   count starts at zero on both sides. *)
let bb_variants =
  [
    ("default", fun () -> Bb.default_options);
    ("node_limit 5", fun () -> { Bb.default_options with node_limit = Some 5 });
    ("warm_lp off", fun () -> { Bb.default_options with warm_lp = false });
    ("gomory_rounds 2", fun () -> { Bb.default_options with gomory_rounds = 2 });
    ( "cancel at the 8th poll",
      fun () ->
        let polls = ref 0 in
        {
          Bb.default_options with
          cancel =
            (fun () ->
              incr polls;
              !polls >= 8);
        } );
  ]

let test_one_worker_vs_reference () =
  let base = G.base_seed () in
  let instances =
    List.init 200 (fun i ->
        let seed = G.case_seed base i in
        (Printf.sprintf "seed %d (milp_case)" seed, (G.milp_case ~seed).G.c_lp))
    @ List.init 40 (fun i ->
          let seed = G.case_seed base (8_000 + i) in
          (Printf.sprintf "seed %d (hard_knapsack)" seed, G.hard_knapsack ~seed))
  in
  List.iter
    (fun (name, lp) ->
      List.iter
        (fun (variant, options) ->
          check_same_search ~what:(name ^ ", " ^ variant) options lp)
        bb_variants)
    instances;
  (* the paper's instance: FX70T SDR stage 1 with the model's cuts and
     branching priorities, a few nodes deep *)
  let model =
    Rfloor.Model.build
      ~options:
        {
          Rfloor.Model.objective = Rfloor.Model.Wasted_frames_only;
          paper_literal_l = false;
          pair_relations = [];
          extra_waste_cap = None;
          cuts = true;
        }
      (Device.Partition.columnar_exn Device.Devices.virtex5_fx70t)
      Sdr.design
  in
  check_same_search ~what:"FX70T SDR stage 1, node_limit 3"
    (fun () ->
      {
        Bb.default_options with
        node_limit = Some 3;
        priorities = Some (Rfloor.Model.branching_priorities model);
      })
    (Rfloor.Model.lp model)

let suites =
  [
    ( "differential",
      [
        Alcotest.test_case "generated partitions satisfy Properties .3/.4" `Quick
          test_generated_partitions_properties;
        Alcotest.test_case "sequential vs parallel B&B on 200 random MILPs" `Quick
          test_seq_vs_parallel;
        Alcotest.test_case "presolve+solve vs raw solve on 100 random MILPs" `Quick
          test_presolve_differential;
        Alcotest.test_case "sparse simplex vs dense reference on 200 LPs" `Quick
          test_sparse_vs_reference;
        Alcotest.test_case "warm dual child re-solves match cold solves" `Quick
          test_warm_child_resolves;
        Alcotest.test_case "B&B with warm starts off matches warm, all workers"
          `Quick test_cold_vs_warm_bb;
        Alcotest.test_case "random floorplans pass the solution audit" `Quick
          test_random_floorplans_audit;
        Alcotest.test_case "parallel elapsed vs sequential (soft)" `Quick
          test_parallel_elapsed_soft;
        Alcotest.test_case "trace events cohere with solver counters" `Quick
          test_trace_coherence;
        Alcotest.test_case "1-worker engine = reference B&B" `Quick
          test_one_worker_vs_reference;
      ] );
  ]
