(* Benchmark harness: one bechamel micro-benchmark per table/figure
   regeneration plus the full experiment reports.

     dune exec bench/main.exe                 -- benches + all reports
     dune exec bench/main.exe -- --report X   -- one report (see --list)
     dune exec bench/main.exe -- --bench-only
     dune exec bench/main.exe -- --parallel-only
     dune exec bench/main.exe -- --portfolio-only
     dune exec bench/main.exe -- --artifact LABEL [--artifact-dir D]
                                 [--instances quick|fx70t]
                                              -- write BENCH_LABEL.json for
                                                 rfloor_cli bench-compare
     RFLOOR_BENCH_BUDGET=60 ...               -- per-solve budget, seconds
     RFLOOR_WORKERS=4 ...                     -- parallel B&B worker domains *)

open Bechamel
open Toolkit

let quick_part = lazy (Device.Partition.columnar_exn Device.Devices.mini)
let fx70t = lazy (Device.Partition.columnar_exn Device.Devices.virtex5_fx70t)

let bench_tests () =
  let part = Lazy.force quick_part in
  let fx = Lazy.force fx70t in
  let frames = Device.Grid.frames Device.Devices.virtex5_fx70t in
  let fig1_areas = Device.Devices.fig1_areas in
  let fig1_part = Device.Partition.columnar_exn Device.Devices.fig1 in
  let toy_spec =
    Device.Spec.make ~name:"bench-toy"
      [
        { Device.Spec.r_name = "R1"; demand = [ (Device.Resource.Clb, 2) ] };
        { Device.Spec.r_name = "R2"; demand = [ (Device.Resource.Dsp, 1) ] };
      ]
  in
  [
    Test.make ~name:"fig1:compatibility_check"
      (Staged.stage (fun () ->
           List.iter
             (fun (_, a) ->
               List.iter
                 (fun (_, b) ->
                   ignore (Device.Compat.compatible fig1_part a b))
                 fig1_areas)
             fig1_areas));
    Test.make ~name:"fig2:columnar_partitioning"
      (Staged.stage (fun () ->
           ignore (Device.Partition.columnar Device.Devices.fig2)));
    Test.make ~name:"fig3:model_build_encode"
      (Staged.stage (fun () ->
           let spec =
             Device.Spec.make ~name:"fig3"
               [ { Device.Spec.r_name = "n"; demand = [ (Device.Resource.Clb, 1) ] } ]
           in
           let p3 = Device.Partition.columnar_exn Device.Devices.fig3 in
           let model = Rfloor.Model.build p3 spec in
           let plan =
             Device.Floorplan.make
               [ { Device.Floorplan.p_region = "n"; p_rect = Device.Devices.fig3_region } ]
               []
           in
           ignore (Rfloor.Model.encode model plan)));
    Test.make ~name:"table1:frame_accounting"
      (Staged.stage (fun () -> ignore (Sdr.table1 ~frames)));
    Test.make ~name:"feasibility:carrier_recovery"
      (Staged.stage (fun () ->
           ignore
             (Search.Engine.feasible fx (Sdr.feasibility_variant Sdr.carrier_recovery))));
    Test.make ~name:"table2:heuristic_baseline"
      (Staged.stage (fun () ->
           ignore (Baselines.Vipin_fahmy.solve fx Sdr.design)));
    Test.make ~name:"table2:search_sdr_optimal"
      (Staged.stage (fun () ->
           let opts =
             { Search.Engine.default_options with optimize_wirelength = false }
           in
           ignore (Search.Engine.solve ~options:opts fx Sdr.design)));
    Test.make ~name:"fig4:candidate_enumeration"
      (Staged.stage (fun () ->
           List.iter
             (fun (r : Device.Spec.region) ->
               ignore (Search.Candidates.enumerate fx r.Device.Spec.demand))
             Sdr.design.Device.Spec.regions));
    Test.make ~name:"milp:toy_model_build"
      (Staged.stage (fun () -> ignore (Rfloor.Model.build part toy_spec)));
    Test.make ~name:"bitstream:synthesize_relocate"
      (Staged.stage (fun () ->
           let src = Device.Rect.make ~x:4 ~y:1 ~w:2 ~h:2 in
           let dst = Device.Rect.make ~x:4 ~y:3 ~w:2 ~h:2 in
           let img = Bitstream.Image.synthesize ~seed:7 part src in
           ignore (Bitstream.Relocate.relocate part ~src ~dst img)));
  ]

let run_benches () =
  let tests = bench_tests () in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:None ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Printf.printf "==== bechamel micro-benchmarks (one per table/figure) ====\n%!";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] -> Printf.printf "  %-32s %12.1f ns/run\n%!" name t
          | _ -> Printf.printf "  %-32s (no estimate)\n%!" name)
        results)
    tests

(* Parallel branch-and-bound on the paper's evaluation workload: the
   FX70T relocation instance (SDR with 2 requested free-compatible
   areas per relocatable region), stage-1 objective.  Sequential and
   parallel runs get the same node budget, so when both exhaust it the
   wall-clock ratio is a direct speedup; if a run stops early (time
   limit, or optimality first) the node-throughput ratio is reported,
   which degenerates to the same number under equal node counts. *)
let run_parallel_speedup ?(trace_mode = `Off) ?metrics_registry () =
  let workers = max 4 (Milp.Branch_bound.workers_from_env ()) in
  let budget = Reports.budget () in
  Printf.printf
    "\n==== parallel branch-and-bound (FX70T relocation instance, sdr2) ====\n%!";
  let sink, close_sink =
    match trace_mode with
    | `Off -> (Rfloor_trace.Sink.null, fun () -> ())
    | `Text -> (Rfloor_trace.Sink.text stderr, fun () -> ())
    | `Jsonl path -> Rfloor_trace.Sink.jsonl_file path
  in
  Fun.protect ~finally:close_sink @@ fun () ->
  let part = Lazy.force fx70t in
  (* one tracer per run so the phase/worker breakdown of the parallel
     run is not polluted by the sequential baseline *)
  let tracer_seq = Rfloor_trace.create ~sink () in
  let tracer_par = Rfloor_trace.create ~sink () in
  let model =
    Rfloor_trace.span tracer_par Rfloor_trace.Event.Build (fun () ->
        Rfloor.Model.build
          ~options:
            {
              Rfloor.Model.objective = Rfloor.Model.Wasted_frames_only;
              paper_literal_l = false;
              pair_relations = [];
              extra_waste_cap = None;
              cuts = true;
            }
          part Sdr.sdr2)
  in
  let lp = Rfloor.Model.lp model in
  let metrics =
    match metrics_registry with
    | Some reg -> reg  (* shared with --telemetry so /metrics sees the run *)
    | None -> Rfloor_metrics.Registry.create ()
  in
  let opts =
    {
      Milp.Branch_bound.default_options with
      time_limit = Some budget;
      node_limit = Some 400;
      priorities = Some (Rfloor.Model.branching_priorities model);
      metrics;
    }
  in
  (* cold baseline for the warm-start pivot comparison: same tree, no
     parent-basis dual re-solves, and its own registry so the counters
     printed below belong to the warm runs only *)
  let cold =
    Milp.Branch_bound.solve
      ~options:
        { opts with warm_lp = false; metrics = Rfloor_metrics.Registry.null }
      lp
  in
  let seq =
    Milp.Branch_bound.solve ~options:{ opts with trace = tracer_seq } lp
  in
  let par =
    Milp.Branch_bound.solve
      ~options:{ opts with trace = tracer_par }
      ~workers lp
  in
  let show label (r : Milp.Branch_bound.result) =
    Printf.printf "  %-12s nodes %5d  simplex iters %8d  elapsed %6.2fs\n%!"
      label r.Milp.Branch_bound.nodes r.Milp.Branch_bound.simplex_iterations
      r.Milp.Branch_bound.elapsed
  in
  show "cold LP" cold;
  show "sequential" seq;
  show (Printf.sprintf "%d workers" workers) par;
  Printf.printf
    "  warm-start pivots: %d warm vs %d cold (%d saved across %d nodes)\n%!"
    seq.Milp.Branch_bound.simplex_iterations
    cold.Milp.Branch_bound.simplex_iterations
    (cold.Milp.Branch_bound.simplex_iterations
    - seq.Milp.Branch_bound.simplex_iterations)
    seq.Milp.Branch_bound.nodes;
  let counter name =
    Rfloor_metrics.Registry.Counter.value
      (Rfloor_metrics.Registry.counter metrics name)
  in
  Printf.printf
    "  lp counters (seq+par): %d factorizations, %d ft updates, %d warm starts\n%!"
    (counter "rfloor_lp_factorizations_total")
    (counter "rfloor_lp_ft_updates_total")
    (counter "rfloor_lp_warm_starts_total");
  let rate (r : Milp.Branch_bound.result) =
    float_of_int r.Milp.Branch_bound.nodes /. max 1e-9 r.Milp.Branch_bound.elapsed
  in
  let speedup = rate par /. rate seq in
  Printf.printf "  wall-clock speedup with %d workers: %.2fx%s\n%!" workers speedup
    (if speedup <= 1.0 then
       Printf.sprintf " (no gain: host exposes %d core%s)"
         (Domain.recommended_domain_count ())
         (if Domain.recommended_domain_count () = 1 then "" else "s")
     else "");
  (match (seq.Milp.Branch_bound.incumbent, par.Milp.Branch_bound.incumbent) with
  | Some (a, _), Some (b, _) ->
    Printf.printf "  objectives agree: %.4f vs %.4f\n%!" a b
  | _ -> ());
  (* machine-readable per-phase / per-worker breakdown of the parallel run *)
  let report =
    Rfloor_trace.report tracer_par ~nodes:par.Milp.Branch_bound.nodes
      ~simplex_iterations:par.Milp.Branch_bound.simplex_iterations
      ~elapsed:par.Milp.Branch_bound.elapsed
  in
  Printf.printf "  parallel-report: %s\n%!" (Rfloor_trace.Report.to_json report)

(* Racing strategy portfolio on the quick-bench relocation instance
   (the mini-device toy with 2 requested free-compatible copies, the
   smallest instance where the symmetry cuts fire).  The number that
   matters is total nodes: the combinatorial member proves stage-1
   optimality almost immediately and cancels the MILP member, so the
   portfolio's summed node count (B&B nodes + heuristic iterations)
   stays below milp:2 run to completion. *)
let run_portfolio_bench () =
  let part = Lazy.force quick_part in
  let spec =
    let r name demand = { Device.Spec.r_name = name; demand } in
    Device.Spec.make ~name:"portfolio-quick"
      ~nets:(Device.Spec.chain_nets ~weight:1. [ "R1"; "R2" ])
      ~relocs:[ { Device.Spec.target = "R1"; copies = 2; mode = Device.Spec.Soft 1. } ]
      [
        r "R1" [ (Device.Resource.Clb, 2); (Device.Resource.Bram, 1) ];
        r "R2" [ (Device.Resource.Clb, 2); (Device.Resource.Dsp, 1) ];
      ]
  in
  let budget = Reports.budget () in
  Printf.printf
    "\n==== strategy portfolio (mini relocation instance, 2 copies) ====\n%!";
  let solve strategy =
    let metrics = Rfloor_metrics.Registry.create () in
    let options =
      Rfloor.Solver.Options.make ~time_limit:budget ~strategy ~metrics ()
    in
    (Rfloor.Solver.solve ~options part spec, metrics)
  in
  let counter ?labels metrics name =
    Rfloor_metrics.Registry.Counter.value
      (Rfloor_metrics.Registry.counter metrics ?labels name)
  in
  let milp2 = Rfloor.Solver.Strategy.milp ~workers:2 () in
  let members = [ milp2; Rfloor.Solver.Strategy.combinatorial () ] in
  let portfolio = Rfloor.Solver.Strategy.portfolio members in
  let show strategy (o, metrics) =
    Printf.printf "  %-36s %-10s nodes %6d  elapsed %6.2fs  cuts %d\n%!"
      (Rfloor.Solver.Strategy.to_string strategy)
      (match o.Rfloor.Solver.status with
      | Rfloor.Solver.Optimal -> "optimal"
      | Rfloor.Solver.Feasible -> "feasible"
      | Rfloor.Solver.Infeasible -> "infeasible"
      | Rfloor.Solver.Unknown -> "unknown")
      o.Rfloor.Solver.nodes o.Rfloor.Solver.elapsed
      (counter metrics "rfloor_cuts_applied_total")
  in
  let alone = solve milp2 in
  let raced = solve portfolio in
  show milp2 alone;
  show portfolio raced;
  let _, race_metrics = raced in
  List.iter
    (fun s ->
      let label = Rfloor.Solver.Strategy.to_string s in
      Printf.printf "  wins[%-13s] %d\n%!" label
        (counter race_metrics "rfloor_portfolio_wins_total"
           ~labels:[ ("strategy", label) ]))
    members;
  let nodes (o, _) = o.Rfloor.Solver.nodes in
  Printf.printf "  portfolio vs milp:2 nodes: %d vs %d (%s)\n%!" (nodes raced)
    (nodes alone)
    (if nodes raced < nodes alone then "portfolio explored less"
     else "no node saving this run")

let () =
  let args = Array.to_list Sys.argv in
  let rec find_report = function
    | "--report" :: name :: _ -> Some name
    | _ :: rest -> find_report rest
    | [] -> None
  in
  let rec find_trace = function
    | "--trace" :: v :: _ -> (
      match v with
      | "off" -> `Off
      | "text" -> `Text
      | v when String.length v > 6 && String.sub v 0 6 = "jsonl:" ->
        `Jsonl (String.sub v 6 (String.length v - 6))
      | v ->
        Printf.eprintf "bad --trace %s (expected off, text or jsonl:FILE)\n" v;
        exit 1)
    | _ :: rest -> find_trace rest
    | [] -> `Off
  in
  let trace_mode = find_trace args in
  let rec find_flag name = function
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> find_flag name rest
    | [] -> None
  in
  (* --telemetry PORT: expose /metrics, /healthz and /statusz for the
     duration of the run so a long bench can be watched live.  The
     registry is shared with the parallel-speedup run, so its LP and
     B&B series stream out while the solve is in flight. *)
  let telemetry =
    match find_flag "--telemetry" args with
    | None -> None
    | Some v -> (
      match int_of_string_opt v with
      | Some p -> Some p
      | None ->
        Printf.eprintf "bad --telemetry %s (expected a port number)\n" v;
        exit 1)
  in
  let telemetry_registry =
    match telemetry with
    | None -> None
    | Some _ ->
      let reg = Rfloor_metrics.Registry.create () in
      Rfloor_obsv.Build_info.register reg;
      Some reg
  in
  let server =
    match (telemetry, telemetry_registry) with
    | Some port, Some reg -> (
      let handlers =
        {
          Rfloor_obsv.Http.h_metrics =
            (fun () ->
              Rfloor_obsv.Build_info.touch_uptime reg;
              Rfloor_metrics.Registry.to_prometheus
                (Rfloor_metrics.Registry.snapshot reg));
          h_statusz = (fun () -> Rfloor_obsv.Statusz.render ());
        }
      in
      match Rfloor_obsv.Http.start ~registry:reg ~port handlers with
      | Ok srv ->
        Printf.eprintf "telemetry: listening on 127.0.0.1:%d\n%!"
          (Rfloor_obsv.Http.port srv);
        Some srv
      | Error d ->
        Format.eprintf "%a@." Rfloor_diag.Diagnostic.pp d;
        exit 1)
    | _ -> None
  in
  Fun.protect ~finally:(fun () -> Option.iter Rfloor_obsv.Http.stop server)
  @@ fun () ->
  let run_parallel_speedup () =
    run_parallel_speedup ~trace_mode ?metrics_registry:telemetry_registry ()
  in
  if List.mem "--list" args then
    List.iter print_endline Reports.names
  else
    match find_flag "--artifact" args with
    | Some label ->
      let dir = Option.value ~default:"." (find_flag "--artifact-dir" args) in
      let instances =
        match find_flag "--instances" args with
        | None | Some "quick" -> `Quick
        | Some "fx70t" -> `Fx70t
        | Some v ->
          Printf.eprintf "bad --instances %s (expected quick or fx70t)\n" v;
          exit 1
      in
      ignore (Artifacts.run ~label ~dir ~instances ())
    | None -> (
      match find_report args with
      | Some name -> (
        match Reports.by_name name with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown report %s; use --list\n" name;
          exit 1)
      | None ->
        if List.mem "--portfolio-only" args then
          run_portfolio_bench ()
        else if List.mem "--parallel-only" args then begin
          run_parallel_speedup ();
          run_portfolio_bench ()
        end
        else begin
          if not (List.mem "--report-only" args) then begin
            run_benches ();
            run_parallel_speedup ();
            run_portfolio_bench ()
          end;
          if not (List.mem "--bench-only" args) then Reports.all ()
        end)
