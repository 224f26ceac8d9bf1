open Device
module Bb = Milp.Branch_bound
module Diag = Rfloor_diag.Diagnostic
module T = Rfloor_trace

type engine = O | Ho of Floorplan.t option

module Strategy = struct
  type t =
    | Milp of {
        workers : int;
        engine : engine;
        warm_start : bool;
        time_limit : float option;
      }
    | Combinatorial of { time_limit : float option }
    | Lns of { seed : int; time_limit : float option }
    | Portfolio of t list

  let norm_budget = function
    | Some l when Float.is_finite l && l > 0. -> Some l
    | _ -> None

  let milp ?(workers = 1) ?(engine = O) ?(warm_start = true) ?time_limit () =
    Milp
      {
        workers = max 1 workers;
        engine;
        warm_start;
        time_limit = norm_budget time_limit;
      }

  let combinatorial ?time_limit () =
    Combinatorial { time_limit = norm_budget time_limit }

  let lns ?(seed = 1) ?time_limit () =
    Lns { seed; time_limit = norm_budget time_limit }

  let rec flatten = function
    | Portfolio ms -> List.concat_map flatten ms
    | s -> [ s ]

  let portfolio ts =
    match List.concat_map flatten ts with
    | [] -> invalid_arg "Solver.Strategy.portfolio: empty member list"
    | ms -> Portfolio ms

  let budget = function
    | Milp m -> m.time_limit
    | Combinatorial c -> c.time_limit
    | Lns l -> l.time_limit
    | Portfolio _ -> None

  let rec to_string t =
    let suffix = function
      | None -> ""
      | Some s -> Printf.sprintf "@%g" s
    in
    match t with
    | Milp { workers; engine; warm_start = _; time_limit } ->
      let stem = match engine with O -> "milp" | Ho _ -> "milp-ho" in
      let w = if workers > 1 then Printf.sprintf ":%d" workers else "" in
      stem ^ w ^ suffix time_limit
    | Combinatorial { time_limit } -> "combinatorial" ^ suffix time_limit
    | Lns { seed; time_limit } ->
      Printf.sprintf "lns:%d%s" seed (suffix time_limit)
    | Portfolio ms ->
      Printf.sprintf "portfolio:[%s]"
        (String.concat "," (List.map to_string ms))

  let of_string s =
    let err () =
      Error
        (Diag.diagf ~code:"RF502" Diag.Error (Diag.Strategy (String.trim s))
           "unparsable strategy (expected milp[:W] | milp-ho[:W] | \
            combinatorial | lns[:SEED] | portfolio:[s1,s2,...]; members \
            may carry an @SECONDS budget)")
    in
    let parse_budget tok =
      match String.index_opt tok '@' with
      | None -> Some (tok, None)
      | Some i -> (
        let b = String.sub tok (i + 1) (String.length tok - i - 1) in
        match float_of_string_opt b with
        | Some f when Float.is_finite f && f > 0. ->
          Some (String.sub tok 0 i, Some f)
        | _ -> None)
    in
    let parse_atom tok =
      match parse_budget (String.trim tok) with
      | None -> None
      | Some (stem, time_limit) -> (
        let name, arg =
          match String.index_opt stem ':' with
          | None -> (stem, None)
          | Some i ->
            ( String.sub stem 0 i,
              Some (String.sub stem (i + 1) (String.length stem - i - 1)) )
        in
        let positive_int v =
          match int_of_string_opt v with
          | Some n when n >= 1 -> Some n
          | _ -> None
        in
        match (name, arg) with
        | "milp", None ->
          Some
            (Milp { workers = 1; engine = O; warm_start = true; time_limit })
        | "milp", Some w ->
          Option.map
            (fun w ->
              Milp { workers = w; engine = O; warm_start = true; time_limit })
            (positive_int w)
        | "milp-ho", None ->
          Some
            (Milp
               { workers = 1; engine = Ho None; warm_start = true; time_limit })
        | "milp-ho", Some w ->
          Option.map
            (fun w ->
              Milp
                { workers = w; engine = Ho None; warm_start = true; time_limit })
            (positive_int w)
        | "combinatorial", None -> Some (Combinatorial { time_limit })
        | "lns", None -> Some (Lns { seed = 1; time_limit })
        | "lns", Some sd ->
          Option.map
            (fun sd -> Lns { seed = sd; time_limit })
            (int_of_string_opt sd)
        | _ -> None)
    in
    let s' = String.trim s in
    let pfx = "portfolio:[" in
    let plen = String.length pfx in
    if String.length s' > plen && String.sub s' 0 plen = pfx then
      if s'.[String.length s' - 1] <> ']' then err ()
      else
        let inner = String.sub s' plen (String.length s' - plen - 1) in
        let toks =
          String.split_on_char ',' inner
          |> List.map String.trim
          |> List.filter (fun t -> t <> "")
        in
        if toks = [] then err ()
        else
          let ms = List.map parse_atom toks in
          if List.exists Option.is_none ms then err ()
          else Ok (Portfolio (List.filter_map Fun.id ms))
    else match parse_atom s' with Some t -> Ok t | None -> err ()
end

type objective_mode =
  | Lexicographic
  | Weighted of Objective.weights
  | Feasibility_only

type options = {
  strategy : Strategy.t;
  objective_mode : objective_mode;
  time_limit : float option;
  node_limit : int option;
  paper_literal_l : bool;
  warm_lp : bool;
  preflight : bool;
  cuts : bool;
  trace : T.sink;
  metrics : Rfloor_metrics.Registry.t;
  cancel : unit -> bool;
}

module Options = struct
  type t = options

  let make ?(strategy = Strategy.milp ()) ?(objective_mode = Lexicographic)
      ?(time_limit = 60.) ?node_limit ?(paper_literal_l = false)
      ?(warm_lp = true) ?(preflight = true) ?(cuts = true)
      ?(trace = T.Sink.null) ?(metrics = Rfloor_metrics.Registry.null)
      ?(cancel = Bb.never_cancel) () =
    {
      strategy;
      objective_mode;
      (* "no limit" is spelled [~time_limit:infinity] (or any non-finite
         value); the record keeps the [float option] representation *)
      time_limit = (if Float.is_finite time_limit then Some time_limit else None);
      node_limit;
      paper_literal_l;
      warm_lp;
      preflight;
      cuts;
      trace;
      metrics;
      cancel;
    }
end

let default_options = Options.make ()

type status = Optimal | Feasible | Infeasible | Unknown

type stop_reason = Bb.stop_reason = Budget | Cancelled

type outcome = {
  plan : Floorplan.t option;
  wasted : int option;
  wirelength : float option;
  fc_identified : int;
  status : status;
  objective_value : float option;
  nodes : int;
  simplex_iterations : int;
  elapsed : float;
  stop : stop_reason option;
  diagnostics : Diag.t list;
  report : T.Report.t;
}

(* Per-member solving parameters, distilled from one [Strategy.Milp].
   The board hooks default to no-ops outside a portfolio. *)
type milp_cfg = {
  mg_engine : engine;
  mg_warm_start : bool;
  mg_workers : int;
  mg_budget : float option;
  mg_cancel : unit -> bool;
  mg_external_bound : unit -> float;
  mg_publish : (float -> Floorplan.t -> unit) option;
}

(* Member budgets never exceed the global budget; a larger request is
   clamped with an RF501 warning (satisfying it would let a losing
   member outlive the portfolio's own deadline). *)
let effective_budget ~global ~member ~label ~add_diags =
  match (global, member) with
  | None, m -> m
  | Some g, None -> Some g
  | Some g, Some m ->
    if m > g then begin
      add_diags
        [
          Diag.diagf ~code:"RF501" Diag.Warning (Diag.Strategy label)
            "member budget %gs exceeds the portfolio budget %gs; clamped" m g;
        ];
      Some g
    end
    else Some m

(* Resolve the HO seed once so the pair relations and the warm start are
   consistent (an inconsistent warm incumbent would be rejected). *)
let resolve_seed cfg part spec =
  match cfg.mg_engine with
  | O -> None
  | Ho (Some seed) -> Some seed
  | Ho None -> Ho.seed_of_search part spec

let pair_relations spec = function
  | Some seed -> Ho.relations spec seed
  | None -> []

let bb_options options cfg trace model stage_time ~ext =
  {
    Bb.default_options with
    Bb.time_limit = stage_time;
    node_limit = options.node_limit;
    priorities = Some (Model.branching_priorities model);
    trace;
    metrics = options.metrics;
    cancel = cfg.mg_cancel;
    warm_lp = options.warm_lp;
    external_bound =
      (if ext then cfg.mg_external_bound else Bb.no_external_bound);
  }

let warm_plan cfg part spec =
  if not cfg.mg_warm_start then None
  else
    let sopts =
      {
        Search.Engine.default_options with
        time_limit = Some 5.;
        optimize_wirelength = false;
      }
    in
    (Search.Engine.solve ~options:sopts part spec).Search.Engine.plan

(* Run branch-and-bound on a model, optionally warm-started.  The
   model-lint preflight runs first — once, on the root model; workers
   of a parallel run share that single vetted LP, they never re-lint.
   An error-severity finding (e.g. a bound-infeasible row) proves the
   stage infeasible without a single branch-and-bound node.  [ext]
   arms the external objective bound (portfolio incumbent board) —
   only sound when the stage objective matches the published keys. *)
let run_stage options cfg trace model ~stage_time ~warm ~ext ~add_diags =
  let lp = Model.lp model in
  let lint =
    if options.preflight then
      T.span trace T.Event.Lint (fun () -> Rfloor_analysis.Preflight.model lp)
    else []
  in
  add_diags lint;
  if Diag.has_errors lint then
    {
      Bb.status = Bb.Infeasible;
      incumbent = None;
      best_bound =
        (match Milp.Lp.objective_dir lp with
        | Milp.Lp.Minimize -> infinity
        | Milp.Lp.Maximize -> neg_infinity);
      nodes = 0;
      simplex_iterations = 0;
      elapsed = 0.;
      stop = None;
    }
  else begin
    ignore (Milp.Presolve.tighten ~trace ~metrics:options.metrics lp);
    let incumbent =
      match warm with
      | None -> None
      | Some plan -> (
        let x = Model.encode model plan in
        match Milp.Lp.validate ~eps:1e-5 lp x with
        | Ok () -> Some x
        | Error msg ->
          T.warn trace (Printf.sprintf "warm start rejected: %s" msg);
          None)
    in
    T.span trace T.Event.Branch_bound (fun () ->
        Bb.solve
          ~options:(bb_options options cfg trace model stage_time ~ext)
          ~workers:cfg.mg_workers ?incumbent lp)
  end

let build_model options trace model_options part spec =
  let model =
    T.span trace T.Event.Build (fun () ->
        Model.build ~options:model_options part spec)
  in
  let n = Model.cuts_applied model in
  if n > 0 then begin
    T.cuts_added trace ~worker:0 ~rounds:1 ~cuts:n;
    Rfloor_metrics.Registry.Counter.add
      (Rfloor_metrics.Registry.counter options.metrics
         ~help:"Symmetry/packing cut rows added at model build time"
         "rfloor_cuts_applied_total")
      n
  end;
  model

let status_of_bb = function
  | Bb.Optimal -> Optimal
  | Bb.Feasible -> Feasible
  | Bb.Infeasible -> Infeasible
  | Bb.Unbounded | Bb.Unknown -> Unknown

let finish options trace part spec model (r : Bb.result) extra_nodes extra_iters
    extra_time diags =
  let plan, fc, wasted, wirelength =
    T.span trace T.Event.Decode (fun () ->
        let plan, fc =
          match r.Bb.incumbent with
          | Some (_, x) ->
            (Some (Model.decode model x), Model.fc_identified model x)
          | None -> (None, 0)
        in
        let wasted =
          Option.map (fun p -> Floorplan.wasted_frames part spec p) plan
        in
        let wirelength = Option.map (fun p -> Floorplan.wirelength spec p) plan in
        (plan, fc, wasted, wirelength))
  in
  (* independent re-check of the decoded plan (Eq. 6-10 and validity);
     findings here would point at a model or decoder bug *)
  let audit =
    match plan with
    | Some p when options.preflight ->
      T.span trace T.Event.Audit (fun () ->
          let ds = Rfloor_analysis.Solution_audit.run part spec p in
          List.iter
            (fun d -> T.messagef trace "audit: %a" Diag.pp d)
            ds;
          ds)
    | _ -> []
  in
  let nodes = r.Bb.nodes + extra_nodes in
  let simplex_iterations = r.Bb.simplex_iterations + extra_iters in
  let elapsed = r.Bb.elapsed +. extra_time in
  {
    plan;
    wasted;
    wirelength;
    fc_identified = fc;
    status = status_of_bb r.Bb.status;
    objective_value = Option.map fst r.Bb.incumbent;
    nodes;
    simplex_iterations;
    elapsed;
    stop = r.Bb.stop;
    diagnostics = diags @ audit;
    report = T.report trace ~nodes ~simplex_iterations ~elapsed;
  }

let solve_milp options cfg trace part spec ~add_diags ~diags =
  let seed = resolve_seed cfg part spec in
  let relations = pair_relations spec seed in
  let warm =
    match seed with Some _ -> seed | None -> warm_plan cfg part spec
  in
  let model_options objective extra_waste_cap =
    {
      Model.objective;
      paper_literal_l = options.paper_literal_l;
      pair_relations = relations;
      extra_waste_cap;
      cuts = options.cuts;
    }
  in
  let publish key plan =
    match cfg.mg_publish with Some pub -> pub key plan | None -> ()
  in
  match options.objective_mode with
  | Feasibility_only ->
    let model =
      build_model options trace (model_options Model.Feasibility None) part
        spec
    in
    finish options trace part spec model
      (run_stage options cfg trace model ~stage_time:cfg.mg_budget ~warm
         ~ext:false ~add_diags)
      0 0 0. !diags
  | Weighted w ->
    let model =
      build_model options trace (model_options (Model.Weighted w) None) part
        spec
    in
    finish options trace part spec model
      (run_stage options cfg trace model ~stage_time:cfg.mg_budget ~warm
         ~ext:false ~add_diags)
      0 0 0. !diags
  | Lexicographic -> (
    let split f = Option.map (fun t -> t *. f) cfg.mg_budget in
    let m1 =
      build_model options trace (model_options Model.Wasted_frames_only None)
        part spec
    in
    (* the external bound is armed only here: stage 1 minimizes exactly
       the wasted-frames key the board publishes *)
    let r1 =
      run_stage options cfg trace m1 ~stage_time:(split 0.6) ~warm ~ext:true
        ~add_diags
    in
    match r1.Bb.incumbent with
    | None -> finish options trace part spec m1 r1 0 0 0. !diags
    | Some (w1, x1) ->
      T.messagef trace "stage 1: wasted frames = %.0f (%s)" w1
        (match r1.Bb.status with
        | Bb.Optimal -> "optimal"
        | _ -> "best found");
      let plan1 = Model.decode m1 x1 in
      publish w1 plan1;
      T.restart trace "stage2-wirelength";
      let m2 =
        build_model options trace
          (model_options Model.Wirelength_only (Some (w1 +. 0.5)))
          part spec
      in
      (* stage-2 warm start: prefer the candidate with the best wire
         length among plans matching the stage-1 waste *)
      let warm2 =
        let ok p =
          float_of_int (Floorplan.wasted_frames part spec p) <= w1 +. 0.5
        in
        let candidates = List.filter ok (plan1 :: Option.to_list warm) in
        match
          List.sort
            (fun a b ->
              compare (Floorplan.wirelength spec a)
                (Floorplan.wirelength spec b))
            candidates
        with
        | best :: _ -> Some best
        | [] -> Some plan1
      in
      let r2 =
        run_stage options cfg trace m2 ~stage_time:(split 0.4) ~warm:warm2
          ~ext:false ~add_diags
      in
      let r2 =
        match r2.Bb.incumbent with
        | Some _ -> r2
        | None -> { r2 with Bb.incumbent = r1.Bb.incumbent }
      in
      let out =
        finish options trace part spec m2 r2 r1.Bb.nodes
          r1.Bb.simplex_iterations r1.Bb.elapsed !diags
      in
      (match (out.plan, out.wasted) with
      | Some p, Some w -> publish (float_of_int w) p
      | _ -> ());
      (* stage-2 optimality only refines wire length; overall optimality
         additionally needs stage 1 proven *)
      let status =
        match (r1.Bb.status, out.status) with
        | Bb.Optimal, Optimal -> Optimal
        | _, Infeasible -> Feasible (* stage 2 budget died; stage 1 plan holds *)
        | _, s -> (match s with Optimal -> Feasible | s -> s)
      in
      { out with status })

let engine_stop = function
  | Some Search.Engine.Budget -> Some Budget
  | Some Search.Engine.Cancelled -> Some Cancelled
  | None -> None

let heuristic_outcome trace diags (o : Search.Engine.outcome) ~can_prove =
  let status =
    match (o.Search.Engine.optimal, o.Search.Engine.plan) with
    | true, Some _ -> if can_prove then Optimal else Feasible
    | true, None -> if can_prove then Infeasible else Unknown
    | false, Some _ -> Feasible
    | false, None -> Unknown
  in
  let fc =
    match o.Search.Engine.plan with
    | Some p -> Floorplan.fc_count p
    | None -> 0
  in
  {
    plan = o.Search.Engine.plan;
    wasted = o.Search.Engine.wasted;
    wirelength = o.Search.Engine.wirelength;
    fc_identified = fc;
    status;
    objective_value = Option.map float_of_int o.Search.Engine.wasted;
    nodes = o.Search.Engine.nodes;
    simplex_iterations = 0;
    elapsed = o.Search.Engine.elapsed;
    stop = engine_stop o.Search.Engine.stop;
    diagnostics = diags;
    report =
      T.report trace ~nodes:o.Search.Engine.nodes ~simplex_iterations:0
        ~elapsed:o.Search.Engine.elapsed;
  }

let run_combinatorial options ~budget ~cancel ~publish trace part spec diags =
  let sopts =
    {
      Search.Engine.default_options with
      time_limit = budget;
      node_limit = options.node_limit;
      trace;
      cancel;
      on_improvement =
        Option.map
          (fun pub plan w -> pub (float_of_int w) plan)
          publish;
    }
  in
  let run =
    match options.objective_mode with
    | Feasibility_only -> Search.Engine.feasible
    | Lexicographic | Weighted _ -> Search.Engine.solve
  in
  let o = run ~options:sopts part spec in
  (* the engine optimizes the lexicographic objective; its optimality
     proof does not transfer to a Weighted objective *)
  let can_prove =
    match options.objective_mode with Weighted _ -> false | _ -> true
  in
  heuristic_outcome trace diags o ~can_prove

let run_lns options ~seed ~budget ~cancel ~publish trace part spec diags =
  let lopts =
    {
      Search.Lns.seed;
      time_limit = budget;
      iter_limit = options.node_limit;
      trace;
      cancel;
      on_improvement =
        Option.map
          (fun pub plan w -> pub (float_of_int w) plan)
          publish;
    }
  in
  let o = Search.Lns.solve ~options:lopts part spec in
  heuristic_outcome trace diags o ~can_prove:false

let conclusive o = o.status = Optimal || o.status = Infeasible

let run_portfolio options trace part spec ~add_diags ~diags members =
  let t0 = Unix.gettimeofday () in
  let global = options.time_limit in
  let deadline = Option.map (fun l -> t0 +. l) global in
  let base_cancel () =
    options.cancel ()
    || (match deadline with
       | Some d -> Unix.gettimeofday () > d
       | None -> false)
  in
  let board : Floorplan.t Rfloor_portfolio.board =
    Rfloor_portfolio.board ~name:"solver.board" ()
  in
  (* heuristic incumbents feed the exact members only when the stage-1
     key (wasted frames) is the objective being bounded *)
  let ext_ok = options.objective_mode = Lexicographic in
  let publish =
    if ext_ok then
      Some (fun key plan -> ignore (Rfloor_portfolio.publish board key plan))
    else None
  in
  (* budgets are clamped on the main domain, before spawning: member
     threads must not touch the shared diagnostics accumulator *)
  let member_thunk i s =
    let label = Strategy.to_string s in
    let budget =
      effective_budget ~global ~member:(Strategy.budget s) ~label ~add_diags
    in
    {
      Rfloor_portfolio.m_label = label;
      m_run =
        (fun ~cancelled ->
          (* per-member tracer: worker ids shifted by a per-member base
             so concurrent members share the caller's sink without
             colliding span nesting (null parent sink -> plain null-sink
             tracer, the old behaviour).  The opening Restart event maps
             the worker-id range back to the member label for progress
             streaming and timeline export. *)
          let mtrace = T.subtracer trace ~worker_base:((i + 1) * 1000) in
          if T.enabled trace then T.restart mtrace ("member:" ^ label);
          let mdiags = ref [] in
          let madd ds = mdiags := !mdiags @ ds in
          match s with
          | Strategy.Milp m ->
            let cfg =
              {
                mg_engine = m.engine;
                mg_warm_start = m.warm_start;
                mg_workers = m.workers;
                mg_budget = budget;
                mg_cancel = cancelled;
                mg_external_bound =
                  (if ext_ok then fun () -> Rfloor_portfolio.best_key board
                   else Bb.no_external_bound);
                mg_publish = publish;
              }
            in
            solve_milp options cfg mtrace part spec ~add_diags:madd
              ~diags:mdiags
          | Strategy.Combinatorial _ ->
            run_combinatorial options ~budget ~cancel:cancelled ~publish
              mtrace part spec []
          | Strategy.Lns l ->
            run_lns options ~seed:l.seed ~budget ~cancel:cancelled ~publish
              mtrace part spec []
          | Strategy.Portfolio _ ->
            (* flattened before spawning *)
            assert false);
    }
  in
  let members = List.concat_map Strategy.flatten members in
  let completions, winner =
    Rfloor_portfolio.race ~cancel:base_cancel ~conclusive
      (List.mapi member_thunk members)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let outcomes =
    List.filter_map
      (fun (c : outcome Rfloor_portfolio.completion) ->
        match c.Rfloor_portfolio.c_result with
        | Ok o -> Some (c, o)
        | Error e ->
          T.warn trace
            (Printf.sprintf "portfolio member %s raised: %s"
               c.Rfloor_portfolio.c_label (Printexc.to_string e));
          None)
      completions
  in
  (* losing members surface their cancellation on the caller's tracer:
     one Stopped event per cancelled loser, outside any solve segment *)
  List.iter
    (fun ((c : outcome Rfloor_portfolio.completion), o) ->
      if (not c.Rfloor_portfolio.c_winner) && o.stop = Some Cancelled then
        T.stopped trace ~worker:c.Rfloor_portfolio.c_index "cancel")
    outcomes;
  (match winner with
  | Some i ->
    let c = List.nth completions i in
    T.messagef trace "portfolio winner: %s" c.Rfloor_portfolio.c_label;
    Rfloor_metrics.Registry.Counter.incr
      (Rfloor_metrics.Registry.counter options.metrics
         ~help:"Portfolio races won, by member strategy"
         ~labels:[ ("strategy", c.Rfloor_portfolio.c_label) ]
         "rfloor_portfolio_wins_total")
  | None -> ());
  let member_outs = List.map snd outcomes in
  let nodes = List.fold_left (fun a o -> a + o.nodes) 0 member_outs in
  let iters =
    List.fold_left (fun a o -> a + o.simplex_iterations) 0 member_outs
  in
  let all_diags =
    List.sort_uniq Diag.compare
      (!diags @ List.concat_map (fun o -> o.diagnostics) member_outs)
  in
  let plan_key p =
    (Floorplan.wasted_frames part spec p, Floorplan.wirelength spec p)
  in
  let best_plan =
    let board_plan =
      Option.map
        (fun (_, p) -> Search.Engine.add_soft_areas part spec p)
        (Rfloor_portfolio.best board)
    in
    let cands =
      List.filter_map (fun o -> o.plan) member_outs
      @ Option.to_list board_plan
    in
    match List.sort (fun a b -> compare (plan_key a) (plan_key b)) cands with
    | [] -> None
    | p :: _ -> Some p
  in
  let outcome_of plan status stop =
    let wasted =
      Option.map (fun p -> Floorplan.wasted_frames part spec p) plan
    in
    {
      plan;
      wasted;
      wirelength = Option.map (fun p -> Floorplan.wirelength spec p) plan;
      fc_identified =
        (match plan with Some p -> Floorplan.fc_count p | None -> 0);
      status;
      objective_value = Option.map float_of_int wasted;
      nodes;
      simplex_iterations = iters;
      elapsed;
      stop;
      diagnostics = all_diags;
      report = T.report trace ~nodes ~simplex_iterations:iters ~elapsed;
    }
  in
  let refresh o =
    {
      o with
      nodes;
      simplex_iterations = iters;
      elapsed;
      diagnostics = all_diags;
      report = T.report trace ~nodes ~simplex_iterations:iters ~elapsed;
    }
  in
  match
    ( List.find_opt (fun o -> o.status = Optimal) member_outs,
      List.find_opt (fun o -> o.status = Infeasible) member_outs )
  with
  | Some o, _ -> refresh { o with stop = None }
  | None, Some o -> (
    match best_plan with
    | Some p when ext_ok ->
      (* the exact member completed its search against the board's
         bound: nothing strictly better than the published incumbent
         exists, so the best known plan is optimal *)
      outcome_of (Some p) Optimal None
    | Some p ->
      (* an infeasibility claim next to a feasible plan should be
         impossible without the external bound; trust the plan *)
      outcome_of (Some p) Feasible None
    | None -> refresh { o with stop = None })
  | None, None ->
    let stop =
      if options.cancel () then Some Cancelled
      else if
        List.exists (fun o -> o.stop <> None) member_outs || base_cancel ()
      then Some Budget
      else None
    in
    (match best_plan with
    | Some p -> outcome_of (Some p) Feasible stop
    | None -> outcome_of None Unknown stop)

let run_strategy options trace part spec ~add_diags ~diags strategy =
  match strategy with
  | Strategy.Milp m ->
    let budget =
      effective_budget ~global:options.time_limit ~member:m.time_limit
        ~label:(Strategy.to_string strategy) ~add_diags
    in
    let cfg =
      {
        mg_engine = m.engine;
        mg_warm_start = m.warm_start;
        mg_workers = m.workers;
        mg_budget = budget;
        mg_cancel = options.cancel;
        mg_external_bound = Bb.no_external_bound;
        mg_publish = None;
      }
    in
    solve_milp options cfg trace part spec ~add_diags ~diags
  | Strategy.Combinatorial c ->
    let budget =
      effective_budget ~global:options.time_limit ~member:c.time_limit
        ~label:(Strategy.to_string strategy) ~add_diags
    in
    run_combinatorial options ~budget ~cancel:options.cancel ~publish:None
      trace part spec !diags
  | Strategy.Lns l ->
    let budget =
      effective_budget ~global:options.time_limit ~member:l.time_limit
        ~label:(Strategy.to_string strategy) ~add_diags
    in
    run_lns options ~seed:l.seed ~budget ~cancel:options.cancel ~publish:None
      trace part spec !diags
  | Strategy.Portfolio members ->
    run_portfolio options trace part spec ~add_diags ~diags members

let solve ?(options = default_options) part (spec : Spec.t) =
  (* One live tracer per solve, even with the null sink: the metrics
     behind [outcome.report] always accumulate; events only flow when a
     real sink is attached.  A live metrics registry tees its
     event-folding sink onto the caller's, so the registry sees the
     whole event stream (phases, incumbents, steals) in addition to the
     direct simplex/presolve instrumentation. *)
  let sink =
    if Rfloor_metrics.Registry.live options.metrics then
      T.Sink.tee options.trace (Rfloor_metrics.Trace_sink.sink options.metrics)
    else options.trace
  in
  let trace = T.create ~sink () in
  (* spec/partition preflight: error findings prove infeasibility before
     any model is built or any node is explored *)
  let diags = ref [] in
  let add_diags ds =
    List.iter (fun d -> T.messagef trace "preflight: %a" Diag.pp d) ds;
    diags := !diags @ ds
  in
  if options.preflight then
    add_diags
      (T.span trace T.Event.Lint (fun () ->
           Rfloor_analysis.Preflight.spec part spec));
  if Diag.has_errors !diags then
    {
      plan = None;
      wasted = None;
      wirelength = None;
      fc_identified = 0;
      status = Infeasible;
      objective_value = None;
      nodes = 0;
      simplex_iterations = 0;
      elapsed = 0.;
      stop = None;
      diagnostics = !diags;
      report = T.report trace ~nodes:0 ~simplex_iterations:0 ~elapsed:0.;
    }
  else
    run_strategy options trace part spec ~add_diags ~diags options.strategy

let feasible ?(options = default_options) part spec =
  solve ~options:{ options with objective_mode = Feasibility_only } part spec

let export_lp ?(options = default_options) part spec =
  let engine =
    match options.strategy with
    | Strategy.Milp m -> m.engine
    | Strategy.Combinatorial _ | Strategy.Lns _ | Strategy.Portfolio _ -> O
  in
  let cfg =
    {
      mg_engine = engine;
      mg_warm_start = false;
      mg_workers = 1;
      mg_budget = None;
      mg_cancel = Bb.never_cancel;
      mg_external_bound = Bb.no_external_bound;
      mg_publish = None;
    }
  in
  let relations = pair_relations spec (resolve_seed cfg part spec) in
  let objective =
    match options.objective_mode with
    | Feasibility_only -> Model.Feasibility
    | Weighted w -> Model.Weighted w
    | Lexicographic -> Model.Wasted_frames_only
  in
  let model =
    Model.build
      ~options:
        {
          Model.objective;
          paper_literal_l = options.paper_literal_l;
          pair_relations = relations;
          extra_waste_cap = None;
          cuts = options.cuts;
        }
      part spec
  in
  Milp.Lp_format.to_string (Model.lp model)

let pp_outcome ppf o =
  Format.fprintf ppf "status=%s wasted=%s wirelength=%s fc=%d nodes=%d %.1fs"
    (match o.status with
    | Optimal -> "optimal"
    | Feasible -> "feasible"
    | Infeasible -> "infeasible"
    | Unknown -> "unknown")
    (match o.wasted with Some w -> string_of_int w | None -> "-")
    (match o.wirelength with Some w -> Printf.sprintf "%.1f" w | None -> "-")
    o.fc_identified o.nodes o.elapsed;
  (match o.stop with
  | Some Budget -> Format.fprintf ppf " stop=budget"
  | Some Cancelled -> Format.fprintf ppf " stop=cancelled"
  | None -> ());
  let nerr = Diag.count Diag.Error o.diagnostics
  and nwarn = Diag.count Diag.Warning o.diagnostics in
  if nerr > 0 || nwarn > 0 then
    Format.fprintf ppf " diagnostics=%dE/%dW" nerr nwarn
