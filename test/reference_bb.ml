(* Reference branch-and-bound for differential testing.

   This is the sequential depth-first loop that [Milp.Branch_bound]
   ran on one worker before the work-stealing engine became its only
   search, frozen as an oracle together with its private branching
   rule, LP histograms and objective key.  It shares no search code
   with the live engine, so equal results, node counts, trace events
   and report counters at one worker are evidence that the engine's
   1-worker path is the same search.  The options and result types are
   the live module's, so both run from one set of options.  The
   algorithm is untouched.  Do not "improve" this file — its value is
   being old. *)

open Milp
open Branch_bound

(* Per-LP profiling handles: the same series names as the live
   engine's, so both land in the same histograms. *)
let lp_histograms reg =
  let module R = Rfloor_metrics.Registry in
  ( R.histogram reg ~help:"Simplex iterations per LP relaxation"
      ~buckets:R.count_buckets "rfloor_simplex_iterations_per_lp",
    R.histogram reg ~help:"Wall time per LP relaxation solve"
      "rfloor_lp_solve_seconds" )

let objective_key dir obj =
  match dir with Lp.Minimize -> obj | Lp.Maximize -> -.obj

type node = {
  n_lb : float array;
  n_ub : float array;
  n_bound : float;
  n_depth : int;
  n_basis : Simplex.Basis.t option;
      (* parent's optimal basis; seeds the dual-simplex warm start *)
}

let frac x = x -. Float.round x

(* Pick the branching variable: among fractional integer variables,
   highest priority first, then most fractional. *)
let pick_branch ~int_eps ~priorities int_vars x =
  let best = ref None in
  List.iter
    (fun v ->
      let f = abs_float (frac x.(v)) in
      if f > int_eps then begin
        let prio = match priorities with Some p -> p.(v) | None -> 0. in
        let score = (prio, f) in
        match !best with
        | Some (_, s) when s >= score -> ()
        | _ -> best := Some (v, score)
      end)
    int_vars;
  match !best with None -> None | Some (v, _) -> Some v

let solve ?(options = default_options) ?(worker = 0) ?incumbent lp =
  let trace = options.trace in
  (* [mlive] captured once: when metrics are off, the per-node path
     below skips the clock reads entirely. *)
  let mlive = Rfloor_metrics.Registry.live options.metrics in
  let h_lp_iters, h_lp_seconds = lp_histograms options.metrics in
  (* LP counters registered once per run, not per node: registration
     takes the registry mutex, counter updates are lock-free *)
  let instr = if mlive then Some (Simplex.instruments options.metrics) else None in
  let t0 = Unix.gettimeofday () in
  (* root-node branch-and-cut: strengthen a private copy with GMI cuts *)
  let lp =
    if options.gomory_rounds <= 0 then lp
    else begin
      let lp' = Lp.copy lp in
      let added = Gomory.add_root_cuts ~rounds:options.gomory_rounds lp' in
      Rfloor_trace.cuts_added trace ~worker ~rounds:options.gomory_rounds
        ~cuts:added;
      lp'
    end
  in
  let dir = Lp.objective_dir lp in
  let key = objective_key dir in
  let unkey k = match dir with Lp.Minimize -> k | Lp.Maximize -> -.k in
  let core = Simplex.Core.of_lp lp in
  let n = Lp.num_vars lp in
  let int_vars = Lp.integer_vars lp in
  let root_lb = Array.init n (fun v -> Lp.var_lb lp v) in
  let root_ub = Array.init n (fun v -> Lp.var_ub lp v) in
  (* integer variables can have their bounds snapped to integers *)
  List.iter
    (fun v ->
      if Float.is_finite root_lb.(v) then root_lb.(v) <- Float.round (ceil (root_lb.(v) -. 1e-9));
      if Float.is_finite root_ub.(v) then root_ub.(v) <- Float.round (floor (root_ub.(v) +. 1e-9)))
    int_vars;
  let inc_x = ref None and inc_key = ref infinity in
  (match incumbent with
  | None -> ()
  | Some x -> (
    match Lp.validate ~eps:1e-5 lp x with
    | Ok () ->
      inc_x := Some (Array.copy x);
      inc_key := key (Lp.objective_value lp x);
      (* announce the installed warm start so progress consumers have
         an incumbent from node zero *)
      Rfloor_trace.incumbent trace ~worker ~objective:(unkey !inc_key) ~node:0
    | Error msg ->
      Rfloor_trace.warn trace ~worker
        (Printf.sprintf "warm incumbent rejected: %s" msg)));
  let nodes = ref 0 and iters = ref 0 in
  let incomplete = ref false in
  let cancelled = ref false in
  (* stack of open nodes; each carries the bound inherited from its
     parent's LP relaxation *)
  let stack =
    ref
      [ { n_lb = root_lb; n_ub = root_ub; n_bound = neg_infinity; n_depth = 0;
          n_basis = None } ]
  in
  let root_bound = ref neg_infinity in
  let unbounded = ref false in
  let stopped = ref false in
  (* Prune cutoff: the better of the own incumbent and any externally
     known feasible objective (a portfolio peer's incumbent).  Nodes
     whose bound cannot beat the cutoff are fathomed; when both are
     infinite the cutoff is NaN and every comparison is false, so
     nothing prunes.  External pruning can exhaust the tree without an
     own incumbent: the resulting [Infeasible] then means "nothing
     strictly better than the external solution exists", which is what
     a racing caller needs. *)
  let cutoff () =
    let e = options.external_bound () in
    let k = if Float.is_finite e then min !inc_key (key e) else !inc_key in
    k -. (options.mip_gap *. max 1. (abs_float k))
  in
  let out_of_budget () =
    (match options.time_limit with
    | Some tl -> Unix.gettimeofday () -. t0 > tl
    | None -> false)
    || match options.node_limit with Some nl -> !nodes >= nl | None -> false
  in
  while (not !stopped) && !stack <> [] do
    match !stack with
    | [] -> ()
    | node :: rest ->
      stack := rest;
      if !unbounded then stopped := true
      else if options.cancel () then begin
        (* cooperative cancellation: hand the node back so the final
           dual bound still covers it, exactly like a budget stop *)
        incomplete := true;
        cancelled := true;
        stack := node :: !stack;
        stopped := true;
        Rfloor_trace.stopped trace ~worker "cancel"
      end
      else if out_of_budget () then begin
        incomplete := true;
        stack := node :: !stack;
        stopped := true;
        Rfloor_trace.stopped trace ~worker "budget"
      end
      else if node.n_bound >= cutoff () then () (* pruned by bound *)
      else begin
        incr nodes;
        Rfloor_trace.node_explored trace ~iters:!iters ~worker
          ~depth:node.n_depth ~bound:(unkey node.n_bound);
        let t_lp = if mlive then Unix.gettimeofday () else 0. in
        let warm = if options.warm_lp then node.n_basis else None in
        let solve_node () =
          Simplex.Core.solve_warm ~lb:node.n_lb ~ub:node.n_ub ?warm ?instr
            ~trace ~worker core
        in
        let r, node_basis =
          if node.n_depth = 0 then
            Rfloor_trace.span trace ~worker Rfloor_trace.Event.Root_lp
              solve_node
          else solve_node ()
        in
        if mlive then begin
          Rfloor_metrics.Registry.Histogram.observe h_lp_seconds
            (Unix.gettimeofday () -. t_lp);
          Rfloor_metrics.Registry.Histogram.observe h_lp_iters
            (float_of_int r.Simplex.iterations)
        end;
        iters := !iters + r.Simplex.iterations;
        match r.Simplex.status with
        | Simplex.Infeasible -> ()
        | Simplex.Iter_limit -> incomplete := true
        | Simplex.Unbounded ->
          (* a child's relaxation is a subset of the root's: an unbounded
             ray in any node is a ray of the root relaxation *)
          unbounded := true
        | Simplex.Optimal -> (
          let bound = key r.Simplex.objective in
          if node.n_depth = 0 then root_bound := bound;
          if bound >= cutoff () then ()
          else
            match
              pick_branch ~int_eps:options.int_eps ~priorities:options.priorities
                int_vars r.Simplex.x
            with
            | None ->
              (* integer feasible: snap integers and accept *)
              let x = Array.copy r.Simplex.x in
              List.iter (fun v -> x.(v) <- Float.round x.(v)) int_vars;
              let obj_key = key (Lp.objective_value lp x) in
              if obj_key < !inc_key then begin
                inc_key := obj_key;
                inc_x := Some x;
                Rfloor_trace.incumbent trace ~worker
                  ~objective:(unkey obj_key) ~node:!nodes
              end
            | Some v ->
              let f = r.Simplex.x.(v) in
              let fl = Float.round (floor (f +. options.int_eps)) in
              let down () =
                let ub = Array.copy node.n_ub in
                ub.(v) <- min ub.(v) fl;
                { n_lb = Array.copy node.n_lb; n_ub = ub; n_bound = bound;
                  n_depth = node.n_depth + 1; n_basis = node_basis }
              and up () =
                let lb = Array.copy node.n_lb in
                lb.(v) <- max lb.(v) (fl +. 1.);
                { n_lb = lb; n_ub = Array.copy node.n_ub; n_bound = bound;
                  n_depth = node.n_depth + 1; n_basis = node_basis }
              in
              (* explore the child nearest to the LP value first *)
              let first, second = if frac f <= 0. then (down (), up ()) else (up (), down ()) in
              stack := first :: second :: !stack)
      end
  done;
  (* A sound dual bound: if the search completed, the incumbent key;
     otherwise the min over open-node parent bounds (or the root bound if
     an open node predates its first LP solve). *)
  let bound_key =
    if !unbounded then neg_infinity
    else if !stack = [] && not !incomplete then !inc_key
    else
      List.fold_left
        (fun acc nd ->
          min acc (if nd.n_bound = neg_infinity then !root_bound else nd.n_bound))
        !inc_key !stack
  in
  (* one monotone sample against the call's own start; the clamp keeps
     elapsed non-negative even if the wall clock steps backwards, and a
     node handed back by a cooperative stop is never double-charged
     because no per-node time accumulates anywhere *)
  let elapsed = Float.max 0. (Unix.gettimeofday () -. t0) in
  Rfloor_trace.add_worker_totals trace ~worker ~nodes:!nodes ~iterations:!iters;
  let status =
    if !unbounded then Unbounded
    else
      match (!inc_x, !stack = [] && not !incomplete) with
      | Some _, true -> Optimal
      | Some _, false -> Feasible
      | None, true -> Infeasible
      | None, false -> Unknown
  in
  let stop =
    if !unbounded then None (* conclusive, even with open nodes left *)
    else if !cancelled then Some Cancelled
    else if !stack <> [] || !incomplete then Some Budget
    else None
  in
  {
    status;
    incumbent = (match !inc_x with Some x -> Some (unkey !inc_key, x) | None -> None);
    best_bound = unkey bound_key;
    nodes = !nodes;
    simplex_iterations = !iters;
    elapsed;
    stop;
  }
