module Sync = Rfloor_sync

type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

type stop_reason = Budget | Cancelled

type result = {
  status : status;
  incumbent : (float * float array) option;
  best_bound : float;
  nodes : int;
  simplex_iterations : int;
  elapsed : float;
  stop : stop_reason option;
}

type options = {
  time_limit : float option;
  node_limit : int option;
  priorities : float array option;
  trace : Rfloor_trace.t;
  metrics : Rfloor_metrics.Registry.t;
  cancel : unit -> bool;
  warm_lp : bool;
  external_bound : unit -> float;
}

let mip_gap = 1e-6
let int_eps = 1e-6

let never_cancel () = false
let no_external_bound () = infinity

let default_options =
  {
    time_limit = None;
    node_limit = None;
    priorities = None;
    trace = Rfloor_trace.disabled;
    metrics = Rfloor_metrics.Registry.null;
    cancel = never_cancel;
    warm_lp = true;
    external_bound = no_external_bound;
  }

let workers_from_env ?(default = 1) ?(trace = Rfloor_trace.disabled) () =
  match Sys.getenv_opt "RFLOOR_WORKERS" with
  | None -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some n ->
      Rfloor_trace.warn trace
        (Printf.sprintf "RFLOOR_WORKERS=%d is not positive; clamping to 1" n);
      1
    | None ->
      Rfloor_trace.warn trace
        (Printf.sprintf "RFLOOR_WORKERS=%s does not parse as an integer; using %d"
           (String.trim s) default);
      default)

(* An open subproblem, serialized as a bound overlay on the root LP.
   Carrying the full arrays (not deltas) keeps claiming O(1) for the
   thief: the shared Simplex.Core is immutable, so a worker can solve
   any overlay without rebuilding anything. *)
type task = {
  t_lb : float array;
  t_ub : float array;
  t_bound : float;
  t_depth : int;
  t_basis : Simplex.Basis.t option;
      (* parent's optimal basis — immutable, so a donated task carries
         its warm-start seed safely across domains *)
}

(* The shared incumbent: primal key (minimization order) plus the
   point.  A single immutable record per update makes the CAS loop
   race-free — readers always see a consistent (key, x) pair. *)
type inc = { i_key : float; i_x : float array option }

let frac x = x -. Float.round x

(* Pick the branching variable: among fractional integer variables,
   highest priority first, then most fractional. *)
let pick_branch ~priorities int_vars x =
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

let solve ?(options = default_options) ?(workers = 1) ?incumbent lp =
  let workers = max 1 workers in
  let trace = options.trace in
  (* Per-LP histogram handles are registered once, before any domain
     spawns; observations are lock-free atomics so all workers share
     them.  [mlive] is captured once: when metrics are off, the per-node
     path below skips the clock reads entirely. *)
  let mlive = Rfloor_metrics.Registry.live options.metrics in
  let h_lp_iters, h_lp_seconds =
    let module R = Rfloor_metrics.Registry in
    ( R.histogram options.metrics ~help:"Simplex iterations per LP relaxation"
        ~buckets:R.count_buckets "rfloor_simplex_iterations_per_lp",
      R.histogram options.metrics ~help:"Wall time per LP relaxation solve"
        "rfloor_lp_solve_seconds" )
  in
  (* LP counters registered once before any domain spawns; updates are
     lock-free atomics shared by all workers *)
  let instr =
    if mlive then Some (Simplex.instruments options.metrics) else None
  in
  let t0 = Rfloor_trace.clock () in
  let dir = Lp.objective_dir lp in
  (* objective values in minimization order; negation is its own
     inverse, so [unkey] maps keys back to the original direction *)
  let key k = match dir with Lp.Minimize -> k | Lp.Maximize -> -.k in
  let unkey = key in
  let core = Simplex.Core.of_lp lp in
  let n = Lp.num_vars lp in
  let int_vars = Lp.integer_vars lp in
  let root_lb = Array.init n (fun v -> Lp.var_lb lp v) in
  let root_ub = Array.init n (fun v -> Lp.var_ub lp v) in
  List.iter
    (fun v ->
      if Float.is_finite root_lb.(v) then root_lb.(v) <- Float.round (ceil (root_lb.(v) -. 1e-9));
      if Float.is_finite root_ub.(v) then root_ub.(v) <- Float.round (floor (root_ub.(v) +. 1e-9)))
    int_vars;
  (* ---- shared state ---- *)
  let inc = Sync.Atomic.make ~name:"bb.incumbent" { i_key = infinity; i_x = None } in
  let nodes = Sync.Atomic.make ~name:"bb.nodes" 0
  and iters = Sync.Atomic.make ~name:"bb.iters" 0 in
  let unbounded = Sync.Atomic.make ~name:"bb.unbounded" false in
  let incomplete = Sync.Atomic.make ~name:"bb.incomplete" false in
  let over_budget = Sync.Atomic.make ~name:"bb.over_budget" false in
  let cancelled = Sync.Atomic.make ~name:"bb.cancelled" false in
  (* one-shot guard so a budget stop traces once, not once per worker *)
  let budget_emitted = Sync.Atomic.make ~name:"bb.budget_emitted" false in
  let root_bound = Sync.Atomic.make ~name:"bb.root_bound" neg_infinity in
  (* Global deque of open subproblems.  Push/claim are mutex-guarded;
     [qlen] is a racy size estimate that only steers the donation
     heuristic, and [active] counts workers mid-dive so that an empty
     deque plus zero active workers means the frontier is exhausted.
     [active] is incremented inside the claim critical section, so no
     worker can observe "empty and idle" while a task is in flight. *)
  let qm = Sync.Mutex.create ~name:"bb.queue" () in
  let queue : task Queue.t = Queue.create () in
  let qlen = Sync.Atomic.make ~name:"bb.qlen" 0 in
  let active = Sync.Atomic.make ~name:"bb.active" 0 in
  let push_tasks ts =
    if ts <> [] then begin
      Sync.Mutex.lock qm;
      List.iter (fun t -> Queue.add t queue) ts;
      Sync.Mutex.unlock qm;
      ignore (Sync.Atomic.fetch_and_add qlen (List.length ts))
    end
  in
  let try_claim () =
    Sync.Mutex.lock qm;
    let r =
      if Queue.is_empty queue then None
      else begin
        Sync.Atomic.incr active;
        ignore (Sync.Atomic.fetch_and_add qlen (-1));
        Some (Queue.pop queue)
      end
    in
    Sync.Mutex.unlock qm;
    r
  in
  (* Per-worker node/iteration tallies: each slot is touched only by
     its own domain, then flushed to the tracer after the joins. *)
  let local_nodes = Array.make workers 0 in
  let local_iters = Array.make workers 0 in
  (* Lock-free incumbent improvement: retry the CAS until we either
     install the better point or observe someone else already did. *)
  let rec improve k x =
    let cur = Sync.Atomic.get inc in
    if k < cur.i_key then
      if Sync.Atomic.compare_and_set inc cur { i_key = k; i_x = Some x } then true
      else improve k x
    else false
  in
  (match incumbent with
  | None -> ()
  | Some x -> (
    match Lp.validate ~eps:1e-5 lp x with
    | Ok () ->
      let k = key (Lp.objective_value lp x) in
      if improve k (Array.copy x) then
        (* announce the installed warm start so progress consumers have
           an incumbent from node zero *)
        Rfloor_trace.incumbent trace ~worker:0 ~objective:(unkey k) ~node:0
    | Error msg ->
      Rfloor_trace.warn trace ~worker:0
        (Printf.sprintf "warm incumbent rejected: %s" msg)));
  (* Prune cutoff: the better of the shared incumbent and any
     externally known feasible objective (a portfolio peer's
     incumbent).  Nodes whose bound cannot beat the cutoff are
     fathomed; when both are infinite the cutoff is NaN and every
     comparison is false, so nothing prunes.  External pruning can
     exhaust the tree without an own incumbent: the resulting
     [Infeasible] then means "nothing strictly better than the external
     solution exists", which is what a racing caller needs. *)
  let cutoff () =
    let ik = (Sync.Atomic.get inc).i_key in
    let e = options.external_bound () in
    let k = if Float.is_finite e then min ik (key e) else ik in
    k -. (mip_gap *. max 1. (abs_float k))
  in
  let out_of_budget () =
    Sync.Atomic.get over_budget
    ||
    let over =
      (match options.time_limit with
      | Some tl -> Rfloor_trace.clock () -. t0 > tl
      | None -> false)
      || match options.node_limit with
         | Some nl -> Sync.Atomic.get nodes >= nl
         | None -> false
    in
    if over then Sync.Atomic.set over_budget true;
    over
  in
  let stop_requested () =
    Sync.Atomic.get unbounded || Sync.Atomic.get over_budget || Sync.Atomic.get cancelled
  in
  (* Donate the shallowest (largest) open subtrees whenever the global
     deque runs short — the stealing happens on the donor's side so the
     deque never needs per-node locking on the hot dive path. *)
  let donate w stack =
    if workers > 1 && Sync.Atomic.get qlen < workers then begin
      let len = List.length !stack in
      if len > 3 then begin
        let keep = (len + 1) / 2 in
        let rec split i acc rest =
          if i >= keep then (List.rev acc, rest)
          else
            match rest with
            | [] -> (List.rev acc, [])
            | x :: tl -> split (i + 1) (x :: acc) tl
        in
        let mine, give = split 0 [] !stack in
        stack := mine;
        push_tasks give;
        Rfloor_trace.steal trace ~worker:w ~tasks:(List.length give)
      end
    end
  in
  (* One claimed subtree: a depth-first dive on a private stack,
     pruning against the shared incumbent.  On a budget stop the
     unexplored nodes go back to the deque so the final dual bound
     still covers them. *)
  let process w task =
    let stack = ref [ task ] in
    let running = ref true in
    (* a stopped dive returns its open nodes to the deque so the final
       dual bound still covers them; the latch makes the whole pool
       trace one [Stopped] event per reason *)
    let stop_dive node latch reason =
      Sync.Atomic.set incomplete true;
      if Sync.Atomic.compare_and_set latch false true then
        Rfloor_trace.stopped trace ~worker:w reason;
      push_tasks (node :: !stack);
      stack := [];
      running := false
    in
    while !running do
      match !stack with
      | [] -> running := false
      | node :: rest ->
        stack := rest;
        if Sync.Atomic.get unbounded then begin
          stack := [];
          running := false
        end
        else if options.cancel () then stop_dive node cancelled "cancel"
        else if out_of_budget () then stop_dive node budget_emitted "budget"
        else begin
          if node.t_bound >= cutoff () then () (* pruned by bound *)
          else begin
            ignore (Sync.Atomic.fetch_and_add nodes 1);
            local_nodes.(w) <- local_nodes.(w) + 1;
            Rfloor_trace.node_explored trace ~iters:local_iters.(w) ~worker:w
              ~depth:node.t_depth ~bound:(unkey node.t_bound);
            let t_lp = if mlive then Rfloor_trace.clock () else 0. in
            let warm = if options.warm_lp then node.t_basis else None in
            let solve_node () =
              Simplex.Core.solve_warm ~lb:node.t_lb ~ub:node.t_ub ?warm
                ?instr ~trace ~worker:w core
            in
            let r, node_basis =
              if node.t_depth = 0 then
                Rfloor_trace.span trace ~worker:w Rfloor_trace.Event.Root_lp
                  solve_node
              else solve_node ()
            in
            if mlive then begin
              Rfloor_metrics.Registry.Histogram.observe h_lp_seconds
                (Rfloor_trace.clock () -. t_lp);
              Rfloor_metrics.Registry.Histogram.observe h_lp_iters
                (float_of_int r.Simplex.iterations)
            end;
            ignore (Sync.Atomic.fetch_and_add iters r.Simplex.iterations);
            local_iters.(w) <- local_iters.(w) + r.Simplex.iterations;
            match r.Simplex.status with
            | Simplex.Infeasible -> ()
            | Simplex.Iter_limit -> Sync.Atomic.set incomplete true
            | Simplex.Unbounded ->
              (* any node's ray is a ray of the root relaxation *)
              Sync.Atomic.set unbounded true
            | Simplex.Optimal -> (
              let bound = key r.Simplex.objective in
              if node.t_depth = 0 then Sync.Atomic.set root_bound bound;
              if bound >= cutoff () then ()
              else
                match
                  pick_branch ~priorities:options.priorities int_vars
                    r.Simplex.x
                with
                | None ->
                  let x = Array.copy r.Simplex.x in
                  List.iter (fun v -> x.(v) <- Float.round x.(v)) int_vars;
                  let obj_key = key (Lp.objective_value lp x) in
                  if improve obj_key x then
                    Rfloor_trace.incumbent trace ~worker:w
                      ~objective:(unkey obj_key) ~node:(Sync.Atomic.get nodes)
                | Some v ->
                  let f = r.Simplex.x.(v) in
                  let fl = Float.round (floor (f +. int_eps)) in
                  let down () =
                    let ub = Array.copy node.t_ub in
                    ub.(v) <- min ub.(v) fl;
                    { t_lb = Array.copy node.t_lb; t_ub = ub; t_bound = bound;
                      t_depth = node.t_depth + 1; t_basis = node_basis }
                  and up () =
                    let lb = Array.copy node.t_lb in
                    lb.(v) <- max lb.(v) (fl +. 1.);
                    { t_lb = lb; t_ub = Array.copy node.t_ub; t_bound = bound;
                      t_depth = node.t_depth + 1; t_basis = node_basis }
                  in
                  (* explore the child nearest to the LP value first *)
                  let first, second =
                    if frac f <= 0. then (down (), up ()) else (up (), down ())
                  in
                  stack := first :: second :: !stack;
                  donate w stack)
          end
        end
    done
  in
  let rec worker_loop w idle_spins =
    if stop_requested () then ()
    else begin
      let claimed = try_claim () in
      (* a lone worker only takes back its own root or nothing: no steal *)
      if workers > 1 then
        Rfloor_trace.steal_attempt trace ~success:(claimed <> None);
      match claimed with
      | Some t ->
        Fun.protect
          ~finally:(fun () -> Sync.Atomic.decr active)
          (fun () -> process w t);
        worker_loop w 0
      | None ->
        if Sync.Atomic.get active = 0 then () (* frontier exhausted *)
        else begin
          if idle_spins = 0 then Rfloor_trace.worker_idle trace ~worker:w;
          if idle_spins < 200 then Domain.cpu_relax () else Unix.sleepf 0.0002;
          worker_loop w (idle_spins + 1)
        end
    end
  in
  push_tasks
    [ { t_lb = root_lb; t_ub = root_ub; t_bound = neg_infinity; t_depth = 0;
        t_basis = None } ];
  let domains =
    List.init (workers - 1) (fun i -> Sync.Domain.spawn ~name:(Printf.sprintf "bb.worker%d" (i + 1))
          (fun () -> worker_loop (i + 1) 0))
  in
  worker_loop 0 0;
  List.iter Sync.Domain.join domains;
  for w = 0 to workers - 1 do
    Rfloor_trace.add_worker_totals trace ~worker:w ~nodes:local_nodes.(w)
      ~iterations:local_iters.(w)
  done;
  let leftover =
    Sync.Mutex.lock qm;
    let l = List.of_seq (Queue.to_seq queue) in
    Sync.Mutex.unlock qm;
    l
  in
  let final = Sync.Atomic.get inc in
  let complete = leftover = [] && not (Sync.Atomic.get incomplete) in
  let bound_key =
    if Sync.Atomic.get unbounded then neg_infinity
    else if complete then final.i_key
    else
      List.fold_left
        (fun acc t ->
          min acc
            (if t.t_bound = neg_infinity then Sync.Atomic.get root_bound else t.t_bound))
        final.i_key leftover
  in
  let status =
    if Sync.Atomic.get unbounded then Unbounded
    else
      match (final.i_x, complete) with
      | Some _, true -> Optimal
      | Some _, false -> Feasible
      | None, true -> Infeasible
      | None, false -> Unknown
  in
  let stop =
    if Sync.Atomic.get unbounded then None (* conclusive, even with open nodes *)
    else if Sync.Atomic.get cancelled then Some Cancelled
    else if not complete then Some Budget
    else None
  in
  {
    status;
    incumbent =
      (match final.i_x with Some x -> Some (unkey final.i_key, x) | None -> None);
    best_bound = unkey bound_key;
    nodes = Sync.Atomic.get nodes;
    simplex_iterations = Sync.Atomic.get iters;
    (* single monotone sample, clamped: re-queued nodes from a
       cooperative stop never double-charge the elapsed time *)
    elapsed = Float.max 0. (Rfloor_trace.clock () -. t0);
    stop;
  }
