module Solver = Rfloor.Solver
module Sync = Rfloor_sync
module T = Rfloor_trace
module R = Rfloor_metrics.Registry

type source = Solved | Cache_hit | Warm_start

type solved = {
  outcome : Solver.outcome;
  source : source;
  key : string;
  waited : float;
}

type result =
  | Completed of solved
  | Stopped of solved * string
  | Failed of string

type state = Queued | Running | Done of result

type job = {
  id : int;
  priority : int;
  deadline : float option;  (* absolute, Rfloor_trace.clock scale *)
  submitted : float;
  cancel_flag : bool Sync.Atomic.t;
  part : Device.Partition.t;
  spec : Device.Spec.t;
  options : Solver.options;
  mutable state : state;
}

type t = {
  mu : Sync.Mutex.t;
  cond : Sync.Condition.t;
  mutable queue : job list;  (* claimed highest priority first, then FIFO *)
  jobs : (int, job) Hashtbl.t;
  mutable next_id : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  workers : int;
  worker_state : string array;  (* per-worker, under [mu] *)
  cache : Cache.t;
  trace : T.t;
  metrics : R.t;
  (* under [mu] *)
  cache_hits : int Sync.Shared.t;
  cache_misses : int Sync.Shared.t;
  warm_starts : int Sync.Shared.t;
  finished : int Sync.Shared.t;
  (* metric handles (atomic; safe outside the lock) *)
  m_depth : R.Gauge.t;
  m_hits : R.Counter.t;
  m_misses : R.Counter.t;
  m_warm : R.Counter.t;
  m_jobs_completed : R.Counter.t;
  m_jobs_stopped : R.Counter.t;
  m_jobs_failed : R.Counter.t;
  m_seconds : R.Histogram.t;
}

let locked t f =
  Sync.Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Sync.Mutex.unlock t.mu) f

let bump c = Sync.Shared.set c (Sync.Shared.get c + 1)

let queue_depth_unlocked t = List.length t.queue

let set_depth t = R.Gauge.set t.m_depth (float_of_int (queue_depth_unlocked t))

(* ---------------- the per-job pipeline ---------------- *)

let empty_outcome =
  {
    Solver.plan = None;
    wasted = None;
    wirelength = None;
    fc_identified = 0;
    status = Solver.Unknown;
    objective_value = None;
    nodes = 0;
    simplex_iterations = 0;
    elapsed = 0.;
    stop = Some Solver.Cancelled;
    diagnostics = [];
    report = T.Report.empty;
  }

let outcome_of_entry canon (e : Cache.entry) =
  {
    empty_outcome with
    Solver.plan = Option.map (Canonical.decode_plan canon) e.Cache.plan;
    wasted = e.Cache.wasted;
    wirelength = e.Cache.wirelength;
    fc_identified = e.Cache.fc_identified;
    status = e.Cache.status;
    objective_value = e.Cache.objective;
    stop = None;
  }

let entry_of_outcome canon ~options_key ~options_text (o : Solver.outcome) =
  {
    Cache.instance_key = canon.Canonical.instance_key;
    options_key;
    instance_text = canon.Canonical.instance_text;
    options_text;
    status = o.Solver.status;
    wasted = o.Solver.wasted;
    wirelength = o.Solver.wirelength;
    objective = o.Solver.objective_value;
    fc_identified = o.Solver.fc_identified;
    plan = Option.map (Canonical.encode_plan canon) o.Solver.plan;
  }

let run_job t job =
  let canon = Canonical.of_instance job.part job.spec in
  let okey, otext = Canonical.options_key canon job.options in
  let hit =
    Cache.find t.cache ~instance_key:canon.Canonical.instance_key
      ~instance_text:canon.Canonical.instance_text ~options_key:okey
      ~options_text:otext
  in
  match hit with
  | Some (Cache.Exact e) ->
    locked t (fun () -> bump t.cache_hits);
    R.Counter.incr t.m_hits;
    Completed
      {
        outcome = outcome_of_entry canon e;
        source = Cache_hit;
        key = canon.Canonical.instance_key;
        waited = 0.;
      }
  | (Some (Cache.Near _) | None) as near ->
    let options, okey, otext, source =
      match near with
      | Some (Cache.Near _)
        when not
               (match job.options.Solver.strategy with
               | Solver.Strategy.Milp { engine = Solver.O; _ } -> true
               | _ -> false) ->
        (* only a plain-O MILP strategy is re-engined to HO; anything
           else (HO already pinned, heuristics, portfolios) keeps its
           own seed semantics *)
        locked t (fun () -> bump t.cache_misses);
        R.Counter.incr t.m_misses;
        (job.options, okey, otext, Solved)
      | Some (Cache.Near e) -> (
        match e.Cache.plan with
        | Some plan ->
          locked t (fun () -> bump t.warm_starts);
          R.Counter.incr t.m_warm;
          let seed = Canonical.decode_plan canon plan in
          let strategy =
            match job.options.Solver.strategy with
            | Solver.Strategy.Milp m ->
              Solver.Strategy.Milp { m with engine = Solver.Ho (Some seed) }
            | st -> st
          in
          let options = { job.options with Solver.strategy } in
          (* the answer we compute is an HO answer: store it under the
             options actually used, not the requested ones *)
          let okey, otext = Canonical.options_key canon options in
          (options, okey, otext, Warm_start)
        | None ->
          locked t (fun () -> bump t.cache_misses);
          R.Counter.incr t.m_misses;
          (job.options, okey, otext, Solved))
      | _ ->
        locked t (fun () -> bump t.cache_misses);
        R.Counter.incr t.m_misses;
        (job.options, okey, otext, Solved)
    in
    let user_cancel = options.Solver.cancel in
    let cancel () =
      Sync.Atomic.get job.cancel_flag
      || (match job.deadline with
         | Some d -> Rfloor_trace.clock () > d
         | None -> false)
      || user_cancel ()
    in
    let options = { options with Solver.cancel = cancel } in
    let outcome = Solver.solve ~options job.part job.spec in
    let solved =
      { outcome; source; key = canon.Canonical.instance_key; waited = 0. }
    in
    (match outcome.Solver.stop with
    | Some Solver.Cancelled ->
      let reason =
        if Sync.Atomic.get job.cancel_flag then "cancel"
        else if
          match job.deadline with
          | Some d -> Rfloor_trace.clock () > d
          | None -> false
        then "deadline"
        else "cancel"
      in
      Stopped (solved, reason)
    | Some Solver.Budget | None ->
      if outcome.Solver.status <> Solver.Unknown then
        Cache.store t.cache (entry_of_outcome canon ~options_key:okey ~options_text:otext outcome);
      Completed solved)

(* ---------------- workers ---------------- *)

let pop_best t =
  match t.queue with
  | [] -> None
  | _ ->
    let best =
      List.fold_left
        (fun acc j ->
          match acc with
          | Some b when (b.priority, -b.id) >= (j.priority, -j.id) -> acc
          | _ -> Some j)
        None t.queue
    in
    (match best with
    | Some j ->
      t.queue <- List.filter (fun j' -> j'.id <> j.id) t.queue;
      set_depth t
    | None -> ());
    best

(* The worker goes back to "idle" in the same critical section that
   publishes the result: an awaiter woken by the broadcast must never
   read a stale "job N" for a finished job. *)
let finish t ~w job result waited =
  (match result with
  | Completed _ -> R.Counter.incr t.m_jobs_completed
  | Stopped _ -> R.Counter.incr t.m_jobs_stopped
  | Failed _ -> R.Counter.incr t.m_jobs_failed);
  R.Histogram.observe t.m_seconds waited;
  locked t (fun () ->
      job.state <- Done result;
      t.worker_state.(w) <- "idle";
      bump t.finished;
      Sync.Condition.broadcast t.cond)

let run t w job =
  let result =
    T.span t.trace ~worker:w T.Event.Job (fun () ->
        if Sync.Atomic.get job.cancel_flag then
          (* cancelled while still queued: a clean stop, no solve *)
          Stopped
            ( { outcome = empty_outcome; source = Solved; key = ""; waited = 0. },
              "cancel" )
        else
          try run_job t job
          with exn -> Failed (Printexc.to_string exn))
  in
  let waited = Rfloor_trace.clock () -. job.submitted in
  let result =
    match result with
    | Completed s -> Completed { s with waited }
    | Stopped (s, r) -> Stopped ({ s with waited }, r)
    | Failed _ -> result
  in
  finish t ~w job result waited

let rec worker_loop t w =
  Sync.Mutex.lock t.mu;
  let rec claim () =
    match pop_best t with
    | Some job ->
      job.state <- Running;
      t.worker_state.(w) <- Printf.sprintf "job %d" job.id;
      Some job
    | None ->
      if t.stop then None
      else begin
        Sync.Condition.wait t.cond t.mu;
        claim ()
      end
  in
  let job = claim () in
  if job = None then t.worker_state.(w) <- "stopped";
  Sync.Mutex.unlock t.mu;
  match job with
  | None -> ()
  | Some job ->
    run t w job;
    worker_loop t w

(* ---------------- lifecycle ---------------- *)

let create ?(workers = 1) ?(cache_capacity = 128) ?(metrics = R.null)
    ?(trace = T.disabled) () =
  let workers = max 1 workers in
  let counter = R.counter metrics in
  let jobs ~outcome =
    R.counter metrics ~help:"Service jobs by final outcome"
      ~labels:[ ("outcome", outcome) ]
      "rfloor_service_jobs_total"
  in
  let t =
    {
      mu = Sync.Mutex.create ~name:"pool.mu" ();
      cond = Sync.Condition.create ~name:"pool.cond" ();
      queue = [];
      jobs = Hashtbl.create 64;
      next_id = 0;
      stop = false;
      domains = [];
      workers;
      worker_state = Array.make workers "idle";
      cache = Cache.create ~capacity:cache_capacity ();
      trace;
      metrics;
      cache_hits = Sync.Shared.make ~name:"pool.cache_hits" 0;
      cache_misses = Sync.Shared.make ~name:"pool.cache_misses" 0;
      warm_starts = Sync.Shared.make ~name:"pool.warm_starts" 0;
      finished = Sync.Shared.make ~name:"pool.finished" 0;
      m_depth =
        R.gauge metrics ~help:"Jobs waiting in the service queue"
          "rfloor_service_queue_depth";
      m_hits =
        counter ~help:"Exact canonical-key cache hits"
          "rfloor_service_cache_hits_total";
      m_misses =
        counter ~help:"Canonical-key cache misses"
          "rfloor_service_cache_misses_total";
      m_warm =
        counter ~help:"Near hits injected as warm starts"
          "rfloor_service_warm_starts_total";
      m_jobs_completed = jobs ~outcome:"completed";
      m_jobs_stopped = jobs ~outcome:"stopped";
      m_jobs_failed = jobs ~outcome:"failed";
      m_seconds =
        R.histogram metrics ~help:"Submit-to-finish latency per job"
          "rfloor_service_job_seconds";
    }
  in
  t.domains <-
    List.init workers (fun w ->
        Sync.Domain.spawn ~name:(Printf.sprintf "pool.worker%d" w) (fun () ->
            worker_loop t w));
  t

let submit t ?(priority = 0) ?deadline ?(options = Solver.default_options) part
    spec =
  let now = Rfloor_trace.clock () in
  locked t (fun () ->
      if t.stop then invalid_arg "Pool.submit: pool is shut down";
      t.next_id <- t.next_id + 1;
      let job =
        {
          id = t.next_id;
          priority;
          deadline = Option.map (fun d -> now +. d) deadline;
          submitted = now;
          cancel_flag = Sync.Atomic.make ~name:"pool.job.cancel" false;
          part;
          spec;
          options;
          state = Queued;
        }
      in
      Hashtbl.add t.jobs job.id job;
      t.queue <- job :: t.queue;
      set_depth t;
      Sync.Condition.broadcast t.cond;
      job.id)

let cancel t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> false
      | Some job -> (
        match job.state with
        | Done _ -> false
        | Queued | Running ->
          Sync.Atomic.set job.cancel_flag true;
          true))

let await t id =
  let job =
    locked t (fun () ->
        match Hashtbl.find_opt t.jobs id with
        | None -> invalid_arg (Printf.sprintf "Pool.await: unknown job %d" id)
        | Some job -> job)
  in
  Sync.Mutex.lock t.mu;
  let rec wait () =
    match job.state with
    | Done r -> r
    | Queued | Running ->
      Sync.Condition.wait t.cond t.mu;
      wait ()
  in
  let r = wait () in
  Sync.Mutex.unlock t.mu;
  r

type stats = {
  s_workers : int;
  s_queued : int;
  s_running : int;
  s_finished : int;
  s_cache_entries : int;
  s_cache_capacity : int;
  s_cache_hits : int;
  s_cache_misses : int;
  s_warm_starts : int;
}

let stats t =
  locked t (fun () ->
      let running =
        Hashtbl.fold
          (fun _ j acc -> match j.state with Running -> acc + 1 | _ -> acc)
          t.jobs 0
      in
      {
        s_workers = t.workers;
        s_queued = queue_depth_unlocked t;
        s_running = running;
        s_finished = Sync.Shared.get t.finished;
        s_cache_entries = Cache.length t.cache;
        s_cache_capacity = Cache.capacity t.cache;
        s_cache_hits = Sync.Shared.get t.cache_hits;
        s_cache_misses = Sync.Shared.get t.cache_misses;
        s_warm_starts = Sync.Shared.get t.warm_starts;
      })

let worker_states t = locked t (fun () -> Array.to_list t.worker_state)

let shutdown t =
  let domains =
    locked t (fun () ->
        t.stop <- true;
        Sync.Condition.broadcast t.cond;
        let d = t.domains in
        t.domains <- [];
        d)
  in
  List.iter Sync.Domain.join domains
