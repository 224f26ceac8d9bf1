(* Structured solver observability: typed events, pluggable sinks,
   atomic metrics.  See rfloor_trace.mli for the cost model.  All
   synchronization goes through the instrumented Rfloor_sync layer so
   the concheck race detector can observe it. *)

module Sync = Rfloor_sync

let clock_ns () = Monotonic_clock.now ()

let clock () = Int64.to_float (clock_ns ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Events *)

module Event = struct
  type phase =
    | Build
    | Presolve
    | Lint
    | Root_lp
    | Branch_bound
    | Decode
    | Audit
    | Lp_solve
    | Job

  type payload =
    | Span_start of phase
    | Span_end of phase
    | Node_explored of { depth : int; bound : float; iters : int }
    | Incumbent of { objective : float; node : int }
    | Steal of { tasks : int }
    | Worker_idle
    | Restart of { stage : string }
    | Stopped of { reason : string }
    | Lp_refactor of { reason : string }
    | Lp_warm of { result : string }
    | Move of { module_name : string; src : string; dst : string }
    | Warning of string
    | Message of string

  type t = { at : float; worker : int; payload : payload }

  let phases =
    [ Build; Presolve; Lint; Root_lp; Branch_bound; Decode; Audit; Lp_solve;
      Job ]

  let phase_name = function
    | Build -> "build"
    | Presolve -> "presolve"
    | Lint -> "lint"
    | Root_lp -> "root_lp"
    | Branch_bound -> "branch_bound"
    | Decode -> "decode"
    | Audit -> "audit"
    | Lp_solve -> "lp_solve"
    | Job -> "job"

  let phase_of_name s =
    List.find_opt (fun p -> String.equal (phase_name p) s) phases

  let name = function
    | Span_start _ -> "span_start"
    | Span_end _ -> "span_end"
    | Node_explored _ -> "node"
    | Incumbent _ -> "incumbent"
    | Steal _ -> "steal"
    | Worker_idle -> "idle"
    | Restart _ -> "restart"
    | Stopped _ -> "stopped"
    | Lp_refactor _ -> "refactor"
    | Lp_warm _ -> "warm"
    | Move _ -> "move"
    | Warning _ -> "warning"
    | Message _ -> "message"

  let pp_payload ppf = function
    | Span_start p -> Format.fprintf ppf "begin %s" (phase_name p)
    | Span_end p -> Format.fprintf ppf "end %s" (phase_name p)
    | Node_explored { depth; bound; _ } ->
      if Float.is_finite bound then
        Format.fprintf ppf "node depth=%d bound=%.6g" depth bound
      else Format.fprintf ppf "node depth=%d" depth
    | Incumbent { objective; node } ->
      Format.fprintf ppf "incumbent %.6f (node %d)" objective node
    | Steal { tasks } -> Format.fprintf ppf "donated %d open subproblems" tasks
    | Worker_idle -> Format.fprintf ppf "idle"
    | Restart { stage } -> Format.fprintf ppf "restart: %s" stage
    | Stopped { reason } -> Format.fprintf ppf "stopped: %s" reason
    | Lp_refactor { reason } -> Format.fprintf ppf "lp refactorize: %s" reason
    | Lp_warm { result } -> Format.fprintf ppf "lp warm start: %s" result
    | Move { module_name; src; dst } ->
      Format.fprintf ppf "move %s: %s -> %s" module_name src dst
    | Warning msg -> Format.fprintf ppf "warning: %s" msg
    | Message msg -> Format.fprintf ppf "%s" msg

  let pp ppf e =
    Format.fprintf ppf "[w%d +%.4fs] %a" e.worker e.at pp_payload e.payload

  (* ---- JSONL ---- *)

  let json_float f =
    if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

  let to_json e =
    let common = Printf.sprintf "\"t\":%.6f,\"w\":%d" e.at e.worker in
    let tail =
      match e.payload with
      | Span_start p | Span_end p ->
        Printf.sprintf ",\"phase\":\"%s\"" (phase_name p)
      | Node_explored { depth; bound; iters } ->
        if iters > 0 then
          Printf.sprintf ",\"depth\":%d,\"bound\":%s,\"iters\":%d" depth
            (json_float bound) iters
        else Printf.sprintf ",\"depth\":%d,\"bound\":%s" depth (json_float bound)
      | Incumbent { objective; node } ->
        Printf.sprintf ",\"obj\":%s,\"node\":%d" (json_float objective) node
      | Steal { tasks } -> Printf.sprintf ",\"tasks\":%d" tasks
      | Worker_idle -> ""
      | Restart { stage } ->
        Printf.sprintf ",\"stage\":\"%s\"" (Rfloor_json.escape stage)
      | Stopped { reason } | Lp_refactor { reason } ->
        Printf.sprintf ",\"reason\":\"%s\"" (Rfloor_json.escape reason)
      | Lp_warm { result } ->
        Printf.sprintf ",\"result\":\"%s\"" (Rfloor_json.escape result)
      | Move { module_name; src; dst } ->
        Printf.sprintf ",\"module\":\"%s\",\"src\":\"%s\",\"dst\":\"%s\""
          (Rfloor_json.escape module_name) (Rfloor_json.escape src)
          (Rfloor_json.escape dst)
      | Warning msg | Message msg ->
        Printf.sprintf ",\"msg\":\"%s\"" (Rfloor_json.escape msg)
    in
    Printf.sprintf "{%s,\"ev\":\"%s\"%s}" common (name e.payload) tail

  let of_json line =
    match Rfloor_json.parse line with
    | Error m -> Error m
    | Ok (Rfloor_json.Obj fields as doc) -> (
      let seen = ref [] in
      let take get k =
        seen := k :: !seen;
        get k doc
      in
      let num = take Rfloor_json.get_num in
      let int_ = take Rfloor_json.get_int in
      let str = take Rfloor_json.get_string in
      let num_or_null k =
        if List.mem_assoc k fields then
          Result.map
            (Option.value ~default:Float.nan)
            (take Rfloor_json.get_num_opt k)
        else Error (Printf.sprintf "missing field %S" k)
      in
      let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
      let* at = num "t" in
      let* worker = int_ "w" in
      let* ev = str "ev" in
      let* payload =
        match ev with
        | "span_start" | "span_end" ->
          let* p = str "phase" in
          (match phase_of_name p with
          | None -> Error (Printf.sprintf "unknown phase %S" p)
          | Some ph ->
            Ok (if ev = "span_start" then Span_start ph else Span_end ph))
        | "node" ->
          let* depth = int_ "depth" in
          let* bound = num_or_null "bound" in
          (* [iters] (cumulative per-worker LP iterations) is optional so
             traces recorded before it existed still parse *)
          let* iters =
            if List.mem_assoc "iters" fields then int_ "iters" else Ok 0
          in
          if depth < 0 then Error "negative depth"
          else if iters < 0 then Error "negative iters"
          else Ok (Node_explored { depth; bound; iters })
        | "incumbent" ->
          let* objective = num "obj" in
          let* node = int_ "node" in
          if node < 0 then Error "negative node"
          else Ok (Incumbent { objective; node })
        | "steal" ->
          let* tasks = int_ "tasks" in
          if tasks < 1 then Error "steal with no tasks"
          else Ok (Steal { tasks })
        | "idle" -> Ok Worker_idle
        | "restart" ->
          let* stage = str "stage" in
          Ok (Restart { stage })
        | "stopped" ->
          let* reason = str "reason" in
          Ok (Stopped { reason })
        | "refactor" ->
          let* reason = str "reason" in
          Ok (Lp_refactor { reason })
        | "warm" ->
          let* result = str "result" in
          Ok (Lp_warm { result })
        | "move" ->
          let* module_name = str "module" in
          let* src = str "src" in
          let* dst = str "dst" in
          Ok (Move { module_name; src; dst })
        | "warning" ->
          let* msg = str "msg" in
          Ok (Warning msg)
        | "message" ->
          let* msg = str "msg" in
          Ok (Message msg)
        | ev -> Error (Printf.sprintf "unknown event tag %S" ev)
      in
      let unknown =
        List.filter (fun (k, _) -> not (List.mem k !seen)) fields
      in
      match unknown with
      | (k, _) :: _ -> Error (Printf.sprintf "unknown field %S" k)
      | [] ->
        if at < 0. then Error "negative timestamp"
        else if worker < 0 then Error "negative worker id"
        else Ok { at; worker; payload })
    | Ok _ -> Error "an event must be a JSON object"
end

(* ------------------------------------------------------------------ *)
(* Sinks *)

type sink = Null | Fn of { f : Event.t -> unit; m : Sync.Mutex.t }

module Sink = struct
  type t = sink

  let null = Null
  let is_null = function Null -> true | Fn _ -> false

  let of_fn f = Fn { f; m = Sync.Mutex.create ~name:"trace.sink" () }

  let send sink e =
    match sink with
    | Null -> ()
    | Fn { f; m } -> Sync.Mutex.protect m (fun () -> f e)

  let of_log_fn ?(progress_every = 500) log =
    let nodes_seen = ref 0 in
    of_fn (fun (e : Event.t) ->
        match e.Event.payload with
        | Event.Node_explored _ ->
          incr nodes_seen;
          if !nodes_seen mod progress_every = 0 then
            log (Format.asprintf "%a" Event.pp e)
        | _ -> log (Format.asprintf "%a" Event.pp e))

  let text ?progress_every oc =
    of_log_fn ?progress_every (fun line ->
        output_string oc line;
        output_char oc '\n';
        flush oc)

  let jsonl oc =
    of_fn (fun e ->
        output_string oc (Event.to_json e);
        output_char oc '\n';
        flush oc)

  let jsonl_file path =
    let oc = open_out path in
    (jsonl oc, fun () -> close_out oc)

  let tee a b =
    match (a, b) with
    | Null, s | s, Null -> s
    | _ -> of_fn (fun e -> send a e; send b e)

  (* the shifted events go through [sink]'s own mutex *)
  let shift ?(at = 0.) ?(worker = 0) = function
    | Null -> Null
    | Fn { f; m } ->
      Fn
        {
          f =
            (fun (e : Event.t) ->
              f { e with Event.at = e.Event.at +. at;
                         worker = e.Event.worker + worker });
          m;
        }
end

module Ring = struct
  type t = {
    cap : int;
    buf : Event.t option array;
    next : int Sync.Shared.t;  (* total events ever seen; under [m] *)
    m : Sync.Mutex.t;
  }

  let create ?(capacity = 65536) () =
    { cap = max 1 capacity; buf = Array.make (max 1 capacity) None;
      next = Sync.Shared.make ~name:"trace.ring.next" 0;
      m = Sync.Mutex.create ~name:"trace.ring" () }

  let sink r =
    Sink.of_fn (fun e ->
        Sync.Mutex.protect r.m (fun () ->
            let next = Sync.Shared.get r.next in
            r.buf.(next mod r.cap) <- Some e;
            Sync.Shared.set r.next (next + 1)))

  let events r =
    Sync.Mutex.protect r.m (fun () ->
        let total = Sync.Shared.get r.next in
        let kept = min total r.cap in
        List.init kept (fun i ->
            Option.get r.buf.((total - kept + i) mod r.cap)))

  let dropped r =
    Sync.Mutex.protect r.m (fun () ->
        max 0 (Sync.Shared.get r.next - r.cap))

  let clear r =
    Sync.Mutex.protect r.m (fun () ->
        Array.fill r.buf 0 r.cap None;
        Sync.Shared.set r.next 0)
end

(* ------------------------------------------------------------------ *)
(* Metrics (internal) *)

module Metrics = struct
  let max_depth_bucket = 64

  type t = {
    incumbents : int Sync.Atomic.t;
    steal_attempts : int Sync.Atomic.t;
    steal_successes : int Sync.Atomic.t;
    tasks_donated : int Sync.Atomic.t;
    idle_events : int Sync.Atomic.t;
    restarts : int Sync.Atomic.t;
    warnings : int Sync.Atomic.t;
    m : Sync.Mutex.t;
    (* phase -> (seconds, completed spans), kept in order of first use *)
    phases : (Event.phase * (float * int)) list Sync.Shared.t;
    (* worker -> (nodes, simplex iterations) *)
    workers : (int * (int * int)) list Sync.Shared.t;
    depth_hist : int Sync.Atomic.t array;
  }

  let create () =
    {
      incumbents = Sync.Atomic.make 0;
      steal_attempts = Sync.Atomic.make 0;
      steal_successes = Sync.Atomic.make 0;
      tasks_donated = Sync.Atomic.make 0;
      idle_events = Sync.Atomic.make 0;
      restarts = Sync.Atomic.make 0;
      warnings = Sync.Atomic.make 0;
      m = Sync.Mutex.create ~name:"trace.metrics" ();
      phases = Sync.Shared.make ~name:"trace.metrics.phases" [];
      workers = Sync.Shared.make ~name:"trace.metrics.workers" [];
      depth_hist = Array.init max_depth_bucket (fun _ -> Sync.Atomic.make 0);
    }

  let add_phase t phase dt =
    Sync.Mutex.protect t.m (fun () ->
        let phases = Sync.Shared.get t.phases in
        match List.assoc_opt phase phases with
        | Some (s, c) ->
          Sync.Shared.set t.phases
            (List.map
               (fun (p, v) ->
                 if p = phase then (p, (s +. dt, c + 1)) else (p, v))
               phases)
        | None -> Sync.Shared.set t.phases (phases @ [ (phase, (dt, 1)) ]))

  let add_worker t worker nodes iters =
    Sync.Mutex.protect t.m (fun () ->
        let workers = Sync.Shared.get t.workers in
        match List.assoc_opt worker workers with
        | Some (n, i) ->
          Sync.Shared.set t.workers
            (List.map
               (fun (w, v) ->
                 if w = worker then (w, (n + nodes, i + iters)) else (w, v))
               workers)
        | None -> Sync.Shared.set t.workers ((worker, (nodes, iters)) :: workers))

  let bump_depth t depth =
    let b = if depth < 0 then 0 else min depth (max_depth_bucket - 1) in
    Sync.Atomic.incr t.depth_hist.(b)
end

(* ------------------------------------------------------------------ *)
(* Reports *)

module Report = struct
  type phase_stat = {
    ps_phase : Event.phase;
    ps_seconds : float;
    ps_count : int;
  }

  type worker_stat = { ws_worker : int; ws_nodes : int; ws_iterations : int }

  type gc_stat = {
    gc_minor_collections : int;
    gc_major_collections : int;
    gc_promoted_words : float;
    gc_top_heap_words : int;
  }

  let no_gc =
    {
      gc_minor_collections = 0;
      gc_major_collections = 0;
      gc_promoted_words = 0.;
      gc_top_heap_words = 0;
    }

  type t = {
    nodes : int;
    simplex_iterations : int;
    elapsed : float;
    incumbents : int;
    steal_attempts : int;
    steal_successes : int;
    tasks_donated : int;
    idle_events : int;
    restarts : int;
    warnings : int;
    phases : phase_stat list;
    workers : worker_stat list;
    depth_histogram : (int * int) list;
    gc : gc_stat;
  }

  let empty =
    {
      nodes = 0;
      simplex_iterations = 0;
      elapsed = 0.;
      incumbents = 0;
      steal_attempts = 0;
      steal_successes = 0;
      tasks_donated = 0;
      idle_events = 0;
      restarts = 0;
      warnings = 0;
      phases = [];
      workers = [];
      depth_histogram = [];
      gc = no_gc;
    }

  let pp ppf r =
    Format.fprintf ppf
      "nodes %d  simplex iterations %d  elapsed %.3fs@.incumbents %d  \
       steals %d/%d (tasks %d)  idle %d  restarts %d  warnings %d@."
      r.nodes r.simplex_iterations r.elapsed r.incumbents
      r.steal_successes r.steal_attempts r.tasks_donated r.idle_events
      r.restarts r.warnings;
    if r.gc <> no_gc then
      Format.fprintf ppf
        "gc: %d minor / %d major collections, %.3g promoted words, top heap \
         %d words@."
        r.gc.gc_minor_collections r.gc.gc_major_collections
        r.gc.gc_promoted_words r.gc.gc_top_heap_words;
    if r.phases <> [] then begin
      Format.fprintf ppf "phase breakdown:@.";
      List.iter
        (fun p ->
          Format.fprintf ppf "  %-13s %9.4fs  (%d span%s)@."
            (Event.phase_name p.ps_phase)
            p.ps_seconds p.ps_count
            (if p.ps_count = 1 then "" else "s"))
        r.phases
    end;
    if r.workers <> [] then begin
      Format.fprintf ppf "per-worker:@.";
      List.iter
        (fun w ->
          Format.fprintf ppf "  w%-3d nodes %8d  iterations %10d@." w.ws_worker
            w.ws_nodes w.ws_iterations)
        r.workers
    end;
    if r.depth_histogram <> [] then begin
      Format.fprintf ppf "node depth histogram:";
      List.iter
        (fun (d, c) -> Format.fprintf ppf " %d:%d" d c)
        r.depth_histogram;
      Format.fprintf ppf "@."
    end

  let to_json r =
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"nodes\":%d,\"simplex_iterations\":%d,\"elapsed\":%.6f,\"incumbents\":%d,\"steal_attempts\":%d,\"steal_successes\":%d,\"tasks_donated\":%d,\"idle_events\":%d,\"restarts\":%d,\"warnings\":%d"
         r.nodes r.simplex_iterations r.elapsed r.incumbents
         r.steal_attempts r.steal_successes r.tasks_donated r.idle_events
         r.restarts r.warnings);
    Buffer.add_string b ",\"phases\":[";
    List.iteri
      (fun i p ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"phase\":\"%s\",\"seconds\":%.6f,\"count\":%d}"
             (Event.phase_name p.ps_phase)
             p.ps_seconds p.ps_count))
      r.phases;
    Buffer.add_string b "],\"workers\":[";
    List.iteri
      (fun i w ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"worker\":%d,\"nodes\":%d,\"iterations\":%d}"
             w.ws_worker w.ws_nodes w.ws_iterations))
      r.workers;
    Buffer.add_string b "],\"depth_histogram\":[";
    List.iteri
      (fun i (d, c) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "[%d,%d]" d c))
      r.depth_histogram;
    Buffer.add_string b
      (Printf.sprintf
         "],\"gc\":{\"minor_collections\":%d,\"major_collections\":%d,\"promoted_words\":%.0f,\"top_heap_words\":%d}}"
         r.gc.gc_minor_collections r.gc.gc_major_collections
         r.gc.gc_promoted_words r.gc.gc_top_heap_words);
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Tracers *)

type t = {
  t_live : bool;
  t_sink : sink;
  t_epoch : int64;
  t_m : Metrics.t;
  t_gc : Gc.stat;  (* quick_stat baseline at creation; report deltas it *)
}

let disabled =
  { t_live = false; t_sink = Null; t_epoch = 0L; t_m = Metrics.create ();
    t_gc = Gc.quick_stat () }

let create ?(sink = Null) () =
  { t_live = true; t_sink = sink; t_epoch = clock_ns ();
    t_m = Metrics.create (); t_gc = Gc.quick_stat () }

let live t = t.t_live
let enabled t = t.t_live && not (Sink.is_null t.t_sink)

let now t =
  if not t.t_live then 0.
  else Int64.to_float (Int64.sub (clock_ns ()) t.t_epoch) *. 1e-9

let send t worker payload =
  Sink.send t.t_sink { Event.at = now t; worker; payload }

let emit t ?(worker = 0) payload = if enabled t then send t worker payload

let span t ?(worker = 0) phase f =
  if not t.t_live then f ()
  else begin
    let t0 = now t in
    if enabled t then send t worker (Event.Span_start phase);
    Fun.protect
      ~finally:(fun () ->
        Metrics.add_phase t.t_m phase (now t -. t0);
        if enabled t then send t worker (Event.Span_end phase))
      f
  end

let messagef t ?(worker = 0) fmt =
  Format.kasprintf
    (fun msg -> if enabled t then send t worker (Event.Message msg))
    fmt

let warn t ?(worker = 0) msg =
  if t.t_live then begin
    Sync.Atomic.incr t.t_m.Metrics.warnings;
    if enabled t then send t worker (Event.Warning msg)
  end

let node_explored t ~iters ~worker ~depth ~bound =
  if enabled t then begin
    Metrics.bump_depth t.t_m depth;
    send t worker (Event.Node_explored { depth; bound; iters })
  end

let incumbent t ~worker ~objective ~node =
  if t.t_live then begin
    Sync.Atomic.incr t.t_m.Metrics.incumbents;
    if enabled t then send t worker (Event.Incumbent { objective; node })
  end

let steal t ~worker ~tasks =
  if t.t_live && tasks > 0 then begin
    ignore (Sync.Atomic.fetch_and_add t.t_m.Metrics.tasks_donated tasks);
    if enabled t then send t worker (Event.Steal { tasks })
  end

let steal_attempt t ~success =
  if t.t_live then begin
    Sync.Atomic.incr t.t_m.Metrics.steal_attempts;
    if success then Sync.Atomic.incr t.t_m.Metrics.steal_successes
  end

let worker_idle t ~worker =
  if t.t_live then begin
    Sync.Atomic.incr t.t_m.Metrics.idle_events;
    if enabled t then send t worker Event.Worker_idle
  end

let restart t ?(worker = 0) stage =
  if t.t_live then begin
    Sync.Atomic.incr t.t_m.Metrics.restarts;
    if enabled t then send t worker (Event.Restart { stage })
  end

let stopped t ?(worker = 0) reason =
  if enabled t then send t worker (Event.Stopped { reason })

let lp_refactor t ?(worker = 0) reason =
  if enabled t then send t worker (Event.Lp_refactor { reason })

let lp_warm t ?(worker = 0) result =
  if enabled t then send t worker (Event.Lp_warm { result })

let move t ?(worker = 0) ~module_name ~src ~dst () =
  if enabled t then send t worker (Event.Move { module_name; src; dst })

(* Portfolio members share their caller's sink on stripes of worker
   ids: member [slot] owns ids [slot * stripe ..], slot 0 is everything
   outside a portfolio.  A member's first event is a [Restart] marker
   that names it. *)
let stripe = 1000
let member_prefix = "member:"

let member parent ~slot ~label =
  if not (enabled parent) then create ()
  else begin
    let t =
      { t_live = true;
        t_sink = Sink.shift ~worker:(slot * stripe) parent.t_sink;
        t_epoch = parent.t_epoch; t_m = Metrics.create ();
        t_gc = Gc.quick_stat () }
    in
    restart t (member_prefix ^ label);
    t
  end

let member_of_worker w = (w / stripe, w mod stripe)

let member_marker (e : Event.t) =
  let n = String.length member_prefix in
  match e.Event.payload with
  | Event.Restart { stage }
    when e.Event.worker >= stripe && String.length stage > n
         && String.starts_with ~prefix:member_prefix stage ->
    Some (e.Event.worker / stripe, String.sub stage n (String.length stage - n))
  | _ -> None

let add_worker_totals t ~worker ~nodes ~iterations =
  if t.t_live then Metrics.add_worker t.t_m worker nodes iterations

let report t ~nodes ~simplex_iterations ~elapsed =
  let m = t.t_m in
  Sync.Mutex.lock m.Metrics.m;
  let phases =
    List.map
      (fun (p, (s, c)) ->
        { Report.ps_phase = p; ps_seconds = s; ps_count = c })
      (Sync.Shared.get m.Metrics.phases)
  in
  let workers =
    List.map
      (fun (w, (n, i)) ->
        { Report.ws_worker = w; ws_nodes = n; ws_iterations = i })
      (List.sort compare (Sync.Shared.get m.Metrics.workers))
  in
  Sync.Mutex.unlock m.Metrics.m;
  let depth_histogram =
    let out = ref [] in
    for b = Metrics.max_depth_bucket - 1 downto 0 do
      let c = Sync.Atomic.get m.Metrics.depth_hist.(b) in
      if c > 0 then out := (b, c) :: !out
    done;
    !out
  in
  let gc =
    if not t.t_live then Report.no_gc
    else
      let g = Gc.quick_stat () in
      {
        Report.gc_minor_collections =
          g.Gc.minor_collections - t.t_gc.Gc.minor_collections;
        gc_major_collections =
          g.Gc.major_collections - t.t_gc.Gc.major_collections;
        gc_promoted_words = g.Gc.promoted_words -. t.t_gc.Gc.promoted_words;
        gc_top_heap_words = g.Gc.top_heap_words;
      }
  in
  {
    Report.nodes;
    simplex_iterations;
    elapsed;
    incumbents = Sync.Atomic.get m.Metrics.incumbents;
    steal_attempts = Sync.Atomic.get m.Metrics.steal_attempts;
    steal_successes = Sync.Atomic.get m.Metrics.steal_successes;
    tasks_donated = Sync.Atomic.get m.Metrics.tasks_donated;
    idle_events = Sync.Atomic.get m.Metrics.idle_events;
    restarts = Sync.Atomic.get m.Metrics.restarts;
    warnings = Sync.Atomic.get m.Metrics.warnings;
    phases;
    workers;
    depth_histogram;
    gc;
  }

(* ------------------------------------------------------------------ *)
(* Recorded traces: one reader, one span walker, one checker *)

let read_jsonl text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (ln, line) ->
         if line = "" then None else Some (ln, Event.of_json line))

module Spans = struct
  type 'a span = {
    worker : int;
    phase : Event.phase;
    start : float;
    stop : float;
    tag : 'a;
    parent : 'a option;
  }

  type 'a step =
    | Quiet
    | Closed of 'a span
    | Unmatched of { phase : Event.phase; innermost : (Event.phase * 'a) option }

  (* worker -> its open spans, innermost first *)
  type 'a t = (int, (Event.phase * float * 'a) list) Hashtbl.t

  let create () = Hashtbl.create 8

  let close worker (phase, start, tag) ~stop outer =
    { worker; phase; start; stop; tag;
      parent = (match outer with (_, _, p) :: _ -> Some p | [] -> None) }

  let step t tag (e : Event.t) =
    let w = e.Event.worker in
    let stack () = Option.value ~default:[] (Hashtbl.find_opt t w) in
    match e.Event.payload with
    | Event.Span_start phase ->
      Hashtbl.replace t w ((phase, e.Event.at, tag) :: stack ());
      Quiet
    | Event.Span_end phase -> (
      match stack () with
      | ((top, _, _) as inner) :: outer when top = phase ->
        Hashtbl.replace t w outer;
        Closed (close w inner ~stop:e.Event.at outer)
      | (top, _, top_tag) :: _ ->
        Unmatched { phase; innermost = Some (top, top_tag) }
      | [] -> Unmatched { phase; innermost = None })
    | _ -> Quiet

  let drain t ~at =
    let rec pop w = function
      | inner :: outer -> close w inner ~stop:at outer :: pop w outer
      | [] -> []
    in
    let open_ = Hashtbl.fold (fun w st acc -> (w, st) :: acc) t [] in
    Hashtbl.reset t;
    List.sort (fun (a, _) (b, _) -> compare a b) open_
    |> List.concat_map (fun (w, st) -> pop w st)
end

type summary = {
  c_lines : int;
  c_events : int;
  c_segments : int;
  c_workers : int;
}

(* [objs] oldest first: one direction throughout, ties allowed *)
let monotone objs =
  let rec pairs ok = function
    | a :: (b :: _ as rest) -> ok a b && pairs ok rest
    | _ -> true
  in
  pairs ( <= ) objs || pairs ( >= ) objs

let check text =
  let module D = Rfloor_diag.Diagnostic in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let records = read_jsonl text in
  let spans = Spans.create () in
  let bump tbl k n =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  (* RF432: worker -> (last time, its line) *)
  let last_at = Hashtbl.create 8 in
  (* a segment is one branch-and-bound span; each member slot has its own *)
  let segments = ref 0 in
  let open_segment = Hashtbl.create 4 in
  (* RF433: (segment, worker) -> objectives, newest first *)
  let incumbents = Hashtbl.create 8 in
  (* RF434: (segment, depth) -> nodes; segment -> nodes; segment -> tasks *)
  let depths = Hashtbl.create 16 in
  let nodes = Hashtbl.create 4 in
  let donated = Hashtbl.create 4 in
  (* RF435: (segment, reason) -> line of the first stop *)
  let stops = Hashtbl.create 4 in
  List.iter
    (fun (ln, parsed) ->
      match parsed with
      | Error msg -> add (D.diagf ~code:"RF430" D.Error (D.Trace ln) "%s" msg)
      | Ok (e : Event.t) -> (
        let w = e.Event.worker in
        (match Hashtbl.find_opt last_at w with
        | Some (prev, prev_ln) when e.Event.at < prev ->
          add
            (D.diagf ~code:"RF432" D.Error (D.Trace ln)
               "worker %d timestamp %.6f precedes %.6f (line %d)" w e.Event.at
               prev prev_ln)
        | _ -> ());
        Hashtbl.replace last_at w (e.Event.at, ln);
        (match Spans.step spans ln e with
        | Spans.Unmatched { phase; innermost = Some (top, top_ln) } ->
          add
            (D.diagf ~code:"RF431" D.Error (D.Trace ln)
               "worker %d ends span %s while %s (line %d) is innermost" w
               (Event.phase_name phase) (Event.phase_name top) top_ln)
        | Spans.Unmatched { phase; innermost = None } ->
          add
            (D.diagf ~code:"RF431" D.Error (D.Trace ln)
               "worker %d ends span %s with no span open" w
               (Event.phase_name phase))
        | Spans.Quiet | Spans.Closed _ -> ());
        let slot = fst (member_of_worker w) in
        match (e.Event.payload, Hashtbl.find_opt open_segment slot) with
        | Event.Span_start Event.Branch_bound, _ ->
          Hashtbl.replace open_segment slot !segments;
          incr segments
        | Event.Span_end Event.Branch_bound, _ -> Hashtbl.remove open_segment slot
        | Event.Incumbent { objective; _ }, Some s ->
          let objs = Option.value ~default:[] (Hashtbl.find_opt incumbents (s, w)) in
          Hashtbl.replace incumbents (s, w) (objective :: objs)
        | Event.Node_explored { depth; _ }, Some s ->
          bump depths (s, depth) 1;
          bump nodes s 1
        | Event.Steal { tasks }, Some s -> bump donated s tasks
        | Event.Stopped { reason }, Some s -> (
          match Hashtbl.find_opt stops (s, reason) with
          | Some first_ln ->
            add
              (D.diagf ~code:"RF435" D.Error (D.Trace ln)
                 "duplicate Stopped %S in segment %d (first at line %d)" reason
                 s first_ln)
          | None -> Hashtbl.add stops (s, reason) ln)
        | _ -> ()))
    records;
  List.iter
    (fun (sp : int Spans.span) ->
      add
        (D.diagf ~code:"RF431" D.Error (D.Trace sp.Spans.tag)
           "worker %d span %s never ends" sp.Spans.worker
           (Event.phase_name sp.Spans.phase)))
    (Spans.drain spans ~at:0.);
  let in_segment s = D.Sync (Printf.sprintf "segment %d" s) in
  Hashtbl.iter
    (fun (s, w) objs ->
      if not (monotone (List.rev objs)) then
        add
          (D.diagf ~code:"RF433" D.Error (in_segment s)
             "worker %d incumbent objectives are not monotone: %s" w
             (String.concat " -> " (List.rev_map (Printf.sprintf "%.6g") objs))))
    incumbents;
  Hashtbl.iter
    (fun (s, d) c ->
      let parents = Option.value ~default:0 (Hashtbl.find_opt depths (s, d - 1)) in
      if d > 0 && c > 2 * parents then
        add
          (D.diagf ~code:"RF434" D.Error (in_segment s)
             "%d nodes at depth %d but only %d at depth %d (max two children \
              per branching node)"
             c d parents (d - 1)))
    depths;
  Hashtbl.iter
    (fun s tasks ->
      let explored = Option.value ~default:0 (Hashtbl.find_opt nodes s) in
      if tasks > 1 + (2 * explored) then
        add
          (D.diagf ~code:"RF434" D.Error (in_segment s)
             "%d tasks donated but only %d nodes explored can have created them"
             tasks explored))
    donated;
  ( { c_lines = List.length records;
      c_events = List.length (List.filter (fun (_, r) -> Result.is_ok r) records);
      c_segments = !segments;
      c_workers = Hashtbl.length last_at },
    List.sort D.compare !diags )
