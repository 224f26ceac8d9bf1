(** Structured solver observability.

    A {e tracer} ({!type:t}) is the handle the solvers write to: typed
    events with monotonic timestamps and worker ids flow to a pluggable
    {!Sink} (null, human text, JSONL, in-memory ring buffer), while a
    set of atomic counters and histograms ({!Metrics}) accumulates
    per-phase wall time, incumbent improvements, steal statistics and
    per-worker node totals, aggregated into a {!Report.t} that callers
    attach to their outcome.

    Cost model: with the null sink, {!enabled} is false and every
    per-node call ({!node_explored}) is a single load-and-branch — no
    event is allocated, no histogram is touched.  The handful of
    per-solve calls (spans, incumbents, steals) always update the
    tracer's metrics so the final {!Report.t} is populated even when no
    sink is attached.  {!disabled} is a dead tracer for defaulted
    options: it records nothing at all.

    Sinks serialize concurrent emitters behind a per-sink mutex, so one
    tracer can be shared by all domains of a parallel solve. *)

(** {1 Events} *)

module Event : sig
  type phase =
    | Build  (** MILP model construction *)
    | Presolve  (** bound tightening *)
    | Lint  (** spec/model preflight *)
    | Root_lp  (** first LP relaxation of a branch-and-bound run *)
    | Branch_bound  (** the tree search itself *)
    | Decode  (** solution vector -> floorplan, waste/wire metrics *)
    | Audit  (** independent re-verification of the decoded plan *)
    | Lp_solve  (** a standalone simplex solve outside branch-and-bound *)
    | Job  (** one {!Rfloor_service} job, queue claim to completion *)

  type payload =
    | Span_start of phase
    | Span_end of phase
    | Node_explored of { depth : int; bound : float; iters : int }
        (** one branch-and-bound node; [bound] is the parent relaxation
            bound ([nan]/infinite allowed, rendered as [null]); [iters]
            is the emitting worker's cumulative simplex-iteration count
            at that point (0 = unreported; optional on parse so older
            traces still load) *)
    | Incumbent of { objective : float; node : int }
    | Cut_added of { rounds : int; cuts : int }
    | Steal of { tasks : int }
        (** a donor pushed [tasks] open subproblems to the shared deque *)
    | Worker_idle  (** a worker ran out of local work and started polling *)
    | Restart of { stage : string }
        (** a new optimization stage over the same instance *)
    | Stopped of { reason : string }
        (** the search stopped early; [reason] is ["cancel"] for a
            cooperative cancellation and ["budget"] for a time/node
            limit *)
    | Lp_refactor of { reason : string }
        (** the simplex rebuilt its basis factorization; [reason] is
            ["periodic"] (eta cap / fill growth), ["stability"] (a
            dubious update pivot), or ["singular"] (a fresh
            factorization after a degenerate install) *)
    | Lp_warm of { result : string }
        (** a warm-started LP re-solve finished; [result] is ["dual"]
            when the dual simplex ran from the parent basis, and
            ["fallback:<reason>"] when the solve fell back to a cold
            start, with [<reason>] one of:
            - ["shape"]: the parent snapshot has other dimensions;
            - ["stale_basis"]: a basic column is out of range or
              repeated;
            - ["singular"]: the installed parent basis does not factor;
            - ["dual_infeasible"]: a reduced cost has the wrong sign
              under the child's bounds;
            - ["dual_cap"]: the dual pivots reached their iteration cap;
            - ["no_entering"]: the dual ratio test found no eligible
              column (the child may be infeasible);
            - ["tiny_pivot"]: the entering column's pivot element is
              too small to trust;
            - ["overshoot"]: the entering variable would pass its own
              opposite bound;
            - ["cleanup"]: the closing primal pass did not end
              optimal. *)
    | Move of { module_name : string; src : string; dst : string }
        (** an online defragmentation relocated a placed module;
            [src]/[dst] are rectangle strings as printed by
            [Rect.to_string] *)
    | Warning of string
    | Message of string

  type t = { at : float;  (** seconds since the tracer's epoch *)
             worker : int;
             payload : payload }

  val phase_name : phase -> string
  val phase_of_name : string -> phase option
  val name : payload -> string
  (** The JSONL ["ev"] tag: ["span_start"], ["node"], ["steal"], ... *)

  val pp : Format.formatter -> t -> unit
  (** One human-readable line, e.g. [[w0 +0.0123s] incumbent 42 (node 17)]. *)

  val to_json : t -> string
  (** One JSONL object (no trailing newline), e.g.
      [{"t":0.0123,"w":0,"ev":"node","depth":3,"bound":41.5}]. *)

  val of_json : string -> (t, string) result
  (** Parses and schema-checks one JSONL line: known ["ev"] tag, all
      required fields present with the right types, no unknown fields.
      The inverse of {!to_json}. *)
end

(** {1 Sinks} *)

type sink

module Sink : sig
  type t = sink

  val null : t
  val is_null : t -> bool

  val of_fn : (Event.t -> unit) -> t
  (** Every event, serialized behind a mutex. *)

  val of_log_fn : ?progress_every:int -> (string -> unit) -> t
  (** Migration shim for the old [options.log : (string -> unit)]
      seam: renders events as human text lines.  [Node_explored] events
      are sampled — one line every [progress_every] (default 500) —
      matching the old [log_every] behaviour; everything else is
      rendered unconditionally. *)

  val text : ?progress_every:int -> out_channel -> t
  (** [of_log_fn] writing lines to a channel (flushed per line). *)

  val jsonl : out_channel -> t
  (** One JSON object per line, every event, flushed per line. *)

  val jsonl_file : string -> t * (unit -> unit)
  (** Opens (truncates) [path]; the returned thunk closes it. *)

  val tee : t -> t -> t
end

module Ring : sig
  (** Bounded in-memory sink for tests: keeps the last [capacity]
      events, counts the rest as dropped. *)

  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity 65536. *)

  val sink : t -> sink
  val events : t -> Event.t list
  (** Oldest first. *)

  val dropped : t -> int
  val clear : t -> unit
end

(** {1 Metrics and reports} *)

module Report : sig
  type phase_stat = {
    ps_phase : Event.phase;
    ps_seconds : float;  (** total wall time inside the span *)
    ps_count : int;  (** completed spans *)
  }

  type worker_stat = {
    ws_worker : int;
    ws_nodes : int;
    ws_iterations : int;  (** simplex iterations *)
  }

  type gc_stat = {
    gc_minor_collections : int;  (** delta over the tracer's lifetime *)
    gc_major_collections : int;  (** delta over the tracer's lifetime *)
    gc_promoted_words : float;  (** words promoted minor -> major (delta) *)
    gc_top_heap_words : int;  (** high-water heap size, absolute *)
  }

  val no_gc : gc_stat
  (** All zeros — what {!empty} and disabled tracers carry. *)

  type t = {
    nodes : int;
    simplex_iterations : int;
    elapsed : float;
    incumbents : int;  (** incumbent improvements *)
    cuts : int;  (** Gomory cuts added at the root *)
    steal_attempts : int;
    steal_successes : int;
    tasks_donated : int;  (** subproblems pushed to the shared deque *)
    idle_events : int;
    restarts : int;
    warnings : int;
    phases : phase_stat list;  (** phase order of first start *)
    workers : worker_stat list;  (** ascending worker id *)
    depth_histogram : (int * int) list;
        (** (depth, nodes at that depth), only when a sink was enabled *)
    gc : gc_stat;
        (** [Gc.quick_stat] deltas between tracer creation and
            {!val:report} — allocation pressure of the solve itself *)
  }

  val empty : t
  val pp : Format.formatter -> t -> unit
  val to_json : t -> string
  (** Single JSON object (machine-readable phase/worker breakdown). *)
end

(** {1 Tracers} *)

type t

val disabled : t
(** A dead tracer: never emits, never counts.  The default in solver
    options that are constructed without one. *)

val create : ?sink:sink -> unit -> t
(** A live tracer; its epoch is the creation instant.  With the default
    null sink no events are emitted, but metrics still accumulate so
    {!report} stays meaningful. *)

val subtracer : t -> worker_base:int -> t
(** [subtracer parent ~worker_base] is a live tracer that forwards its
    events to [parent]'s sink with every worker id shifted by
    [worker_base], on the parent's clock.  Concurrent sub-solves (e.g.
    portfolio members) can thus share one sink without colliding worker
    ids: give member [i] base [(i+1)*1000] and per-worker span nesting
    stays balanced.  Metrics are private to the child.  If [parent] has
    no sink this is just {!create}[ ()]. *)

val live : t -> bool
val enabled : t -> bool
(** [enabled t] iff events actually reach a sink — the guard to test
    before any per-node work. *)

val now : t -> float
(** Monotonic seconds since the tracer's epoch (0. for {!disabled}). *)

val emit : t -> ?worker:int -> Event.payload -> unit
(** Sends one event to the sink when {!enabled}; otherwise free. *)

val span : t -> ?worker:int -> Event.phase -> (unit -> 'a) -> 'a
(** [span t phase f] runs [f] bracketed by [Span_start]/[Span_end]
    (exception-safe) and charges the elapsed wall time to the phase in
    the metrics. *)

val messagef :
  t -> ?worker:int -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formats and emits a [Message] event; the formatting cost is only
    paid when {!enabled}. *)

val warn : t -> ?worker:int -> string -> unit
(** Emits a [Warning] event (when enabled) and always bumps the warning
    counter of a live tracer. *)

val node_explored :
  t -> iters:int -> worker:int -> depth:int -> bound:float -> unit
(** Per-node event + depth histogram.  No-op unless {!enabled} — the
    caller's own node counters remain the source of truth for totals
    (see {!report}).  [iters] is the worker's cumulative
    simplex-iteration count (0 when unknown), letting progress
    consumers report LP work without a second event stream. *)

val incumbent : t -> worker:int -> objective:float -> node:int -> unit
val cuts_added : t -> worker:int -> rounds:int -> cuts:int -> unit
val steal : t -> worker:int -> tasks:int -> unit
val steal_attempt : t -> success:bool -> unit
(** Counter only; emits no event. *)

val worker_idle : t -> worker:int -> unit
val restart : t -> ?worker:int -> string -> unit

val stopped : t -> ?worker:int -> string -> unit
(** Emits a [Stopped] event (when enabled) naming why the search ended
    early; solvers emit it once per early stop. *)

val lp_refactor : t -> ?worker:int -> string -> unit
(** Emits an [Lp_refactor] event (when enabled) naming why the simplex
    rebuilt its basis factorization. *)

val lp_warm : t -> ?worker:int -> string -> unit
(** Emits an [Lp_warm] event (when enabled) recording how a
    warm-started LP re-solve finished (["dual"] or
    ["fallback:<reason>"], see {!Event.payload}). *)

val move :
  t -> ?worker:int -> module_name:string -> src:string -> dst:string ->
  unit -> unit
(** Emits a [Move] event (when enabled) recording one executed online
    relocation. *)

val add_worker_totals : t -> worker:int -> nodes:int -> iterations:int -> unit
(** Called once per worker at the end of a solve; totals accumulate if
    a worker id reports twice (e.g. one per lexicographic stage). *)

val report :
  t -> nodes:int -> simplex_iterations:int -> elapsed:float -> Report.t
(** Snapshot of the tracer's metrics.  [nodes], [simplex_iterations]
    and [elapsed] come from the caller's own counters so the report
    totals are exact even when tracing was disabled.  {!disabled}
    yields {!Report.empty} with those totals filled in. *)

(** {1 JSONL validation} *)

val validate_jsonl : string -> (int, string) result
(** Validates a whole JSONL trace (as read from a file): every line
    must parse via {!Event.of_json}, timestamps must be non-negative,
    and every [Span_start] must have a matching [Span_end] on the same
    worker.  Returns the number of events, or the first violation
    (with its 1-based line number). *)
