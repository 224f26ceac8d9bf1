(** Branch-and-bound for mixed-integer linear programs, on one or more
    OCaml 5 domains.

    LP relaxations are solved with {!Simplex}; branching is on the most
    fractional integer variable (optionally weighted by user priorities),
    depth-first with nearest-child-first ordering so feasible incumbents
    appear early.  Supports time/node limits, a relative MIP gap, warm
    incumbents, external bounds and cooperative cancellation.

    The open-node frontier is shared between [workers] domains:

    - the incumbent lives in a single {!Atomic.t} cell updated by a
      lock-free compare-and-set loop, so every worker prunes against
      the globally best primal bound;
    - open subproblems are serialized as bound-tightening overlays
      (full lower/upper-bound arrays) on the root LP; a worker popping
      one rebuilds nothing — the preprocessed {!Simplex.Core} is
      immutable after construction and shared read-only by all domains;
    - each worker dives depth-first on a private stack and periodically
      donates the shallowest (largest) subtrees to the global deque
      whenever it runs short, which is work stealing with the donor
      paying the transfer;
    - termination is cooperative: workers exit when the deque is empty
      and no worker is mid-dive, or when a proven gap / time limit /
      node limit / [options.cancel] token fires (remaining open nodes
      are returned to the deque so the reported dual bound stays sound;
      [result.stop] distinguishes a cancel from a budget stop, and a
      single [Stopped] trace event is emitted for the whole pool).

    With one worker (the default) no domain is spawned and nothing is
    donated or stolen: the search is deterministic, node for node and
    event for event.  With more, [nodes] and [simplex_iterations] are
    summed across workers, and node counts and which optimal solution
    is returned vary run to run; the status and objective value do not
    (within [mip_gap]).  The differential test suite enforces both
    against a frozen copy of the former sequential loop. *)

type status =
  | Optimal  (** incumbent proven optimal (within the MIP gap) *)
  | Feasible  (** stopped early with an incumbent *)
  | Infeasible
  | Unbounded
  | Unknown  (** stopped early without an incumbent *)

type stop_reason =
  | Budget  (** time limit, node limit, or a simplex iteration cap *)
  | Cancelled  (** the cooperative [cancel] token fired *)

type result = {
  status : status;
  incumbent : (float * float array) option;
      (** Objective (original direction, with constant) and variable values. *)
  best_bound : float;
      (** Valid dual bound on the optimum, original direction. *)
  nodes : int;
  simplex_iterations : int;
  elapsed : float;
      (** Wall-clock seconds ([Unix.gettimeofday]-based).  Wall clock —
          not CPU time — so that a run on several workers reports the
          time the caller actually waited.  Sampled exactly once
          against this call's own start and clamped non-negative, so a
          node handed back by a cooperative stop can never be charged
          twice. *)
  stop : stop_reason option;
      (** Why the search ended early; [None] when it ran to completion
          (status [Optimal], [Infeasible] or [Unbounded]).  [Cancelled]
          wins when both a cancel and a budget stop raced. *)
}

type options = {
  time_limit : float option;  (** wall-clock seconds *)
  node_limit : int option;
  mip_gap : float;  (** relative gap for pruning/termination, default 1e-6 *)
  int_eps : float;  (** integrality tolerance, default 1e-6 *)
  priorities : float array option;
      (** Branching priorities per variable; higher branches first. *)
  trace : Rfloor_trace.t;
      (** Structured observability: per-node events, incumbents, root
          cuts, warnings.  Default {!Rfloor_trace.disabled} (zero cost).
          To recover the old [log : string -> unit] behaviour, build a
          tracer over {!Rfloor_trace.Sink.of_log_fn}. *)
  gomory_rounds : int;
      (** rounds of root-node Gomory cuts (branch and cut); default 0 *)
  metrics : Rfloor_metrics.Registry.t;
      (** Aggregate profiling: per-LP simplex iteration-count and
          wall-time histograms ([rfloor_simplex_iterations_per_lp],
          [rfloor_lp_solve_seconds]).  Default
          {!Rfloor_metrics.Registry.null} — with it, the per-node hot
          path does no histogram work beyond a load-and-branch and
          reads no clocks. *)
  cancel : unit -> bool;
      (** Cooperative cancellation token, polled at every loop head
          (before each node's LP solve).  Returning [true] stops the
          search with [stop = Some Cancelled], keeping the incumbent
          found so far.  Default {!never_cancel}. *)
  warm_lp : bool;
      (** Warm-start each child node's LP from its parent's optimal
          basis through the dual simplex ({!Simplex.Core.solve_warm});
          any doubtful warm solve falls back to a cold solve, so this
          only changes speed, never results.  Default [true]. *)
  external_bound : unit -> float;
      (** Objective value (original direction) of a feasible solution
          known outside this solve — a racing portfolio peer's
          incumbent.  Polled at every pruning decision and combined with
          the own incumbent into the fathoming cutoff.  With an active
          external bound, a completed search without an own incumbent
          reports [Infeasible], meaning "nothing strictly better than
          the external solution exists" — the caller owning that
          external solution must interpret it as an optimality proof for
          it.  Default {!no_external_bound}. *)
}

val never_cancel : unit -> bool
(** The default [cancel] token: always [false]. *)

val no_external_bound : unit -> float
(** The default [external_bound]: always [infinity] (no effect). *)

val default_options : options

val solve :
  ?options:options -> ?workers:int -> ?incumbent:float array -> Lp.t -> result
(** [solve lp] optimizes the MILP with [workers] domains (default 1:
    the calling domain alone, no spawns).  [incumbent], if given, must
    be an integer-feasible assignment; it seeds the primal bound.
    [options.trace] events carry the emitting worker's id; sinks
    serialize concurrent emitters internally, and per-worker node and
    simplex-iteration totals are flushed to the tracer after the joins.
    Root Gomory cuts ([options.gomory_rounds]) are generated once on
    the root model before workers start. *)

val workers_from_env : ?default:int -> ?trace:Rfloor_trace.t -> unit -> int
(** Worker count from the [RFLOOR_WORKERS] environment variable.
    A parsable but non-positive value (["0"], ["-2"]) is clamped to 1;
    an unparsable value (["abc"]) falls back to [default] (1); both emit
    a [Warning] event on [trace] (default {!Rfloor_trace.disabled}).
    Shared by [bin/rfloor_cli] and [bench/main]. *)
