(** End-to-end floorplanning behind a first-class strategy API: build
    the MILP model, presolve, run
    branch-and-bound (optionally warm-started from the combinatorial
    engine) — or run the combinatorial engine itself, a
    disrupt-and-repair LNS, or a racing portfolio of any of them —
    then decode and validate the floorplan.

    Implements both algorithms of [10] as extended by the paper:
    O explores the full space; HO additionally fixes the pairwise
    relative positions extracted from a heuristic seed solution
    (including the free-compatible areas, Section II.A). *)

type engine =
  | O
  | Ho of Device.Floorplan.t option
      (** [Ho None] obtains a seed from {!Search.Engine} first. *)

(** How a solve is executed.  A strategy is orthogonal to the
    {!objective_mode}: it picks the machinery (exact MILP, exact
    combinatorial, heuristic LNS, or a racing portfolio of those), not
    the objective. *)
module Strategy : sig
  type t =
    | Milp of {
        workers : int;  (** {!Milp.Branch_bound} worker domains *)
        engine : engine;
        warm_start : bool;
            (** Seed the MILP incumbent from a quick {!Search.Engine}
                run first. *)
        time_limit : float option;
            (** Per-member budget (seconds); inside a portfolio it is
                clamped to the portfolio's global budget (RF501). *)
      }
    | Combinatorial of { time_limit : float option }
        (** The exact combinatorial engine ({!Search.Engine}).  Proves
            lexicographic optimality/infeasibility; under a [Weighted]
            objective its result is reported as at best [Feasible]. *)
    | Lns of { seed : int; time_limit : float option }
        (** Disrupt-and-repair large-neighbourhood search
            ({!Search.Lns}); heuristic, never conclusive, useful as a
            fast incumbent source inside a portfolio. *)
    | Portfolio of t list
        (** Race the members on one OCaml domain each.  The first
            conclusive member (proved optimal or infeasible) cancels
            the rest; heuristic incumbents are published to a shared
            board and bound the exact members' stage-1 search.  The
            portfolio's deadline is {e global}
            ([options.time_limit]), not per member. *)

  val milp :
    ?workers:int ->
    ?engine:engine ->
    ?warm_start:bool ->
    ?time_limit:float ->
    unit ->
    t
  (** Defaults: 1 worker, engine [O], warm start on, no member budget.
      Non-finite or non-positive [time_limit] means none. *)

  val combinatorial : ?time_limit:float -> unit -> t
  val lns : ?seed:int -> ?time_limit:float -> unit -> t

  val portfolio : t list -> t
  (** Flattens nested portfolios into one member list.
      @raise Invalid_argument on an empty list. *)

  val to_string : t -> string
  (** Canonical text form: [milp], [milp:4], [milp-ho], [combinatorial],
      [lns:7], [portfolio:[milp:2,combinatorial]]; member budgets render
      as an [@SECONDS] suffix.  Lossy for [Ho (Some plan)] (the seed
      plan renders as plain [milp-ho]) and for [warm_start]. *)

  val of_string : string -> (t, Rfloor_diag.Diagnostic.t) result
  (** Inverse of {!to_string} for the grammar
      [milp[:W] | milp-ho[:W] | combinatorial | lns[:SEED] |
       portfolio:[s1,s2,...]], each member optionally suffixed
      [@SECONDS].  Nested portfolios are not part of the grammar.
      Errors carry code [RF502]. *)
end

type objective_mode =
  | Lexicographic
      (** Section VI's objective: minimize wasted frames, then minimize
          wire length without increasing the frame cost. *)
  | Weighted of Objective.weights  (** Eq. 14 *)
  | Feasibility_only

type options = {
  strategy : Strategy.t;
      (** Execution strategy (default [Strategy.milp ()]).  Worker
          count, MILP engine and warm start are fields of its [Milp]
          case. *)
  objective_mode : objective_mode;
  time_limit : float option;
      (** Global budget, in seconds on the monotonic clock.  For a
          [Portfolio] strategy this is the race's deadline, shared by
          all members; a member's
          own [time_limit] can only shrink its share (RF501 warns and
          clamps a larger request). *)
  node_limit : int option;
  paper_literal_l : bool;
  trace : Rfloor_trace.sink;
      (** Where structured solver events go (default
          {!Rfloor_trace.Sink.null}: no events, but [outcome.report] is
          still populated).  Portfolio members run on private null-sink
          tracers; the caller's sink sees the race-level events (one
          [Stopped "cancel"] per cancelled losing member, the winner
          announcement). *)
  metrics : Rfloor_metrics.Registry.t;
      (** Aggregate profiling (default {!Rfloor_metrics.Registry.null}:
          one load-and-branch per hot-path site).  A live registry
          receives direct simplex/presolve instrumentation plus a
          {!Rfloor_metrics.Trace_sink} fold of the whole event stream;
          portfolio races additionally bump
          [rfloor_portfolio_wins_total{strategy=...}]. *)
  cancel : unit -> bool;
      (** Cooperative cancellation token, polled at every search loop
          head (all strategies).  When it returns [true] the solve
          stops cleanly with [outcome.stop = Some Cancelled] and the
          best incumbent found so far.  Default
          {!Milp.Branch_bound.never_cancel}. *)
}

module Options : sig
  type t = options

  val make :
    ?strategy:Strategy.t ->
    ?objective_mode:objective_mode ->
    ?time_limit:float ->
    ?node_limit:int ->
    ?paper_literal_l:bool ->
    ?trace:Rfloor_trace.sink ->
    ?metrics:Rfloor_metrics.Registry.t ->
    ?cancel:(unit -> bool) ->
    unit ->
    t
  (** The single construction point for solver options — the CLI, the
      service, the bench and the examples all build through it, so the
      defaults ([Strategy.milp ()], [Lexicographic], [time_limit] 60
      seconds, no node limit, null trace sink, never-firing [cancel])
      are defined exactly once.  "No time limit"
      is spelled explicitly: [~time_limit:infinity] (any non-finite
      value maps to [None] in the record).  Worker count, MILP engine
      and warm start are chosen through the strategy, e.g.
      [~strategy:(Strategy.milp ~workers:2 ())]. *)
end

val default_options : options
(** [Options.make ()]. *)

type status = Optimal | Feasible | Infeasible | Unknown

type stop_reason = Milp.Branch_bound.stop_reason =
  | Budget  (** time / node / simplex-iteration limit *)
  | Cancelled  (** the cooperative [cancel] token fired *)

type outcome = {
  plan : Device.Floorplan.t option;
  wasted : int option;
  wirelength : float option;
  fc_identified : int;
  status : status;
  objective_value : float option;
  nodes : int;
      (** For a portfolio: summed over all members (branch-and-bound
          nodes and heuristic iterations alike). *)
  simplex_iterations : int;
  elapsed : float;
  stop : stop_reason option;
      (** Why the (final-stage) search ended early; [None] when it ran
          to completion.  With [stop = Some _] the [status] is at best
          [Feasible] and [plan] holds the incumbent at the stop. *)
  diagnostics : Rfloor_diag.Diagnostic.t list;
      (** Preflight lint findings plus the post-solve solution audit;
          on a preflight [Infeasible] these explain the verdict.  A
          portfolio deduplicates its members' findings and may add
          RF501 budget-clamp warnings. *)
  report : Rfloor_trace.Report.t;
      (** Per-phase wall time, per-worker node totals, incumbent/steal
          counters.  Its [nodes], [simplex_iterations] and [elapsed]
          always equal the fields above, tracing enabled or not. *)
}

val solve :
  ?options:options -> Device.Partition.t -> Device.Spec.t -> outcome
(** Runs the {!Rfloor_analysis} spec lint, then the strategy, then an
    audit of the decoded plan.  Each MILP stage lints its root model
    once, whatever the worker count.  Error-severity lint findings
    short-circuit to [Infeasible] with the diagnostics attached to the
    outcome. *)

val feasible :
  ?options:options -> Device.Partition.t -> Device.Spec.t -> outcome
(** [solve] with [objective_mode] forced to [Feasibility_only]: the
    paper's feasibility question — is there {e any} valid floorplan? —
    under whatever strategy the options select.  [status = Optimal]
    with a plan means "feasible, here is a witness"; [Infeasible] is a
    proof that no valid floorplan exists.  This is the single entry
    point behind [rfloor_cli feasibility]; it shares {!type:outcome}
    (and hence the CLI printer) with [solve]. *)

val export_lp :
  ?options:options -> Device.Partition.t -> Device.Spec.t -> string
(** CPLEX-LP text of the (first-stage) model, for external solvers:
    the model the solve builds.  A non-MILP strategy exports the plain
    O model. *)

val pp_outcome : Format.formatter -> outcome -> unit
