(** Bounded-variable sparse revised simplex.

    Solves the continuous relaxation of an {!Lp.t}: all variable kinds
    are ignored, only bounds matter.  Two-phase method with artificial
    variables over an LU-factorized basis ({!Lu}) that is extended by
    product-form updates and refactorized on fill/stability triggers;
    devex pricing with a Bland's-rule fallback against cycling and a
    Harris-style two-pass ratio test.  Branch-and-bound children can
    re-solve warm from a parent {!Basis.t} snapshot through a dual
    simplex path ({!Core.solve_warm}); any doubt on that path falls
    back to the cold two-phase solve, which stays the correctness
    anchor — statuses, objectives and primal solutions are identical
    between the two paths up to solver tolerances. *)

type status = Optimal | Infeasible | Unbounded | Iter_limit

type outcome = {
  status : status;
  objective : float;
      (** Objective in the problem's own direction, including the
          constant.  Meaningful only when [status = Optimal]. *)
  x : float array;  (** Structural variable values (length [Lp.num_vars]). *)
  iterations : int;
}

type instruments
(** Pre-registered LP metrics counters, created once per solver run
    (registration takes the registry mutex; counter updates are
    lock-free and domain-safe). *)

val instruments : Rfloor_metrics.Registry.t -> instruments
(** Registers and returns the LP counters:
    [rfloor_lp_factorizations_total] (fresh sparse LU builds),
    [rfloor_lp_ft_updates_total] (product-form basis updates) and
    [rfloor_lp_warm_starts_total] (re-solves served warm by the dual
    simplex). *)

module Basis : sig
  type t
  (** Opaque immutable basis snapshot: the basic column of every row
      plus the bound status of every structural/slack column.  Safe to
      share across domains. *)
end

val solve :
  ?max_iters:int ->
  ?trace:Rfloor_trace.t ->
  ?metrics:Rfloor_metrics.Registry.t ->
  Lp.t ->
  outcome
(** One-shot solve of the LP relaxation.  [trace] (default
    {!Rfloor_trace.disabled}) brackets the solve in an [Lp_solve]
    span.  [metrics] (default {!Rfloor_metrics.Registry.null}) records
    the solve into the [rfloor_lp_solve_seconds] and
    [rfloor_simplex_iterations_per_lp] histograms and the
    {!instruments} counters. *)

module Core : sig
  (** Preprocessed problem reusable across many solves that differ only
      in variable bounds — the branch-and-bound workhorse. *)

  type t

  val of_lp : Lp.t -> t
  val num_vars : t -> int
  val num_rows : t -> int

  val solve :
    ?max_iters:int -> ?lb:float array -> ?ub:float array -> t -> outcome
  (** [solve ~lb ~ub core] solves with structural variable bounds
      overridden by [lb]/[ub] (full arrays of length [num_vars]). *)

  val solve_with_basis :
    ?max_iters:int ->
    ?lb:float array ->
    ?ub:float array ->
    t ->
    outcome * (int array * bool array * float array) option
  (** Like {!solve}; on an optimal finish additionally returns
      [(basis, at_upper, values)]: the basic column of each row, whether
      each structural/slack column rests at its upper bound, and the
      structural+slack values — what {!Gomory} needs to derive cuts.
      Columns are numbered structurals first, then one slack per row. *)

  val solve_warm :
    ?max_iters:int ->
    ?lb:float array ->
    ?ub:float array ->
    ?warm:Basis.t ->
    ?instr:instruments ->
    ?trace:Rfloor_trace.t ->
    ?worker:int ->
    t ->
    outcome * Basis.t option
  (** Like {!solve}, plus the warm-start protocol: with [warm] the
      solve first tries a dual simplex run from the parent basis
      (correct after branching bound flips, where the parent basis
      stays dual feasible) and falls back to the cold two-phase solve
      whenever the warm path cannot certify the result.  On an optimal
      finish the returned {!Basis.t} snapshot seeds the children.
      [instr] counts factorizations, product-form updates and warm
      starts; [trace]/[worker] emit [Lp_refactor]/[Lp_warm] events,
      the latter ["dual"] or ["fallback:<reason>"] (reasons listed at
      {!Rfloor_trace.Event.payload}). *)
end
