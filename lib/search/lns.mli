(** Disrupt-and-repair large-neighbourhood search.

    A randomized heuristic companion to {!Engine}: greedy randomized
    construction of a complete floorplan (regions plus hard
    free-compatible copies), then repeated disruption — remove one or
    two random regions together with their free-compatible areas — and
    greedy randomized repair, accepting lexicographic
    (wasted frames, wire length) improvements.  After a stretch of
    non-improving iterations the incumbent is abandoned and a fresh
    construction starts.

    Never proves optimality or infeasibility ([optimal] is always
    [false]); its value is cheap incumbents published early through
    [on_improvement], which a racing portfolio feeds to the MILP
    members as objective bounds.  Deterministic for a fixed [seed]. *)

type options = {
  seed : int;  (** PRNG seed; same seed, same trajectory *)
  time_limit : float option;  (** seconds on the monotonic clock *)
  iter_limit : int option;  (** disrupt-and-repair iterations *)
  trace : Rfloor_trace.t;
  cancel : unit -> bool;
      (** Cooperative cancellation, polled once per iteration. *)
  on_improvement : (Device.Floorplan.t -> int -> unit) option;
      (** Called on each accepted incumbent with the plan (soft areas
          not yet added) and its wasted frames. *)
}

val default_options : options

val solve :
  ?options:options -> Device.Partition.t -> Device.Spec.t -> Engine.outcome
(** Runs until the budget, the cancel token, or [iter_limit].
    [outcome.nodes] counts iterations; [outcome.stop] reports why the
    loop ended ([None] only when a region is unplaceable outright and
    the search gives up immediately). *)
