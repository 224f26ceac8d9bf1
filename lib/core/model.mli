(** MILP model of the relocation-aware floorplanning problem.

    Builds the paper's formulation over a columnar-partitioned device:

    - geometry per entity (region or free-compatible area): leftmost
      column [x], width [w], per-portion coverage indicators [k]
      (derived from edge-position binaries), offset variables [o]
      (Eq. 4-5), row-coverage binaries [a] with contiguity, height [h];
    - horizontal overlap [u(n,p)] with each columnar portion, tight in
      both directions so that coverage equalities are sound;
    - per-row intersection [l(n,p,r)] for resource and wasted-frame
      accounting (the paper's variables);
    - pairwise non-overlap disjunctions, forbidden-area avoidance
      (Eq. 1-2);
    - compatibility of each free-compatible area with its region:
      equal heights (Eq. 6), equal portion counts (Eq. 7), equal
      tile-type sequences (Eq. 10), equal per-portion coverage (Eq. 9);
    - relocation as a constraint (hard) or as a metric (soft, with
      violation indicators [v(c)] relaxing Eq. 9-12 and non-overlap).

    The module returns the {!Milp.Lp.t} plus a handle used to decode a
    solver assignment back into a {!Device.Floorplan.t}. *)

type objective =
  | Weighted of Objective.weights  (** the paper's Eq. 14 *)
  | Wasted_frames_only
  | Wirelength_only
  | Feasibility  (** constant objective: any feasible point *)

type pair_relation = Left_of | Right_of | Above | Below
(** HO-mode restriction for an entity pair (from a sequence pair). *)

type options = {
  objective : objective;
  paper_literal_l : bool;
      (** Use only the paper's upper bounds on [l(n,p,r)] and the
          Eq. 9 sum-over-rows form (unsound waste accounting, kept for
          the ablation); default [false] = tight two-sided bounds. *)
  pair_relations : ((string * string) * pair_relation) list;
      (** HO: fixed relative positions; entity names as in {!entity_names}. *)
  extra_waste_cap : float option;
      (** Upper bound on total wasted frames (lexicographic stage 2). *)
}

val default_options : options

type t
(** Model handle: the LP plus decoding tables. *)

val build : ?options:options -> Device.Partition.t -> Device.Spec.t -> t

val lp : t -> Milp.Lp.t

val entity_names : t -> string list
(** Regions first, then free-compatible areas named ["region/i"]. *)

val branching_priorities : t -> float array

val violation_terms : t -> (float * Milp.Lp.term) list
(** Per soft area: (weight, violation variable term). *)

val decode : t -> float array -> Device.Floorplan.t
(** Reads entity rectangles from a feasible assignment.  Soft areas
    whose violation variable is 1 are dropped. *)

val fc_identified : t -> float array -> int
(** Number of free-compatible areas identified in the assignment. *)

val encode : t -> Device.Floorplan.t -> float array
(** Inverse of {!decode}: builds a full variable assignment from a valid
    floorplan (used to warm-start branch-and-bound and to property-test
    the model: encoded valid plans must satisfy every constraint).
    Soft areas absent from the plan get their violation variable set.
    @raise Invalid_argument if a hard entity is missing. *)

val portion_indicators : t -> string -> float array -> (float * float) array
(** [(k(n,p), o(n,p))] per portion for an entity under an assignment —
    the quantities illustrated by Figure 3. *)
