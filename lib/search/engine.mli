(** Exact combinatorial floorplanner.

    Branch-and-bound over explicit candidate rectangles.  Independent of
    the MILP formulation, it serves both as a cross-check (both engines
    must find equal optima) and as the fast engine for full-size
    devices.  Optimizes the paper's evaluation objective
    lexicographically: minimal wasted frames first, then minimal wire
    length among minimal-waste floorplans.

    Hard relocation requests (Section IV) are honoured during the
    search: a solution is complete only when every requested
    free-compatible area is placed.  Soft requests (Section V) are
    satisfied best-effort on the optimal floorplan afterwards; the MILP
    engine handles them natively.

    Search order: regions in decreasing frame demand (ties in spec
    order), each over its candidates in {!Candidates.enumerate}'s order
    (waste, then [(x, y, w, h)]), its hard copies right after it on
    pairwise-disjoint relocation sites taken in increasing site order.
    A node is counted on entering each level and on completing each
    choice of copies; the budget and [cancel] are polled every 1024
    nodes.  Each region's candidates come from a
    {!Candidates.generator}, one waste level at a time, when a scan
    reaches a level its waste cap lets in (or when the bounds below
    need it); both stages share these tables and the memoised
    relocation sites of one call.

    The wire-length stage prunes a candidate when the placed nets plus
    a lower bound on the nets still open reach the incumbent.  Per net
    the bound is the least centre distance between disjoint candidates
    of its two regions whose waste fits under the stage-one optimum, so
    it never cuts off a strictly better floorplan: that stage finds the
    same incumbents and the same plan as without it, in fewer nodes.
    It also tests blocks of 8 consecutive candidates at once, against
    the box of their centres: a block skipped holds only candidates the
    test would fail one by one, so the nodes visited do not change.
    The waste stage and {!feasible} explore the same nodes as ever. *)

type stop_reason =
  | Budget  (** time or node limit *)
  | Cancelled  (** the cooperative [cancel] token fired *)

type options = {
  time_limit : float option;
      (** Seconds on the monotonic clock for the whole call, however
          busy the process's other domains are: the wire-length stage
          gets what the waste stage leaves, and is skipped (with
          [stop = Some Budget] and the waste stage's plan) when nothing
          is left. *)
  node_limit : int option;
      (** Nodes per stage: each of the two stages of {!solve} may count
          this many, so a capped solve can report up to twice the
          limit (plus the rounding to the 1024-node poll). *)
  optimize_wirelength : bool;  (** run the second, wire-length phase *)
  trace : Rfloor_trace.t;
      (** Incumbent/restart events and per-stage [Branch_bound] spans;
          default {!Rfloor_trace.disabled}.  Per-node events are not
          emitted — this engine explores millions of tiny nodes. *)
  cancel : unit -> bool;
      (** Cooperative cancellation token, polled every 1024 nodes with
          the budget checks.  When it fires the search stops with
          [stop = Some Cancelled], keeping the best plan found.
          Default: never fires. *)
  on_improvement : (Device.Floorplan.t -> int -> unit) option;
      (** Called on every waste-improving incumbent with the plan (soft
          areas not yet added) and its wasted frames — lets a racing
          portfolio publish bounds while the search runs.  Called from
          the search loop: keep it cheap and thread-safe.  Default
          [None]. *)
}

val default_options : options

type outcome = {
  plan : Device.Floorplan.t option;
  wasted : int option;  (** wasted frames of [plan] *)
  wirelength : float option;
  optimal : bool;  (** proven optimal (not stopped by a budget) *)
  nodes : int;
  elapsed : float;  (** monotonic seconds, over both stages *)
  stop : stop_reason option;
      (** Why the search ended early; [None] when it ran to
          completion (including a feasibility stop-at-first hit). *)
}

val add_soft_areas :
  Device.Partition.t -> Device.Spec.t -> Device.Floorplan.t ->
  Device.Floorplan.t
(** Greedy best-effort placement of the spec's soft free-compatible
    areas onto a complete floorplan (also used by {!Lns}). *)

val solve : ?options:options -> Device.Partition.t -> Device.Spec.t -> outcome
(** Full lexicographic optimization. *)

val feasible :
  ?options:options -> Device.Partition.t -> Device.Spec.t -> outcome
(** Stops at the first complete solution (the paper's feasibility test);
    [optimal = true] with [plan = None] is a proof of infeasibility. *)
