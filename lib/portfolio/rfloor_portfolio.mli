(** Racing solver portfolio: generic incumbent board and race harness.

    A portfolio runs N solver strategies concurrently, one OCaml domain
    each, racing toward the first {e conclusive} result (proved optimal
    or proved infeasible).  Members cooperate through two small pieces
    of shared state, both built on {!Rfloor_sync} so the concurrency
    analyzers see every access:

    - an {b incumbent board}: a lock-free min-key cell where heuristic
      members publish (objective key, solution) pairs and exact members
      read the best known key as an external objective bound;
    - a {b stop flag} folded into each member's cancellation token: the
      first member to produce a conclusive result wins the race and
      cancels the rest.

    The harness is solver-agnostic — members are closures, results any
    type — so it is testable without building a single MILP.  The
    solver-specific wiring (building member closures from
    [Solver.Strategy.t], mapping an exact member's "nothing better than
    the external bound" infeasibility back to optimality of the board
    plan) lives in [Rfloor.Solver]. *)

(** {1 Incumbent board} *)

type 'a board
(** Atomic cell holding the best published [(key, value)] so far —
    smallest key wins; publications with a worse key are ignored. *)

val board : ?name:string -> unit -> 'a board
(** [name] labels the underlying atomic in {!Rfloor_sync} recordings. *)

val publish : 'a board -> float -> 'a -> bool
(** [publish b key v] installs [(key, v)] iff [key] is strictly
    smaller than the current best; returns whether it won.  Lock-free
    (CAS retry loop). *)

val best : 'a board -> (float * 'a) option
val best_key : 'a board -> float
(** [infinity] when nothing has been published. *)

(** {1 Race harness} *)

type 'r member = {
  m_label : string;
  m_run : cancelled:(unit -> bool) -> 'r;
      (** Runs the strategy to completion, polling [cancelled]
          cooperatively; must return (not raise) when cancelled,
          reporting whatever partial result it has. *)
}

type 'r completion = {
  c_label : string;
  c_index : int;  (** position in the members list *)
  c_result : ('r, exn) result;  (** [Error] if the member raised *)
  c_winner : bool;  (** this member ended the race *)
}

val race :
  ?cancel:(unit -> bool) ->
  conclusive:('r -> bool) ->
  'r member list ->
  'r completion list * int option
(** Runs every member on its own domain and waits for all of them.
    The first member whose result satisfies [conclusive] wins: the
    shared stop flag is raised so every other member's [cancelled]
    token fires, and its index is returned.  [cancel] is the caller's
    own token (deadline, user interrupt), OR-ed into every member's.
    Members that raise never win.  Completions are returned in member
    order; [None] when no member was conclusive. *)
