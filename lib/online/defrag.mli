(** Minimal-move no-break defragmentation (van der Veen / Fekete).

    When fragmentation blocks an arrival, {!plan} searches for a
    schedule of module relocations after which the arrival admits into
    a free rectangle.  Each move in the schedule targets a rectangle
    that is free and compatible {e at the time of the move}, so the
    schedule is executable step by step through the bitstream
    relocation filter and never touches a non-moving module
    (no-break).  The search is breadth-first over move sequences —
    level order makes the first goal depth the minimal move count —
    and among the goals at that depth the schedule with the least
    total moved configuration frames wins.

    When no schedule within the bounds exists, an optional bounded
    solve of the residual instance ({!Rfloor.Solver.feasible} over all
    live modules plus the arrival) produces a full re-placement; that
    path waives the no-break guarantee and callers must surface RF704. *)

type move = {
  mv_name : string;
  mv_src : Device.Rect.t;
  mv_dst : Device.Rect.t;
  mv_frames : int;  (** configuration frames of the moved rectangle *)
}

type plan =
  | Moves of move list * Device.Rect.t
      (** execute the moves in order, then admit at the rectangle;
          non-moving modules are untouched *)
  | Fallback of (string * Device.Rect.t) list
      (** full re-placement from the residual solve (arriving module
          included); no-break is waived — RF704 *)

val plan :
  ?max_moves:int ->
  ?fallback:bool ->
  Layout.t ->
  name:string ->
  demand:Device.Resource.demand ->
  (plan, Rfloor_diag.Diagnostic.t) result
(** Plans for a blocked arrival: one {!Layout.place} has just refused
    with RF701.  The search does not re-check plain admission, so every
    schedule it returns has at least one move.  Defaults: [max_moves] 3,
    [fallback] true.  The search explores at most 5000 states; the
    residual solve runs for at most 5 seconds on the monotonic clock.
    Errors: RF702 (duplicate module name), RF701 (empty demand, or not
    admissible even by the fallback solve). *)

val execute :
  ?on_move:(move -> unit) ->
  Layout.t ->
  move list ->
  (Layout.t, Rfloor_diag.Diagnostic.t) result
(** Apply a schedule move by move through {!Layout.move} (and hence
    the relocation filter); [on_move] fires after each successful
    move.  Stops at the first refused move with its RF705. *)

val compact : ?max_moves:int -> Layout.t -> move list
(** Greedy fragmentation reduction for an explicit [defrag] request
    with no pending arrival: repeatedly apply the single relocation
    that lowers the fragmentation ratio the most (ties: fewer moved
    frames), up to [max_moves] (default 3).  May be empty. *)
