(** Seeded arrival/departure workloads, the admission policy and the
    replayer.

    {!generate} produces a deterministic trace from a splitmix-style
    PRNG — the same seed always yields the same workload, so a bench
    label or a CI gate pins one trace exactly.  {!step} applies one
    event to a {!Layout} with the {!Defrag} planner on blocked
    arrivals; the service's [add] and [remove] ops call it too.
    {!replay} folds it over a trace, auditing as it goes: every
    executed move passes the relocation filter (by construction of
    {!Layout.move}), every non-moving module comes through each
    defragmentation episode with an image equal to its old one
    ({!no_break_violations}), and (with [check]) the incremental
    free-rectangle set matches a from-scratch recompute after every
    event. *)

type event =
  | Arrive of { a_name : string; a_demand : Device.Resource.demand }
  | Depart of { d_name : string }

val pp_event : Format.formatter -> event -> unit

val generate :
  ?seed:int -> ?events:int -> Device.Partition.t -> event list
(** Defaults: seed 2015, 100 events.  Arrivals outnumber departures
    (about 3:2) and demands are sized so a handful of modules fill the
    device — the regime where fragmentation actually blocks arrivals.
    Departures always name a live module. *)

type stats = {
  s_events : int;
  s_admitted : int;  (** arrivals placed straight into free space *)
  s_defrag_admitted : int;  (** arrivals admitted after a move schedule *)
  s_fallbacks : int;  (** arrivals admitted by full re-placement (RF704) *)
  s_rejected : int;  (** arrivals that could not be admitted at all *)
  s_departed : int;
  s_moves : int;  (** relocations executed across all episodes *)
  s_violations : string list;  (** audit failures — empty on a sound run *)
  s_final : Layout.t;
}

val defrag_episodes : stats -> int
(** [s_defrag_admitted + s_fallbacks]. *)

val no_break_violations :
  before:Layout.t -> after:Layout.t -> moved:string list -> string list
(** The no-break audit of one move schedule: every module of [before]
    not named in [moved] must be in [after] with an equal image
    ({!Bitstream.Image.equal}, which holds exactly when the two images
    serialize to the same bytes).  One message per module that was
    dropped or whose image changed, in [before]'s arrival order; empty
    when the guarantee held. *)

type state = {
  st_layout : Layout.t;
  st_turned_away : string list;
      (** arrivals the layout turned away and that have not departed
          or been admitted since: their departures answer {!Skipped} *)
}

val start : Device.Partition.t -> state
(** An empty layout with nothing turned away. *)

type outcome =
  | Admitted of Device.Rect.t  (** placed straight into free space *)
  | Defragged of Defrag.move list * Device.Rect.t
      (** placed after the executed move schedule *)
  | Fallback of Device.Rect.t
      (** placed by a full re-placement of every module (RF704: the
          no-break guarantee is waived) *)
  | Rejected of Rfloor_diag.Diagnostic.t
      (** turned away (RF701); the name joins [st_turned_away] *)
  | Departed
  | Skipped  (** departure of a turned-away arrival: a no-op *)
  | Failed of Rfloor_diag.Diagnostic.t
      (** the event is refused: a duplicate arrival or an unknown
          departure (RF702), or a planned step that did not apply *)

val step :
  defrag:bool ->
  max_moves:int ->
  fallback:bool ->
  on_move:(Defrag.move -> unit) ->
  state ->
  event ->
  state * outcome
(** The admission policy, one event at a time.  An arrival is placed
    into free space if it can be.  If not, and with [defrag], the
    {!Defrag} planner's schedule (at most [max_moves] moves) is
    executed and the arrival placed; when no schedule exists, with
    [fallback], every module is re-placed by the residual solve.  An
    arrival nothing admits is {!Rejected}.  [on_move] fires after each
    executed relocation.

    A {!Failed} event leaves the state as it was, except when an
    executed schedule is followed by a failed admission: the modules
    stay where they were moved.  An admitted arrival leaves
    [st_turned_away]. *)

val replay :
  ?defrag:bool ->
  ?max_moves:int ->
  ?fallback:bool ->
  ?check:bool ->
  ?on_event:(int -> event -> string -> unit) ->
  Device.Partition.t ->
  event list ->
  stats
(** Folds {!step} over the events from an empty layout.  Defaults:
    [defrag] true, [max_moves] 3, [fallback] true, [check] true.
    [on_event i ev word] fires once per event, after the event's
    layout change and its no-break audit and before the free-rectangle
    check, with the outcome's word: ["admitted"], ["defrag"],
    ["fallback"], ["rejected"], ["departed"], ["skipped"] or
    ["error"].  Each {!Failed} event adds a violation. *)
