(** Seeded arrival/departure workloads and the replay driver.

    {!generate} produces a deterministic trace from a splitmix-style
    PRNG — the same seed always yields the same workload, so a bench
    label or a CI gate pins one trace exactly.  {!replay} drives a
    {!Layout} through the trace with the {!Defrag} planner on blocked
    arrivals, auditing as it goes: every executed move passes the
    relocation filter (by construction of {!Layout.move}), every
    non-moving module comes through each defragmentation episode with
    an image equal to its old one ({!no_break_violations}), and (with
    [check]) the incremental free-rectangle set matches a from-scratch
    recompute after every event. *)

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

val replay :
  ?defrag:bool ->
  ?max_moves:int ->
  ?fallback:bool ->
  ?check:bool ->
  ?on_event:(int -> event -> string -> unit) ->
  ?on_move:(Defrag.move -> unit) ->
  Device.Partition.t ->
  event list ->
  stats
(** Defaults: [defrag] true, [max_moves] 3, [fallback] true, [check]
    true.  [on_event i ev outcome] fires after each event with a short
    outcome word ("admitted", "defrag", "fallback", "rejected",
    "departed"); [on_move] after each executed relocation. *)
