(** Streamed solve progress.

    A progress {!entry} folds the {!Rfloor_trace} event stream of one
    job into a small monotone summary (incumbent, dual bound, gap,
    nodes, LP iterations, portfolio-member attribution) that can be
    snapshotted at any time from any domain.  Attach {!sink} to the
    job's tracer (tee it with whatever sink the job already has) and
    the fold happens inline with event emission — no polling thread
    per job.

    The reported series are monotone by construction: the incumbent
    only improves, the bound used for the gap only tightens, and the
    gap itself is clamped to never exceed its previous reported value,
    so consumers can plot the stream without smoothing.

    One shared {!Ticker} domain drives all rate-limited emission:
    subscribe a callback per progress-enabled job, unsubscribe when its
    result is out.  Entries also aggregate on a {!board} so the
    telemetry [/statusz] endpoint can list every in-flight job. *)

type entry
type board

type snapshot = {
  p_id : string;
  p_strategy : string;
  p_elapsed : float;  (** seconds since {!register} *)
  p_nodes : int;
  p_lp_iterations : int;  (** summed per-worker cumulative counts *)
  p_incumbent : float option;  (** best (lowest) objective seen *)
  p_bound : float option;  (** tightest finite relaxation bound seen *)
  p_gap : float option;
      (** [(incumbent - bound) / max 1 |incumbent|], clamped
          non-increasing across snapshots; [None] until both ends exist *)
  p_members : (string * int) list;
      (** portfolio member label -> nodes attributed to it, decoded by
          {!Rfloor_trace.member_marker} and
          {!Rfloor_trace.member_of_worker} *)
}

val create_board : unit -> board

val register : board -> id:string -> strategy:string -> entry
(** Adds a live entry; its clock starts now. *)

val sink : entry -> Rfloor_trace.sink
(** The event fold.  Tee onto the job's tracer sink. *)

val snapshot : entry -> snapshot
val live : entry -> bool

val finish : entry -> unit
(** Marks the entry dead (ticker callbacks should check {!live} under
    the same output lock that serializes their frames, so no progress
    frame can follow the job's result frame). *)

val remove : board -> entry -> unit
(** {!finish} + drop from the board. *)

val active : board -> snapshot list
(** Snapshots of the live entries (for [/statusz]). *)

(** {1 Interval hygiene (RF603)} *)

val min_interval : float
val max_interval : float
val default_interval : float

val clamp_interval :
  id:string -> float -> float * Rfloor_diag.Diagnostic.t list
(** Clamps a requested [interval_s] into
    [[min_interval, max_interval]]; NaN and non-positive values fall
    back to {!default_interval}.  Any adjustment is reported as an
    RF603 warning naming the job. *)

(** {1 The shared ticker} *)

module Ticker : sig
  type t

  val create : unit -> t
  (** Spawns the one ticker domain ({!Rfloor_sync} primitives, ~50 ms
      firing granularity). *)

  val subscribe : t -> interval:float -> (unit -> unit) -> int
  (** The callback fires every [interval] seconds (first firing one
      interval from now) on the ticker domain; exceptions are
      swallowed.  Returns the subscription id. *)

  val unsubscribe : t -> int -> unit
  val stop : t -> unit
  (** Joins the domain.  Call once, after unsubscribing is moot. *)
end
