(** The newline-delimited JSON protocol ([rfloor-service/1]) spoken by
    [rfloor_cli serve] and [rfloor_cli batch]: one request object per
    input line, one response object per output line, every response
    carrying [{"v":"rfloor-service/1"}].

    Requests:
    - [{"op":"solve","id":ID, "device":NAME | "device_text":TEXT,
       "design":NAME | "design_text":TEXT, "strategy":STRATEGY,
       "objective":"lex"|"feasibility", "time":SECONDS,
       "priority":INT, "deadline":SECONDS,
       "progress":{"interval_s":SECONDS}}] — [strategy] defaults to
      ["milp"]; a frame with the old ["engine"] or ["workers"] field
      gets an error naming ["strategy"]
    - [{"op":"cancel","id":ID}]
    - [{"op":"stats"}]
    - [{"op":"shutdown"}]

    Online floorplanning (per-session {!Rfloor_online.Layout} state,
    handled synchronously in arrival order):
    - [{"op":"layout", "device":NAME | "device_text":TEXT}] —
      establish (or reset) the session layout; with neither field,
      report the current one (RF703 when none exists yet)
    - [{"op":"add","name":N,"demand":{"clb":4,"bram":1},
       "defrag":BOOL, "max_moves":INT}] — arrival; on fragmentation
      the no-break defragmentation planner runs unless
      [defrag:false]
    - [{"op":"remove","name":N}] — departure
    - [{"op":"defrag","max_moves":INT}] — explicit compaction

    Responses: [type] is ["result"] (per solve, in submission order),
    ["progress"] (streamed for solves that opted in, always before the
    job's result frame), ["ack"] (per cancel), ["stats"], ["online"]
    (per online request: op, outcome, the placed rectangle / executed
    moves, and a layout summary; errors carry their RF7xx code), or
    ["error"]. *)

type source_ref =
  | Builtin of string  (** a name the host resolves (e.g. ["mini"]) *)
  | Inline of string  (** {!Device.Io.parse_grid}/[parse_spec] text *)

type solve_req = {
  sq_id : string;
  sq_device : source_ref;
  sq_design : source_ref;
  sq_strategy : Rfloor.Solver.Strategy.t option;
      (** [Solver.Strategy.of_string] grammar; [None] runs ["milp"] *)
  sq_objective : [ `Lex | `Feasibility ];
  sq_time : float option;  (** solver budget, seconds *)
  sq_priority : int;
  sq_deadline : float option;  (** cooperative-cancel deadline, seconds *)
  sq_progress : float option;
      (** requested progress interval ([{"progress":{"interval_s":N}}]),
          unclamped — the session clamps it (RF603) *)
}

type online_req =
  | Ol_layout of source_ref option
      (** with a device: establish (or reset) the session layout;
          without: report the current one *)
  | Ol_add of {
      oa_name : string;
      oa_demand : Device.Resource.demand;
      oa_defrag : bool;
      oa_max_moves : int option;
          (** unclamped; the session clamps (RF706) *)
    }
  | Ol_remove of string
  | Ol_defrag of int option  (** max_moves, unclamped *)

type request =
  | Solve of solve_req
  | Cancel of string
  | Stats
  | Shutdown
  | Online of online_req

val parse_request : string -> (request, string) result

val request_id : string -> string option
(** The string ["id"] of a request line that is a JSON object, however
    {!parse_request} judges the rest of it: the id an error frame for
    a refused line answers to. *)

val result_frame : id:string -> Pool.result -> string

val progress_frame : id:string -> Rfloor_obsv.Progress.snapshot -> string
(** One streamed [type:"progress"] frame: elapsed, nodes,
    lp_iterations, then incumbent / bound / gap when known and the
    portfolio-member node attribution when the job runs a portfolio. *)

val ack_frame : op:string -> id:string -> ok:bool -> string
val stats_frame : Pool.stats -> string
val error_frame : ?id:string -> string -> string

val online_frame :
  op:string ->
  outcome:string ->
  ?name:string ->
  ?code:string ->
  ?message:string ->
  ?rect:Device.Rect.t ->
  ?moves:(string * Device.Rect.t * Device.Rect.t) list ->
  ?layout:Rfloor_obsv.Statusz.layout_view ->
  unit ->
  string
(** One [type:"online"] response: the request's [op], an [outcome]
    (["established"], ["admitted"], ["defrag"], ["fallback"],
    ["rejected"], ["removed"], ["skipped"], ["compacted"], ["ok"] or
    ["error"]), and when known the placed rectangle, the executed moves
    and the post-request layout summary (the [/statusz] one).  Error
    outcomes carry the RF7xx [code] and rendered [message]. *)

val version : string
(** ["rfloor-service/1"]. *)
