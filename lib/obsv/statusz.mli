(** The [/statusz] document ([rfloor-statusz/1]): a one-object JSON
    snapshot of what the process is doing — uptime and build version,
    an optional pool section (per-worker state, queue depths, cache
    counters), and the in-flight jobs from a {!Progress.board}.

    Rendering takes plain values so this library stays independent of
    [lib/service]; the service layer builds a {!pool_view} from its
    own stats and passes it in. *)

val version : string
(** ["rfloor-statusz/1"]. *)

type pool_view = {
  pv_workers : string list;
      (** per-worker state, e.g. ["idle"] or ["job 3"] *)
  pv_queued : int;
  pv_running : int;
  pv_finished : int;
  pv_cache_hits : int;
  pv_cache_misses : int;
  pv_cache_size : int;
}

type layout_view = {
  lv_device : string;
  lv_modules : int;
  lv_occupancy : float;
      (** occupied fraction of the usable tiles, in [0, 1] *)
  lv_fragmentation : float;
      (** [1 - largest free rect area / total free area] *)
  lv_free_rects : int;
}
(** The session's online layout ({!Rfloor_online.Layout}), when one
    has been established through the service's [layout] op.  The
    service's [type:"online"] frames carry the same summary. *)

val layout_json : layout_view -> Rfloor_json.t
(** The summary as one JSON object: [device], [modules], [occupancy],
    [fragmentation], [free_rects]. *)

val render :
  ?pool:pool_view ->
  ?layout:layout_view ->
  ?jobs:Progress.snapshot list ->
  unit ->
  string
(** The document, newline-terminated compact JSON. *)

val validate : string -> (unit, string) result
(** Checks a purported statusz body: parses, right version tag,
    numeric uptime, well-formed jobs array, and — when a layout
    section is present — its device name and numeric
    occupancy/fragmentation gauges. *)
