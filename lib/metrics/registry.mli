(** Concurrency-safe metrics registry: counters, gauges, fixed-bucket
    histograms.

    Cost model (the same bar as {!Rfloor_trace}'s null sink): every
    instrument handle obtained from {!null} is a [Noop] constructor, so
    a hot-path update ([Counter.incr], [Histogram.observe]) on a dead
    registry is a single load-and-branch — no atomic, no allocation.
    On a live registry updates are lock-free ([Atomic] increments; a
    CAS loop for float accumulation); only registration and
    {!snapshot} take the registry mutex, and both are per-solve-rare.

    Registration is idempotent: asking for the same (name, labels)
    twice returns the same instrument, so a registry can be reused
    across solves and the series accumulate.  Re-registering a name
    under a different metric kind, or a histogram under different
    buckets, raises [Invalid_argument].

    Snapshots export two ways: Prometheus text exposition
    ({!to_prometheus}) and versioned JSON ({!to_json}, schema
    ["rfloor-metrics/1"], validated by {!validate_json}); both JSON
    directions go through {!Rfloor_json}. *)

type t

val null : t
(** The dead registry: hands out no-op instruments, snapshots empty. *)

val create : unit -> t
val live : t -> bool

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  (** Negative increments are ignored — counters are monotone. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
end

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t
val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  string ->
  Histogram.t
(** [buckets] are finite strictly-increasing upper bounds; an implicit
    [+Inf] bucket is always appended.  Default: wall-time buckets,
    100 µs … 60 s, roughly ×3 spaced. *)

val count_buckets : float array
(** Event-count buckets (simplex pivots per LP, nodes, ...), 10 … 1e5. *)

(** {1 Snapshots and export} *)

module Snapshot : sig
  type metric =
    | Counter of { name : string; help : string; labels : (string * string) list; value : int }
    | Gauge of { name : string; help : string; labels : (string * string) list; value : float }
    | Histogram of {
        name : string;
        help : string;
        labels : (string * string) list;
        buckets : (float * int) array;
            (** (upper bound, cumulative count); last bound is [infinity] *)
        sum : float;
        count : int;
      }

  type t = metric list
  (** Sorted by (name, labels). *)
end

val snapshot : t -> Snapshot.t

val schema_version : string
(** ["rfloor-metrics/1"], the ["schema"] field of the JSON export. *)

val to_prometheus : Snapshot.t -> string
(** Prometheus text exposition format, ending in a newline.  Histogram
    series expand to [_bucket{...,le="..."}], [_sum] and [_count]. *)

val to_json : Snapshot.t -> string
(** One versioned JSON object.  [+Inf] bucket bounds encode as [null];
    non-finite sums likewise. *)

val validate_json : string -> (int, string) result
(** Schema check of a {!to_json} document: schema version, unique
    (name, labels) series, non-negative counters and counts, strictly
    increasing bucket bounds with a trailing [null], non-decreasing
    cumulative bucket counts topping out at the series count.  Returns
    the number of metrics. *)
