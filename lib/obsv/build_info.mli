(** Binary identity metrics: who is answering this scrape?

    {!register} installs an [rfloor_build_info] gauge (constant 1, the
    identity rides in the [version]/[ocaml]/[git] labels — the standard
    Prometheus idiom) and an [rfloor_uptime_seconds] gauge.
    Registration is idempotent per registry.  Call {!touch_uptime}
    right before snapshotting so the uptime series is current. *)

val version : string
(** The binary's version string (also the CLI's [--version]). *)

val uptime : unit -> float
(** Seconds on the monotonic clock since this module was loaded
    (process start). *)

val register : Rfloor_metrics.Registry.t -> unit
val touch_uptime : Rfloor_metrics.Registry.t -> unit
