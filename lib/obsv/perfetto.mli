(** Chrome/Perfetto timeline export.

    Converts an {!Rfloor_trace} event stream into the trace-event JSON
    object format that [chrome://tracing] and [ui.perfetto.dev] load
    directly: spans become ["B"]/["E"] duration slices, node
    exploration becomes a per-worker cumulative counter track, and
    everything else becomes thread-scoped instants.  Workers map to
    threads of one ["rfloor"] process; portfolio members (on the
    worker-id stripes of {!Rfloor_trace.member}) are named tracks
    carrying their member label.  Timestamps are microseconds.  A JSONL
    file reaches {!of_events} and {!report} through
    {!Rfloor_trace.read_jsonl}. *)

val of_events : Rfloor_trace.Event.t list -> string
(** The full document ([{"traceEvents": [...]}]), newline-terminated. *)

val validate : string -> (unit, string) result
(** Checks a purported trace-event document: parses as JSON, has a
    [traceEvents] array, every event carries the fields its [ph]
    needs, and ["B"]/["E"] slices nest and balance per thread (the
    rule RF431 of {!Rfloor_trace.check} enforces on JSONL traces). *)

val report : ?critical_path:bool -> Rfloor_trace.Event.t list -> string
(** Phase-dominance summary (self/inclusive seconds per phase, sorted
    by self time); with [~critical_path:true], also the greedy
    biggest-child descent through the busiest worker's span tree.  The
    span trees come from {!Rfloor_trace.Spans}: a span left open (a
    truncated trace) closes at the last timestamp, and an end that does
    not match is skipped. *)
