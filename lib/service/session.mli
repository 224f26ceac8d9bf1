(** NDJSON service session: reads {!Protocol} request frames from a
    channel, runs them on a {!Pool}, writes response frames.

    Concurrency shape: the calling thread is the {e reader} — it
    parses, submits and never blocks on a solve, so a [cancel] frame
    can reach a job that is still queued or running.  A dedicated
    {e responder} domain prints responses strictly in submission order
    (result frames block on their job), making a scripted session's
    output deterministic.  [stats] frames are rendered when reached in
    that order, i.e. after every earlier job has finished.

    Jobs that opt in with [{"progress":{"interval_s":N}}] additionally
    stream [type:"progress"] frames, emitted by one shared
    {!Rfloor_obsv.Progress.Ticker} domain (no polling thread per job).
    All output goes through one mutex, and a job's progress entry is
    killed under that mutex right before its result frame is printed —
    a progress frame never follows its job's result frame.

    Online floorplanning ops ([layout]/[add]/[remove]/[defrag]) carry
    per-session {!Rfloor_online.Workload.state}: they are handled
    synchronously in the reader thread, so their [type:"online"]
    responses keep submission order with solve results.  [add] and
    [remove] apply {!Rfloor_online.Workload.step}, the step the
    replayer folds, so a trace gets the same outcome per event through
    either.  Relocations
    planned by the no-break defragmenter emit [move] trace events and
    the [rfloor_online_*] metrics family; an established layout's
    occupancy/fragmentation gauges also appear in the [/statusz]
    document. *)

val run :
  ?workers:int ->
  ?cache_capacity:int ->
  ?metrics:Rfloor_metrics.Registry.t ->
  ?trace:Rfloor_trace.t ->
  ?warn:(Rfloor_diag.Diagnostic.t -> unit) ->
  ?on_status:((unit -> string) -> unit) ->
  devices:(string -> Device.Grid.t option) ->
  designs:(string -> Device.Spec.t option) ->
  in_channel ->
  out_channel ->
  unit
(** Runs until [{"op":"shutdown"}] or end of input, then drains the
    queue, prints the remaining responses and joins the pool.
    [devices]/[designs] resolve {!Protocol.Builtin} names (the CLI
    passes its builtin tables); inline [device_text]/[design_text] go
    through {!Device.Io}.  [metrics] feeds both the pool's
    [rfloor_service_*] family and each job's solver instrumentation;
    [trace] receives per-job [Job] spans.

    [warn] receives out-of-band diagnostics (today: RF603 progress
    interval clamps); default drops them.  [on_status] is called once
    at startup with a thunk rendering the live [rfloor-statusz/1]
    document (pool workers/queue/cache plus in-flight jobs) — the CLI
    hands it to the telemetry HTTP server.  Providing [on_status] also
    makes every job carry a progress entry, so [/statusz] lists
    in-flight work even for jobs that did not ask for progress
    frames. *)
