(** Fold {!Rfloor_trace} events into a {!Registry.t}.

    [sink reg] is an {!Rfloor_trace.sink} that aggregates the event
    stream into Prometheus-style series:

    - [rfloor_phase_seconds{phase=...}] — histogram of span wall times
      (the spans {!Rfloor_trace.Spans} closes, per worker);
    - [rfloor_nodes_total] and [rfloor_worker_nodes_total{worker=...}]
      — node throughput;
    - [rfloor_incumbents_total], [rfloor_incumbent_objective] (gauge)
      and [rfloor_incumbent_seconds] (histogram of improvement times
      since the tracer's epoch) — the incumbent-improvement curve;
    - [rfloor_steals_total], [rfloor_steal_tasks_total] and
      [rfloor_steal_latency_seconds] — the latency histogram measures
      idle-to-next-node gaps per worker, i.e. how long a starved
      worker waited for stolen work;
    - [rfloor_idle_total], [rfloor_restarts_total],
      [rfloor_warnings_total], [rfloor_trace_events_total].

    On the {!Registry.null} registry this returns
    {!Rfloor_trace.Sink.null}, so attaching metrics to a solve is free
    when metrics are off.  The sink's span walker and idle table are
    protected by the per-sink mutex every {!Rfloor_trace.sink} already
    serializes behind, so one sink can serve all domains of a parallel
    solve. *)

val sink : Registry.t -> Rfloor_trace.sink
