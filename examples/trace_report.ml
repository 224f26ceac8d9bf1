(* Observability walkthrough: watch a MILP solve through the typed
   event stream, then read the aggregated phase/worker report.

     dune exec examples/trace_report.exe

   Three sinks are demonstrated:
     - an in-memory ring buffer, inspected after the solve;
     - a JSONL file, checked with Rfloor_trace.check;
     - the report attached to every Solver.outcome, which aggregates
       the same metrics even when no sink is connected. *)

open Device

let spec =
  Spec.make ~name:"trace-demo"
    ~nets:(Spec.chain_nets ~weight:16. [ "filter"; "decoder" ])
    ~relocs:[ { Spec.target = "filter"; copies = 1; mode = Spec.Hard } ]
    [
      { Spec.r_name = "filter"; demand = [ (Resource.Clb, 2); (Resource.Bram, 1) ] };
      { Spec.r_name = "decoder"; demand = [ (Resource.Clb, 2); (Resource.Dsp, 1) ] };
    ]

let () =
  let part = Partition.columnar_exn Devices.mini in

  (* 1. Ring-buffer sink: capture every event in memory. *)
  let ring = Rfloor_trace.Ring.create ~capacity:4096 () in
  let options =
    Rfloor.Solver.Options.make ~time_limit:30.
      ~trace:(Rfloor_trace.Ring.sink ring) ()
  in
  let outcome = Rfloor.Solver.solve ~options part spec in
  let events = Rfloor_trace.Ring.events ring in
  Format.printf "solve finished: %a@." Rfloor.Solver.pp_outcome outcome;
  Format.printf "captured %d events (%d dropped)@." (List.length events)
    (Rfloor_trace.Ring.dropped ring);
  let incumbents =
    List.filter
      (fun (e : Rfloor_trace.Event.t) ->
        match e.Rfloor_trace.Event.payload with
        | Rfloor_trace.Event.Incumbent _ -> true
        | _ -> false)
      events
  in
  Format.printf "incumbent improvements:@.";
  List.iter
    (fun e -> Format.printf "  %a@." Rfloor_trace.Event.pp e)
    incumbents;

  (* 2. The aggregated report: phase timings, per-worker node counts.
     Its totals always equal outcome.nodes / simplex_iterations /
     elapsed, whether or not a sink was connected. *)
  Format.printf "@.%a@." Rfloor_trace.Report.pp outcome.Rfloor.Solver.report;
  assert (outcome.Rfloor.Solver.report.Rfloor_trace.Report.nodes
          = outcome.Rfloor.Solver.nodes);

  (* 3. JSONL sink: stream events to a file, then check it (schema,
     span nesting, per-worker clocks, branch-and-bound invariants) —
     the same check `rfloor trace-validate` runs. *)
  let path = Filename.temp_file "rfloor_trace" ".jsonl" in
  let sink, close = Rfloor_trace.Sink.jsonl_file path in
  let opts2 =
    Rfloor.Solver.Options.make ~time_limit:30. ~trace:sink ()
  in
  ignore (Rfloor.Solver.solve ~options:opts2 part spec);
  close ();
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let summary, diags = Rfloor_trace.check contents in
  Format.printf "@.%s: %d events@.%a" path summary.Rfloor_trace.c_events
    Rfloor_diag.Diagnostic.pp_report diags;
  Sys.remove path
