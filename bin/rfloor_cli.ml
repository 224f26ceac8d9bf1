(* Command-line interface to the relocation-aware floorplanner.

     rfloor_cli partition   --device fx70t
     rfloor_cli solve       --device fx70t --design sdr2 --strategy milp:2
     rfloor_cli solve       --device fx70t --design sdr2 \
                            --strategy portfolio:[milp:2,combinatorial]
     rfloor_cli feasibility --device fx70t --region "Carrier Recovery"
     rfloor_cli export-lp   --device mini --design-file d.txt -o model.lp
     rfloor_cli relocate    --device mini --src 1,1,2,2 --dst 1,3,2,2 *)

open Cmdliner
open Device

let builtin_devices =
  [
    ("fx70t", Devices.virtex5_fx70t);
    ("mini", Devices.mini);
    ("fig1", Devices.fig1);
    ("fig2", Devices.fig2);
    ("fig3", Devices.fig3);
  ]

let builtin_designs =
  [ ("sdr", Sdr.design); ("sdr2", Sdr.sdr2); ("sdr3", Sdr.sdr3) ]

let die fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

let pp_diag = Rfloor_diag.Diagnostic.pp

let load_device name file =
  match file with
  | Some path -> (
    match Io.load_grid path with
    | Ok g -> g
    | Error d -> die "cannot load device: %a" pp_diag d)
  | None -> (
    match List.assoc_opt name builtin_devices with
    | Some g -> g
    | None ->
      die "unknown device %s (builtins: %s; or use --device-file)" name
        (String.concat ", " (List.map fst builtin_devices)))

let load_design name file =
  match file with
  | Some path -> (
    match Io.load_spec path with
    | Ok s -> s
    | Error d -> die "cannot load design: %a" pp_diag d)
  | None -> (
    match List.assoc_opt name builtin_designs with
    | Some s -> s
    | None ->
      die "unknown design %s (builtins: %s; or use --design-file)" name
        (String.concat ", " (List.map fst builtin_designs)))

let partition_of grid =
  match Partition.columnar grid with
  | Ok p -> p
  | Error d -> die "device is not columnar-partitionable: %a" pp_diag d

(* common args *)
let device_arg =
  Arg.(value & opt string "fx70t" & info [ "device" ] ~docv:"NAME" ~doc:"Built-in device name.")

let device_file_arg =
  Arg.(value & opt (some file) None & info [ "device-file" ] ~docv:"FILE" ~doc:"Device description file.")

let design_arg =
  Arg.(value & opt string "sdr" & info [ "design" ] ~docv:"NAME" ~doc:"Built-in design name.")

let design_file_arg =
  Arg.(value & opt (some file) None & info [ "design-file" ] ~docv:"FILE" ~doc:"Design description file.")

let time_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time" ] ~docv:"SECONDS"
        ~doc:"Solver time budget (default: the library default, 60s).")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Log solver progress (same as --trace text).")

(* --trace off|text|jsonl:FILE|perfetto:FILE *)
type trace_dest =
  | Trace_off
  | Trace_text
  | Trace_jsonl of string
  | Trace_perfetto of string

let trace_arg =
  let prefixed prefix s =
    let n = String.length prefix in
    if String.length s > n && String.sub s 0 n = prefix then
      Some (String.sub s n (String.length s - n))
    else None
  in
  let parse = function
    | "off" -> Ok Trace_off
    | "text" -> Ok Trace_text
    | s -> (
      match (prefixed "jsonl:" s, prefixed "perfetto:" s) with
      | Some f, _ -> Ok (Trace_jsonl f)
      | _, Some f -> Ok (Trace_perfetto f)
      | None, None ->
        Error
          (`Msg ("expected off, text, jsonl:FILE or perfetto:FILE, got " ^ s)))
  in
  let print ppf = function
    | Trace_off -> Format.pp_print_string ppf "off"
    | Trace_text -> Format.pp_print_string ppf "text"
    | Trace_jsonl f -> Format.fprintf ppf "jsonl:%s" f
    | Trace_perfetto f -> Format.fprintf ppf "perfetto:%s" f
  in
  Arg.(
    value
    & opt (conv (parse, print)) Trace_off
    & info [ "trace" ] ~docv:"MODE"
        ~doc:
          "Structured solver events: $(b,off), $(b,text) (human lines on \
           stderr), $(b,jsonl:FILE) (one JSON event per line) or \
           $(b,perfetto:FILE) (Chrome/Perfetto trace-event JSON, loadable in \
           ui.perfetto.dev).")

(* The sink for a run plus a closer to flush/close any file behind it.
   -v is sugar for --trace text; with --trace jsonl/perfetto both are
   honoured.  The perfetto writer buffers events in memory and renders
   the document at close (the format is one JSON object, not a log). *)
let sink_of_trace trace verbose =
  let text = Rfloor_trace.Sink.text stderr in
  match trace with
  | Trace_jsonl path ->
    let s, close = Rfloor_trace.Sink.jsonl_file path in
    ((if verbose then Rfloor_trace.Sink.tee s text else s), close)
  | Trace_perfetto path ->
    let events = ref [] in
    let s = Rfloor_trace.Sink.of_fn (fun e -> events := e :: !events) in
    let close () =
      let oc = open_out path in
      output_string oc (Rfloor_obsv.Perfetto.of_events (List.rev !events));
      close_out oc
    in
    ((if verbose then Rfloor_trace.Sink.tee s text else s), close)
  | Trace_text -> (text, fun () -> ())
  | Trace_off ->
    ((if verbose then text else Rfloor_trace.Sink.null), fun () -> ())

(* --metrics off|text|prom:FILE|json:FILE *)
type metrics_dest =
  | Metrics_off
  | Metrics_text
  | Metrics_prom of string
  | Metrics_json of string

let metrics_arg =
  let prefixed prefix s =
    let n = String.length prefix in
    if String.length s > n && String.sub s 0 n = prefix then
      Some (String.sub s n (String.length s - n))
    else None
  in
  let parse s =
    match s with
    | "off" -> Ok Metrics_off
    | "text" -> Ok Metrics_text
    | s -> (
      match (prefixed "prom:" s, prefixed "json:" s) with
      | Some f, _ -> Ok (Metrics_prom f)
      | _, Some f -> Ok (Metrics_json f)
      | None, None ->
        Error (`Msg ("expected off, text, prom:FILE or json:FILE, got " ^ s)))
  in
  let print ppf = function
    | Metrics_off -> Format.pp_print_string ppf "off"
    | Metrics_text -> Format.pp_print_string ppf "text"
    | Metrics_prom f -> Format.fprintf ppf "prom:%s" f
    | Metrics_json f -> Format.fprintf ppf "json:%s" f
  in
  Arg.(
    value
    & opt (conv (parse, print)) Metrics_off
    & info [ "metrics" ] ~docv:"MODE"
        ~doc:
          "Aggregate solver metrics: $(b,off), $(b,text) (Prometheus text on \
           stderr), $(b,prom:FILE) or $(b,json:FILE) (versioned JSON \
           snapshot).")

(* The registry for a run plus a finisher that exports its snapshot.
   [force] makes the registry live even with --metrics off — the
   telemetry endpoint needs something to scrape. *)
let registry_of_metrics ?(force = false) dest =
  match dest with
  | Metrics_off when not force -> (Rfloor_metrics.Registry.null, fun () -> ())
  | _ ->
    let reg = Rfloor_metrics.Registry.create () in
    Rfloor_obsv.Build_info.register reg;
    let write path text =
      let oc = open_out path in
      output_string oc text;
      close_out oc
    in
    let finish () =
      let snap = Rfloor_metrics.Registry.snapshot reg in
      match dest with
      | Metrics_off -> ()
      | Metrics_text ->
        prerr_string (Rfloor_metrics.Registry.to_prometheus snap)
      | Metrics_prom path ->
        write path (Rfloor_metrics.Registry.to_prometheus snap)
      | Metrics_json path ->
        write path (Rfloor_metrics.Registry.to_json snap ^ "\n")
    in
    (reg, finish)

(* For the engines that take a trace sink but no registry (the
   combinatorial search), fold the event stream into the registry. *)
let tee_metrics_sink reg sink =
  if Rfloor_metrics.Registry.live reg then
    Rfloor_trace.Sink.tee sink (Rfloor_metrics.Trace_sink.sink reg)
  else sink

(* ---------------- telemetry ---------------- *)

let telemetry_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "telemetry" ] ~docv:"PORT"
        ~doc:
          "Serve live telemetry over HTTP on 127.0.0.1:$(docv) for the run's \
           duration: $(b,/metrics) (Prometheus), $(b,/healthz), \
           $(b,/statusz) (rfloor-statusz/1 JSON listing in-flight jobs).  \
           Port 0 picks a free port; the bound address is printed to \
           stderr.")

let prometheus_body reg () =
  Rfloor_obsv.Build_info.touch_uptime reg;
  Rfloor_metrics.Registry.to_prometheus (Rfloor_metrics.Registry.snapshot reg)

(* Starts the server (dying on RF601), announces the bound port on
   stderr — the line scripts parse — and returns the stopper. *)
let start_telemetry ~reg ~statusz port =
  let handlers =
    { Rfloor_obsv.Http.h_metrics = prometheus_body reg; h_statusz = statusz }
  in
  match Rfloor_obsv.Http.start ~registry:reg ~port handlers with
  | Error d -> die "%a" pp_diag d
  | Ok srv ->
    Format.eprintf "telemetry: listening on 127.0.0.1:%d@."
      (Rfloor_obsv.Http.port srv);
    srv

(* ---------------- partition ---------------- *)

let partition_cmd =
  let run device device_file =
    let grid = load_device device device_file in
    print_endline (Grid.render grid);
    Format.printf "%a" Partition.pp (partition_of grid)
  in
  Cmd.v (Cmd.info "partition" ~doc:"Columnar-partition a device and print the portions.")
    Term.(const run $ device_arg $ device_file_arg)

(* ---------------- solve ---------------- *)

let baseline_arg =
  Arg.(
    value
    & opt (some (enum [ ("sa", `Sa); ("tessellation", `Tessellation) ])) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "A baseline heuristic instead of a solver strategy: $(b,sa) \
           (simulated annealing) or $(b,tessellation) (kernel tessellation). \
           $(b,--strategy) wins when both are given.")

let strategy_conv =
  let parse s =
    match Rfloor.Solver.Strategy.of_string s with
    | Ok st -> Ok st
    | Error d -> Error (`Msg (Format.asprintf "%a" Rfloor_diag.Diagnostic.pp d))
  in
  let print ppf st =
    Format.pp_print_string ppf (Rfloor.Solver.Strategy.to_string st)
  in
  Arg.conv (parse, print)

let strategy_arg =
  Arg.(
    value
    & opt (some ~none:"combinatorial" strategy_conv) None
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Solver strategy: $(b,milp[:W]) (the paper's O model on W \
           branch-and-bound worker domains), $(b,milp-ho[:W]) (HO), \
           $(b,combinatorial), $(b,lns[:SEED]), or \
           $(b,portfolio:[s1,s2,...]) racing several members (each may \
           carry an $(b,@SECONDS) budget).")

let print_plan part spec label plan wasted wirelength proven =
  Format.printf "engine: %s@." label;
  (match (wasted, wirelength) with
  | Some w, Some wl ->
    Format.printf "wasted frames: %d, wire length: %.1f%s@." w wl
      (if proven then "" else " (not proven optimal)")
  | _ -> ());
  match plan with
  | None -> Format.printf "no floorplan found@."
  | Some plan ->
    (match Floorplan.validate part spec plan with
    | Ok () -> ()
    | Error es -> List.iter (fun e -> Format.printf "INVALID: %s@." e) es);
    print_endline (Floorplan.render part plan)

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Cooperative cancellation deadline, in seconds on the monotonic \
           clock: when it passes, the strategy stops cleanly at its next \
           check and reports the incumbent found so far (distinct from \
           $(b,--time), which is the solver's own budget).")

(* Shared by the solve and feasibility commands: every strategy-driven
   run reports through the one [Solver.outcome]. *)
let print_outcome part spec strategy (r : Rfloor.Solver.outcome) ~tracing =
  (match r.Rfloor.Solver.stop with
  | Some Rfloor.Solver.Cancelled -> Format.printf "search stopped: cancelled@."
  | Some Rfloor.Solver.Budget -> Format.printf "search stopped: budget exhausted@."
  | None -> ());
  (* preflight/audit errors explain an infeasible verdict; show them
     even without -v *)
  List.iter
    (fun d -> Format.printf "%a@." Rfloor_diag.Diagnostic.pp d)
    (Rfloor_diag.Diagnostic.errors r.Rfloor.Solver.diagnostics);
  print_plan part spec
    (Rfloor.Solver.Strategy.to_string strategy)
    r.Rfloor.Solver.plan r.Rfloor.Solver.wasted r.Rfloor.Solver.wirelength
    (r.Rfloor.Solver.status = Rfloor.Solver.Optimal);
  if tracing then
    Format.eprintf "%a" Rfloor_trace.Report.pp r.Rfloor.Solver.report

let solve_cmd =
  let run device device_file design design_file baseline strategy time deadline
      verbose trace metrics telemetry =
    let grid = load_device device device_file in
    let spec = load_design design design_file in
    let part = partition_of grid in
    let sink, close_sink = sink_of_trace trace verbose in
    let tracing = not (Rfloor_trace.Sink.is_null sink) in
    let reg, finish_metrics =
      registry_of_metrics ~force:(telemetry <> None) metrics
    in
    let board = Rfloor_obsv.Progress.create_board () in
    let server =
      Option.map
        (start_telemetry ~reg ~statusz:(fun () ->
             Rfloor_obsv.Statusz.render
               ~jobs:(Rfloor_obsv.Progress.active board)
               ()))
        telemetry
    in
    Fun.protect ~finally:(fun () -> Option.iter Rfloor_obsv.Http.stop server)
    @@ fun () ->
    Fun.protect ~finally:close_sink @@ fun () ->
    Fun.protect ~finally:finish_metrics @@ fun () ->
    match (strategy, baseline) with
    | None, Some `Sa ->
      let r = Baselines.Annealing.solve part spec in
      print_plan part spec "simulated annealing" r.Baselines.Annealing.plan
        r.Baselines.Annealing.wasted r.Baselines.Annealing.wirelength false
    | None, Some `Tessellation ->
      let r = Baselines.Vipin_fahmy.solve part spec in
      print_plan part spec "kernel tessellation heuristic" r.Baselines.Vipin_fahmy.plan
        r.Baselines.Vipin_fahmy.wasted r.Baselines.Vipin_fahmy.wirelength false
    | Some _, _ | None, None ->
      let strategy =
        Option.value strategy ~default:(Rfloor.Solver.Strategy.combinatorial ())
      in
      let cancel =
        match deadline with
        | None -> Milp.Branch_bound.never_cancel
        | Some d ->
          let t0 = Rfloor_trace.clock () in
          fun () -> Rfloor_trace.clock () -. t0 > d
      in
      (* with telemetry on, the solve registers itself so /statusz can
         list it with live incumbent/bound/gap *)
      let entry =
        if server = None then None
        else
          Some
            (Rfloor_obsv.Progress.register board ~id:design
               ~strategy:(Rfloor.Solver.Strategy.to_string strategy))
      in
      let sink =
        match entry with
        | Some e -> Rfloor_trace.Sink.tee sink (Rfloor_obsv.Progress.sink e)
        | None -> sink
      in
      let opts =
        Rfloor.Solver.Options.make ?time_limit:time ~strategy ~trace:sink
          ~metrics:reg ~cancel ()
      in
      let r = Rfloor.Solver.solve ~options:opts part spec in
      Option.iter (Rfloor_obsv.Progress.remove board) entry;
      print_outcome part spec strategy r ~tracing
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Floorplan a design on a device.")
    Term.(
      const run $ device_arg $ device_file_arg $ design_arg $ design_file_arg
      $ baseline_arg $ strategy_arg $ time_arg $ deadline_arg $ verbose_arg
      $ trace_arg $ metrics_arg $ telemetry_arg)

(* ---------------- feasibility ---------------- *)

let feasibility_cmd =
  let region_arg =
    Arg.(value & opt (some string) None & info [ "region" ] ~docv:"NAME" ~doc:"Single region to test.")
  in
  let run device device_file design design_file region strategy time trace
      metrics =
    let grid = load_device device device_file in
    let part = partition_of grid in
    let spec = load_design design design_file in
    let sink, close_sink = sink_of_trace trace false in
    let reg, finish_metrics = registry_of_metrics metrics in
    Fun.protect ~finally:close_sink @@ fun () ->
    Fun.protect ~finally:finish_metrics @@ fun () ->
    let strategy =
      match strategy with
      | Some st -> st
      | None -> Rfloor.Solver.Strategy.combinatorial ()
    in
    let targets =
      match region with Some r -> [ r ] | None -> Spec.region_names spec
    in
    (* each region's solve stamps its events from its own start: shift
       them by that start so the whole command shares one clock *)
    let t0 = Rfloor_trace.clock () in
    List.iter
      (fun name ->
        if Spec.find_region spec name = None then die "unknown region %s" name;
        let spec' =
          Spec.with_relocs spec [ { Spec.target = name; copies = 1; mode = Spec.Hard } ]
        in
        let at = Rfloor_trace.clock () -. t0 in
        let opts =
          Rfloor.Solver.Options.make ~strategy
            ~time_limit:(Option.value time ~default:60.)
            ~trace:(Rfloor_trace.Sink.shift ~at sink) ~metrics:reg ()
        in
        let r = Rfloor.Solver.feasible ~options:opts part spec' in
        Format.printf "%-20s %s@." name
          (match (r.Rfloor.Solver.plan, r.Rfloor.Solver.status) with
          | Some _, _ -> "relocatable"
          | None, Rfloor.Solver.Infeasible -> "not relocatable (proven infeasible)"
          | None, _ -> "unknown (budget exhausted)"))
      targets
  in
  Cmd.v
    (Cmd.info "feasibility"
       ~doc:"Can each region get a free-compatible area? (Section VI analysis)")
    Term.(
      const run $ device_arg $ device_file_arg $ design_arg $ design_file_arg
      $ region_arg $ strategy_arg $ time_arg $ trace_arg $ metrics_arg)

(* ---------------- export-lp ---------------- *)

let export_cmd =
  let out_arg =
    Arg.(value & opt string "model.lp" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (.lp or .mps).")
  in
  let run device device_file design design_file out =
    let grid = load_device device device_file in
    let spec = load_design design design_file in
    let part = partition_of grid in
    let opts = Rfloor.Solver.default_options in
    if Filename.check_suffix out ".mps" then begin
      let model = Rfloor.Model.build part spec in
      Milp.Mps.to_file out (Rfloor.Model.lp model)
    end
    else begin
      let text = Rfloor.Solver.export_lp ~options:opts part spec in
      let oc = open_out out in
      output_string oc text;
      close_out oc
    end;
    Format.printf "wrote %s@." out
  in
  Cmd.v
    (Cmd.info "export-lp" ~doc:"Export the MILP model to a CPLEX-LP or MPS file.")
    Term.(
      const run $ device_arg $ device_file_arg $ design_arg $ design_file_arg
      $ out_arg)

(* ---------------- lint ---------------- *)

let lint_cmd =
  let module D = Rfloor_diag.Diagnostic in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("human", `Human); ("sexp", `Sexp) ]) `Human
      & info [ "format" ] ~docv:"FORMAT" ~doc:"Report format: human or sexp.")
  in
  let no_model_arg =
    Arg.(
      value & flag
      & info [ "no-model" ] ~doc:"Skip building and linting the MILP model.")
  in
  let codes_arg =
    Arg.(
      value & flag
      & info [ "codes" ] ~doc:"Print the RFxxx diagnostic code table and exit.")
  in
  let sources_arg =
    Arg.(
      value & opt_all string []
      & info [ "sources" ] ~docv:"DIR"
          ~doc:
            "Lint OCaml sources under $(docv) for raw synchronization \
             primitives (RF401..RF403) instead of a device/design pair.  \
             Repeatable.")
  in
  let run device device_file design design_file format no_model codes sources =
    if codes then
      List.iter
        (fun (code, sev, doc) ->
          Format.printf "%s %-7s %s@." code (D.severity_to_string sev) doc)
        D.all_codes
    else if sources <> [] then begin
      let diags = Rfloor_concheck.Source_lint.scan_roots sources in
      (match format with
      | `Human -> Format.printf "%a" D.pp_report diags
      | `Sexp -> print_endline (D.report_to_sexp diags));
      if D.has_errors diags then exit 1
    end
    else begin
      let grid = load_device device device_file in
      let spec = load_design design design_file in
      let part = partition_of grid in
      let spec_diags = Rfloor_analysis.Spec_lint.run part spec in
      (* a broken spec makes the generated model meaningless; lint it
         only when the spec pass found no errors *)
      let diags =
        if no_model || D.has_errors spec_diags then spec_diags
        else
          spec_diags
          @ Rfloor_analysis.Model_lint.run
              (Rfloor.Model.lp (Rfloor.Model.build part spec))
      in
      (match format with
      | `Human -> Format.printf "%a" D.pp_report diags
      | `Sexp -> print_endline (D.report_to_sexp diags));
      if D.has_errors diags then exit 1
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis: lint the device partition, the design spec and the \
          generated MILP model without solving.  Exits non-zero on \
          error-severity findings.")
    Term.(
      const run $ device_arg $ device_file_arg $ design_arg $ design_file_arg
      $ format_arg $ no_model_arg $ codes_arg $ sources_arg)

(* ---------------- relocate ---------------- *)

let rect_conv =
  let parse s =
    match List.map int_of_string_opt (String.split_on_char ',' s) with
    | [ Some x; Some y; Some w; Some h ] -> (
      try Ok (Rect.make ~x ~y ~w ~h) with Invalid_argument m -> Error (`Msg m))
    | _ -> Error (`Msg "expected x,y,w,h")
  in
  Arg.conv (parse, fun ppf r -> Format.fprintf ppf "%s" (Rect.to_string r))

let relocate_cmd =
  let src_arg =
    Arg.(required & opt (some rect_conv) None & info [ "src" ] ~docv:"X,Y,W,H" ~doc:"Source area.")
  in
  let dst_arg =
    Arg.(required & opt (some rect_conv) None & info [ "dst" ] ~docv:"X,Y,W,H" ~doc:"Target area.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Bitstream synthesis seed.")
  in
  let run device device_file src dst seed =
    let grid = load_device device device_file in
    let part = partition_of grid in
    if
      not
        (Rect.within ~width:(Partition.width part)
           ~height:(Partition.height part) src)
    then
      die "source area %s leaves the device %s" (Rect.to_string src)
        (Grid.name grid);
    let img = Bitstream.Image.synthesize ~seed part src in
    Format.printf "synthesized %d frames at %s (CRC32 %08lx)@."
      (Bitstream.Image.frame_count img)
      (Rect.to_string src) (Bitstream.Image.crc img);
    match Bitstream.Relocate.relocate part ~src ~dst img with
    | Ok img' ->
      Format.printf "relocated to %s (CRC32 %08lx), payload preserved: %b@."
        (Rect.to_string dst) (Bitstream.Image.crc img')
        (Bitstream.Image.payload_equal img img')
    | Error e -> die "relocation refused: %a" Bitstream.Relocate.pp_error e
  in
  Cmd.v
    (Cmd.info "relocate" ~doc:"Synthesize a partial bitstream and relocate it.")
    Term.(const run $ device_arg $ device_file_arg $ src_arg $ dst_arg $ seed_arg)

(* ---------------- trace-validate ---------------- *)

let read_whole_file file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let trace_validate_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "JSONL trace (from --trace jsonl:FILE), metrics snapshot (from \
             --metrics json:FILE) or trace-event JSON (from trace-export).")
  in
  let kind_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("auto", `Auto); ("trace", `Trace); ("metrics", `Metrics);
               ("perfetto", `Perfetto);
             ])
          `Auto
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "What the file claims to be: $(b,trace), $(b,metrics), \
             $(b,perfetto), or $(b,auto) (dispatch on the embedded schema \
             field).")
  in
  let run file kind =
    let text = read_whole_file file in
    let kind =
      match kind with
      | (`Trace | `Metrics | `Perfetto) as k -> k
      (* a JSONL trace is not a single JSON document (or, for a
         one-event trace, has no "schema" member), so parsing the whole
         file and inspecting "schema" is an unambiguous dispatcher *)
      | `Auto -> (
        match Rfloor_json.parse text with
        | Error _ -> `Trace
        | Ok doc -> (
          match Rfloor_json.member "schema" doc with
          | Some (Rfloor_json.Str s)
            when s = Rfloor_metrics.Registry.schema_version ->
            `Metrics
          | _ ->
            if Rfloor_json.member "traceEvents" doc <> None then `Perfetto
            else `Trace))
    in
    match kind with
    | `Trace ->
      let s, diags = Rfloor_trace.check text in
      Format.printf
        "%s: %d lines, %d events, %d branch-and-bound segments, %d workers@.%a"
        file s.Rfloor_trace.c_lines s.Rfloor_trace.c_events
        s.Rfloor_trace.c_segments s.Rfloor_trace.c_workers
        Rfloor_diag.Diagnostic.pp_report diags;
      if Rfloor_diag.Diagnostic.has_errors diags then exit 1
    | `Perfetto -> (
      match Rfloor_obsv.Perfetto.validate text with
      | Ok () ->
        Format.printf "%s: trace-event JSON valid, slices balanced@." file
      | Error e -> die "%s: invalid perfetto trace: %s" file e)
    | `Metrics -> (
      match Rfloor_metrics.Registry.validate_json text with
      | Ok n -> Format.printf "%s: %d metrics, schema valid@." file n
      | Error e -> die "%s: invalid metrics snapshot: %s" file e)
  in
  Cmd.v
    (Cmd.info "trace-validate"
       ~doc:
         "Validate a solver observability file against its schema: a JSONL \
          trace (RF430..RF435: every line parses, spans nest, each \
          worker's timestamps run forward, and within each \
          branch-and-bound segment incumbents are monotone, nodes and \
          donated tasks are conserved and each stop reason appears once), \
          a metrics snapshot or a trace-event JSON export.  Exits non-zero \
          on any error.")
    Term.(const run $ file_arg $ kind_arg)

(* ---------------- trace-export / trace-report ---------------- *)

(* A JSONL trace's events, or the first line that does not parse *)
let trace_events file =
  List.map
    (function
      | _, Ok e -> e
      | ln, Error msg -> die "%s:%d: invalid trace event: %s" file ln msg)
    (Rfloor_trace.read_jsonl (read_whole_file file))

let trace_export_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace (from --trace jsonl:FILE).")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT"
          ~doc:"Output path for the trace-event JSON.")
  in
  let run file out =
    let doc = Rfloor_obsv.Perfetto.of_events (trace_events file) in
    let oc = open_out out in
    output_string oc doc;
    close_out oc;
    Format.printf "wrote %s@." out
  in
  Cmd.v
    (Cmd.info "trace-export"
       ~doc:
         "Convert a JSONL solve trace to Chrome/Perfetto trace-event JSON \
          (open it in ui.perfetto.dev or chrome://tracing): one track per \
          worker and per portfolio member, solve phases as nested slices, \
          node exploration as counter series.")
    Term.(const run $ file_arg $ out_arg)

let trace_report_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace (from --trace jsonl:FILE).")
  in
  let critical_arg =
    Arg.(
      value & flag
      & info [ "critical-path" ]
          ~doc:
            "Also print the dominant phase chain: the busiest worker's span \
             tree, descending into the biggest child at each level.")
  in
  let run file critical_path =
    print_string
      (Rfloor_obsv.Perfetto.report ~critical_path (trace_events file))
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:
         "Phase-dominance summary of a JSONL solve trace: self and inclusive \
          wall time per phase, sorted by self time.")
    Term.(const run $ file_arg $ critical_arg)

(* ---------------- scrape ---------------- *)

let scrape_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Telemetry port (from the 'telemetry: listening' line).")
  in
  let path_arg =
    Arg.(
      value
      & pos 0 string "/metrics"
      & info [] ~docv:"PATH" ~doc:"Endpoint path (default /metrics).")
  in
  let raw_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"TEXT"
          ~doc:
            "Instead of a GET, send $(docv) verbatim (terminated with a \
             blank line) and print the raw response — for probing the \
             endpoint's bad-request handling.")
  in
  let pretty_arg =
    Arg.(
      value & flag
      & info [ "pretty" ]
          ~doc:
            "Pretty-print a /statusz body as human-readable lines (uptime, \
             pool, the online layout's occupancy/fragmentation gauges, \
             in-flight jobs) instead of compact JSON.  Other bodies print \
             unchanged.")
  in
  (* --pretty: the /statusz document as lines a human can read at a
     glance; anything that is not a statusz body passes through *)
  let print_pretty body =
    let module J = Rfloor_json in
    let num k j = Option.bind (J.member k j) (function J.Num n -> Some n | _ -> None) in
    let str k j = Option.bind (J.member k j) (function J.Str s -> Some s | _ -> None) in
    match J.parse (String.trim body) with
    | Ok doc when str "v" doc = Some Rfloor_obsv.Statusz.version ->
      Option.iter (Format.printf "uptime:  %.1fs@.") (num "uptime_s" doc);
      Option.iter (Format.printf "version: %s@.") (str "version" doc);
      (match J.member "pool" doc with
      | Some pool ->
        Format.printf "pool:    queued %g, running %g, finished %g@."
          (Option.value ~default:0. (num "queued" pool))
          (Option.value ~default:0. (num "running" pool))
          (Option.value ~default:0. (num "finished" pool))
      | None -> ());
      (match J.member "layout" doc with
      | Some lay ->
        Format.printf
          "layout:  %s — %g modules, occupancy %.3f, fragmentation %.3f, %g \
           free rects@."
          (Option.value ~default:"?" (str "device" lay))
          (Option.value ~default:0. (num "modules" lay))
          (Option.value ~default:0. (num "occupancy" lay))
          (Option.value ~default:0. (num "fragmentation" lay))
          (Option.value ~default:0. (num "free_rects" lay))
      | None -> Format.printf "layout:  none established@.");
      (match J.member "jobs" doc with
      | Some (J.Arr jobs) ->
        Format.printf "jobs:    %d in flight@." (List.length jobs);
        List.iter
          (fun job ->
            Format.printf "  %s (%s) %.1fs, %g nodes@."
              (Option.value ~default:"?" (str "id" job))
              (Option.value ~default:"?" (str "strategy" job))
              (Option.value ~default:0. (num "elapsed_s" job))
              (Option.value ~default:0. (num "nodes" job)))
          jobs
      | _ -> ())
    | _ -> print_string body
  in
  let run port path raw pretty =
    match raw with
    | Some text -> (
      match
        Rfloor_obsv.Http.request_raw ~port (text ^ "\r\n\r\n")
      with
      | Ok response -> print_string response
      | Error e -> die "scrape failed: %s" e)
    | None -> (
      match Rfloor_obsv.Http.get ~port path with
      | Ok (200, body) -> if pretty then print_pretty body else print_string body
      | Ok (status, body) ->
        print_string body;
        die "scrape %s: HTTP %d" path status
      | Error e -> die "scrape failed: %s" e)
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:
         "Fetch an endpoint from a running --telemetry server on \
          127.0.0.1 and print the body (no curl needed in scripts).  \
          Exits non-zero unless the response is HTTP 200.")
    Term.(const run $ port_arg $ path_arg $ raw_arg $ pretty_arg)

(* ---------------- concheck ---------------- *)

let concheck_cmd =
  let module D = Rfloor_diag.Diagnostic in
  let module C = Rfloor_concheck in
  let seed_arg =
    Arg.(
      value & opt int 2015
      & info [ "seed" ] ~docv:"N"
          ~doc:"Deterministic seed for the scenario data.")
  in
  let max_replays_arg =
    Arg.(
      value & opt int 2_000_000
      & info [ "max-replays" ] ~docv:"N"
          ~doc:"Replay budget per explored scenario.")
  in
  (* a tiny pinned instance: big enough that two branch-and-bound
     workers genuinely overlap, small enough to solve in well under a
     second even with every sync operation recorded *)
  let pinned_device = "name: concheckdev\nccbccdccbc\nccbccdccbc\n" in
  let pinned_design =
    "name: concheckdesign\n\
     region filter clb=2 bram=1\n\
     region decoder clb=2 dsp=1\n\
     net filter decoder 32\n"
  in
  let run seed max_replays =
    (* 1. exhaustive interleaving exploration (plus the seeded-bug
       variant that must be caught) *)
    let outcomes, explore_diags = C.Scenarios.run_all ~max_replays ~seed () in
    List.iter
      (fun o ->
        Format.printf "explore %-24s %7d schedules %8d replays %6d pruned %s@."
          o.C.Explorer.o_name o.C.Explorer.o_schedules o.C.Explorer.o_replays
          o.C.Explorer.o_pruned
          (match o.C.Explorer.o_violation with
          | Some _ -> "VIOLATION"
          | None -> if o.C.Explorer.o_exhausted then "exhausted" else "budget"))
      outcomes;
    (* 2. race-detector self-test on real two-domain workloads *)
    let selfs, self_diags = C.Scenarios.detector_self_test () in
    List.iter
      (fun s ->
        Format.printf "detector %-23s expected %-28s %s@." s.C.Scenarios.st_name
          s.C.Scenarios.st_expected
          (if s.C.Scenarios.st_pass then "ok" else "FAIL: " ^ s.C.Scenarios.st_detail))
      selfs;
    (* 3. record a real two-worker solve and require it race-free *)
    let grid =
      match Device.Io.parse_grid pinned_device with
      | Ok g -> g
      | Error d -> die "concheck device: %a" pp_diag d
    in
    let spec =
      match Device.Io.parse_spec pinned_design with
      | Ok s -> s
      | Error d -> die "concheck design: %a" pp_diag d
    in
    let part = partition_of grid in
    Rfloor_sync.Recorder.start ();
    let result =
      Rfloor.Solver.solve
        ~options:
          (Rfloor.Solver.Options.make
             ~strategy:(Rfloor.Solver.Strategy.milp ~workers:2 ())
             ~time_limit:30. ())
        part spec
    in
    let events = Rfloor_sync.Recorder.stop () in
    if result.Rfloor.Solver.status <> Rfloor.Solver.Optimal then
      die "concheck solve was not optimal (status changed under recording?)";
    let report, race_diags = C.Race.analyze events in
    Format.printf
      "solve    2 workers: %d sync events, %d domains, %d shared cells, %d \
       races, %d lockset warnings@."
      report.C.Race.events report.C.Race.domains report.C.Race.cells
      (List.length report.C.Race.races)
      (List.length report.C.Race.lockset_warnings);
    let diags = List.sort D.compare (explore_diags @ self_diags @ race_diags) in
    Format.printf "%a" D.pp_report diags;
    if D.has_errors diags then exit 1
  in
  Cmd.v
    (Cmd.info "concheck"
       ~doc:
         "Concurrency-correctness gate: exhaustively explore the \
          interleavings of the repo's racy-by-design scenarios (RF420, \
          RF421), self-test the vector-clock race detector against seeded \
          bugs, and record a real two-worker branch-and-bound solve \
          through the instrumented sync layer, requiring it free of data \
          races (RF410) and lockset warnings are reported (RF411).  Exits \
          non-zero on any error-severity finding.")
    Term.(const run $ seed_arg $ max_replays_arg)

(* ---------------- serve / batch ---------------- *)

let run_session ?input ?telemetry ~workers ~cache trace metrics =
  let sink, close_sink = sink_of_trace trace false in
  let reg, finish_metrics =
    registry_of_metrics ~force:(telemetry <> None) metrics
  in
  let server = ref None in
  Fun.protect ~finally:(fun () -> Option.iter Rfloor_obsv.Http.stop !server)
  @@ fun () ->
  Fun.protect ~finally:close_sink @@ fun () ->
  Fun.protect ~finally:finish_metrics @@ fun () ->
  let tracer = Rfloor_trace.create ~sink:(tee_metrics_sink reg sink) () in
  (* the session hands us its statusz thunk once the pool exists; only
     then can the endpoint go up *)
  let on_status =
    Option.map
      (fun port statusz -> server := Some (start_telemetry ~reg ~statusz port))
      telemetry
  in
  let warn d = Format.eprintf "%a@." pp_diag d in
  let session ic =
    Rfloor_service.Session.run ~workers ~cache_capacity:cache ~metrics:reg
      ~trace:tracer ~warn ?on_status
      ~devices:(fun n -> List.assoc_opt n builtin_devices)
      ~designs:(fun n -> List.assoc_opt n builtin_designs)
      ic stdout
  in
  match input with
  | None -> session stdin
  | Some file ->
    let ic = open_in file in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> session ic)

let pool_workers_arg =
  Arg.(
    value
    & opt int (Milp.Branch_bound.workers_from_env ())
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Service worker domains draining the job queue (default from \
           \\$(b,RFLOOR_WORKERS), else 1).  A job's $(b,strategy) field sets \
           its solver's own branch-and-bound domains (e.g. $(b,milp:2)).")

let cache_capacity_arg =
  Arg.(
    value
    & opt int 128
    & info [ "cache" ] ~docv:"N"
        ~doc:"Solution cache capacity, in canonical-key entries (LRU).")

let serve_cmd =
  let run workers cache trace metrics telemetry =
    run_session ?telemetry ~workers:(max 1 workers) ~cache:(max 1 cache) trace
      metrics
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the floorplanning service over stdin/stdout: one \
          rfloor-service/1 JSON request per input line (solve, cancel, \
          stats, shutdown), one JSON response per output line, result \
          frames in submission order.  Repeated equivalent instances are \
          answered from the canonical-key solution cache.")
    Term.(
      const run $ pool_workers_arg $ cache_capacity_arg $ trace_arg
      $ metrics_arg $ telemetry_arg)

let batch_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"NDJSON request file, one frame per line.")
  in
  let run file workers cache trace metrics telemetry =
    run_session ~input:file ?telemetry ~workers:(max 1 workers)
      ~cache:(max 1 cache) trace metrics
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a file of rfloor-service/1 request frames through the service \
          and print the responses — exactly $(b,serve) with the session \
          scripted from FILE.")
    Term.(
      const run $ file_arg $ pool_workers_arg $ cache_capacity_arg $ trace_arg
      $ metrics_arg $ telemetry_arg)

(* ---------------- online ---------------- *)

let online_cmd =
  let module W = Rfloor_online.Workload in
  let module L = Rfloor_online.Layout in
  let module J = Rfloor_json in
  let seed_arg =
    Arg.(
      value & opt int 2015
      & info [ "seed" ] ~docv:"N" ~doc:"Workload generator seed.")
  in
  let events_arg =
    Arg.(
      value & opt int 100
      & info [ "events" ] ~docv:"N"
          ~doc:"Length of the arrival/departure trace.")
  in
  let emit_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"FILE"
          ~doc:
            "Instead of replaying locally, write the trace as \
             rfloor-service/1 NDJSON frames (layout establish, one \
             add/remove per event, a final layout report, shutdown) — \
             feed the file to $(b,rfloor_cli batch) or $(b,serve).  \
             $(b,-) writes to stdout.")
  in
  let no_defrag_arg =
    Arg.(
      value & flag
      & info [ "no-defrag" ]
          ~doc:"Reject fragmented arrivals instead of planning moves.")
  in
  let no_fallback_arg =
    Arg.(
      value & flag
      & info [ "no-fallback" ]
          ~doc:
            "Never fall back to the full re-placement solve (RF704); \
             arrivals the bounded move search cannot admit are rejected.")
  in
  let max_moves_arg =
    Arg.(
      value & opt int 3
      & info [ "max-moves" ] ~docv:"N"
          ~doc:"Defragmentation search depth (moves per episode).")
  in
  let demand_fields d =
    List.filter_map
      (fun (k, n) ->
        if n <= 0 then None
        else
          Some
            ( String.lowercase_ascii (Resource.kind_to_string k),
              J.Num (float_of_int n) ))
      d
  in
  let emit_frames ~device ~device_file ~events out =
    let layout_frame =
      match device_file with
      | Some path ->
        J.Obj
          [ ("op", J.Str "layout"); ("device_text", J.Str (read_whole_file path)) ]
      | None -> J.Obj [ ("op", J.Str "layout"); ("device", J.Str device) ]
    in
    let event_frame = function
      | W.Arrive { a_name; a_demand } ->
        J.Obj
          [
            ("op", J.Str "add");
            ("name", J.Str a_name);
            ("demand", J.Obj (demand_fields a_demand));
          ]
      | W.Depart { d_name } ->
        J.Obj [ ("op", J.Str "remove"); ("name", J.Str d_name) ]
    in
    let frames =
      (layout_frame :: List.map event_frame events)
      @ [ J.Obj [ ("op", J.Str "layout") ]; J.Obj [ ("op", J.Str "shutdown") ] ]
    in
    List.iter
      (fun f ->
        output_string out (J.to_string f);
        output_char out '\n')
      frames
  in
  let run device device_file seed events emit no_defrag no_fallback max_moves
      verbose =
    let grid = load_device device device_file in
    let part = partition_of grid in
    let trace = W.generate ~seed ~events part in
    match emit with
    | Some "-" -> emit_frames ~device ~device_file ~events:trace stdout
    | Some path ->
      let oc = open_out path in
      emit_frames ~device ~device_file ~events:trace oc;
      close_out oc;
      Format.printf "wrote %s (%d frames)@." path (events + 3)
    | None ->
      let on_event =
        if verbose then fun i ev outcome ->
          Format.printf "%3d %-32s %s@." i
            (Format.asprintf "%a" W.pp_event ev)
            outcome
        else fun _ _ _ -> ()
      in
      let stats =
        W.replay ~defrag:(not no_defrag) ~max_moves
          ~fallback:(not no_fallback) ~on_event part trace
      in
      Format.printf
        "events: %d  admitted: %d  defrag: %d  fallback: %d  rejected: %d  \
         departed: %d  moves: %d@."
        stats.W.s_events stats.W.s_admitted stats.W.s_defrag_admitted
        stats.W.s_fallbacks stats.W.s_rejected stats.W.s_departed
        stats.W.s_moves;
      Format.printf "defrag episodes: %d@." (W.defrag_episodes stats);
      Format.printf "final occupancy: %.3f  fragmentation: %.3f@."
        (L.occupancy stats.W.s_final)
        (L.fragmentation stats.W.s_final);
      Format.printf "violations: %d@." (List.length stats.W.s_violations);
      List.iter
        (fun v -> Format.printf "VIOLATION: %s@." v)
        stats.W.s_violations;
      print_string (L.render stats.W.s_final);
      if stats.W.s_violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:
         "Online floorplanning workload replayer: generate a seeded \
          arrival/departure trace and replay it against the incremental \
          layout with no-break defragmentation, auditing every step (each \
          move through the bitstream relocation filter, non-moving frames \
          byte-identical, free-rectangle set equal to a from-scratch \
          recompute).  Exits non-zero on any audit violation.  With \
          $(b,--emit), writes the trace as service frames instead.")
    Term.(
      const run $ device_arg $ device_file_arg $ seed_arg $ events_arg
      $ emit_arg $ no_defrag_arg $ no_fallback_arg $ max_moves_arg
      $ verbose_arg)

(* ---------------- sites ---------------- *)

let sites_cmd =
  let area_arg =
    Arg.(required & opt (some rect_conv) None & info [ "area" ] ~docv:"X,Y,W,H" ~doc:"Reference area.")
  in
  let run device device_file area =
    let grid = load_device device device_file in
    let part = partition_of grid in
    let sites = Compat.relocation_sites part area in
    Format.printf "%d compatible placements for %s:@." (List.length sites)
      (Rect.to_string area);
    List.iter (fun r -> Format.printf "  %s@." (Rect.to_string r)) sites
  in
  Cmd.v
    (Cmd.info "sites" ~doc:"List all areas compatible with a given area.")
    Term.(const run $ device_arg $ device_file_arg $ area_arg)

let main_cmd =
  let doc = "relocation-aware floorplanning for partially-reconfigurable FPGAs" in
  Cmd.group
    (Cmd.info "rfloor" ~version:"1.0.0" ~doc)
    [
      partition_cmd; solve_cmd; feasibility_cmd; export_cmd; lint_cmd;
      relocate_cmd; sites_cmd; trace_validate_cmd; trace_export_cmd;
      trace_report_cmd; concheck_cmd; serve_cmd; batch_cmd;
      scrape_cmd; online_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
