(* Unit tests for the Rfloor_trace event layer: JSONL round trips,
   schema rejection, sinks (ring, log-fn sampling, jsonl file), report
   aggregation and the RFLOOR_WORKERS environment parsing. *)

module T = Rfloor_trace
module E = T.Event

let sample_events =
  [
    { E.at = 0.0; worker = 0; payload = E.Span_start E.Build };
    { E.at = 0.001; worker = 0; payload = E.Span_end E.Build };
    { E.at = 0.002; worker = 1; payload = E.Node_explored { depth = 3; bound = 41.5; iters = 120 } };
    { E.at = 0.003; worker = 1; payload = E.Node_explored { depth = 0; bound = Float.nan; iters = 0 } };
    { E.at = 0.004; worker = 0; payload = E.Incumbent { objective = 42.; node = 17 } };
    { E.at = 0.005; worker = 0; payload = E.Cut_added { rounds = 2; cuts = 5 } };
    { E.at = 0.006; worker = 2; payload = E.Steal { tasks = 4 } };
    { E.at = 0.007; worker = 2; payload = E.Worker_idle };
    { E.at = 0.008; worker = 0; payload = E.Restart { stage = "stage2-wirelength" } };
    { E.at = 0.009; worker = 0; payload = E.Warning "a \"quoted\"\nwarning" };
    { E.at = 0.010; worker = 0; payload = E.Message "hello" };
    { E.at = 0.011; worker = 1; payload = E.Stopped { reason = "cancel" } };
  ]

(* nan bounds render as null and come back as nan, so compare via the
   serialized form, which is canonical. *)
let test_json_roundtrip () =
  List.iter
    (fun e ->
      let s = E.to_json e in
      match E.of_json s with
      | Error m -> Alcotest.failf "of_json rejected %s: %s" s m
      | Ok e' ->
        Alcotest.(check string)
          (Printf.sprintf "roundtrip %s" (E.name e.E.payload))
          s (E.to_json e'))
    sample_events

let test_json_rejects () =
  let bad =
    [
      ("not json", "hello");
      ("unknown tag", {|{"t":0.1,"w":0,"ev":"frobnicate"}|});
      ("unknown field", {|{"t":0.1,"w":0,"ev":"idle","x":1}|});
      ("missing field", {|{"t":0.1,"ev":"idle"}|});
      ("negative time", {|{"t":-0.1,"w":0,"ev":"idle"}|});
      ("negative worker", {|{"t":0.1,"w":-1,"ev":"idle"}|});
      ("wrong type", {|{"t":0.1,"w":"zero","ev":"idle"}|});
      ("node without depth", {|{"t":0.1,"w":0,"ev":"node","bound":1.5}|});
      ("trailing garbage", {|{"t":0.1,"w":0,"ev":"idle"} extra|});
      ("duplicate field", {|{"t":0.1,"t":0.2,"w":0,"ev":"idle"}|});
    ]
  in
  List.iter
    (fun (label, line) ->
      match E.of_json line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s was accepted: %s" label line)
    bad

let test_phase_names () =
  List.iter
    (fun p ->
      match E.phase_of_name (E.phase_name p) with
      | Some p' when p' = p -> ()
      | _ -> Alcotest.failf "phase %s does not round trip" (E.phase_name p))
    [ E.Build; E.Presolve; E.Lint; E.Root_lp; E.Branch_bound; E.Decode;
      E.Audit; E.Lp_solve; E.Job ]

let test_ring_capacity () =
  let ring = T.Ring.create ~capacity:8 () in
  let tracer = T.create ~sink:(T.Ring.sink ring) () in
  for i = 1 to 20 do
    T.incumbent tracer ~worker:0 ~objective:(float_of_int i) ~node:i
  done;
  let events = T.Ring.events ring in
  Alcotest.(check int) "keeps capacity" 8 (List.length events);
  Alcotest.(check int) "counts dropped" 12 (T.Ring.dropped ring);
  (* oldest first, and the survivors are the newest 8 *)
  (match events with
  | { E.payload = E.Incumbent { node = 13; _ }; _ } :: _ -> ()
  | e :: _ -> Alcotest.failf "unexpected head event %a" E.pp e
  | [] -> Alcotest.fail "empty ring");
  T.Ring.clear ring;
  Alcotest.(check int) "clear empties" 0 (List.length (T.Ring.events ring));
  Alcotest.(check int) "clear resets dropped" 0 (T.Ring.dropped ring)

(* Node events are sampled by the migration shim (one line per
   [progress_every]); everything else passes through. *)
let test_log_fn_sampling () =
  let lines = ref [] in
  let sink = T.Sink.of_log_fn ~progress_every:10 (fun l -> lines := l :: !lines) in
  let tracer = T.create ~sink () in
  for _ = 1 to 25 do
    T.node_explored tracer ~iters:0 ~worker:0 ~depth:1 ~bound:0.
  done;
  T.messagef tracer "hello %d" 42;
  let lines = List.rev !lines in
  Alcotest.(check int) "2 sampled node lines + 1 message" 3 (List.length lines);
  let has_sub needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "message passes through" true
    (List.exists (has_sub "hello 42") lines)

(* Four domains hammer one ring through one tracer: the per-sink mutex
   must keep every event intact and the kept+dropped accounting exact,
   with the ring holding exactly its capacity after wraparound. *)
let test_ring_concurrent_wraparound () =
  let capacity = 64 and domains = 4 and per_domain = 500 in
  let ring = T.Ring.create ~capacity () in
  let tracer = T.create ~sink:(T.Ring.sink ring) () in
  let worker w () =
    for i = 1 to per_domain do
      T.node_explored tracer ~iters:0 ~worker:w ~depth:i ~bound:(float_of_int i)
    done
  in
  List.init domains (fun w -> Domain.spawn (worker w))
  |> List.iter Domain.join;
  let events = T.Ring.events ring in
  Alcotest.(check int) "ring full at capacity" capacity (List.length events);
  Alcotest.(check int) "kept + dropped = written"
    ((domains * per_domain) - capacity)
    (T.Ring.dropped ring);
  (* no torn events: every survivor is a well-formed node event with a
     depth its writer actually produced *)
  List.iter
    (fun (e : E.t) ->
      match e.E.payload with
      | E.Node_explored { depth; bound; _ } ->
        if depth < 1 || depth > per_domain || bound <> float_of_int depth then
          Alcotest.failf "torn event: depth %d bound %g" depth bound
      | p -> Alcotest.failf "unexpected event %s" (E.name p))
    events

(* Same exercise through the of_log_fn migration shim: the callback
   must never run concurrently, so appending to a plain list is safe
   and every line arrives whole. *)
let test_log_fn_concurrent () =
  let lines = ref [] in
  let sink = T.Sink.of_log_fn ~progress_every:1 (fun l -> lines := l :: !lines) in
  let tracer = T.create ~sink () in
  let domains = 4 and per_domain = 200 in
  let worker w () =
    for i = 1 to per_domain do
      T.messagef tracer "w%d-%d" w i
    done
  in
  List.init domains (fun w -> Domain.spawn (worker w))
  |> List.iter Domain.join;
  Alcotest.(check int) "every line delivered" (domains * per_domain)
    (List.length !lines);
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun l ->
      match
        Scanf.sscanf_opt l "[w%d +%fs] w%d-%d" (fun _ _ w i -> (w, i))
      with
      | Some (w, i) when w >= 0 && w < domains && i >= 1 && i <= per_domain ->
        if Hashtbl.mem seen (w, i) then Alcotest.failf "duplicate line %s" l;
        Hashtbl.add seen (w, i) ()
      | _ -> Alcotest.failf "torn or malformed line %S" l)
    !lines

let test_disabled_and_null () =
  Alcotest.(check bool) "disabled not live" false (T.live T.disabled);
  Alcotest.(check bool) "disabled not enabled" false (T.enabled T.disabled);
  let null_tracer = T.create () in
  Alcotest.(check bool) "null-sink tracer live" true (T.live null_tracer);
  Alcotest.(check bool) "null-sink tracer not enabled" false
    (T.enabled null_tracer);
  (* metrics still accumulate on a live tracer with a null sink *)
  T.incumbent null_tracer ~worker:0 ~objective:1. ~node:1;
  T.warn null_tracer "w";
  T.add_worker_totals null_tracer ~worker:0 ~nodes:7 ~iterations:11;
  let r = T.report null_tracer ~nodes:7 ~simplex_iterations:11 ~elapsed:0.5 in
  Alcotest.(check int) "incumbents counted" 1 r.T.Report.incumbents;
  Alcotest.(check int) "warnings counted" 1 r.T.Report.warnings;
  (match r.T.Report.workers with
  | [ w ] ->
    Alcotest.(check int) "worker nodes" 7 w.T.Report.ws_nodes;
    Alcotest.(check int) "worker iterations" 11 w.T.Report.ws_iterations
  | ws -> Alcotest.failf "expected 1 worker stat, got %d" (List.length ws));
  (* disabled yields empty metrics with the caller's totals filled in *)
  let rd = T.report T.disabled ~nodes:3 ~simplex_iterations:4 ~elapsed:0.1 in
  Alcotest.(check int) "disabled nodes" 3 rd.T.Report.nodes;
  Alcotest.(check int) "disabled incumbents" 0 rd.T.Report.incumbents

let test_span_timing () =
  let ring = T.Ring.create () in
  let tracer = T.create ~sink:(T.Ring.sink ring) () in
  let v = T.span tracer E.Presolve (fun () -> 40 + 2) in
  Alcotest.(check int) "span returns the body's value" 42 v;
  (* exception safety: the span must close even when the body raises *)
  (try T.span tracer E.Decode (fun () -> failwith "boom") with Failure _ -> ());
  let r = T.report tracer ~nodes:0 ~simplex_iterations:0 ~elapsed:0. in
  let phase_count p =
    match
      List.find_opt (fun s -> s.T.Report.ps_phase = p) r.T.Report.phases
    with
    | Some s -> s.T.Report.ps_count
    | None -> 0
  in
  Alcotest.(check int) "presolve span completed" 1 (phase_count E.Presolve);
  Alcotest.(check int) "decode span completed despite raise" 1
    (phase_count E.Decode);
  let starts, ends =
    List.fold_left
      (fun (s, e) (ev : E.t) ->
        match ev.E.payload with
        | E.Span_start _ -> (s + 1, e)
        | E.Span_end _ -> (s, e + 1)
        | _ -> (s, e))
      (0, 0) (T.Ring.events ring)
  in
  Alcotest.(check int) "balanced start/end events" starts ends

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_validate_jsonl () =
  let path = Filename.temp_file "rfloor_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let sink, close = T.Sink.jsonl_file path in
  let tracer = T.create ~sink () in
  T.span tracer E.Build (fun () -> ());
  T.incumbent tracer ~worker:0 ~objective:1. ~node:1;
  close ();
  (match T.validate_jsonl (read_file path) with
  | Ok n -> Alcotest.(check int) "3 events" 3 n
  | Error m -> Alcotest.failf "valid trace rejected: %s" m);
  (* an unbalanced span must be rejected *)
  match
    T.validate_jsonl "{\"t\":0.1,\"w\":0,\"ev\":\"span_start\",\"phase\":\"build\"}\n"
  with
  | Ok _ -> Alcotest.fail "unbalanced span accepted"
  | Error _ -> ()

let with_env k v f =
  let old = Sys.getenv_opt k in
  Unix.putenv k v;
  Fun.protect ~finally:(fun () -> Unix.putenv k (Option.value ~default:"" old)) f

let test_workers_from_env () =
  let check_case label v expect warned =
    with_env "RFLOOR_WORKERS" v @@ fun () ->
    let ring = T.Ring.create () in
    let tracer = T.create ~sink:(T.Ring.sink ring) () in
    let n = Milp.Branch_bound.workers_from_env ~default:3 ~trace:tracer () in
    Alcotest.(check int) label expect n;
    let warnings =
      List.length
        (List.filter
           (fun (e : E.t) ->
             match e.E.payload with E.Warning _ -> true | _ -> false)
           (T.Ring.events ring))
    in
    Alcotest.(check int) (label ^ " warnings") warned warnings
  in
  check_case "valid value" "4" 4 0;
  check_case "zero clamps to 1" "0" 1 1;
  check_case "negative clamps to 1" "-2" 1 1;
  check_case "garbage falls back to default" "abc" 3 1;
  with_env "RFLOOR_WORKERS" "" @@ fun () ->
  Alcotest.(check int) "unset uses default" 3
    (Milp.Branch_bound.workers_from_env ~default:3 ())

let test_report_json () =
  let ring = T.Ring.create () in
  let tracer = T.create ~sink:(T.Ring.sink ring) () in
  T.span tracer E.Branch_bound (fun () ->
      T.node_explored tracer ~iters:0 ~worker:0 ~depth:2 ~bound:1.;
      T.incumbent tracer ~worker:0 ~objective:5. ~node:1);
  T.add_worker_totals tracer ~worker:0 ~nodes:1 ~iterations:9;
  let r = T.report tracer ~nodes:1 ~simplex_iterations:9 ~elapsed:0.25 in
  let js = T.Report.to_json r in
  let has_sub needle =
    let hay = js in
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    if not (go 0) then Alcotest.failf "report json lacks %s: %s" needle js
  in
  has_sub "\"nodes\":1";
  has_sub "\"simplex_iterations\":9";
  has_sub "\"incumbents\":1";
  has_sub "\"phases\":";
  has_sub "\"branch_bound\"";
  has_sub "\"workers\":";
  has_sub "\"depth_histogram\":";
  has_sub "\"gc\":{\"minor_collections\":"

(* Live tracers delta Gc.quick_stat over their lifetime. *)
let test_report_gc () =
  let tracer = T.create () in
  (* force some minor collections so the delta is visibly positive *)
  let junk = ref [] in
  for i = 1 to 100_000 do
    junk := (i, float_of_int i) :: !junk;
    if i mod 10_000 = 0 then junk := []
  done;
  ignore (Sys.opaque_identity !junk);
  let r = T.report tracer ~nodes:0 ~simplex_iterations:0 ~elapsed:0. in
  Alcotest.(check bool) "live tracer sees gc activity" true
    (r.T.Report.gc.T.Report.gc_minor_collections > 0);
  Alcotest.(check bool) "top heap recorded" true
    (r.T.Report.gc.T.Report.gc_top_heap_words > 0);
  let rd = T.report T.disabled ~nodes:0 ~simplex_iterations:0 ~elapsed:0. in
  Alcotest.(check bool) "disabled tracer reports no_gc" true
    (rd.T.Report.gc = T.Report.no_gc)

let suites =
  [
    ( "trace",
      [
        Alcotest.test_case "event json round trip" `Quick test_json_roundtrip;
        Alcotest.test_case "event json schema rejection" `Quick test_json_rejects;
        Alcotest.test_case "phase names round trip" `Quick test_phase_names;
        Alcotest.test_case "ring buffer capacity and clear" `Quick
          test_ring_capacity;
        Alcotest.test_case "log-fn shim samples node events" `Quick
          test_log_fn_sampling;
        Alcotest.test_case "ring wraparound under 4 domains" `Quick
          test_ring_concurrent_wraparound;
        Alcotest.test_case "log-fn shim serialized under 4 domains" `Quick
          test_log_fn_concurrent;
        Alcotest.test_case "disabled vs null-sink tracers" `Quick
          test_disabled_and_null;
        Alcotest.test_case "spans time phases and survive raises" `Quick
          test_span_timing;
        Alcotest.test_case "jsonl file validation" `Quick test_validate_jsonl;
        Alcotest.test_case "RFLOOR_WORKERS parsing and clamping" `Quick
          test_workers_from_env;
        Alcotest.test_case "report json shape" `Quick test_report_json;
        Alcotest.test_case "gc deltas in reports" `Quick test_report_gc;
      ] );
  ]
