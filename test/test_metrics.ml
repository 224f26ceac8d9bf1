(* Unit tests for Rfloor_metrics: registry semantics (idempotent
   registration, null no-ops, domain-safe updates), Prometheus/JSON
   export and the trace-event fold; and for Rfloor_json, the codec the
   JSON export, the service frames and the JSONL trace share: seeded
   print/parse round trips and malformed documents. *)

module R = Rfloor_metrics.Registry
module G = Generators
module T = Rfloor_trace
module E = T.Event

let has_sub needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_sub label needle hay =
  if not (has_sub needle hay) then
    Alcotest.failf "%s: %S not found in %s" label needle hay

(* ---- registry basics ---- *)

let test_instruments () =
  let reg = R.create () in
  Alcotest.(check bool) "live" true (R.live reg);
  let c = R.counter reg "c_total" in
  R.Counter.incr c;
  R.Counter.add c 4;
  R.Counter.add c (-100);
  Alcotest.(check int) "counter monotone" 5 (R.Counter.value c);
  let g = R.gauge reg "g" in
  R.Gauge.set g 2.5;
  R.Gauge.set g 1.25;
  Alcotest.(check (float 0.)) "gauge holds last" 1.25 (R.Gauge.value g);
  let h = R.histogram reg ~buckets:[| 1.; 10. |] "h_seconds" in
  List.iter (R.Histogram.observe h) [ 0.5; 5.; 50. ];
  Alcotest.(check int) "histogram count" 3 (R.Histogram.count h);
  Alcotest.(check (float 1e-9)) "histogram sum" 55.5 (R.Histogram.sum h)

let test_null_registry () =
  Alcotest.(check bool) "null not live" false (R.live R.null);
  let c = R.counter R.null "c_total" in
  let g = R.gauge R.null "g" in
  let h = R.histogram R.null "h" in
  R.Counter.incr c;
  R.Gauge.set g 7.;
  R.Histogram.observe h 1.;
  Alcotest.(check int) "noop counter" 0 (R.Counter.value c);
  Alcotest.(check (float 0.)) "noop gauge" 0. (R.Gauge.value g);
  Alcotest.(check int) "noop histogram" 0 (R.Histogram.count h);
  Alcotest.(check int) "null snapshot empty" 0 (List.length (R.snapshot R.null))

let test_idempotent_registration () =
  let reg = R.create () in
  let c1 = R.counter reg ~labels:[ ("k", "v") ] "c_total" in
  let c2 = R.counter reg ~labels:[ ("k", "v") ] "c_total" in
  R.Counter.incr c1;
  R.Counter.incr c2;
  (* same series: both handles hit the same cell *)
  Alcotest.(check int) "same series accumulates" 2 (R.Counter.value c1);
  let c3 = R.counter reg ~labels:[ ("k", "other") ] "c_total" in
  Alcotest.(check int) "distinct labels distinct cell" 0 (R.Counter.value c3);
  (match R.gauge reg "c_total" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  let _ = R.histogram reg ~buckets:[| 1.; 2. |] "h" in
  match R.histogram reg ~buckets:[| 1.; 3. |] "h" with
  | _ -> Alcotest.fail "bucket mismatch accepted"
  | exception Invalid_argument _ -> ()

let test_concurrent_updates () =
  let reg = R.create () in
  let c = R.counter reg "c_total" in
  let h = R.histogram reg ~buckets:[| 0.5 |] "h" in
  let per_domain = 10_000 in
  let worker () =
    for i = 1 to per_domain do
      R.Counter.incr c;
      R.Histogram.observe h (if i mod 2 = 0 then 0.25 else 0.75)
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Alcotest.(check int) "counter exact under 4 domains" (4 * per_domain)
    (R.Counter.value c);
  Alcotest.(check int) "histogram count exact" (4 * per_domain)
    (R.Histogram.count h);
  Alcotest.(check (float 1e-6))
    "histogram sum exact (CAS accumulation)"
    (float_of_int (4 * per_domain) *. 0.5)
    (R.Histogram.sum h);
  match R.snapshot reg with
  | [ R.Snapshot.Counter _; R.Snapshot.Histogram { buckets; count; _ } ] ->
    Alcotest.(check int) "snapshot count" (4 * per_domain) count;
    (match buckets with
    | [| (_, low); (bound, all) |] ->
      Alcotest.(check int) "le=0.5 bucket" (2 * per_domain) low;
      Alcotest.(check int) "+Inf bucket cumulative" (4 * per_domain) all;
      Alcotest.(check bool) "+Inf bound" true (bound = infinity)
    | _ -> Alcotest.fail "expected 2 buckets")
  | ms -> Alcotest.failf "expected 2 metrics, got %d" (List.length ms)

(* ---- export ---- *)

let test_prometheus_text () =
  let reg = R.create () in
  R.Counter.add (R.counter reg ~help:"a counter" "rf_c_total") 3;
  R.Gauge.set (R.gauge reg "rf_g") 1.5;
  R.Histogram.observe
    (R.histogram reg ~labels:[ ("phase", "root_lp") ] ~buckets:[| 1. |] "rf_h")
    0.5;
  let text = R.to_prometheus (R.snapshot reg) in
  check_sub "help" "# HELP rf_c_total a counter" text;
  check_sub "counter type" "# TYPE rf_c_total counter" text;
  check_sub "counter value" "rf_c_total 3" text;
  check_sub "gauge" "rf_g 1.5" text;
  check_sub "labeled bucket" "rf_h_bucket{phase=\"root_lp\",le=\"1\"} 1" text;
  check_sub "inf bucket" "le=\"+Inf\"} 1" text;
  check_sub "sum" "rf_h_sum{phase=\"root_lp\"} 0.5" text;
  check_sub "count" "rf_h_count{phase=\"root_lp\"} 1" text;
  Alcotest.(check bool) "ends with newline" true
    (text <> "" && text.[String.length text - 1] = '\n')

let test_json_validate () =
  let reg = R.create () in
  R.Counter.incr (R.counter reg "c_total");
  R.Histogram.observe (R.histogram reg "h_seconds") 0.01;
  let js = R.to_json (R.snapshot reg) in
  check_sub "schema tag" "\"schema\":\"rfloor-metrics/1\"" js;
  (match R.validate_json js with
  | Ok n -> Alcotest.(check int) "2 metrics" 2 n
  | Error e -> Alcotest.failf "valid snapshot rejected: %s" e);
  (* each tampered document must fail the check its label names, not
     an earlier one *)
  let reject label ~expect doc =
    match R.validate_json doc with
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error e -> check_sub label expect e
  in
  reject "not json" ~expect:"offset 0" "nope";
  reject "wrong schema" ~expect:"unknown schema"
    {|{"schema":"rfloor-metrics/999","metrics":[]}|};
  reject "negative counter" ~expect:"negative value"
    {|{"schema":"rfloor-metrics/1","metrics":[{"name":"c","kind":"counter","help":"","labels":{},"value":-1}]}|};
  reject "decreasing bucket counts" ~expect:"cumulative bucket counts decrease"
    {|{"schema":"rfloor-metrics/1","metrics":[{"name":"h","kind":"histogram","help":"","labels":{},"sum":1,"count":2,"buckets":[[1,2],[null,1]]}]}|};
  reject "out-of-range bucket count" ~expect:"non-negative integer"
    {|{"schema":"rfloor-metrics/1","metrics":[{"name":"h","kind":"histogram","help":"","labels":{},"sum":1,"count":1,"buckets":[[1,1e19],[null,1]]}]}|};
  reject "duplicate series" ~expect:"duplicate"
    {|{"schema":"rfloor-metrics/1","metrics":[{"name":"c","kind":"counter","help":"","labels":{},"value":1},{"name":"c","kind":"counter","help":"","labels":{},"value":2}]}|}

(* ---- trace-event fold ---- *)

let test_trace_sink_fold () =
  let reg = R.create () in
  let tracer = T.create ~sink:(Rfloor_metrics.Trace_sink.sink reg) () in
  T.span tracer E.Build (fun () -> ());
  T.span tracer E.Root_lp (fun () -> ());
  for i = 1 to 5 do
    T.node_explored tracer ~iters:0 ~worker:0 ~depth:i ~bound:1.
  done;
  T.node_explored tracer ~iters:0 ~worker:1 ~depth:1 ~bound:2.;
  T.incumbent tracer ~worker:0 ~objective:42. ~node:3;
  T.incumbent tracer ~worker:0 ~objective:40. ~node:5;
  T.steal tracer ~worker:1 ~tasks:4;
  T.warn tracer "w";
  let snap = R.snapshot reg in
  let counter_value name labels =
    let m =
      List.find_opt
        (function
          | R.Snapshot.Counter c -> c.name = name && c.labels = labels
          | _ -> false)
        snap
    in
    match m with
    | Some (R.Snapshot.Counter c) -> c.value
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "nodes folded" 6 (counter_value "rfloor_nodes_total" []);
  Alcotest.(check int) "incumbents folded" 2
    (counter_value "rfloor_incumbents_total" []);
  Alcotest.(check int) "steal tasks folded" 4
    (counter_value "rfloor_steal_tasks_total" []);
  Alcotest.(check int) "warnings folded" 1
    (counter_value "rfloor_warnings_total" []);
  Alcotest.(check int) "per-worker nodes" 5
    (counter_value "rfloor_worker_nodes_total" [ ("worker", "0") ]);
  let incumbent_gauge =
    List.find_map
      (function
        | R.Snapshot.Gauge g when g.name = "rfloor_incumbent_objective" ->
          Some g.value
        | _ -> None)
      snap
  in
  Alcotest.(check (option (float 0.))) "latest incumbent objective"
    (Some 40.) incumbent_gauge;
  let phase_series =
    List.filter_map
      (function
        | R.Snapshot.Histogram h when h.name = "rfloor_phase_seconds" ->
          List.assoc_opt "phase" h.labels
        | _ -> None)
      snap
  in
  Alcotest.(check (list string))
    "per-phase wall-time series" [ "build"; "root_lp" ]
    (List.sort compare phase_series);
  (* a dead registry must hand back the null sink *)
  Alcotest.(check bool) "null registry folds to null sink" true
    (T.Sink.is_null (Rfloor_metrics.Trace_sink.sink R.null))

(* ---- solver integration: direct instrumentation ---- *)

let test_solver_populates_metrics () =
  let part = Device.Partition.columnar_exn Device.Devices.mini in
  let spec =
    Device.Spec.make ~name:"metrics-toy"
      [
        { Device.Spec.r_name = "R1"; demand = [ (Device.Resource.Clb, 2) ] };
        { Device.Spec.r_name = "R2"; demand = [ (Device.Resource.Dsp, 1) ] };
      ]
  in
  let metrics = R.create () in
  let options =
    Rfloor.Solver.Options.make ~time_limit:10. ~metrics ()
  in
  let o = Rfloor.Solver.solve ~options part spec in
  Alcotest.(check bool) "solved" true (o.Rfloor.Solver.status = Rfloor.Solver.Optimal);
  let snap = R.snapshot metrics in
  let hist_count name =
    List.fold_left
      (fun acc -> function
        | R.Snapshot.Histogram h when h.name = name -> acc + h.count
        | _ -> acc)
      0 snap
  in
  Alcotest.(check bool) "lp time histogram populated" true
    (hist_count "rfloor_lp_solve_seconds" > 0);
  Alcotest.(check bool) "simplex pivots histogram populated" true
    (hist_count "rfloor_simplex_iterations_per_lp" > 0);
  (* the trace fold ran too: phases were recorded *)
  Alcotest.(check bool) "phase series populated" true
    (List.exists
       (function
         | R.Snapshot.Histogram h -> h.name = "rfloor_phase_seconds"
         | _ -> false)
       snap);
  (* the export of a real solve must self-validate *)
  match R.validate_json (R.to_json snap) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "solver snapshot invalid: %s" e

(* ---- the JSON codec ---- *)

(* A random document of depth at most [depth]: strings carry quotes,
   backslashes and control characters; numbers are integers below 1e15
   and fractions with at most 12 significant digits, the ones
   [to_string] renders exactly. *)
let rec random_json prng depth =
  let module P = G.Prng in
  let str () =
    String.init (P.range prng 0 6) (fun _ ->
        P.pick prng
          [| 'a'; 'Z'; '7'; ' '; '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\001';
             '\031'; '\127' |])
  in
  match P.int prng (if depth = 0 then 4 else 6) with
  | 0 -> Rfloor_json.Null
  | 1 -> Rfloor_json.Bool (P.bool prng)
  | 2 ->
    let k = P.range prng (-999_999_999_999_999) 999_999_999_999_999 in
    if P.bool prng then Rfloor_json.Num (float_of_int k)
    else
      Rfloor_json.Num
        (float_of_int (k mod 1_000_000_000) /. P.pick prng [| 8.; 1000.; 1e6 |])
  | 3 -> Rfloor_json.Str (str ())
  | 4 ->
    Rfloor_json.Arr
      (List.init (P.range prng 0 4) (fun _ -> random_json prng (depth - 1)))
  | _ ->
    (* keys are unique in a document: each starts with its own index *)
    Rfloor_json.Obj
      (List.init (P.range prng 0 4) (fun i ->
           (string_of_int i ^ str (), random_json prng (depth - 1))))

let test_json_codec () =
  let base = G.base_seed () in
  for i = 0 to 499 do
    let seed = G.case_seed base (11_000 + i) in
    let v = random_json (G.Prng.make seed) 3 in
    let text = Rfloor_json.to_string v in
    match Rfloor_json.parse text with
    | Ok v' when v' = v -> ()
    | Ok v' ->
      Alcotest.failf "seed %d: %s came back as %s" seed text
        (Rfloor_json.to_string v')
    | Error e -> Alcotest.failf "seed %d: %s rejected: %s" seed text e
  done;
  List.iter
    (fun (label, doc) ->
      match Rfloor_json.parse doc with
      | Ok _ -> Alcotest.failf "%s accepted: %s" label doc
      | Error _ -> ())
    [
      ("duplicate key", {|{"a":1,"a":2}|});
      ("trailing characters", {|{"a":1} x|});
      ("dangling escape", {|"ab\|});
      ("truncated \\u", {|"\u00"|});
      ("infinite literal", "1e999");
      ("negative infinite literal", "[-1e999]");
      ("bare minus", "-");
    ];
  Alcotest.(check bool) "non-ASCII \\u escape folds to '?'" true
    (Rfloor_json.parse {|"caf\u00e9"|} = Ok (Rfloor_json.Str "caf?"));
  (* integers: integral and inside the int range, or refused *)
  List.iter
    (fun (doc, expect) ->
      let got =
        Result.to_option
          (Result.bind (Rfloor_json.parse doc) (Rfloor_json.get_int "n"))
      in
      if got <> expect then Alcotest.failf "get_int on %s" doc)
    [
      ({|{"n":42}|}, Some 42);
      ({|{"n":-4611686018427387904}|}, Some min_int);
      ({|{"n":4611686018427387904}|}, None);
      ({|{"n":1e19}|}, None);
      ({|{"n":-1e19}|}, None);
      ({|{"n":1.5}|}, None);
    ]

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "instrument basics" `Quick test_instruments;
        Alcotest.test_case "null registry no-ops" `Quick test_null_registry;
        Alcotest.test_case "idempotent registration, kind safety" `Quick
          test_idempotent_registration;
        Alcotest.test_case "updates exact under 4 domains" `Quick
          test_concurrent_updates;
        Alcotest.test_case "prometheus exposition shape" `Quick
          test_prometheus_text;
        Alcotest.test_case "json export validates, tampering rejected" `Quick
          test_json_validate;
        Alcotest.test_case "trace events fold into aggregates" `Quick
          test_trace_sink_fold;
        Alcotest.test_case "solver populates lp/pivot histograms" `Quick
          test_solver_populates_metrics;
      ] );
    ( "json",
      [
        Alcotest.test_case "print-parse round trip, rejections" `Quick
          test_json_codec;
      ] );
  ]
