(* Unit tests for Rfloor_obsv: the telemetry HTTP plane (routes,
   robustness against malformed input, concurrent scrape storm), the
   progress fold (schema, monotone gap, stage-restart reset, member
   attribution), interval hygiene (RF603), the statusz document, the
   Perfetto timeline export (validity, JSONL fixpoint, balance
   checking) and the build-identity gauges. *)

module Http = Rfloor_obsv.Http
module Statusz = Rfloor_obsv.Statusz
module Perfetto = Rfloor_obsv.Perfetto
module Progress = Rfloor_obsv.Progress
module Build_info = Rfloor_obsv.Build_info
module T = Rfloor_trace
module R = Rfloor_metrics.Registry
module D = Rfloor_diag.Diagnostic

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ok_or_fail label = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" label msg

let with_server ?registry handlers f =
  match Http.start ?registry ~port:0 handlers with
  | Error d -> Alcotest.failf "start: %s" (Format.asprintf "%a" D.pp d)
  | Ok srv -> Fun.protect ~finally:(fun () -> Http.stop srv) (fun () -> f srv)

let plain_handlers =
  {
    Http.h_metrics = (fun () -> "# metrics\n");
    h_statusz = (fun () -> Statusz.render ());
  }

(* ------------------------------------------------------------------ *)
(* HTTP plane *)

let test_http_routes () =
  let reg = R.create () in
  Build_info.register reg;
  let handlers =
    {
      Http.h_metrics =
        (fun () ->
          Build_info.touch_uptime reg;
          R.to_prometheus (R.snapshot reg));
      h_statusz = (fun () -> Statusz.render ());
    }
  in
  with_server ~registry:reg handlers @@ fun srv ->
  let port = Http.port srv in
  let status, body = ok_or_fail "healthz" (Http.get ~port "/healthz") in
  Alcotest.(check int) "healthz 200" 200 status;
  Alcotest.(check string) "healthz body" "ok\n" body;
  let status, body = ok_or_fail "metrics" (Http.get ~port "/metrics") in
  Alcotest.(check int) "metrics 200" 200 status;
  Alcotest.(check bool) "metrics carry build info" true
    (contains body "rfloor_build_info");
  Alcotest.(check bool) "metrics carry uptime" true
    (contains body "rfloor_uptime_seconds");
  Alcotest.(check bool) "metrics carry the request counter" true
    (contains body "rfloor_telemetry_requests_total");
  let status, body = ok_or_fail "statusz" (Http.get ~port "/statusz") in
  Alcotest.(check int) "statusz 200" 200 status;
  (match Statusz.validate body with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "statusz invalid: %s" msg);
  let status, _ = ok_or_fail "nowhere" (Http.get ~port "/nowhere") in
  Alcotest.(check int) "unknown path 404" 404 status;
  (* a query string is stripped before routing *)
  let status, _ = ok_or_fail "query" (Http.get ~port "/healthz?x=1") in
  Alcotest.(check int) "query string still routes" 200 status

let test_http_robustness () =
  let reg = R.create () in
  with_server ~registry:reg plain_handlers @@ fun srv ->
  let port = Http.port srv in
  (* a request that is not HTTP at all: 400 with the RF602 diagnostic *)
  let resp =
    ok_or_fail "raw" (Http.request_raw ~port "NONSENSE REQUEST\r\n\r\n")
  in
  Alcotest.(check bool) "400 status line" true
    (contains resp "400 Bad Request");
  Alcotest.(check bool) "body names RF602" true (contains resp "RF602");
  (* a well-formed non-GET: 405 *)
  let resp =
    ok_or_fail "post"
      (Http.request_raw ~port "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
  in
  Alcotest.(check bool) "405 for POST" true
    (contains resp "405 Method Not Allowed");
  (* the server survived both: a normal scrape still answers *)
  let status, _ = ok_or_fail "healthz after abuse" (Http.get ~port "/healthz") in
  Alcotest.(check int) "healthz still 200" 200 status;
  (* and the abuse is accounted for *)
  let bad =
    R.Counter.value (R.counter reg "rfloor_telemetry_bad_requests_total")
  in
  Alcotest.(check bool)
    (Printf.sprintf "bad requests counted (%d)" bad)
    true (bad >= 1)

let test_http_bad_port () =
  match Http.start ~port:70000 plain_handlers with
  | Ok srv ->
    Http.stop srv;
    Alcotest.fail "port 70000 accepted"
  | Error d ->
    Alcotest.(check string) "code" "RF601" d.D.code;
    Alcotest.(check bool) "severity error" true (d.D.severity = D.Error)

(* Four domains hammer all three routes while the handlers read live,
   mutating state (a registry counter and a progress board).  Every
   response must be a well-formed 200. *)
let test_http_scrape_storm () =
  let reg = R.create () in
  Build_info.register reg;
  let board = Progress.create_board () in
  let handlers =
    {
      Http.h_metrics =
        (fun () ->
          Build_info.touch_uptime reg;
          R.to_prometheus (R.snapshot reg));
      h_statusz =
        (fun () -> Statusz.render ~jobs:(Progress.active board) ());
    }
  in
  with_server ~registry:reg handlers @@ fun srv ->
  let port = Http.port srv in
  let errors = Atomic.make 0 in
  let churn = Atomic.make true in
  (* background churn: entries appear, fold events, disappear *)
  let churner =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while Atomic.get churn do
          incr i;
          let e =
            Progress.register board
              ~id:(Printf.sprintf "job-%d" !i)
              ~strategy:"milp"
          in
          let tr = T.create ~sink:(Progress.sink e) () in
          T.node_explored tr ~iters:(10 * !i) ~worker:0 ~depth:1 ~bound:1.;
          T.incumbent tr ~worker:0 ~objective:2. ~node:!i;
          Progress.remove board e
        done)
  in
  let scraper _ () =
    for i = 0 to 49 do
      let path =
        match i mod 3 with 0 -> "/metrics" | 1 -> "/statusz" | _ -> "/healthz"
      in
      match Http.get ~port path with
      | Ok (200, body) ->
        if path = "/statusz" && Statusz.validate body <> Ok () then
          Atomic.incr errors
      | Ok _ | Error _ -> Atomic.incr errors
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (scraper d)) in
  List.iter Domain.join domains;
  Atomic.set churn false;
  Domain.join churner;
  Alcotest.(check int) "no failed scrapes" 0 (Atomic.get errors);
  let served =
    R.Counter.value (R.counter reg "rfloor_telemetry_requests_total")
  in
  Alcotest.(check bool)
    (Printf.sprintf "all 200 scrapes counted (%d)" served)
    true (served >= 200)

(* ------------------------------------------------------------------ *)
(* Progress fold *)

let test_progress_fold () =
  let board = Progress.create_board () in
  let e = Progress.register board ~id:"p1" ~strategy:"milp:2" in
  let tr = T.create ~sink:(Progress.sink e) () in
  let gaps = ref [] in
  let snap () =
    let s = Progress.snapshot e in
    (match s.Progress.p_gap with Some g -> gaps := g :: !gaps | None -> ());
    s
  in
  (* before any event: counters at zero, no incumbent, no gap *)
  let s0 = snap () in
  Alcotest.(check string) "id" "p1" s0.Progress.p_id;
  Alcotest.(check string) "strategy" "milp:2" s0.Progress.p_strategy;
  Alcotest.(check int) "no nodes yet" 0 s0.Progress.p_nodes;
  Alcotest.(check bool) "no gap yet" true (s0.Progress.p_gap = None);
  (* nodes and per-worker cumulative LP iterations *)
  T.node_explored tr ~iters:100 ~worker:0 ~depth:0 ~bound:10.;
  T.node_explored tr ~iters:150 ~worker:0 ~depth:1 ~bound:12.;
  T.node_explored tr ~iters:40 ~worker:1 ~depth:1 ~bound:11.;
  let s1 = snap () in
  Alcotest.(check int) "three nodes" 3 s1.Progress.p_nodes;
  Alcotest.(check int) "iters summed per worker" 190 s1.Progress.p_lp_iterations;
  Alcotest.(check (option (float 1e-9))) "bound is the min" (Some 10.)
    s1.Progress.p_bound;
  Alcotest.(check bool) "still no gap without incumbent" true
    (s1.Progress.p_gap = None);
  (* an incumbent opens the gap; improvements tighten it *)
  T.incumbent tr ~worker:0 ~objective:20. ~node:3;
  let s2 = snap () in
  Alcotest.(check (option (float 1e-9))) "incumbent" (Some 20.)
    s2.Progress.p_incumbent;
  Alcotest.(check bool) "gap present" true (s2.Progress.p_gap <> None);
  T.incumbent tr ~worker:1 ~objective:12. ~node:4;
  let s3 = snap () in
  Alcotest.(check (option (float 1e-9))) "incumbent only improves" (Some 12.)
    s3.Progress.p_incumbent;
  T.incumbent tr ~worker:0 ~objective:15. ~node:5;
  Alcotest.(check (option (float 1e-9))) "worse incumbent ignored" (Some 12.)
    (snap ()).Progress.p_incumbent;
  (* a stage restart (lexicographic stage 2) resets the folds *)
  T.restart tr ~worker:0 "stage2-wirelength";
  let s4 = snap () in
  Alcotest.(check bool) "incumbent reset" true (s4.Progress.p_incumbent = None);
  Alcotest.(check bool) "bound reset" true (s4.Progress.p_bound = None);
  Alcotest.(check int) "nodes survive the restart" 3 s4.Progress.p_nodes;
  (* the new stage's numbers flow in; the reported gap stays clamped *)
  T.node_explored tr ~iters:200 ~worker:0 ~depth:0 ~bound:190.;
  T.incumbent tr ~worker:0 ~objective:196. ~node:6;
  ignore (snap ());
  T.incumbent tr ~worker:0 ~objective:192. ~node:7;
  ignore (snap ());
  (* the gap series, in emission order, never increases *)
  let series = List.rev !gaps in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "gap non-increasing (%s)"
       (String.concat ", " (List.map (Printf.sprintf "%.4f") series)))
    true (monotone series);
  Alcotest.(check bool) "at least two gap samples" true
    (List.length series >= 2);
  (* liveness: finish drops it from the board *)
  Alcotest.(check int) "board lists it" 1 (List.length (Progress.active board));
  Progress.remove board e;
  Alcotest.(check bool) "dead after remove" false (Progress.live e);
  Alcotest.(check int) "board empty" 0 (List.length (Progress.active board))

let test_progress_members () =
  let board = Progress.create_board () in
  let e = Progress.register board ~id:"race" ~strategy:"portfolio" in
  let parent = T.create ~sink:(Progress.sink e) () in
  (* two members, built exactly like Solver's portfolio builds them *)
  let m1 = T.member parent ~slot:1 ~label:"milp:2" in
  let m2 = T.member parent ~slot:2 ~label:"combinatorial" in
  T.node_explored m1 ~iters:10 ~worker:0 ~depth:0 ~bound:1.;
  T.node_explored m1 ~iters:20 ~worker:1 ~depth:1 ~bound:1.;
  T.node_explored m2 ~iters:5 ~worker:0 ~depth:0 ~bound:1.;
  let s = Progress.snapshot e in
  Alcotest.(check int) "all nodes counted" 3 s.Progress.p_nodes;
  let member label =
    match List.assoc_opt label s.Progress.p_members with
    | Some n -> n
    | None -> Alcotest.failf "member %s missing (%d listed)" label
                (List.length s.Progress.p_members)
  in
  Alcotest.(check int) "milp:2 attribution" 2 (member "milp:2");
  Alcotest.(check int) "combinatorial attribution" 1 (member "combinatorial");
  (* a member marker must NOT reset the fold *)
  T.incumbent m2 ~worker:0 ~objective:5. ~node:1;
  ignore (T.member parent ~slot:1 ~label:"milp:2");
  Alcotest.(check (option (float 1e-9))) "member restart keeps incumbent"
    (Some 5.) (Progress.snapshot e).Progress.p_incumbent

let test_clamp_interval () =
  let check_clamp label v expect warns =
    let got, diags = Progress.clamp_interval ~id:"j" v in
    Alcotest.(check (float 1e-9)) (label ^ " value") expect got;
    Alcotest.(check int) (label ^ " diagnostics") warns (List.length diags);
    List.iter
      (fun d ->
        Alcotest.(check string) (label ^ " code") "RF603" d.D.code;
        Alcotest.(check bool) (label ^ " warning") true
          (d.D.severity = D.Warning))
      diags
  in
  check_clamp "in range" 0.2 0.2 0;
  check_clamp "nan" Float.nan Progress.default_interval 1;
  check_clamp "zero" 0. Progress.default_interval 1;
  check_clamp "negative" (-3.) Progress.default_interval 1;
  check_clamp "below floor" 0.001 Progress.min_interval 1;
  check_clamp "above ceiling" 1e9 Progress.max_interval 1

(* ------------------------------------------------------------------ *)
(* Statusz *)

let test_statusz_document () =
  let pool =
    {
      Statusz.pv_workers = [ "idle"; "job 3" ];
      pv_queued = 1;
      pv_running = 1;
      pv_finished = 7;
      pv_cache_hits = 4;
      pv_cache_misses = 3;
      pv_cache_size = 3;
    }
  in
  let board = Progress.create_board () in
  let e = Progress.register board ~id:"j3" ~strategy:"milp" in
  let tr = T.create ~sink:(Progress.sink e) () in
  T.node_explored tr ~iters:9 ~worker:0 ~depth:0 ~bound:1.;
  let body = Statusz.render ~pool ~jobs:(Progress.active board) () in
  (match Statusz.validate body with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "statusz invalid: %s" msg);
  Alcotest.(check bool) "version tag" true (contains body Statusz.version);
  Alcotest.(check bool) "worker states listed" true (contains body "job 3");
  Alcotest.(check bool) "job listed" true (contains body "\"id\":\"j3\"");
  (* validation rejects garbage, wrong versions and malformed jobs *)
  Alcotest.(check bool) "garbage rejected" true
    (Statusz.validate "not json" <> Ok ());
  Alcotest.(check bool) "wrong version rejected" true
    (Statusz.validate "{\"v\":\"rfloor-statusz/9\",\"uptime_s\":1}" <> Ok ());
  Alcotest.(check bool) "malformed job rejected" true
    (Statusz.validate
       "{\"v\":\"rfloor-statusz/1\",\"uptime_s\":1,\"jobs\":[{\"id\":\"x\"}]}"
    <> Ok ())

(* ------------------------------------------------------------------ *)
(* Perfetto export *)

(* A small two-worker trace with a portfolio member on the striped id
   range: spans, nodes, an incumbent and a stop. *)
let sample_events () =
  let ring = T.Ring.create () in
  let tr = T.create ~sink:(T.Ring.sink ring) () in
  T.span tr ~worker:0 T.Event.Build (fun () ->
      T.span tr ~worker:0 T.Event.Root_lp (fun () ->
          T.node_explored tr ~iters:11 ~worker:0 ~depth:0 ~bound:1.));
  T.span tr ~worker:1 T.Event.Branch_bound (fun () ->
      T.node_explored tr ~iters:7 ~worker:1 ~depth:1 ~bound:2.;
      T.incumbent tr ~worker:1 ~objective:3. ~node:2);
  let m = T.member tr ~slot:1 ~label:"combinatorial" in
  T.span m ~worker:0 T.Event.Decode (fun () -> ());
  T.stopped tr ~worker:0 "budget";
  T.Ring.events ring

let test_perfetto_export () =
  let events = sample_events () in
  let doc = Perfetto.of_events events in
  (match Perfetto.validate doc with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "export invalid: %s" msg);
  Alcotest.(check bool) "has traceEvents" true (contains doc "\"traceEvents\"");
  Alcotest.(check bool) "names the process" true (contains doc "\"rfloor\"");
  Alcotest.(check bool) "names plain workers" true (contains doc "worker 1");
  Alcotest.(check bool) "names the member track" true
    (contains doc "combinatorial");
  Alcotest.(check bool) "phase slices present" true (contains doc "root_lp");
  (* JSONL -> Perfetto agrees with the direct export (fixpoint) *)
  let jsonl =
    String.concat "" (List.map (fun e -> T.Event.to_json e ^ "\n") events)
  in
  let of_jsonl text =
    Perfetto.of_events
      (List.map
         (fun (ln, r) -> ok_or_fail (Printf.sprintf "line %d" ln) r)
         (T.read_jsonl text))
  in
  Alcotest.(check string) "jsonl fixpoint" doc (of_jsonl jsonl);
  (* blank lines are tolerated, garbage lines are named *)
  Alcotest.(check string) "blank lines ignored" doc
    (of_jsonl ("\n" ^ jsonl ^ "\n"));
  let lines = T.read_jsonl ("\n" ^ jsonl ^ "not json\n") in
  match List.rev lines with
  | (ln, Error _) :: _ ->
    Alcotest.(check int) "the garbage line is named" (List.length events + 2) ln
  | _ -> Alcotest.fail "garbage line accepted"

let test_perfetto_validate_rejects () =
  let reject label doc =
    match Perfetto.validate doc with
    | Ok () -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  reject "not json" "nope";
  reject "no traceEvents" "{\"other\":[]}";
  reject "unbalanced B"
    "{\"traceEvents\":[{\"ph\":\"B\",\"name\":\"a\",\"pid\":1,\"tid\":1,\"ts\":0}]}";
  reject "stray E"
    "{\"traceEvents\":[{\"ph\":\"E\",\"name\":\"a\",\"pid\":1,\"tid\":1,\"ts\":0}]}";
  reject "interleaved slices"
    (String.concat ""
       [
         "{\"traceEvents\":[";
         "{\"ph\":\"B\",\"name\":\"a\",\"pid\":1,\"tid\":1,\"ts\":0},";
         "{\"ph\":\"B\",\"name\":\"b\",\"pid\":1,\"tid\":1,\"ts\":1},";
         "{\"ph\":\"E\",\"name\":\"a\",\"pid\":1,\"tid\":1,\"ts\":2},";
         "{\"ph\":\"E\",\"name\":\"b\",\"pid\":1,\"tid\":1,\"ts\":3}]}";
       ]);
  (* nesting on ANOTHER thread is independent: this one is fine *)
  match
    Perfetto.validate
      (String.concat ""
         [
           "{\"traceEvents\":[";
           "{\"ph\":\"B\",\"name\":\"a\",\"pid\":1,\"tid\":1,\"ts\":0},";
           "{\"ph\":\"B\",\"name\":\"b\",\"pid\":1,\"tid\":2,\"ts\":1},";
           "{\"ph\":\"E\",\"name\":\"b\",\"pid\":1,\"tid\":2,\"ts\":2},";
           "{\"ph\":\"E\",\"name\":\"a\",\"pid\":1,\"tid\":1,\"ts\":3}]}";
         ])
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "per-thread nesting rejected: %s" msg

let test_perfetto_report () =
  let events = sample_events () in
  let plain = Perfetto.report events in
  Alcotest.(check bool) "dominance table" true
    (contains plain "phase dominance");
  Alcotest.(check bool) "phases named" true (contains plain "root_lp");
  Alcotest.(check bool) "no critical path by default" false
    (contains plain "critical path");
  let cp = Perfetto.report ~critical_path:true events in
  Alcotest.(check bool) "critical path printed" true
    (contains cp "critical path")

(* ------------------------------------------------------------------ *)
(* Build identity *)

let test_build_info () =
  let reg = R.create () in
  Build_info.register reg;
  Build_info.register reg;  (* idempotent *)
  Build_info.touch_uptime reg;
  let snap = R.snapshot reg in
  let gauges name =
    List.filter
      (fun m ->
        match m with
        | R.Snapshot.Gauge { name = n; _ } -> n = name
        | _ -> false)
      snap
  in
  (match gauges "rfloor_build_info" with
  | [ R.Snapshot.Gauge { value; labels; _ } ] ->
    Alcotest.(check (float 0.)) "value is 1" 1. value;
    List.iter
      (fun k ->
        Alcotest.(check bool) (k ^ " label") true (List.mem_assoc k labels))
      [ "version"; "ocaml"; "git" ];
    Alcotest.(check (option string)) "version label"
      (Some Build_info.version)
      (List.assoc_opt "version" labels)
  | l -> Alcotest.failf "build_info series: %d found" (List.length l));
  (match gauges "rfloor_uptime_seconds" with
  | [ R.Snapshot.Gauge { value; _ } ] ->
    Alcotest.(check bool) "uptime non-negative" true (value >= 0.)
  | l -> Alcotest.failf "uptime series: %d found" (List.length l));
  Alcotest.(check bool) "uptime advances" true (Build_info.uptime () >= 0.)

let suites =
  [
    ( "obsv.http",
      [
        Alcotest.test_case "routes" `Quick test_http_routes;
        Alcotest.test_case "robust against malformed input" `Quick test_http_robustness;
        Alcotest.test_case "bad port -> RF601" `Quick test_http_bad_port;
        Alcotest.test_case "four-domain scrape storm" `Quick test_http_scrape_storm;
      ] );
    ( "obsv.progress",
      [
        Alcotest.test_case "fold schema and monotone gap" `Quick test_progress_fold;
        Alcotest.test_case "portfolio member attribution" `Quick test_progress_members;
        Alcotest.test_case "interval clamping -> RF603" `Quick test_clamp_interval;
      ] );
    ( "obsv.statusz",
      [ Alcotest.test_case "document round-trip" `Quick test_statusz_document ] );
    ( "obsv.perfetto",
      [
        Alcotest.test_case "export validity and jsonl fixpoint" `Quick test_perfetto_export;
        Alcotest.test_case "validator rejects broken nesting" `Quick test_perfetto_validate_rejects;
        Alcotest.test_case "phase report" `Quick test_perfetto_report;
      ] );
    ( "obsv.build_info",
      [ Alcotest.test_case "identity gauges" `Quick test_build_info ] );
  ]
