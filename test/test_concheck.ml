(* Tests for the concurrency-correctness analyzers (Rfloor_concheck):
   the interleaving explorer and its scenario suite, the vector-clock
   race detector (on synthetic logs and on real recorded workloads),
   the RF401..RF403 raw-primitive source lint, and the RF430..RF435
   invariants Rfloor_trace.check enforces on recorded traces. *)

module C = Rfloor_concheck
module D = Rfloor_diag.Diagnostic
module E = Rfloor_sync.Event
module T = Rfloor_trace

(* ------------------------------------------------------------------ *)
(* Explorer *)

(* Two threads, read-then-write increments of a plain cell: the classic
   lost update.  At CAS granularity (one step = whole increment) the
   same program is correct. *)
let counter_scenario ~atomic =
  let cell = ref (ref 0) in
  let threads () =
    let c = ref 0 in
    cell := c;
    let make () =
      if atomic then begin
        let pc = ref 0 in
        fun () ->
          if !pc >= 1 then false
          else begin
            incr c;
            incr pc;
            true
          end
      end
      else begin
        let pc = ref 0 and obs = ref 0 in
        fun () ->
          match !pc with
          | 0 ->
            obs := !c;
            pc := 1;
            true
          | 1 ->
            c := !obs + 1;
            pc := 2;
            true
          | _ -> false
      end
    in
    [ make (); make () ]
  in
  {
    C.Explorer.name = (if atomic then "counter_atomic" else "counter_torn");
    threads;
    check =
      (fun () ->
        if !(!cell) = 2 then Ok ()
        else Error (Printf.sprintf "count %d, expected 2" !(!cell)));
    fingerprint = None;
  }

let test_explorer_finds_lost_update () =
  let o = C.Explorer.explore (counter_scenario ~atomic:false) in
  Alcotest.(check bool) "violation found" true (o.C.Explorer.o_violation <> None);
  Alcotest.(check bool)
    "diagnosed as RF420" true
    (List.exists (fun d -> d.D.code = "RF420") (C.Explorer.diagnostics o))

let test_explorer_exhausts_correct_counter () =
  let o = C.Explorer.explore (counter_scenario ~atomic:true) in
  Alcotest.(check bool) "no violation" true (o.C.Explorer.o_violation = None);
  Alcotest.(check bool) "exhausted" true o.C.Explorer.o_exhausted;
  (* two threads of one step each: exactly the 2 orders *)
  Alcotest.(check int) "schedules" 2 o.C.Explorer.o_schedules;
  Alcotest.(check int) "no diagnostics" 0
    (List.length (C.Explorer.diagnostics o))

let test_explorer_budget () =
  let o =
    C.Explorer.explore ~max_replays:3 (counter_scenario ~atomic:false)
  in
  if o.C.Explorer.o_violation = None then begin
    Alcotest.(check bool) "not exhausted" false o.C.Explorer.o_exhausted;
    Alcotest.(check bool)
      "diagnosed as RF421" true
      (List.exists (fun d -> d.D.code = "RF421") (C.Explorer.diagnostics o))
  end

let test_scenarios_run_all () =
  let outcomes, diags = C.Scenarios.run_all ~seed:2015 () in
  Alcotest.(check int) "five outcomes (incl. seeded bug)" 5
    (List.length outcomes);
  List.iter
    (fun d -> Alcotest.failf "unexpected diagnostic: %s %s" d.D.code d.D.message)
    diags;
  (* every correct scenario exhausted; the blind variant violated *)
  List.iter
    (fun o ->
      let broken = o.C.Explorer.o_name = "incumbent_cas_blind_write" in
      Alcotest.(check bool)
        (o.C.Explorer.o_name ^ " verdict")
        broken
        (o.C.Explorer.o_violation <> None))
    outcomes

(* ------------------------------------------------------------------ *)
(* Race detector *)

(* Build a synthetic log directly: two domains write one Shared cell,
   first unordered, then ordered through a mutex handoff. *)
let ev seq domain op obj name = { E.seq; domain; op; obj; name; aux = -1 }

let test_race_unordered_writes () =
  let log =
    [
      ev 0 0 E.Plain_write 7 "cell";
      ev 1 1 E.Plain_write 7 "cell";
    ]
  in
  let report, diags = C.Race.analyze log in
  Alcotest.(check int) "one race" 1 (List.length report.C.Race.races);
  Alcotest.(check bool)
    "RF410 emitted" true
    (List.exists (fun d -> d.D.code = "RF410") diags);
  match report.C.Race.races with
  | [ (name, _, _) ] -> Alcotest.(check string) "cell named" "cell" name
  | _ -> ()

let test_race_mutex_orders () =
  let m = 3 in
  let log =
    [
      ev 0 0 E.Lock_acquire m "m";
      ev 1 0 E.Plain_write 7 "cell";
      ev 2 0 E.Lock_release m "m";
      ev 3 1 E.Lock_acquire m "m";
      ev 4 1 E.Plain_write 7 "cell";
      ev 5 1 E.Lock_release m "m";
    ]
  in
  let report, diags = C.Race.analyze log in
  Alcotest.(check int) "no races" 0 (List.length report.C.Race.races);
  Alcotest.(check int) "no lockset warnings" 0
    (List.length report.C.Race.lockset_warnings);
  Alcotest.(check int) "no diagnostics" 0 (List.length diags)

let test_race_cas_handoff_warns_lockset () =
  (* ordered by a successful CAS, but no common lock: clean of RF410,
     flagged RF411 *)
  let a = 9 in
  let log =
    [
      ev 0 0 E.Plain_write 7 "cell";
      ev 1 0 (E.Atomic_cas true) a "flag";
      ev 2 1 E.Atomic_read a "flag";
      ev 3 1 E.Plain_write 7 "cell";
    ]
  in
  let report, diags = C.Race.analyze log in
  Alcotest.(check int) "no races" 0 (List.length report.C.Race.races);
  Alcotest.(check (list string)) "lockset warning" [ "cell" ]
    report.C.Race.lockset_warnings;
  Alcotest.(check bool)
    "RF411 emitted" true
    (List.exists (fun d -> d.D.code = "RF411") diags)

let test_detector_self_test () =
  let selfs, diags = C.Scenarios.detector_self_test () in
  Alcotest.(check int) "three workloads" 3 (List.length selfs);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s)" s.C.Scenarios.st_name s.C.Scenarios.st_detail)
        true s.C.Scenarios.st_pass)
    selfs;
  Alcotest.(check int) "no diagnostics" 0 (List.length diags)

(* ------------------------------------------------------------------ *)
(* Source lint *)

let codes diags = List.map (fun d -> d.D.code) diags

let test_source_lint_flags_raw () =
  let text = "let m = Mutex.create ()\nlet c = Stdlib.Atomic.make 0\n" in
  Alcotest.(check (list string))
    "unqualified and Stdlib-rooted flagged" [ "RF401"; "RF403" ]
    (codes (C.Source_lint.scan_text ~path:"x.ml" text))

let test_source_lint_accepts_wrapped () =
  let text =
    "module Sync = Rfloor_sync\n\
     let m : Rfloor_sync.Mutex.t = Sync.Mutex.create ()\n\
     let c = Sync.Atomic.make 0\n\
     let w = Sync.Condition.create ()\n"
  in
  Alcotest.(check (list string)) "qualified uses pass" []
    (codes (C.Source_lint.scan_text ~path:"x.ml" text))

let test_source_lint_ignores_prose () =
  let text =
    "(* Mutex.lock is how (* the raw *) primitive spells it *)\n\
     let s = \"Atomic.get in a string\"\n\
     let q = 'x' and p = foo' in\n\
     let _ = (q, p, s)\n"
  in
  Alcotest.(check (list string)) "comments/strings/chars pass" []
    (codes (C.Source_lint.scan_text ~path:"x.ml" text))

let test_source_lint_reports_lines () =
  let text = "let a = 1\n\nlet m = Condition.create ()\n" in
  match C.Source_lint.scan_text ~path:"p.ml" text with
  | [ d ] ->
    Alcotest.(check string) "code" "RF402" d.D.code;
    Alcotest.(check string) "location" "p.ml:3"
      (D.location_to_string d.D.location)
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds)

let test_source_lint_repo_is_clean () =
  (* the real gate: lib/ and bin/ must be free of raw primitives *)
  let root = ref (Sys.getcwd ()) in
  while not (Sys.file_exists (Filename.concat !root "DESIGN.md")) do
    let parent = Filename.dirname !root in
    if parent = !root then Alcotest.fail "repo root not found";
    root := parent
  done;
  let diags =
    C.Source_lint.scan_roots
      [ Filename.concat !root "lib"; Filename.concat !root "bin" ]
  in
  List.iter
    (fun d ->
      Alcotest.failf "raw primitive: %s %s: %s" d.D.code
        (D.location_to_string d.D.location)
        d.D.message)
    diags

(* ------------------------------------------------------------------ *)
(* Trace invariants (Rfloor_trace.check) *)

let jsonl events =
  String.concat "\n" (List.map T.Event.to_json events) ^ "\n"

let bb = T.Event.Branch_bound

let good_trace =
  [
    { T.Event.at = 0.00; worker = 0; payload = T.Event.Span_start bb };
    { T.Event.at = 0.01; worker = 0; payload = T.Event.Node_explored { depth = 0; bound = 12.0; iters = 0 } };
    { T.Event.at = 0.02; worker = 1; payload = T.Event.Node_explored { depth = 1; bound = 11.0; iters = 0 } };
    { T.Event.at = 0.03; worker = 0; payload = T.Event.Node_explored { depth = 1; bound = 10.5; iters = 0 } };
    { T.Event.at = 0.04; worker = 0; payload = T.Event.Incumbent { objective = 10.0; node = 2 } };
    { T.Event.at = 0.05; worker = 0; payload = T.Event.Steal { tasks = 2 } };
    { T.Event.at = 0.06; worker = 0; payload = T.Event.Incumbent { objective = 8.0; node = 3 } };
    { T.Event.at = 0.07; worker = 0; payload = T.Event.Stopped { reason = "budget" } };
    { T.Event.at = 0.08; worker = 0; payload = T.Event.Span_end bb };
  ]

(* Two portfolio members on worker ids 1000.. and 2000.. whose
   branch-and-bound spans overlap: member 1's root comes before member
   2's span opens, so a segment shared by every worker would count 4
   depth-1 nodes under member 2's one root.  [extra] adds depth-1 nodes
   to member 2. *)
let two_members ~extra =
  let ev at worker payload = { T.Event.at; worker; payload } in
  let node at worker depth =
    ev at worker (T.Event.Node_explored { depth; bound = 1.0; iters = 0 })
  in
  jsonl
    ([ ev 0.00 1000 (T.Event.Span_start bb);
       node 0.01 1000 0;
       ev 0.02 2000 (T.Event.Span_start bb);
       node 0.03 2000 0;
       node 0.04 1000 1;
       node 0.05 1001 1;
       node 0.06 2001 1;
       node 0.07 2000 1 ]
    @ List.init extra (fun i -> node (0.08 +. (0.001 *. float_of_int i)) 2001 1)
    @ [ ev 0.09 1000 (T.Event.Incumbent { objective = 10.0; node = 2 });
        ev 0.10 2000 (T.Event.Incumbent { objective = 20.0; node = 2 });
        ev 0.11 1000 (T.Event.Stopped { reason = "cancel" });
        ev 0.12 2000 (T.Event.Stopped { reason = "cancel" });
        ev 0.13 1000 (T.Event.Span_end bb);
        ev 0.14 2000 (T.Event.Span_end bb) ])

let test_trace_verify_accepts () =
  let stats, diags = T.check (jsonl good_trace) in
  Alcotest.(check int) "clean" 0 (List.length diags);
  Alcotest.(check int) "events" 9 stats.T.c_events;
  Alcotest.(check int) "segments" 1 stats.T.c_segments;
  Alcotest.(check int) "workers" 2 stats.T.c_workers;
  let stats, diags = T.check (two_members ~extra:0) in
  Alcotest.(check int) "interleaved members clean" 0 (List.length diags);
  Alcotest.(check int) "one segment per member" 2 stats.T.c_segments

let expect_code name code text =
  let _, diags = T.check text in
  Alcotest.(check bool)
    (name ^ " rejected with " ^ code)
    true
    (List.exists (fun d -> d.D.code = code) diags)

(* spans that balance but do not nest: [bad_span.jsonl] of
   [bin/lint.sh concheck], byte for byte *)
let test_trace_verify_rejects_bad_nesting () =
  expect_code "crossed spans" "RF431"
    {|{"t":0.0,"w":0,"ev":"span_start","phase":"build"}
{"t":0.1,"w":0,"ev":"span_start","phase":"root_lp"}
{"t":0.2,"w":0,"ev":"span_end","phase":"build"}
{"t":0.3,"w":0,"ev":"span_end","phase":"root_lp"}
|};
  expect_code "unopened span" "RF431"
    (jsonl [ { T.Event.at = 0.0; worker = 0; payload = T.Event.Span_end bb } ])

let test_trace_verify_rejects_time_travel () =
  expect_code "backwards clock" "RF432"
    (jsonl
       [
         { T.Event.at = 0.5; worker = 0; payload = T.Event.Span_start bb };
         { T.Event.at = 0.1; worker = 0; payload = T.Event.Span_end bb };
       ])

let test_trace_verify_rejects_bouncing_incumbent () =
  let mk at objective node =
    { T.Event.at; worker = 0; payload = T.Event.Incumbent { objective; node } }
  in
  expect_code "bouncing incumbent" "RF433"
    (jsonl
       ([ { T.Event.at = 0.0; worker = 0; payload = T.Event.Span_start bb } ]
       @ [ mk 0.1 5.0 1; mk 0.2 9.0 2; mk 0.3 4.0 3 ]
       @ [ { T.Event.at = 0.4; worker = 0; payload = T.Event.Span_end bb } ]))

let test_trace_verify_rejects_conjured_nodes () =
  let node at depth =
    { T.Event.at; worker = 0; payload = T.Event.Node_explored { depth; bound = 1.0; iters = 0 } }
  in
  expect_code "depth-1 nodes without parents" "RF434"
    (jsonl
       ([ { T.Event.at = 0.0; worker = 0; payload = T.Event.Span_start bb } ]
       @ [ node 0.1 0; node 0.2 1; node 0.3 1; node 0.4 1 ]
       @ [ { T.Event.at = 0.5; worker = 0; payload = T.Event.Span_end bb } ]));
  expect_code "one member's 3 depth-1 nodes under one root" "RF434"
    (two_members ~extra:1)

let test_trace_verify_rejects_double_stop () =
  let stop at =
    { T.Event.at; worker = 0; payload = T.Event.Stopped { reason = "cancel" } }
  in
  expect_code "two Stopped(cancel)" "RF435"
    (jsonl
       ([ { T.Event.at = 0.0; worker = 0; payload = T.Event.Span_start bb } ]
       @ [ stop 0.1; stop 0.2 ]
       @ [ { T.Event.at = 0.3; worker = 0; payload = T.Event.Span_end bb } ]))

let test_trace_verify_rejects_garbage () =
  expect_code "unparsable line" "RF430" "{\"not\":\"an event\"}\n"

let check_clean label text =
  let stats, diags = T.check text in
  List.iter
    (fun d -> Alcotest.failf "%s: %s %s" label d.D.code d.D.message)
    diags;
  stats

let recording_sink () =
  let buf = Buffer.create 4096 in
  (buf, T.Sink.of_fn (fun e -> Buffer.add_string buf (T.Event.to_json e ^ "\n")))

(* real recorded solves must verify clean end to end: a two-worker
   MILP, and two of the paper's MILPs racing on [bin/lint.sh
   concheck]'s instance, their branch-and-bound spans overlapping on
   one sink *)
let test_trace_verify_real_solve () =
  let ok = function Ok v -> v | Error d -> Alcotest.fail d.D.message in
  let toy =
    Device.Spec.make ~name:"toy"
      ~nets:[ { Device.Spec.src = "filter"; dst = "decoder"; weight = 32. } ]
      [
        { Device.Spec.r_name = "filter";
          demand = [ (Device.Resource.Clb, 2); (Device.Resource.Bram, 1) ] };
        { Device.Spec.r_name = "decoder";
          demand = [ (Device.Resource.Clb, 2); (Device.Resource.Dsp, 1) ] };
      ]
  in
  let concheck_dev =
    ok (Device.Io.parse_grid "name: concheckdev\nccbccdccbc\nccbccdccbc\n")
  in
  List.iter
    (fun (grid, strategy, segments) ->
      let buf, sink = recording_sink () in
      let options =
        Rfloor.Solver.Options.make
          ~strategy:(ok (Rfloor.Solver.Strategy.of_string strategy))
          ~time_limit:20. ~trace:sink ()
      in
      let r =
        Rfloor.Solver.solve ~options (Device.Partition.columnar_exn grid) toy
      in
      Alcotest.(check bool) (strategy ^ " solved") true (r.Rfloor.Solver.plan <> None);
      let stats = check_clean strategy (Buffer.contents buf) in
      Alcotest.(check bool) (strategy ^ " segments") true
        (stats.T.c_segments >= segments))
    [ (Device.Devices.mini, "milp:2", 1);
      (concheck_dev, "portfolio:[milp,milp:2]", 2) ]

(* [feasibility] solves one region at a time, each on a fresh tracer
   clock; the shifted sink puts all five SDR regions on one clock *)
let test_trace_verify_feasibility_regions () =
  let part = Device.Partition.columnar_exn Device.Devices.virtex5_fx70t in
  let spec = Sdr.design in
  let buf, sink = recording_sink () in
  let t0 = T.clock () in
  let regions = Device.Spec.region_names spec in
  List.iter
    (fun name ->
      let spec' =
        Device.Spec.with_relocs spec
          [ { Device.Spec.target = name; copies = 1; mode = Device.Spec.Hard } ]
      in
      let options =
        Rfloor.Solver.Options.make
          ~strategy:(Rfloor.Solver.Strategy.combinatorial ())
          ~time_limit:30.
          ~trace:(T.Sink.shift ~at:(T.clock () -. t0) sink)
          ()
      in
      ignore (Rfloor.Solver.feasible ~options part spec'))
    regions;
  Alcotest.(check int) "five regions" 5 (List.length regions);
  let stats = check_clean "feasibility trace" (Buffer.contents buf) in
  Alcotest.(check bool) "every region searched" true (stats.T.c_segments >= 5)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "concheck.explorer",
      [
        Alcotest.test_case "finds the lost update" `Quick test_explorer_finds_lost_update;
        Alcotest.test_case "exhausts the correct counter" `Quick test_explorer_exhausts_correct_counter;
        Alcotest.test_case "budget exceeded is RF421" `Quick test_explorer_budget;
        Alcotest.test_case "scenario suite clean, seeded bug caught" `Quick test_scenarios_run_all;
      ] );
    ( "concheck.race",
      [
        Alcotest.test_case "unordered writes race" `Quick test_race_unordered_writes;
        Alcotest.test_case "mutex handoff orders" `Quick test_race_mutex_orders;
        Alcotest.test_case "CAS handoff draws lockset warning" `Quick test_race_cas_handoff_warns_lockset;
        Alcotest.test_case "self-test on real domains" `Quick test_detector_self_test;
      ] );
    ( "concheck.source_lint",
      [
        Alcotest.test_case "raw primitives flagged" `Quick test_source_lint_flags_raw;
        Alcotest.test_case "wrapped uses pass" `Quick test_source_lint_accepts_wrapped;
        Alcotest.test_case "comments and strings pass" `Quick test_source_lint_ignores_prose;
        Alcotest.test_case "line numbers reported" `Quick test_source_lint_reports_lines;
        Alcotest.test_case "lib/ and bin/ are clean" `Quick test_source_lint_repo_is_clean;
      ] );
    ( "concheck.trace_verify",
      [
        Alcotest.test_case "accepts a well-formed trace" `Quick test_trace_verify_accepts;
        Alcotest.test_case "rejects crossed spans" `Quick test_trace_verify_rejects_bad_nesting;
        Alcotest.test_case "rejects backwards timestamps" `Quick test_trace_verify_rejects_time_travel;
        Alcotest.test_case "rejects bouncing incumbents" `Quick test_trace_verify_rejects_bouncing_incumbent;
        Alcotest.test_case "rejects conjured nodes" `Quick test_trace_verify_rejects_conjured_nodes;
        Alcotest.test_case "rejects duplicate stops" `Quick test_trace_verify_rejects_double_stop;
        Alcotest.test_case "rejects unparsable lines" `Quick test_trace_verify_rejects_garbage;
        Alcotest.test_case "real two-worker solve verifies" `Quick test_trace_verify_real_solve;
        Alcotest.test_case "5-region feasibility on one clock" `Quick test_trace_verify_feasibility_regions;
      ] );
  ]
