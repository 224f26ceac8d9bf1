(* Strategy API, relocation-symmetry/packing cuts and the racing
   portfolio.

   The two differential suites follow the repo's seed discipline: every
   failure message leads with the case seed so any report is a complete
   reproducer (test/generators.ml derives an independent stream per
   case from RFLOOR_TEST_SEED). *)

module G = Generators
module Strategy = Rfloor.Solver.Strategy
module Bb = Milp.Branch_bound

(* ------------------------------------------------------------------ *)
(* Strategy round-trips and parse errors *)

let roundtrip_cases =
  [
    Strategy.milp ();
    Strategy.milp ~workers:4 ();
    Strategy.milp ~engine:(Rfloor.Solver.Ho None) ();
    Strategy.milp ~workers:2 ~engine:(Rfloor.Solver.Ho None) ();
    Strategy.milp ~time_limit:2.5 ();
    Strategy.combinatorial ();
    Strategy.combinatorial ~time_limit:10. ();
    Strategy.lns ();
    Strategy.lns ~seed:42 ();
    Strategy.portfolio [ Strategy.milp ~workers:2 (); Strategy.combinatorial () ];
    Strategy.portfolio
      [ Strategy.milp ~time_limit:5. (); Strategy.lns ~seed:7 ~time_limit:3. () ];
  ]

let test_strategy_roundtrip () =
  List.iter
    (fun s ->
      let text = Strategy.to_string s in
      match Strategy.of_string text with
      | Ok s' ->
        Alcotest.(check string)
          (Printf.sprintf "round-trip of %s" text)
          text (Strategy.to_string s')
      | Error d ->
        Alcotest.failf "%s failed to re-parse: %s" text
          (Format.asprintf "%a" Rfloor_diag.Diagnostic.pp d))
    roundtrip_cases

let test_strategy_parse_errors () =
  List.iter
    (fun text ->
      match Strategy.of_string text with
      | Ok s ->
        Alcotest.failf "%S unexpectedly parsed as %s" text (Strategy.to_string s)
      | Error d ->
        Alcotest.(check string) (text ^ " carries RF502") "RF502"
          d.Rfloor_diag.Diagnostic.code)
    [ ""; "bogus"; "milp:"; "milp:x"; "lns:abc"; "portfolio:[]"; "milp@x";
      "portfolio:[milp,nonsense]" ]

(* ------------------------------------------------------------------ *)
(* RF501: member budget clamped to the portfolio's global deadline *)

let toy_part = lazy (Device.Partition.columnar_exn Device.Devices.mini)

let toy_spec =
  lazy
    (Device.Spec.make ~name:"portfolio-toy"
       [
         { Device.Spec.r_name = "R1"; demand = [ (Device.Resource.Clb, 2) ] };
         { Device.Spec.r_name = "R2"; demand = [ (Device.Resource.Dsp, 1) ] };
       ])

let test_rf501_budget_clamp () =
  let options =
    Rfloor.Solver.Options.make
      ~strategy:
        (Strategy.portfolio
           [ Strategy.combinatorial ~time_limit:9999. (); Strategy.lns () ])
      ~time_limit:30. ()
  in
  let o = Rfloor.Solver.solve ~options (Lazy.force toy_part) (Lazy.force toy_spec) in
  Alcotest.(check bool) "RF501 warning attached" true
    (List.exists
       (fun d -> d.Rfloor_diag.Diagnostic.code = "RF501")
       o.Rfloor.Solver.diagnostics);
  Alcotest.(check bool) "still solves" true (o.Rfloor.Solver.plan <> None)

(* ------------------------------------------------------------------ *)
(* Cuts differential: the symmetry/packing families never change the
   stage-1 optimum.  Both sides of each case get the same generous node
   budget; cases where either side fails to prove optimality are
   skipped (counted), the rest must agree exactly.  RFLOOR_CUTS_DIFF
   scales the instance count (default 200). *)

let solve_stage1 ~cuts part spec =
  let model =
    Rfloor.Model.build
      ~options:
        {
          Rfloor.Model.objective = Rfloor.Model.Wasted_frames_only;
          paper_literal_l = false;
          pair_relations = [];
          extra_waste_cap = None;
          cuts;
        }
      part spec
  in
  Bb.solve
    ~options:
      {
        Bb.default_options with
        time_limit = Some 1.;
        node_limit = Some 800;
        priorities = Some (Rfloor.Model.branching_priorities model);
      }
    (Rfloor.Model.lp model)

let cuts_diff_count () =
  match Sys.getenv_opt "RFLOOR_CUTS_DIFF" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> 200)
  | None -> 200

let test_cuts_differential () =
  let base = G.base_seed () in
  let count = cuts_diff_count () in
  let compared = ref 0 in
  for i = 0 to count - 1 do
    let seed = G.case_seed base (7_000 + i) in
    let prng = G.Prng.make seed in
    let part = G.random_partition prng in
    let spec = G.random_reloc_spec prng part in
    let on = solve_stage1 ~cuts:true part spec in
    let off = solve_stage1 ~cuts:false part spec in
    match (on.Bb.status, off.Bb.status) with
    | Bb.Optimal, Bb.Optimal ->
      incr compared;
      let obj r =
        match r.Bb.incumbent with Some (v, _) -> v | None -> nan
      in
      if abs_float (obj on -. obj off) > 1e-6 then
        Alcotest.failf
          "seed %d: cuts changed the stage-1 optimum (%.6f with vs %.6f without)"
          seed (obj on) (obj off)
    | Bb.Infeasible, Bb.Infeasible -> incr compared
    | (Bb.Optimal | Bb.Infeasible), (Bb.Optimal | Bb.Infeasible) ->
      Alcotest.failf "seed %d: cuts flipped the verdict" seed
    | _ -> () (* budget-bound on either side: not comparable *)
  done;
  (* vacuity guard: with the 1 s / 800-node per-side budget roughly
     half the random instances prove out; require at least 2/5 *)
  Alcotest.(check bool)
    (Printf.sprintf "enough conclusive pairs (%d of %d)" !compared count)
    true (!compared >= count * 2 / 5)

(* ------------------------------------------------------------------ *)
(* Portfolio vs sequential differential: racing never changes a proved
   answer.  Conclusive results (Optimal / Infeasible) must agree with a
   plain sequential milp run on wasted frames. *)

let quick_options strategy =
  Rfloor.Solver.Options.make ~strategy ~time_limit:10. ()

let member_sets =
  [
    ("milp", [ Strategy.milp () ]);
    ("milp+comb", [ Strategy.milp (); Strategy.combinatorial () ]);
    ("milp+lns", [ Strategy.milp (); Strategy.lns ~seed:5 () ]);
  ]

let test_portfolio_vs_sequential () =
  let base = G.base_seed () in
  List.iteri
    (fun set_i (set_name, members) ->
      for i = 0 to 9 do
        let seed = G.case_seed base (8_000 + (100 * set_i) + i) in
        let prng = G.Prng.make seed in
        let part = G.random_partition prng in
        let spec = G.random_reloc_spec prng part in
        let seq =
          Rfloor.Solver.solve ~options:(quick_options (Strategy.milp ())) part spec
        in
        let por =
          Rfloor.Solver.solve
            ~options:(quick_options (Strategy.portfolio members))
            part spec
        in
        let conclusive (o : Rfloor.Solver.outcome) =
          o.Rfloor.Solver.status = Rfloor.Solver.Optimal
          || o.Rfloor.Solver.status = Rfloor.Solver.Infeasible
        in
        if conclusive seq && conclusive por then begin
          (match (seq.Rfloor.Solver.status, por.Rfloor.Solver.status) with
          | Rfloor.Solver.Infeasible, Rfloor.Solver.Infeasible -> ()
          | Rfloor.Solver.Optimal, Rfloor.Solver.Optimal ->
            if seq.Rfloor.Solver.wasted <> por.Rfloor.Solver.wasted then
              Alcotest.failf
                "seed %d [%s]: portfolio wasted %s, sequential wasted %s" seed
                set_name
                (match por.Rfloor.Solver.wasted with
                | Some w -> string_of_int w
                | None -> "-")
                (match seq.Rfloor.Solver.wasted with
                | Some w -> string_of_int w
                | None -> "-")
          | _ ->
            Alcotest.failf "seed %d [%s]: portfolio flipped the verdict" seed
              set_name)
        end
      done)
    member_sets

(* ------------------------------------------------------------------ *)
(* Cancellation: racing losers observe the cooperative stop. *)

let test_race_loser_observes_cancel () =
  let observed = Rfloor_sync.Atomic.make ~name:"test.observed" false in
  let members =
    [
      {
        Rfloor_portfolio.m_label = "loser";
        m_run =
          (fun ~cancelled ->
            (* spin until the winner's stop propagates *)
            while not (cancelled ()) do
              ()
            done;
            Rfloor_sync.Atomic.set observed true;
            "cancelled");
      };
      { Rfloor_portfolio.m_label = "winner"; m_run = (fun ~cancelled:_ -> "win") };
    ]
  in
  let completions, winner =
    Rfloor_portfolio.race ~conclusive:(fun r -> r = "win") members
  in
  Alcotest.(check (option int)) "winner is member 1" (Some 1) winner;
  Alcotest.(check bool) "loser saw the cancel" true
    (Rfloor_sync.Atomic.get observed);
  let loser = List.find (fun c -> c.Rfloor_portfolio.c_index = 0) completions in
  (match loser.Rfloor_portfolio.c_result with
  | Ok "cancelled" -> ()
  | Ok other -> Alcotest.failf "loser returned %S" other
  | Error e -> Alcotest.failf "loser raised %s" (Printexc.to_string e));
  Alcotest.(check bool) "loser did not win" false loser.Rfloor_portfolio.c_winner

let test_portfolio_losers_stopped_in_trace () =
  (* Integration: combinatorial wins instantly on the toy; the losing
     lns member must surface as a Stopped "cancel" event on the
     caller's sink and in rfloor_stops_total. *)
  let ring = Rfloor_trace.Ring.create () in
  let metrics = Rfloor_metrics.Registry.create () in
  let options =
    Rfloor.Solver.Options.make
      ~strategy:
        (Strategy.portfolio [ Strategy.combinatorial (); Strategy.lns () ])
      ~time_limit:30.
      ~trace:(Rfloor_trace.Ring.sink ring)
      ~metrics ()
  in
  let o = Rfloor.Solver.solve ~options (Lazy.force toy_part) (Lazy.force toy_spec) in
  Alcotest.(check bool) "portfolio conclusive" true
    (o.Rfloor.Solver.status = Rfloor.Solver.Optimal);
  let cancel_stops =
    List.filter
      (fun (e : Rfloor_trace.Event.t) ->
        match e.Rfloor_trace.Event.payload with
        | Rfloor_trace.Event.Stopped { reason } -> reason = "cancel"
        | _ -> false)
      (Rfloor_trace.Ring.events ring)
  in
  Alcotest.(check bool) "a losing member was stopped with \"cancel\"" true
    (List.length cancel_stops >= 1);
  let stops =
    Rfloor_metrics.Registry.Counter.value
      (Rfloor_metrics.Registry.counter metrics "rfloor_stops_total")
  in
  Alcotest.(check bool) "rfloor_stops_total bumped" true (stops >= 1)

let suites =
  [
    ( "portfolio.strategy",
      [
        Alcotest.test_case "round-trip" `Quick test_strategy_roundtrip;
        Alcotest.test_case "parse errors (RF502)" `Quick test_strategy_parse_errors;
        Alcotest.test_case "RF501 budget clamp" `Quick test_rf501_budget_clamp;
      ] );
    ( "portfolio.cuts",
      [
        (* 200 instances by default; RFLOOR_CUTS_DIFF shrinks the
           sample (bin/lint.sh portfolio-check runs 25). *)
        Alcotest.test_case "seeded differential" `Slow test_cuts_differential;
      ] );
    ( "portfolio.race",
      [
        Alcotest.test_case "vs sequential differential" `Slow
          test_portfolio_vs_sequential;
        Alcotest.test_case "loser observes cancel" `Quick
          test_race_loser_observes_cancel;
        Alcotest.test_case "losers stopped in trace" `Quick
          test_portfolio_losers_stopped_in_trace;
      ] );
  ]
