(* The MILP that ships against an independent oracle: the exact
   combinatorial engine ([Search.Engine.solve], no budget) on seeded
   tiny instances, on both lexicographic stages.

   Each MILP stage is built as the solver builds it, presolved and
   searched on one worker under a node limit and no wall-clock limit,
   so every host compares the same cases:
   - stage one ([Wasted_frames_only]), 400 nodes;
   - stage two ([Wirelength_only], the waste capped at the stage-one
     optimum as the solver caps it), 200 nodes, run when stage one
     proved.
   A conclusive verdict must equal the engine's: an optimum its optimum,
   "infeasible" an instance the engine finds no plan for.  A stage
   stopped by its node limit is not compared, but its incumbent may
   never beat the engine.  Vacuity guards keep each stage comparing
   something.  Failure messages lead with the case seed
   (test/generators.ml). *)

module G = Generators
module Bb = Milp.Branch_bound

let solve_stage part spec objective ~cap ~node_limit =
  let model =
    Rfloor.Model.build
      ~options:
        {
          Rfloor.Model.default_options with
          objective;
          extra_waste_cap = cap;
        }
      part spec
  in
  let lp = Rfloor.Model.lp model in
  ignore (Milp.Presolve.tighten lp);
  Bb.solve
    ~options:
      {
        Bb.default_options with
        time_limit = None;
        node_limit = Some node_limit;
        priorities = Some (Rfloor.Model.branching_priorities model);
      }
    lp

type tally = {
  mutable verdicts : int;  (* conclusive stage-one comparisons *)
  mutable infeasible : int;  (* of which both sides found no plan *)
  mutable optima2 : int;  (* stage-two optima compared *)
}

let close a b = abs_float (a -. b) <= 1e-6 *. max 1. (abs_float b)

(* One case through both stages; bumps [tally] for each conclusive
   comparison. *)
let check_case ~what tally part spec =
  let e = Search.Engine.solve part spec in
  if not e.Search.Engine.optimal then Alcotest.failf "%s: engine stopped" what;
  let r1 =
    solve_stage part spec Rfloor.Model.Wasted_frames_only ~cap:None
      ~node_limit:400
  in
  match (r1.Bb.status, r1.Bb.incumbent, e.Search.Engine.wasted) with
  | Bb.Infeasible, _, None ->
    tally.verdicts <- tally.verdicts + 1;
    tally.infeasible <- tally.infeasible + 1
  | Bb.Infeasible, _, Some w ->
    Alcotest.failf "%s: MILP proved infeasible, engine wastes %d" what w
  | _, Some _, None ->
    Alcotest.failf "%s: MILP found a plan, engine proved infeasible" what
  | Bb.Optimal, Some (w1, _), Some w ->
    if not (close w1 (float_of_int w)) then
      Alcotest.failf "%s: stage one MILP optimum %g, engine %d" what w1 w;
    tally.verdicts <- tally.verdicts + 1;
    let wl = Option.get e.Search.Engine.wirelength in
    let r2 =
      solve_stage part spec Rfloor.Model.Wirelength_only
        ~cap:(Some (w1 +. 0.5)) ~node_limit:200
    in
    (match (r2.Bb.status, r2.Bb.incumbent) with
    | Bb.Optimal, Some (wl2, _) ->
      if not (close wl2 wl) then
        Alcotest.failf "%s: stage two MILP optimum %g, engine %g" what wl2 wl;
      tally.optima2 <- tally.optima2 + 1
    | Bb.Infeasible, _ ->
      Alcotest.failf "%s: stage two infeasible, engine wire length %g" what wl
    | _, Some (wl2, _) when wl2 < wl && not (close wl2 wl) ->
      Alcotest.failf "%s: stage two incumbent %g beats the engine's %g" what
        wl2 wl
    | _ -> ())
  | _, Some (w1, _), Some w
    when w1 < float_of_int w && not (close w1 (float_of_int w)) ->
    Alcotest.failf "%s: stage one incumbent %g beats the engine's %d" what w1 w
  | _ -> ()

let report name n t =
  Printf.printf
    "%s: %d cases, %d stage-one verdicts (%d infeasible), %d stage-two \
     optima\n%!"
    name n t.verdicts t.infeasible t.optima2

let seeded_cases ~offset ~count spec_of =
  let base = G.base_seed () in
  List.init count (fun i ->
      let seed = G.case_seed base (offset + i) in
      let prng = G.Prng.make seed in
      let part = G.random_partition prng in
      (seed, part, spec_of prng part))

(* The relocation twin: three soft copies of a 2-DSP region on a 4-row
   DSP column beside a CLB column.  The copies are interchangeable and
   compete for the one DSP column. *)
let reloc_twin () =
  let open Device in
  let part =
    Partition.columnar_exn
      (Grid.of_columns ~name:"reloc-twin" ~rows:4
         [ Resource.tile_type Resource.Dsp; Resource.tile_type Resource.Clb ])
  in
  let spec =
    Spec.make ~name:"reloc-twin"
      ~relocs:[ { Spec.target = "R1"; copies = 3; mode = Spec.Soft 1. } ]
      [ { Spec.r_name = "R1"; demand = [ (Resource.Dsp, 2) ] } ]
  in
  (part, spec)

let test_twin () =
  let part, spec = reloc_twin () in
  let t = { verdicts = 0; infeasible = 0; optima2 = 0 } in
  check_case ~what:"reloc-twin" t part spec;
  Alcotest.(check (pair int int)) "twin proved on both stages" (1, 1)
    (t.verdicts, t.optima2)

(* The 200 cases of [random_reloc_spec]: 2-3 interchangeable copies of
   one region, mostly soft. *)
let test_reloc_cases () =
  let count = 200 in
  let t = { verdicts = 0; infeasible = 0; optima2 = 0 } in
  List.iter
    (fun (seed, part, spec) ->
      check_case ~what:(Printf.sprintf "seed %d" seed) t part spec)
    (seeded_cases ~offset:7_000 ~count G.random_reloc_spec);
  report "reloc cases" count t;
  (* vacuity guards, about 80% of the least counts at seeds 2015, 7 and
     424242: 138 verdicts and 108 optima *)
  Alcotest.(check bool)
    (Printf.sprintf "enough stage-one verdicts (%d of %d)" t.verdicts count)
    true (t.verdicts >= 110);
  Alcotest.(check bool)
    (Printf.sprintf "enough stage-two optima (%d)" t.optima2)
    true (t.optima2 >= 85)

(* 40 cases of [random_engine_spec]: weighted chains, rings and self
   nets, hard copies beside soft ones. *)
let test_engine_cases () =
  let count = 40 in
  let t = { verdicts = 0; infeasible = 0; optima2 = 0 } in
  List.iter
    (fun (seed, part, spec) ->
      check_case ~what:(Printf.sprintf "seed %d" seed) t part spec)
    (seeded_cases ~offset:0 ~count G.random_engine_spec);
  report "engine cases" count t;
  (* vacuity guards below the least counts at seeds 2015, 7 and 424242:
     22 verdicts and 7 optima *)
  Alcotest.(check bool)
    (Printf.sprintf "enough stage-one verdicts (%d of %d)" t.verdicts count)
    true (t.verdicts >= 16);
  Alcotest.(check bool)
    (Printf.sprintf "enough stage-two optima (%d)" t.optima2)
    true (t.optima2 >= 5)

let suites =
  [
    ( "rfloor.oracle",
      [
        Alcotest.test_case "relocation twin" `Quick test_twin;
        Alcotest.test_case "relocation cases" `Slow test_reloc_cases;
        Alcotest.test_case "engine cases" `Slow test_engine_cases;
      ] );
  ]
