(* Tests for the MILP floorplanner: Figure 3 semantics, model/encode
   consistency, cross-checks against the combinatorial engine,
   relocation as constraint and as metric, HO mode, ablations. *)

open Device

let mini_part = lazy (Partition.columnar_exn Devices.mini)

let quick_solver_opts =
  {
    Rfloor.Solver.default_options with
    time_limit = Some 60.;
  }

let toy_spec =
  Spec.make ~name:"toy"
    ~nets:(Spec.chain_nets ~weight:1. [ "R1"; "R2" ])
    ~relocs:[ { Spec.target = "R1"; copies = 1; mode = Spec.Hard } ]
    [
      { Spec.r_name = "R1"; demand = [ (Resource.Clb, 2); (Resource.Bram, 1) ] };
      { Spec.r_name = "R2"; demand = [ (Resource.Clb, 2); (Resource.Dsp, 1) ] };
    ]

let test_fig3_indicators () =
  let part = Partition.columnar_exn Devices.fig3 in
  let spec =
    Spec.make ~name:"fig3" [ { Spec.r_name = "n"; demand = [ (Resource.Clb, 1) ] } ]
  in
  let model = Rfloor.Model.build part spec in
  let plan =
    Floorplan.make [ { Floorplan.p_region = "n"; p_rect = Devices.fig3_region } ] []
  in
  let x = Rfloor.Model.encode model plan in
  (match Milp.Lp.validate (Rfloor.Model.lp model) x with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let ind = Rfloor.Model.portion_indicators model "n" x in
  let k = Array.map (fun (k, _) -> int_of_float k) ind in
  let o = Array.map (fun (_, o) -> int_of_float o) ind in
  Alcotest.(check (array int)) "k as in figure 3" [| 0; 1; 1; 1; 0 |] k;
  Alcotest.(check (array int)) "o as in figure 3" [| 0; 1; 0; 0; 0 |] o

let test_model_shape () =
  let part = Lazy.force mini_part in
  let model = Rfloor.Model.build part toy_spec in
  let lp = Rfloor.Model.lp model in
  Alcotest.(check bool) "has vars" true (Milp.Lp.num_vars lp > 100);
  Alcotest.(check bool) "has integer vars" true (Milp.Lp.num_integer_vars lp > 20);
  Alcotest.(check (list string)) "entities"
    [ "R1"; "R2"; "R1/1" ]
    (Rfloor.Model.entity_names model)

(* The central model-correctness property: every valid floorplan found
   by the independent combinatorial engine encodes into a feasible MILP
   assignment, and decoding recovers the same floorplan. *)
let prop_encode_decode_roundtrip =
  QCheck2.Test.make ~name:"valid plans encode feasibly and decode back" ~count:25
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng ->
         let g = Devices.random ~max_width:8 ~max_height:4 rng in
         let with_fc = Random.State.bool rng in
         let spec =
           Spec.make ~name:"rand"
             ~nets:(Spec.chain_nets [ "R0"; "R1" ])
             ~relocs:
               (if with_fc then
                  [ { Spec.target = "R1"; copies = 1; mode = Spec.Hard } ]
                else [])
             [
               { Spec.r_name = "R0"; demand = [ (Resource.Clb, 2) ] };
               { Spec.r_name = "R1"; demand = [ (Resource.Clb, 1) ] };
             ]
         in
         (Partition.columnar_exn g, spec))
       ~shrink:(fun _ -> Seq.empty))
    (fun (part, spec) ->
      let r = Search.Engine.solve part spec in
      match r.Search.Engine.plan with
      | None -> true
      | Some plan -> (
        let model = Rfloor.Model.build part spec in
        let x = Rfloor.Model.encode model plan in
        match Milp.Lp.validate ~eps:1e-6 (Rfloor.Model.lp model) x with
        | Error _ -> false
        | Ok () ->
          let plan' = Rfloor.Model.decode model x in
          Floorplan.is_valid part spec plan'
          && Floorplan.wasted_frames part spec plan'
             = Floorplan.wasted_frames part spec plan))

let test_milp_matches_search_on_toy () =
  let part = Lazy.force mini_part in
  let s =
    Search.Engine.solve
      ~options:{ Search.Engine.default_options with optimize_wirelength = false }
      part toy_spec
  in
  let m = Rfloor.Solver.solve ~options:quick_solver_opts part toy_spec in
  (match m.Rfloor.Solver.plan with
  | Some plan ->
    Alcotest.(check bool) "milp plan valid" true
      (Floorplan.is_valid part toy_spec plan)
  | None -> Alcotest.fail "milp found no plan");
  Alcotest.(check (option int)) "equal wasted frames" s.Search.Engine.wasted
    m.Rfloor.Solver.wasted

let test_milp_proves_infeasible () =
  let part = Lazy.force mini_part in
  (* mini has a single DSP column of height 4: two DSP-hungry regions of
     height 3 cannot coexist *)
  let spec =
    Spec.make ~name:"inf"
      [
        { Spec.r_name = "A"; demand = [ (Resource.Dsp, 3) ] };
        { Spec.r_name = "B"; demand = [ (Resource.Dsp, 3) ] };
      ]
  in
  let m =
    Rfloor.Solver.solve
      ~options:{ quick_solver_opts with objective_mode = Rfloor.Solver.Feasibility_only }
      part spec
  in
  Alcotest.(check bool) "infeasible" true
    (m.Rfloor.Solver.status = Rfloor.Solver.Infeasible)

let test_relocation_as_metric () =
  let part = Lazy.force mini_part in
  (* one soft copy that fits: must be identified (v = 0) *)
  let spec_ok =
    Spec.with_relocs toy_spec
      [ { Spec.target = "R1"; copies = 1; mode = Spec.Soft 1. } ]
  in
  let m =
    Rfloor.Solver.solve
      ~options:
        {
          quick_solver_opts with
          objective_mode = Rfloor.Solver.Weighted Rfloor.Objective.default_weights;
        }
      part spec_ok
  in
  Alcotest.(check int) "soft area identified" 1 m.Rfloor.Solver.fc_identified;
  (* an impossible soft copy must not destroy feasibility *)
  let spec_impossible =
    Spec.make ~name:"imp"
      ~relocs:[ { Spec.target = "A"; copies = 1; mode = Spec.Soft 1. } ]
      [ { Spec.r_name = "A"; demand = [ (Resource.Dsp, 3) ] } ]
  in
  let m2 =
    Rfloor.Solver.solve
      ~options:
        {
          quick_solver_opts with
          objective_mode = Rfloor.Solver.Weighted Rfloor.Objective.default_weights;
        }
      part spec_impossible
  in
  (match m2.Rfloor.Solver.plan with
  | Some plan ->
    Alcotest.(check bool) "region placed" true
      (Floorplan.rect_of plan "A" <> None);
    Alcotest.(check int) "no area identified" 0 m2.Rfloor.Solver.fc_identified
  | None -> Alcotest.fail "soft relocation must keep the problem feasible")

let test_ho_mode () =
  let part = Lazy.force mini_part in
  let seed =
    (Search.Engine.solve part toy_spec).Search.Engine.plan |> Option.get
  in
  let m =
    Rfloor.Solver.solve
      ~options:
        {
          quick_solver_opts with
          strategy =
            Rfloor.Solver.Strategy.milp ~engine:(Rfloor.Solver.Ho (Some seed)) ();
        }
      part toy_spec
  in
  match m.Rfloor.Solver.plan with
  | Some plan ->
    Alcotest.(check bool) "ho plan valid" true (Floorplan.is_valid part toy_spec plan);
    Alcotest.(check (option int)) "ho reaches seed cost or better"
      (Some (Floorplan.wasted_frames part toy_spec seed))
      (Option.map
         (fun w -> max w (Floorplan.wasted_frames part toy_spec seed))
         m.Rfloor.Solver.wasted)
  | None -> Alcotest.fail "HO found no plan"

let test_ho_relations_cover_fc_areas () =
  let part = Lazy.force mini_part in
  let seed =
    (Search.Engine.solve part toy_spec).Search.Engine.plan |> Option.get
  in
  let rels = Rfloor.Ho.relations toy_spec seed in
  (* 3 entities (R1, R2, R1/1) -> 3 pairs *)
  Alcotest.(check int) "pair count" 3 (List.length rels);
  Alcotest.(check bool) "mentions the free-compatible area" true
    (List.exists (fun ((a, b), _) -> a = "R1/1" || b = "R1/1") rels)

let test_paper_literal_mode_builds_and_solves () =
  (* Ablation (DESIGN.md section 5): with only the paper's upper bounds
     on l(n,p,r), Eq. 9 compares under-constrained quantities, so the
     decoded free-compatible areas are NOT guaranteed compatible; the
     regions themselves must still be placed, disjoint and covered. *)
  let part = Lazy.force mini_part in
  let m =
    Rfloor.Solver.solve
      ~options:{ quick_solver_opts with paper_literal_l = true }
      part toy_spec
  in
  match m.Rfloor.Solver.plan with
  | Some plan ->
    let region_errors =
      match Floorplan.validate part toy_spec plan with
      | Ok () -> []
      | Error es ->
        List.filter
          (fun e ->
            (* tolerate only compatibility violations: they are the
               documented unsoundness of the literal bounds *)
            not
              (String.length e > 4
              && String.sub e 0 4 = "area"))
          es
    in
    Alcotest.(check (list string)) "regions geometrically valid" [] region_errors
  | None -> Alcotest.fail "literal mode found no plan"

let test_export_lp_parses_back () =
  let part = Lazy.force mini_part in
  let text = Rfloor.Solver.export_lp part toy_spec in
  match Milp.Lp_format.parse text with
  | Ok lp ->
    let model = Rfloor.Model.build part toy_spec in
    let n = Milp.Lp.num_vars (Rfloor.Model.lp model) in
    (* the writer adds a CONST_ONE carrier variable when the objective
       has a nonzero constant *)
    Alcotest.(check bool) "variables preserved" true
      (Milp.Lp.num_vars lp = n || Milp.Lp.num_vars lp = n + 1)
  | Error e -> Alcotest.fail ("LP export does not parse: " ^ e)

let test_objective_normalizers () =
  let part = Lazy.force mini_part in
  Alcotest.(check bool) "wlmax positive" true (Rfloor.Objective.wl_max part toy_spec > 0.);
  Alcotest.(check bool) "rmax positive" true (Rfloor.Objective.resources_max part > 0.);
  let soft =
    Spec.with_relocs toy_spec
      [ { Spec.target = "R1"; copies = 2; mode = Spec.Soft 3. } ]
  in
  Alcotest.(check (float 1e-9)) "rlmax = sum of weights (Eq. 15)" 6.
    (Rfloor.Objective.relocation_max soft)

let test_weighted_objective_counts_violations () =
  let part = Lazy.force mini_part in
  let spec =
    Spec.make ~name:"w"
      ~relocs:[ { Spec.target = "A"; copies = 1; mode = Spec.Soft 2. } ]
      [ { Spec.r_name = "A"; demand = [ (Resource.Clb, 1) ] } ]
  in
  let model =
    Rfloor.Model.build
      ~options:
        {
          Rfloor.Model.default_options with
          objective = Rfloor.Model.Weighted Rfloor.Objective.default_weights;
        }
      part spec
  in
  Alcotest.(check int) "one violation term" 1
    (List.length (Rfloor.Model.violation_terms model))

let suites =
  [
    ( "rfloor.model",
      [
        Alcotest.test_case "figure 3 indicators" `Quick test_fig3_indicators;
        Alcotest.test_case "model shape" `Quick test_model_shape;
        Alcotest.test_case "objective normalizers" `Quick test_objective_normalizers;
        Alcotest.test_case "violation terms" `Quick
          test_weighted_objective_counts_violations;
        Alcotest.test_case "LP export parses back" `Quick test_export_lp_parses_back;
      ]
      @ Generators.qsuite [ prop_encode_decode_roundtrip ] );
    ( "rfloor.solver",
      [
        Alcotest.test_case "matches search on toy" `Slow test_milp_matches_search_on_toy;
        Alcotest.test_case "proves infeasibility" `Quick test_milp_proves_infeasible;
        Alcotest.test_case "relocation as metric" `Slow test_relocation_as_metric;
        Alcotest.test_case "HO mode" `Slow test_ho_mode;
        Alcotest.test_case "HO relations include areas" `Quick
          test_ho_relations_cover_fc_areas;
        Alcotest.test_case "paper-literal mode" `Slow
          test_paper_literal_mode_builds_and_solves;
      ] );
  ]
