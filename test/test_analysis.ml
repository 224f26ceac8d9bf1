(* Tests for the static-analysis passes: seeded-defect fixtures proving
   each lint check fires with exactly its expected code, clean-spec
   no-error guarantees, solution-audit defects, and the solver
   preflight short-circuit. *)

open Device
module D = Rfloor_diag.Diagnostic
module Spec_lint = Rfloor_analysis.Spec_lint
module Model_lint = Rfloor_analysis.Model_lint
module Audit = Rfloor_analysis.Solution_audit

let codes ds = List.sort_uniq compare (List.map (fun d -> d.D.code) ds)
let error_codes ds = codes (D.errors ds)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* 8-column toy: C C B C C B C C, 4 rows, no forbidden areas.  The 2x2
   CLB rectangle class has 3 compatible x positions (1, 4, 7). *)
let toy =
  lazy
    (Partition.columnar_exn
       (Grid.of_columns ~name:"toy8" ~rows:4
          (List.map
             (fun k -> Resource.tile_type k)
             Resource.[ Clb; Clb; Bram; Clb; Clb; Bram; Clb; Clb ])))

let clb n = [ (Resource.Clb, n) ]

let spec_with ?(relocs = []) demand =
  Spec.make ~name:"t" ~relocs [ { Spec.r_name = "R"; demand } ]

(* ------------------------------------------------------------------ *)
(* Spec / partition lint *)

let test_clean_partition () =
  let part = Lazy.force toy in
  Alcotest.(check (list string)) "no partition findings" []
    (codes (Spec_lint.partition_only part));
  Alcotest.(check bool) "ordered" true (Partition.check_ordered part)

let test_bad_partition_ordering () =
  let part = Lazy.force toy in
  let portions = Array.copy part.Partition.portions in
  (* swap the two outer CLB portions: Property .4 ordering breaks while
     the alternating-type Property .3 still holds *)
  let t = portions.(2) in
  portions.(2) <- portions.(4);
  portions.(4) <- t;
  let bad = { part with Partition.portions = portions } in
  Alcotest.(check bool) "not ordered" false (Partition.check_ordered bad);
  let ds = Spec_lint.run bad (spec_with (clb 2)) in
  Alcotest.(check (list string)) "exactly RF001" [ "RF001" ] (error_codes ds)

let test_forbidden_outside_device () =
  let part = Lazy.force toy in
  let bad =
    { part with Partition.forbidden = [ Rect.make ~x:7 ~y:3 ~w:5 ~h:5 ] }
  in
  let ds = Spec_lint.partition_only bad in
  Alcotest.(check (list string)) "exactly RF003" [ "RF003" ] (error_codes ds)

let test_over_capacity_demand () =
  (* 6 CLB columns x 4 rows = 24 usable CLB tiles *)
  let ds = Spec_lint.run (Lazy.force toy) (spec_with (clb 25)) in
  Alcotest.(check (list string)) "exactly RF004" [ "RF004" ] (error_codes ds)

let test_collective_over_capacity () =
  let spec =
    Spec.make ~name:"t"
      [
        { Spec.r_name = "A"; demand = clb 13 };
        { Spec.r_name = "B"; demand = clb 13 };
      ]
  in
  let ds = Spec_lint.run (Lazy.force toy) spec in
  Alcotest.(check (list string)) "exactly RF005" [ "RF005" ] (error_codes ds)

(* The mini device has one DSP column of 4 tiles.  [a] needs 3 of them
   and one hard copy of itself, which needs 3 more: no plan exists, yet
   every single demand fits and the window sweep only warns (RF007). *)
let test_hard_copies_over_capacity () =
  let part = Partition.columnar_exn Devices.mini in
  let spec =
    Spec.make ~name:"t"
      ~relocs:[ { Spec.target = "a"; copies = 1; mode = Spec.Hard } ]
      [
        { Spec.r_name = "a"; demand = [ (Resource.Dsp, 3); (Resource.Clb, 2) ] };
        { Spec.r_name = "b"; demand = clb 3 };
      ]
  in
  let ds = Spec_lint.run part spec in
  Alcotest.(check (list string)) "exactly RF005" [ "RF005" ] (error_codes ds);
  let msg =
    (List.find (fun d -> d.D.code = "RF005") ds).D.message
  in
  Alcotest.(check bool) ("message names the copies: " ^ msg) true
    (contains msg "1 of a" && contains msg "6 DSP");
  let out = Rfloor.Solver.feasible part spec in
  Alcotest.(check bool) "MILP answers Infeasible" true
    (out.Rfloor.Solver.status = Rfloor.Solver.Infeasible);
  Alcotest.(check int) "without a node" 0 out.Rfloor.Solver.nodes

(* Soundness of the collective sum: every seeded spec it flags is
   proven infeasible by the combinatorial engine. *)
let test_collective_capacity_sound () =
  let module G = Generators in
  let base = G.base_seed () in
  let flagged = ref 0 and by_copies = ref 0 in
  for i = 0 to 599 do
    let seed = G.case_seed base (9_000 + i) in
    let prng = G.Prng.make seed in
    let part = G.random_partition prng in
    let spec =
      if i mod 2 = 0 then G.random_engine_spec prng part
      else G.random_reloc_spec prng part
    in
    if List.mem "RF005" (error_codes (Spec_lint.run part spec)) then begin
      incr flagged;
      let usable = Grid.usable_tiles part.Partition.grid in
      if
        List.for_all
          (fun (k, n) -> n <= Resource.demand_get usable k)
          (Spec.total_demand spec)
      then incr by_copies;
      let o = Search.Engine.feasible part spec in
      if o.Search.Engine.plan <> None then
        Alcotest.failf "seed %d: RF005 flags a spec the engine solves" seed;
      if not o.Search.Engine.optimal then
        Alcotest.failf "seed %d: RF005 flags a spec the engine cannot decide"
          seed
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "hard copies decide some flags (%d of %d)" !by_copies
       !flagged)
    true (!by_copies > 0)

let test_unplaceable_region () =
  (* on the clean toy, 5 BRAM tiles fit in the cols 3-6 rectangle *)
  let ds = Spec_lint.run (Lazy.force toy) (spec_with [ (Resource.Bram, 5) ]) in
  Alcotest.(check (list string)) "bram 5 placeable" [] (error_codes ds);
  (* forbid one BRAM tile: 7 usable BRAM tiles remain (capacity fine),
     but any rectangle reaching 7 must span both BRAM columns over all
     4 rows and therefore hits the forbidden tile -- placement is
     impossible while no per-kind capacity check can see it *)
  let grid =
    Grid.of_columns ~name:"toy8f" ~rows:4
      ~forbidden:[ Rect.make ~x:3 ~y:1 ~w:1 ~h:1 ]
      (List.map
         (fun k -> Resource.tile_type k)
         Resource.[ Clb; Clb; Bram; Clb; Clb; Bram; Clb; Clb ])
  in
  let part = Partition.columnar_exn grid in
  let ds = Spec_lint.run part (spec_with [ (Resource.Bram, 7) ]) in
  Alcotest.(check (list string)) "exactly RF009" [ "RF009" ] (error_codes ds)

let test_unsatisfiable_reloc_copies () =
  let part = Lazy.force toy in
  let relocs = [ { Spec.target = "R"; copies = 99; mode = Spec.Hard } ] in
  let ds = Spec_lint.run part (spec_with ~relocs (clb 4)) in
  (* 100 hard instances of 4 CLB tiles also overflow the 24 usable *)
  Alcotest.(check (list string)) "RF006, and RF005 for the copies"
    [ "RF005"; "RF006" ] (error_codes ds);
  (* soft mode: same finding, warning severity *)
  let relocs = [ { Spec.target = "R"; copies = 99; mode = Spec.Soft 1. } ] in
  let ds = Spec_lint.run part (spec_with ~relocs (clb 4)) in
  Alcotest.(check (list string)) "no errors" [] (error_codes ds);
  Alcotest.(check (list string)) "RF006 warning" [ "RF006" ] (codes ds)

let test_likely_unsatisfiable_reloc () =
  (* the 1x3 CLB class has 12 windows but only 6 pairwise-disjoint ones
     (one per CLB column): copies=6 needs 7 -- under the window count,
     over the disjoint estimate, while 7 x 3 tiles stay within the 24
     usable CLB tiles, so the collective sum (RF005) stays quiet *)
  let part = Lazy.force toy in
  let relocs = [ { Spec.target = "R"; copies = 6; mode = Spec.Hard } ] in
  let ds = Spec_lint.run part (spec_with ~relocs (clb 3)) in
  Alcotest.(check (list string)) "no errors" [] (error_codes ds);
  Alcotest.(check (list string)) "RF007 warning" [ "RF007" ] (codes ds)

let test_satisfiable_reloc_quiet () =
  let part = Lazy.force toy in
  let relocs = [ { Spec.target = "R"; copies = 2; mode = Spec.Hard } ] in
  let ds = Spec_lint.run part (spec_with ~relocs (clb 4)) in
  Alcotest.(check (list string)) "quiet" [] (codes ds)

let test_dangling_references () =
  let spec =
    {
      Spec.s_name = "t";
      regions = [ { Spec.r_name = "R"; demand = clb 2 } ];
      nets = [ { Spec.src = "R"; dst = "ghost"; weight = 1. } ];
      relocs = [ { Spec.target = "phantom"; copies = 1; mode = Spec.Hard } ];
    }
  in
  let ds = Spec_lint.run (Lazy.force toy) spec in
  Alcotest.(check (list string)) "exactly RF008" [ "RF008" ] (error_codes ds);
  Alcotest.(check int) "both references" 2 (List.length (D.errors ds))

let test_compatible_windows () =
  let sites, disjoint = Spec_lint.compatible_windows (Lazy.force toy) (clb 4) in
  Alcotest.(check int) "9 windows in the best class" 9 sites;
  Alcotest.(check int) "6 disjoint windows" 6 disjoint

(* ------------------------------------------------------------------ *)
(* Model lint *)

let test_degenerate_big_m () =
  let lp = Milp.Lp.create () in
  let x = Milp.Lp.add_var lp ~name:"x" ~ub:1. () in
  let d = Milp.Lp.add_var lp ~name:"d" ~kind:Milp.Lp.Binary () in
  Milp.Lp.add_constr lp ~name:"n.bigM" [ (1., x); (1e9, d) ] Milp.Lp.Le 1e9;
  let ds = Model_lint.run lp in
  Alcotest.(check (list string)) "exactly RF107" [ "RF107" ] (codes ds)

let test_bound_infeasible_row () =
  let lp = Milp.Lp.create () in
  let x = Milp.Lp.add_var lp ~name:"x" ~ub:1. () in
  let y = Milp.Lp.add_var lp ~name:"y" ~ub:1. () in
  Milp.Lp.add_constr lp ~name:"n.cap" [ (1., x); (1., y) ] Milp.Lp.Ge 10.;
  let ds = Model_lint.run lp in
  Alcotest.(check (list string)) "exactly RF106" [ "RF106" ] (codes ds)

let test_duplicate_and_dominated_rows () =
  let lp = Milp.Lp.create () in
  let x = Milp.Lp.add_var lp ~name:"x" ~ub:10. () in
  Milp.Lp.add_constr lp ~name:"a.r" [ (1., x) ] Milp.Lp.Le 5.;
  Milp.Lp.add_constr lp ~name:"b.r" [ (1., x) ] Milp.Lp.Le 5.;
  Milp.Lp.add_constr lp ~name:"c.r" [ (1., x) ] Milp.Lp.Le 7.;
  let ds = Model_lint.run lp in
  Alcotest.(check (list string)) "duplicate + dominated" [ "RF102"; "RF103" ]
    (codes ds)

let test_conflicting_equalities () =
  let lp = Milp.Lp.create () in
  let x = Milp.Lp.add_var lp ~name:"x" ~ub:10. () in
  Milp.Lp.add_constr lp ~name:"a.e" [ (1., x) ] Milp.Lp.Eq 3.;
  Milp.Lp.add_constr lp ~name:"b.e" [ (1., x) ] Milp.Lp.Eq 4.;
  let ds = Model_lint.run lp in
  Alcotest.(check (list string)) "conflict is an error" [ "RF106" ]
    (error_codes ds)

let test_empty_fixed_free () =
  let lp = Milp.Lp.create () in
  let _fixed = Milp.Lp.add_var lp ~name:"f" ~lb:2. ~ub:2. () in
  let z = Milp.Lp.add_var lp ~name:"z" ~kind:Milp.Lp.Integer () in
  (* z has ub = infinity: unbranchable box *)
  Milp.Lp.add_constr lp ~name:"n.empty" [] Milp.Lp.Le 1.;
  Milp.Lp.add_constr lp ~name:"n.z" [ (1., z) ] Milp.Lp.Le 9.;
  let ds = Model_lint.run lp in
  Alcotest.(check (list string)) "empty+fixed+free int"
    [ "RF101"; "RF104"; "RF105" ] (codes ds);
  Alcotest.(check (list string)) "none are errors" [] (error_codes ds)

let test_family_of_name () =
  Alcotest.(check string) "entity stripped" "res.clb"
    (Model_lint.family_of_name "Matched Filter.res.clb");
  Alcotest.(check string) "digits collapse" "c" (Model_lint.family_of_name "c17");
  Alcotest.(check string) "plain name kept" "waste_cap"
    (Model_lint.family_of_name "waste_cap")

(* [Model_lint.row_keys] against the Printf form it replaces, on random
   rows whose numbers mix integers, fractions, both zeros, the edges of
   its integer shortcut at 1e12, values past 1e15 where doubles skip
   integers, and non-finite values. *)
let printf_row_keys terms sense rhs =
  let tkey =
    List.sort (fun (_, v1) (_, v2) -> Stdlib.compare v1 v2) terms
    |> List.map (fun (c, v) -> Printf.sprintf "%d:%.12g" v c)
    |> String.concat ","
  in
  let s =
    match sense with Milp.Lp.Le -> "<=" | Milp.Lp.Ge -> ">=" | Milp.Lp.Eq -> "="
  in
  (Printf.sprintf "%s|%s|%.12g" tkey s rhs, Printf.sprintf "%s|%s" tkey s)

let test_row_keys_match_printf () =
  let module Prng = Generators.Prng in
  let specials =
    [| 0.; -0.; 1.; -1.; 1e12; -1e12; 1e12 -. 1.; 1e12 +. 1.; -.(1e12 -. 1.);
       -.(1e12 +. 1.); 999999999999.5; 1e15; 1e15 +. 1.; -1e16; 2. ** 53.;
       (2. ** 53.) +. 2.; 1e20; -1e300; 0.1; -2.5; 1e-7; 5e-324;
       infinity; neg_infinity; nan |]
  in
  let prng = Prng.make (Generators.case_seed (Generators.base_seed ()) 12) in
  let value () =
    match Prng.int prng 4 with
    | 0 -> float_of_int (Prng.range prng (-1000) 1000)
    | 1 -> float_of_int (Prng.range prng (-1000) 1000) /. 8.
    | 2 ->
      float_of_int (Prng.range prng (-999) 999)
      *. (10. ** float_of_int (Prng.range prng (-20) 20))
    | _ -> Prng.pick prng specials
  in
  for _ = 1 to 2000 do
    let terms =
      List.init (Prng.int prng 6) (fun _ -> (value (), Prng.int prng 50))
    in
    let sense = Prng.pick prng [| Milp.Lp.Le; Milp.Lp.Ge; Milp.Lp.Eq |] in
    let rhs = value () in
    Alcotest.(check (pair string string))
      "row keys" (printf_row_keys terms sense rhs)
      (Model_lint.row_keys terms sense rhs)
  done

let test_fold_constrs () =
  let lp = Milp.Lp.create () in
  let x = Milp.Lp.add_var lp ~ub:1. () in
  Milp.Lp.add_constr lp [ (1., x) ] Milp.Lp.Le 1.;
  Milp.Lp.add_constr lp [ (2., x) ] Milp.Lp.Ge 0.;
  let n = Milp.Lp.fold_constrs lp ~init:0 (fun acc _ _ _ _ -> acc + 1) in
  Alcotest.(check int) "fold visits every row" (Milp.Lp.num_constrs lp) n

(* the generated SDR models lint clean: no errors, no warnings *)
let test_clean_sdr_models () =
  let part = Partition.columnar_exn Devices.virtex5_fx70t in
  List.iter
    (fun spec ->
      let ds = Spec_lint.run part spec in
      Alcotest.(check (list string))
        ("spec lint " ^ spec.Spec.s_name)
        [] (error_codes ds);
      let lp = Rfloor.Model.lp (Rfloor.Model.build part spec) in
      let ml = Model_lint.run lp in
      Alcotest.(check (list string))
        ("model lint " ^ spec.Spec.s_name)
        []
        (codes (List.filter (fun d -> d.D.severity <> D.Info) ml)))
    [ Sdr.design; Sdr.sdr2; Sdr.sdr3 ]

(* ------------------------------------------------------------------ *)
(* Solution audit *)

let audit_spec copies =
  spec_with
    ~relocs:[ { Spec.target = "R"; copies; mode = Spec.Hard } ]
    (clb 4)

let region_at x =
  { Floorplan.p_region = "R"; p_rect = Rect.make ~x ~y:1 ~w:2 ~h:2 }

let area_at ?(i = 1) ?(h = 2) ?(y = 1) x =
  { Floorplan.fc_region = "R"; fc_index = i; fc_rect = Rect.make ~x ~y ~w:2 ~h }

let test_audit_valid_plan () =
  let part = Lazy.force toy in
  let plan = Floorplan.make [ region_at 1 ] [ area_at 4 ] in
  Alcotest.(check (list string)) "clean audit" []
    (codes (Audit.run part (audit_spec 1) plan))

let test_audit_defects () =
  let part = Lazy.force toy in
  let spec = audit_spec 1 in
  let expect name want plan =
    let got = codes (Audit.run part spec plan) in
    Alcotest.(check bool)
      (Printf.sprintf "%s reports %s (got %s)" name want (String.concat "," got))
      true
      (List.mem want got)
  in
  (* Eq. 6: area of a different height *)
  expect "height" "RF201" (Floorplan.make [ region_at 1 ] [ area_at ~h:1 4 ]);
  (* Eq. 8/10: area over a different column-type sequence *)
  expect "sequence" "RF203" (Floorplan.make [ region_at 1 ] [ area_at 5 ]);
  (* not free: area overlapping its own region *)
  expect "overlap" "RF205" (Floorplan.make [ region_at 4 ] [ area_at 4 ]);
  (* hard request short of copies *)
  expect "count" "RF206" (Floorplan.make [ region_at 1 ] []);
  (* unmet demand: region rectangle over BRAM column only *)
  expect "demand" "RF208"
    (Floorplan.make
       [ { Floorplan.p_region = "R"; p_rect = Rect.make ~x:3 ~y:1 ~w:1 ~h:2 } ]
       [ area_at 4 ])

let test_audit_eq9 () =
  (* same height, width and type sequence, but sliced across portions
     differently: impossible on a columnar partition for equal
     signatures (portion boundaries follow types), so Eq. 9 failures
     require unequal signatures -- assert RF204 never fires without
     RF203 on this device *)
  let part = Lazy.force toy in
  let plan = Floorplan.make [ region_at 1 ] [ area_at 2 ] in
  let ds = Audit.run part (audit_spec 1) plan in
  let cs = codes ds in
  Alcotest.(check bool) "RF204 implies RF203 here" true
    ((not (List.mem "RF204" cs)) || List.mem "RF203" cs)

(* ------------------------------------------------------------------ *)
(* Solver preflight integration *)

let quick_opts =
  {
    Rfloor.Solver.default_options with
    time_limit = Some 60.;
    strategy = Rfloor.Solver.Strategy.milp ~warm_start:false ();
  }

let test_preflight_short_circuits () =
  let part = Lazy.force toy in
  let outcome = Rfloor.Solver.solve ~options:quick_opts part (spec_with (clb 25)) in
  Alcotest.(check bool) "infeasible" true
    (outcome.Rfloor.Solver.status = Rfloor.Solver.Infeasible);
  Alcotest.(check int) "no nodes explored" 0 outcome.Rfloor.Solver.nodes;
  Alcotest.(check (list string)) "RF004 attached" [ "RF004" ]
    (error_codes outcome.Rfloor.Solver.diagnostics)

let test_preflight_reloc_short_circuits () =
  let part = Lazy.force toy in
  let relocs = [ { Spec.target = "R"; copies = 99; mode = Spec.Hard } ] in
  let outcome =
    Rfloor.Solver.solve ~options:quick_opts part (spec_with ~relocs (clb 4))
  in
  Alcotest.(check bool) "infeasible" true
    (outcome.Rfloor.Solver.status = Rfloor.Solver.Infeasible);
  Alcotest.(check int) "no nodes explored" 0 outcome.Rfloor.Solver.nodes;
  Alcotest.(check (list string)) "RF006 (and RF005) attached"
    [ "RF005"; "RF006" ]
    (error_codes outcome.Rfloor.Solver.diagnostics)

let test_preflight_clean_solve () =
  let part = Lazy.force toy in
  let relocs = [ { Spec.target = "R"; copies = 1; mode = Spec.Hard } ] in
  let outcome =
    Rfloor.Solver.solve
      ~options:{ quick_opts with objective_mode = Rfloor.Solver.Feasibility_only }
      part
      (spec_with ~relocs (clb 4))
  in
  (match outcome.Rfloor.Solver.plan with
  | None -> Alcotest.fail "expected a plan"
  | Some plan ->
    Alcotest.(check bool) "plan valid" true
      (Floorplan.is_valid part (spec_with ~relocs (clb 4)) plan));
  Alcotest.(check (list string)) "no error diagnostics" []
    (error_codes outcome.Rfloor.Solver.diagnostics)

(* ------------------------------------------------------------------ *)
(* Diagnostics plumbing *)

let test_rendering () =
  let d =
    D.diagf ~code:"RF006" D.Error (D.Reloc "Signal \"Decoder\"") "needs %d" 3
  in
  let line = Format.asprintf "%a" D.pp d in
  Alcotest.(check bool) "human line has code" true (contains line "RF006");
  let sexp = D.to_sexp d in
  Alcotest.(check bool) "sexp escapes quotes" true
    (contains sexp "\\\"Decoder\\\"");
  Alcotest.(check bool) "summary" true (contains (D.summary [ d ]) "1 error")

let test_code_table () =
  Alcotest.(check bool) "RF001 described" true (D.describe "RF001" <> None);
  Alcotest.(check bool) "unknown code" true (D.describe "RF999" = None);
  List.iter
    (fun (code, _, _) ->
      Alcotest.(check int) "code shape" 5 (String.length code))
    D.all_codes

(* The registered code table is the single source of truth: codes must
   be unique, carry a non-empty description, and every code must appear
   in the DESIGN.md table with the same severity. *)
let repo_root () =
  let root = ref (Sys.getcwd ()) in
  while not (Sys.file_exists (Filename.concat !root "DESIGN.md")) do
    let parent = Filename.dirname !root in
    if parent = !root then Alcotest.fail "repo root (DESIGN.md) not found";
    root := parent
  done;
  !root

let test_code_registry () =
  let names = List.map (fun (c, _, _) -> c) D.all_codes in
  Alcotest.(check int) "codes unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string)) "codes sorted" (List.sort compare names) names;
  List.iter
    (fun (code, _, doc) ->
      Alcotest.(check bool) (code ^ " documented") true (String.length doc > 0))
    D.all_codes;
  let design =
    let path = Filename.concat (repo_root ()) "DESIGN.md" in
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.iter
    (fun (code, sev, _) ->
      let sev_name =
        match sev with
        | D.Error -> "Error"
        | D.Warning -> "Warning"
        | D.Info -> "Info"
      in
      let row = Printf.sprintf "| %s | %s |" code sev_name in
      Alcotest.(check bool)
        (Printf.sprintf "%s in DESIGN.md as %s" code sev_name)
        true (contains design row))
    D.all_codes

let suites =
  [
    ( "analysis.spec_lint",
      [
        Alcotest.test_case "clean partition" `Quick test_clean_partition;
        Alcotest.test_case "bad ordering -> RF001" `Quick test_bad_partition_ordering;
        Alcotest.test_case "forbidden outside -> RF003" `Quick test_forbidden_outside_device;
        Alcotest.test_case "over capacity -> RF004" `Quick test_over_capacity_demand;
        Alcotest.test_case "collective capacity -> RF005" `Quick test_collective_over_capacity;
        Alcotest.test_case "hard copies count -> RF005" `Quick
          test_hard_copies_over_capacity;
        Alcotest.test_case "RF005 flags only infeasible specs" `Quick
          test_collective_capacity_sound;
        Alcotest.test_case "unplaceable -> RF009" `Quick test_unplaceable_region;
        Alcotest.test_case "reloc copies -> RF006" `Quick test_unsatisfiable_reloc_copies;
        Alcotest.test_case "reloc disjoint -> RF007" `Quick test_likely_unsatisfiable_reloc;
        Alcotest.test_case "satisfiable reloc quiet" `Quick test_satisfiable_reloc_quiet;
        Alcotest.test_case "dangling refs -> RF008" `Quick test_dangling_references;
        Alcotest.test_case "compatible windows" `Quick test_compatible_windows;
      ] );
    ( "analysis.model_lint",
      [
        Alcotest.test_case "degenerate big-M -> RF107" `Quick test_degenerate_big_m;
        Alcotest.test_case "bound infeasible -> RF106" `Quick test_bound_infeasible_row;
        Alcotest.test_case "duplicate/dominated" `Quick test_duplicate_and_dominated_rows;
        Alcotest.test_case "conflicting equalities" `Quick test_conflicting_equalities;
        Alcotest.test_case "empty/fixed/free-int" `Quick test_empty_fixed_free;
        Alcotest.test_case "family names" `Quick test_family_of_name;
        Alcotest.test_case "row keys match %.12g" `Quick
          test_row_keys_match_printf;
        Alcotest.test_case "fold_constrs" `Quick test_fold_constrs;
        Alcotest.test_case "SDR models lint clean" `Quick test_clean_sdr_models;
      ] );
    ( "analysis.audit",
      [
        Alcotest.test_case "valid plan" `Quick test_audit_valid_plan;
        Alcotest.test_case "seeded defects" `Quick test_audit_defects;
        Alcotest.test_case "Eq. 9 vs Eq. 8" `Quick test_audit_eq9;
      ] );
    ( "analysis.preflight",
      [
        Alcotest.test_case "capacity short-circuit" `Quick test_preflight_short_circuits;
        Alcotest.test_case "reloc short-circuit" `Quick test_preflight_reloc_short_circuits;
        Alcotest.test_case "clean solve audited" `Quick test_preflight_clean_solve;
      ] );
    ( "analysis.diagnostics",
      [
        Alcotest.test_case "rendering" `Quick test_rendering;
        Alcotest.test_case "code table" `Quick test_code_table;
        Alcotest.test_case "code registry vs DESIGN.md" `Quick test_code_registry;
      ] );
  ]
