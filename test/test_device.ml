(* Tests for the device model: rectangles, grids, columnar partitioning
   (Figure 2 procedure and Properties .3/.4), area compatibility
   (Definitions .1/.2, Figure 1), specs and floorplan validation. *)

open Device

let rect x y w h = Rect.make ~x ~y ~w ~h

(* ------------------------------------------------------------------ *)
(* Rect *)

let test_rect_basics () =
  let r = rect 2 3 4 2 in
  Alcotest.(check int) "x2" 5 (Rect.x2 r);
  Alcotest.(check int) "y2" 4 (Rect.y2 r);
  Alcotest.(check int) "area" 8 (Rect.area r);
  Alcotest.(check bool) "contains_point" true (Rect.contains_point r 5 4);
  Alcotest.(check bool) "not contains" false (Rect.contains_point r 6 4);
  Alcotest.(check bool) "contains" true (Rect.contains r (rect 3 3 2 1));
  Alcotest.(check bool) "within" true (Rect.within ~width:5 ~height:4 r);
  Alcotest.(check bool) "not within" false (Rect.within ~width:4 ~height:4 r)

let test_rect_invalid () =
  Alcotest.check_raises "zero width" (Invalid_argument "Rect.make: non-positive size 0x1")
    (fun () -> ignore (rect 1 1 0 1));
  Alcotest.check_raises "zero origin" (Invalid_argument "Rect.make: origin (0,1) below 1")
    (fun () -> ignore (rect 0 1 1 1))

let test_rect_overlap () =
  let a = rect 1 1 3 3 in
  Alcotest.(check bool) "self" true (Rect.overlaps a a);
  Alcotest.(check bool) "adjacent right" false (Rect.overlaps a (rect 4 1 2 2));
  Alcotest.(check bool) "adjacent below" false (Rect.overlaps a (rect 1 4 2 2));
  Alcotest.(check bool) "corner" true (Rect.overlaps a (rect 3 3 2 2));
  Alcotest.(check bool) "symmetric" true (Rect.overlaps (rect 3 3 2 2) a)

let prop_rect_overlap_symmetric =
  QCheck2.Test.make ~name:"rect overlap is symmetric" ~count:500
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng ->
         let r () =
           rect
             (1 + Random.State.int rng 8)
             (1 + Random.State.int rng 8)
             (1 + Random.State.int rng 5)
             (1 + Random.State.int rng 5)
         in
         (r (), r ()))
       ~shrink:(fun _ -> Seq.empty))
    (fun (a, b) -> Rect.overlaps a b = Rect.overlaps b a)

(* [Rect.compare] and [Rect.equal] compare int fields; they must order
   and identify rectangles exactly as the polymorphic compare on the
   record does.  Small coordinate ranges make ties in leading fields
   common, and every fourth pair is a structurally equal copy. *)
let prop_rect_compare_is_stdlib =
  QCheck2.Test.make ~name:"rect compare/equal agree with Stdlib" ~count:2000
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng ->
         let r () =
           rect
             (1 + Random.State.int rng 3)
             (1 + Random.State.int rng 3)
             (1 + Random.State.int rng 3)
             (1 + Random.State.int rng 3)
         in
         let a = r () in
         let b =
           if Random.State.int rng 4 = 0 then rect a.Rect.x a.Rect.y a.Rect.w a.Rect.h
           else r ()
         in
         (a, b))
       ~shrink:(fun _ -> Seq.empty))
    (fun (a, b) ->
      let sign c = Int.compare c 0 in
      sign (Rect.compare a b) = sign (Stdlib.compare a b)
      && sign (Rect.compare b a) = sign (Stdlib.compare b a)
      && Rect.equal a b = (a = b))

let test_rect_center () =
  let cx, cy = Rect.center (rect 1 1 3 1) in
  Alcotest.(check (float 1e-9)) "cx" 2. cx;
  Alcotest.(check (float 1e-9)) "cy" 1. cy;
  Alcotest.(check (float 1e-9)) "manhattan" 3.
    (Rect.manhattan_centers (rect 1 1 1 1) (rect 2 1 3 3))

(* ------------------------------------------------------------------ *)
(* Grid *)

let test_grid_of_strings () =
  let g = Grid.of_strings [ "cbd"; "cbd" ] in
  Alcotest.(check int) "width" 3 (Grid.width g);
  Alcotest.(check int) "height" 2 (Grid.height g);
  Alcotest.(check bool) "clb" true
    (Resource.equal_kind (Grid.tile g 1 1).Resource.kind Resource.Clb);
  Alcotest.(check bool) "dsp" true
    (Resource.equal_kind (Grid.tile g 3 2).Resource.kind Resource.Dsp)

let test_grid_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Grid.of_strings: ragged rows")
    (fun () -> ignore (Grid.of_strings [ "cb"; "c" ]))

let test_grid_count_tiles () =
  let g = Devices.mini in
  let d = Grid.count_tiles g (rect 1 1 3 2) in
  Alcotest.(check int) "clb" 4 (Resource.demand_get d Resource.Clb);
  Alcotest.(check int) "bram" 2 (Resource.demand_get d Resource.Bram);
  let total = Grid.total_tiles g in
  Alcotest.(check int) "total tiles" (10 * 4) (Resource.demand_tiles total)

let test_grid_forbidden () =
  let g = Devices.fig2 in
  Alcotest.(check bool) "forbidden tile" true (Grid.in_forbidden g 1 3);
  Alcotest.(check bool) "free tile" false (Grid.in_forbidden g 3 3);
  Alcotest.(check bool) "rect hit" true (Grid.rect_hits_forbidden g (rect 2 3 2 1));
  Alcotest.(check bool) "rect miss" false (Grid.rect_hits_forbidden g (rect 3 1 2 2))

let test_table1_frames () =
  (* Section VI frame counts per tile kind *)
  let f = Grid.frames Devices.virtex5_fx70t in
  Alcotest.(check int) "clb" 36 (f Resource.Clb);
  Alcotest.(check int) "bram" 30 (f Resource.Bram);
  Alcotest.(check int) "dsp" 28 (f Resource.Dsp)

let test_fx70t_census () =
  let total = Grid.total_tiles Devices.virtex5_fx70t in
  Alcotest.(check int) "clb tiles" (35 * 8) (Resource.demand_get total Resource.Clb);
  Alcotest.(check int) "bram tiles" (5 * 8) (Resource.demand_get total Resource.Bram);
  Alcotest.(check int) "dsp tiles" (2 * 8) (Resource.demand_get total Resource.Dsp)

(* ------------------------------------------------------------------ *)
(* Partition *)

let test_partition_fig2 () =
  let part = Partition.columnar_exn Devices.fig2 in
  Alcotest.(check int) "portions" 6 (Array.length part.Partition.portions);
  Alcotest.(check int) "forbidden" 2 (List.length part.Partition.forbidden);
  Alcotest.(check int) "types" 3 part.Partition.n_types;
  Alcotest.(check bool) "property .3" true (Partition.check_adjacent_types_differ part);
  Alcotest.(check bool) "property .4" true (Partition.check_cover_disjoint part)

let test_partition_replacement () =
  (* step 1: a forbidden CLB column keeps its CLB type from the free rows *)
  let part = Partition.columnar_exn Devices.fig2 in
  Alcotest.(check bool) "col 1 is CLB" true
    (Resource.equal_kind (Partition.column_type part 1).Resource.kind Resource.Clb)

let test_partition_failure () =
  (* a column with mixed types outside forbidden areas cannot be
     columnar-partitioned (step 4) *)
  let g = Grid.of_strings [ "cb"; "cc" ] in
  match Partition.columnar g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure on mixed column"

let test_partition_fully_forbidden_column () =
  let g =
    Grid.of_strings ~forbidden:[ rect 2 1 1 2 ] [ "cb"; "cb" ]
  in
  match Partition.columnar g with
  | Error d ->
    Alcotest.(check string) "stable code" "RF010" d.Rfloor_diag.Diagnostic.code;
    Alcotest.(check bool) "has a message" true
      (String.length d.Rfloor_diag.Diagnostic.message > 0)
  | Ok _ -> Alcotest.fail "expected failure: column entirely forbidden"

let test_partition_forbidden_rescue () =
  (* mixed tile types are fine when the odd tiles are under a forbidden
     area (they are replaced in step 1) *)
  let g =
    Grid.create ~forbidden:[ rect 1 1 1 1 ] ~width:2 ~height:2 (fun col row ->
        if col = 1 && row = 1 then Resource.tile_type Resource.Bram
        else Resource.tile_type Resource.Clb)
  in
  match Partition.columnar g with
  | Ok part ->
    Alcotest.(check int) "one portion" 1 (Array.length part.Partition.portions)
  | Error e -> Alcotest.fail e.Rfloor_diag.Diagnostic.message

let test_partition_virtex7 () =
  let part = Partition.columnar_exn Devices.virtex7_small in
  Alcotest.(check int) "no forbidden areas" 0 (List.length part.Partition.forbidden);
  Alcotest.(check bool) "property .3" true (Partition.check_adjacent_types_differ part);
  Alcotest.(check bool) "property .4" true (Partition.check_cover_disjoint part)

let test_partition_fx70t () =
  let part = Partition.columnar_exn Devices.virtex5_fx70t in
  Alcotest.(check int) "portions" 15 (Array.length part.Partition.portions);
  Alcotest.(check bool) "property .3" true (Partition.check_adjacent_types_differ part);
  Alcotest.(check bool) "property .4" true (Partition.check_cover_disjoint part);
  (* left-to-right numbering *)
  Array.iteri
    (fun i p -> Alcotest.(check int) "index" (i + 1) p.Partition.index)
    part.Partition.portions

let test_variant_types_split_portions () =
  (* Definition .1: same resources but different configuration layout
     means different type, hence different portions *)
  let g =
    Grid.create ~width:2 ~height:2 (fun col _ ->
        Resource.tile_type ~variant:(col - 1) Resource.Clb)
  in
  let part = Partition.columnar_exn g in
  Alcotest.(check int) "two portions" 2 (Array.length part.Partition.portions);
  Alcotest.(check int) "two types" 2 part.Partition.n_types

let prop_partition_random_devices =
  QCheck2.Test.make ~name:"random devices partition cleanly" ~count:200
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng -> Devices.random rng)
       ~shrink:(fun _ -> Seq.empty))
    (fun g ->
      match Partition.columnar g with
      | Error _ -> false
      | Ok part ->
        Partition.check_adjacent_types_differ part
        && Partition.check_cover_disjoint part)

(* ------------------------------------------------------------------ *)
(* Compat *)

let fig1_part = lazy (Partition.columnar_exn Devices.fig1)

let area name = List.assoc name Devices.fig1_areas

let test_fig1_compatibility () =
  let part = Lazy.force fig1_part in
  Alcotest.(check bool) "A ~ B" true (Compat.compatible part (area "A") (area "B"));
  Alcotest.(check bool) "A !~ C" false (Compat.compatible part (area "A") (area "C"));
  Alcotest.(check bool) "B !~ C" false (Compat.compatible part (area "B") (area "C"))

let test_compat_reflexive_symmetric () =
  let part = Lazy.force fig1_part in
  List.iter
    (fun (_, a) ->
      Alcotest.(check bool) "reflexive" true (Compat.compatible part a a);
      List.iter
        (fun (_, b) ->
          Alcotest.(check bool) "symmetric" (Compat.compatible part a b)
            (Compat.compatible part b a))
        Devices.fig1_areas)
    Devices.fig1_areas

let test_relocation_sites () =
  let part = Lazy.force fig1_part in
  let sites = Compat.relocation_sites part (area "A") in
  (* all sites compatible, include the source itself *)
  Alcotest.(check bool) "source included" true
    (List.exists (Rect.equal (area "A")) sites);
  List.iter
    (fun s ->
      Alcotest.(check bool) "site compatible" true
        (Compat.compatible part (area "A") s))
    sites;
  (* free-compatible sites exclude occupied space (Definition .2) *)
  let free =
    Compat.free_compatible_sites ~occupied:[ area "A" ] part (area "A")
  in
  Alcotest.(check bool) "occupied excluded" true
    (not (List.exists (fun s -> Rect.overlaps s (area "A")) free))

let test_covered_and_waste () =
  let part = Partition.columnar_exn Devices.mini in
  (* mini columns: c c b c c d c c b c *)
  let r = rect 1 1 3 2 in
  let d = Compat.covered_demand part r in
  Alcotest.(check int) "clb" 4 (Resource.demand_get d Resource.Clb);
  Alcotest.(check int) "bram" 2 (Resource.demand_get d Resource.Bram);
  Alcotest.(check bool) "satisfies" true
    (Compat.satisfies part r [ (Resource.Clb, 3); (Resource.Bram, 1) ]);
  Alcotest.(check bool) "not satisfies" false
    (Compat.satisfies part r [ (Resource.Dsp, 1) ]);
  Alcotest.(check int) "waste" (36 + 30)
    (Compat.wasted_frames part r [ (Resource.Clb, 3); (Resource.Bram, 1) ])

let prop_sites_respect_definition =
  QCheck2.Test.make ~name:"relocation sites are exactly the compatible rects"
    ~count:100
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng ->
         let g = Devices.random rng in
         let part = Partition.columnar_exn g in
         let w = 1 + Random.State.int rng (Partition.width part) in
         let h = 1 + Random.State.int rng (Partition.height part) in
         let x = 1 + Random.State.int rng (Partition.width part - w + 1) in
         let y = 1 + Random.State.int rng (Partition.height part - h + 1) in
         (part, Rect.make ~x ~y ~w ~h))
       ~shrink:(fun _ -> Seq.empty))
    (fun (part, r) ->
      let sites = Compat.relocation_sites ~avoid_forbidden:false part r in
      (* every site compatible ... *)
      List.for_all (fun s -> Compat.compatible part r s) sites
      (* ... and every compatible rect of the same size is a site *)
      &&
      let all_ok = ref true in
      for x = 1 to Partition.width part - r.Rect.w + 1 do
        for y = 1 to Partition.height part - r.Rect.h + 1 do
          let c = Rect.make ~x ~y ~w:r.Rect.w ~h:r.Rect.h in
          let expected = Compat.compatible part r c in
          let got = List.exists (Rect.equal c) sites in
          if expected <> got then all_ok := false
        done
      done;
      !all_ok)

(* ------------------------------------------------------------------ *)
(* Spec and Floorplan *)

let toy_spec =
  Spec.make ~name:"toy"
    ~nets:(Spec.chain_nets ~weight:2. [ "A"; "B" ])
    ~relocs:[ { Spec.target = "A"; copies = 1; mode = Spec.Hard } ]
    [
      { Spec.r_name = "A"; demand = [ (Resource.Clb, 2) ] };
      { Spec.r_name = "B"; demand = [ (Resource.Dsp, 1) ] };
    ]

let test_spec_validation () =
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Spec.make: duplicate region names") (fun () ->
      ignore
        (Spec.make ~name:"bad"
           [
             { Spec.r_name = "A"; demand = [ (Resource.Clb, 1) ] };
             { Spec.r_name = "A"; demand = [ (Resource.Clb, 1) ] };
           ]));
  Alcotest.check_raises "unknown net"
    (Invalid_argument "Spec.make: net A-Z names unknown region") (fun () ->
      ignore
        (Spec.make ~name:"bad"
           ~nets:[ { Spec.src = "A"; dst = "Z"; weight = 1. } ]
           [ { Spec.r_name = "A"; demand = [ (Resource.Clb, 1) ] } ]))

let test_spec_duplicate_reloc () =
  Alcotest.check_raises "duplicate reloc target"
    (Invalid_argument "Spec.make: duplicate relocation request for A") (fun () ->
      ignore
        (Spec.make ~name:"bad"
           ~relocs:
             [
               { Spec.target = "A"; copies = 1; mode = Spec.Hard };
               { Spec.target = "A"; copies = 2; mode = Spec.Soft 1. };
             ]
           [ { Spec.r_name = "A"; demand = [ (Resource.Clb, 1) ] } ]))

let test_spec_accessors () =
  Alcotest.(check int) "fc copies" 1 (Spec.total_fc_copies toy_spec);
  Alcotest.(check int) "total clb" 2
    (Resource.demand_get (Spec.total_demand toy_spec) Resource.Clb);
  Alcotest.(check (list string)) "names" [ "A"; "B" ] (Spec.region_names toy_spec);
  let chain = Spec.chain_nets [ "x"; "y"; "z" ] in
  Alcotest.(check int) "chain length" 2 (List.length chain)

let mini_part = lazy (Partition.columnar_exn Devices.mini)

let good_plan =
  Floorplan.make
    [
      { Floorplan.p_region = "A"; p_rect = rect 1 1 2 1 };
      { Floorplan.p_region = "B"; p_rect = rect 6 1 1 1 };
    ]
    [ { Floorplan.fc_region = "A"; fc_index = 1; fc_rect = rect 1 2 2 1 } ]

let test_floorplan_valid () =
  let part = Lazy.force mini_part in
  match Floorplan.validate part toy_spec good_plan with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_floorplan_detects_overlap () =
  let part = Lazy.force mini_part in
  let bad =
    Floorplan.make
      [
        { Floorplan.p_region = "A"; p_rect = rect 1 1 2 1 };
        { Floorplan.p_region = "B"; p_rect = rect 6 1 1 1 };
      ]
      [ { Floorplan.fc_region = "A"; fc_index = 1; fc_rect = rect 2 1 2 1 } ]
  in
  match Floorplan.validate part toy_spec bad with
  | Ok () -> Alcotest.fail "overlap not detected"
  | Error es ->
    Alcotest.(check bool) "mentions overlap" true
      (List.exists (fun e -> String.length e > 0) es)

let test_floorplan_detects_incompatible_fc () =
  let part = Lazy.force mini_part in
  let bad =
    {
      good_plan with
      Floorplan.fc_areas =
        [ { Floorplan.fc_region = "A"; fc_index = 1; fc_rect = rect 2 2 2 1 } ];
    }
  in
  (* columns 2-3 are C,B: different signature from columns 1-2 = C,C *)
  match Floorplan.validate part toy_spec bad with
  | Ok () -> Alcotest.fail "incompatible area not detected"
  | Error _ -> ()

let test_floorplan_detects_missing_resources () =
  let part = Lazy.force mini_part in
  let bad =
    Floorplan.make
      [
        { Floorplan.p_region = "A"; p_rect = rect 1 1 2 1 };
        { Floorplan.p_region = "B"; p_rect = rect 7 1 1 1 } (* CLB, no DSP *);
      ]
      [ { Floorplan.fc_region = "A"; fc_index = 1; fc_rect = rect 1 2 2 1 } ]
  in
  match Floorplan.validate part toy_spec bad with
  | Ok () -> Alcotest.fail "missing resources not detected"
  | Error _ -> ()

let test_floorplan_detects_missing_hard_fc () =
  let part = Lazy.force mini_part in
  let bad = { good_plan with Floorplan.fc_areas = [] } in
  match Floorplan.validate part toy_spec bad with
  | Ok () -> Alcotest.fail "missing hard area not detected"
  | Error _ -> ()

let test_floorplan_metrics () =
  let part = Lazy.force mini_part in
  (* A at cols 1-2 (2 CLB, demand 2 CLB): waste 0; B at col 6 (1 DSP): 0 *)
  Alcotest.(check int) "wasted" 0 (Floorplan.wasted_frames part toy_spec good_plan);
  (* centers: A (1.5, 1), B (6, 1); manhattan 4.5, weight 2 *)
  Alcotest.(check (float 1e-9)) "wirelength" 9. (Floorplan.wirelength toy_spec good_plan)

let test_floorplan_render () =
  let part = Lazy.force mini_part in
  let s = Floorplan.render part good_plan in
  Alcotest.(check bool) "has marks" true
    (String.exists (fun c -> c = '1') s && String.exists (fun c -> c = '2') s);
  Alcotest.(check bool) "has fc mark" true (String.exists (fun c -> c = 'A') s)

let suites =
  [
    ( "device.rect",
      [
        Alcotest.test_case "basics" `Quick test_rect_basics;
        Alcotest.test_case "invalid" `Quick test_rect_invalid;
        Alcotest.test_case "overlap" `Quick test_rect_overlap;
        Alcotest.test_case "center" `Quick test_rect_center;
      ]
      @ Generators.qsuite [ prop_rect_overlap_symmetric; prop_rect_compare_is_stdlib ] );
    ( "device.grid",
      [
        Alcotest.test_case "of_strings" `Quick test_grid_of_strings;
        Alcotest.test_case "ragged" `Quick test_grid_ragged;
        Alcotest.test_case "count_tiles" `Quick test_grid_count_tiles;
        Alcotest.test_case "forbidden" `Quick test_grid_forbidden;
        Alcotest.test_case "frame constants" `Quick test_table1_frames;
        Alcotest.test_case "fx70t census" `Quick test_fx70t_census;
      ] );
    ( "device.partition",
      [
        Alcotest.test_case "fig2" `Quick test_partition_fig2;
        Alcotest.test_case "step-1 replacement" `Quick test_partition_replacement;
        Alcotest.test_case "mixed column fails" `Quick test_partition_failure;
        Alcotest.test_case "forbidden column fails" `Quick
          test_partition_fully_forbidden_column;
        Alcotest.test_case "forbidden rescue" `Quick test_partition_forbidden_rescue;
        Alcotest.test_case "fx70t" `Quick test_partition_fx70t;
        Alcotest.test_case "virtex7" `Quick test_partition_virtex7;
        Alcotest.test_case "variant types" `Quick test_variant_types_split_portions;
      ]
      @ Generators.qsuite [ prop_partition_random_devices ] );
    ( "device.compat",
      [
        Alcotest.test_case "figure 1" `Quick test_fig1_compatibility;
        Alcotest.test_case "reflexive+symmetric" `Quick test_compat_reflexive_symmetric;
        Alcotest.test_case "relocation sites" `Quick test_relocation_sites;
        Alcotest.test_case "covered demand & waste" `Quick test_covered_and_waste;
      ]
      @ Generators.qsuite [ prop_sites_respect_definition ] );
    ( "device.spec_floorplan",
      [
        Alcotest.test_case "spec validation" `Quick test_spec_validation;
        Alcotest.test_case "duplicate reloc target" `Quick test_spec_duplicate_reloc;
        Alcotest.test_case "spec accessors" `Quick test_spec_accessors;
        Alcotest.test_case "valid plan" `Quick test_floorplan_valid;
        Alcotest.test_case "detects overlap" `Quick test_floorplan_detects_overlap;
        Alcotest.test_case "detects incompatible area" `Quick
          test_floorplan_detects_incompatible_fc;
        Alcotest.test_case "detects missing resources" `Quick
          test_floorplan_detects_missing_resources;
        Alcotest.test_case "detects missing hard area" `Quick
          test_floorplan_detects_missing_hard_fc;
        Alcotest.test_case "metrics" `Quick test_floorplan_metrics;
        Alcotest.test_case "render" `Quick test_floorplan_render;
      ] );
  ]
