(* Tests for the baseline floorplanners: sequence-pair invariants, the
   SA baseline and the tessellation heuristic. *)

open Device

let fx_part = lazy (Partition.columnar_exn Devices.virtex5_fx70t)
let mini_part = lazy (Partition.columnar_exn Devices.mini)

let test_sequence_pair_basics () =
  let sp = Baselines.Sequence_pair.of_arrays [| 0; 1; 2 |] [| 2; 0; 1 |] in
  Alcotest.(check int) "size" 3 (Baselines.Sequence_pair.size sp);
  (* 0 before 1 in both -> left *)
  Alcotest.(check bool) "left" true
    (Baselines.Sequence_pair.relation sp 0 1 = Baselines.Sequence_pair.Left);
  (* 0 before 2 in s1, after in s2 -> over *)
  Alcotest.(check bool) "over" true
    (Baselines.Sequence_pair.relation sp 0 2 = Baselines.Sequence_pair.Over)

let test_sequence_pair_invalid () =
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Sequence_pair.of_arrays: not permutations") (fun () ->
      ignore (Baselines.Sequence_pair.of_arrays [| 0; 0 |] [| 0; 1 |]))

let rects_of_packing shapes pos =
  Array.init (Array.length shapes) (fun i ->
      let x, y = pos.(i) in
      let w, h = shapes.(i) in
      Rect.make ~x:(x + 1) ~y:(y + 1) ~w ~h)

let prop_pack_overlap_free =
  QCheck2.Test.make ~name:"sequence-pair packing is overlap-free" ~count:300
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng ->
         let n = 2 + Random.State.int rng 5 in
         let perm () =
           let a = Array.init n Fun.id in
           for i = n - 1 downto 1 do
             let j = Random.State.int rng (i + 1) in
             let t = a.(i) in
             a.(i) <- a.(j);
             a.(j) <- t
           done;
           a
         in
         let shapes =
           Array.init n (fun _ ->
               (1 + Random.State.int rng 4, 1 + Random.State.int rng 4))
         in
         (Baselines.Sequence_pair.of_arrays (perm ()) (perm ()), shapes))
       ~shrink:(fun _ -> Seq.empty))
    (fun (sp, shapes) ->
      let pos = Baselines.Sequence_pair.pack sp shapes in
      let rects = rects_of_packing shapes pos in
      let ok = ref true in
      Array.iteri
        (fun i a ->
          Array.iteri (fun j b -> if i < j && Rect.overlaps a b then ok := false) rects)
        rects;
      !ok)

let prop_extract_of_valid_placement =
  QCheck2.Test.make ~name:"extract of a packing re-packs without overlap"
    ~count:200
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng ->
         let n = 2 + Random.State.int rng 4 in
         let shapes =
           Array.init n (fun _ ->
               (1 + Random.State.int rng 3, 1 + Random.State.int rng 3))
         in
         (* random disjoint placement on a diagonal strip *)
         let rects =
           Array.init n (fun i ->
               let w, h = shapes.(i) in
               Rect.make ~x:(1 + (i * 5)) ~y:(1 + (i mod 2)) ~w ~h)
         in
         (shapes, rects))
       ~shrink:(fun _ -> Seq.empty))
    (fun (shapes, rects) ->
      let sp = Baselines.Sequence_pair.extract rects in
      let pos = Baselines.Sequence_pair.pack sp shapes in
      let rects' = rects_of_packing shapes pos in
      let ok = ref true in
      Array.iteri
        (fun i a ->
          Array.iteri (fun j b -> if i < j && Rect.overlaps a b then ok := false)
            rects')
        rects';
      !ok)

let test_extract_rejects_overlap () =
  Alcotest.check_raises "overlap"
    (Invalid_argument "Sequence_pair.extract: overlapping rectangles") (fun () ->
      ignore
        (Baselines.Sequence_pair.extract
           [| Rect.make ~x:1 ~y:1 ~w:2 ~h:2; Rect.make ~x:2 ~y:2 ~w:2 ~h:2 |]))

let sa_spec =
  Spec.make ~name:"sa"
    ~nets:(Spec.chain_nets [ "A"; "B" ])
    [
      { Spec.r_name = "A"; demand = [ (Resource.Clb, 2) ] };
      { Spec.r_name = "B"; demand = [ (Resource.Dsp, 1) ] };
    ]

let test_annealing_valid_plan () =
  let part = Lazy.force mini_part in
  let r =
    Baselines.Annealing.solve
      ~options:{ Baselines.Annealing.default_options with iterations = 4000 }
      part sa_spec
  in
  match r.Baselines.Annealing.plan with
  | Some plan ->
    Alcotest.(check bool) "valid" true (Floorplan.is_valid part sa_spec plan)
  | None -> Alcotest.fail "SA found no valid plan"

let test_annealing_unplaceable () =
  let part = Lazy.force mini_part in
  let spec =
    Spec.make ~name:"huge" [ { Spec.r_name = "A"; demand = [ (Resource.Dsp, 99) ] } ]
  in
  let r = Baselines.Annealing.solve part spec in
  Alcotest.(check bool) "no plan" true (r.Baselines.Annealing.plan = None)

let test_annealing_deterministic_seed () =
  let part = Lazy.force mini_part in
  let opts = { Baselines.Annealing.default_options with iterations = 2000 } in
  let a = Baselines.Annealing.solve ~options:opts part sa_spec in
  let b = Baselines.Annealing.solve ~options:opts part sa_spec in
  Alcotest.(check bool) "same result for same seed" true
    (a.Baselines.Annealing.wasted = b.Baselines.Annealing.wasted
    && a.Baselines.Annealing.wirelength = b.Baselines.Annealing.wirelength)

let test_vipin_fahmy_sdr () =
  let part = Lazy.force fx_part in
  let r = Baselines.Vipin_fahmy.solve part Sdr.design in
  match (r.Baselines.Vipin_fahmy.plan, r.Baselines.Vipin_fahmy.wasted) with
  | Some plan, Some wasted ->
    Alcotest.(check bool) "valid" true (Floorplan.is_valid part Sdr.design plan);
    (* Table II shape: the tessellation heuristic wastes strictly more
       frames than the exact/MILP floorplanners (paper: 466 vs 306) *)
    Alcotest.(check bool) "worse than optimal 90" true (wasted > 90)
  | _ -> Alcotest.fail "heuristic failed on the SDR design"

let test_vipin_fahmy_kernel_alignment () =
  let part = Lazy.force fx_part in
  let r = Baselines.Vipin_fahmy.solve part Sdr.design in
  let plan = Option.get r.Baselines.Vipin_fahmy.plan in
  let starts =
    Array.to_list
      (Array.map (fun p -> p.Partition.x1) part.Partition.portions)
  in
  List.iter
    (fun { Floorplan.p_region; p_rect } ->
      Alcotest.(check bool)
        (p_region ^ " starts on a kernel boundary")
        true
        (List.mem p_rect.Rect.x starts))
    plan.Floorplan.placements

let suites =
  [
    ( "baselines.sequence_pair",
      [
        Alcotest.test_case "relations" `Quick test_sequence_pair_basics;
        Alcotest.test_case "invalid input" `Quick test_sequence_pair_invalid;
        Alcotest.test_case "extract rejects overlap" `Quick test_extract_rejects_overlap;
      ]
      @ Generators.qsuite [ prop_pack_overlap_free; prop_extract_of_valid_placement ] );
    ( "baselines.annealing",
      [
        Alcotest.test_case "valid plan" `Quick test_annealing_valid_plan;
        Alcotest.test_case "unplaceable" `Quick test_annealing_unplaceable;
        Alcotest.test_case "deterministic" `Quick test_annealing_deterministic_seed;
      ] );
    ( "baselines.vipin_fahmy",
      [
        Alcotest.test_case "SDR heuristic row" `Quick test_vipin_fahmy_sdr;
        Alcotest.test_case "kernel alignment" `Quick test_vipin_fahmy_kernel_alignment;
      ] );
  ]
