(* Tests for the plain-text device/design formats used by the CLI. *)

open Device

let fail_diag d = Alcotest.fail (Format.asprintf "%a" Rfloor_diag.Diagnostic.pp d)

let device_text =
  "name: demo\n# a comment\nccbccdccbc\nccbccdccbc\nforbidden: 1 1 2 1\n"

let design_text =
  "name: demo\nregion filter clb=2 bram=1\nregion decoder clb=2 dsp=1\n\
   net filter decoder 32\nreloc filter 2 hard\nreloc decoder 1 soft 1.5\n"

let test_parse_grid () =
  match Io.parse_grid device_text with
  | Error e -> fail_diag e
  | Ok g ->
    Alcotest.(check string) "name" "demo" (Grid.name g);
    Alcotest.(check int) "width" 10 (Grid.width g);
    Alcotest.(check int) "height" 2 (Grid.height g);
    Alcotest.(check int) "forbidden" 1 (List.length (Grid.forbidden g));
    Alcotest.(check bool) "tile kind" true
      (Resource.equal_kind (Grid.tile g 3 1).Resource.kind Resource.Bram)

let test_grid_roundtrip () =
  match Io.parse_grid device_text with
  | Error e -> fail_diag e
  | Ok g -> (
    match Io.parse_grid (Io.grid_to_string g) with
    | Error e -> fail_diag e
    | Ok g' ->
      Alcotest.(check string) "name" (Grid.name g) (Grid.name g');
      Alcotest.(check int) "width" (Grid.width g) (Grid.width g');
      Alcotest.(check int) "forbidden preserved"
        (List.length (Grid.forbidden g))
        (List.length (Grid.forbidden g'));
      Alcotest.(check string) "same picture" (Grid.render g) (Grid.render g'))

let test_parse_grid_errors () =
  (match Io.parse_grid "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty accepted");
  (match Io.parse_grid "ccx\nccc\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad tile letter accepted");
  match Io.parse_grid "ccc\nforbidden: 1 2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad forbidden line accepted"

let test_parse_spec () =
  match Io.parse_spec design_text with
  | Error e -> fail_diag e
  | Ok s ->
    Alcotest.(check int) "regions" 2 (List.length s.Spec.regions);
    Alcotest.(check int) "nets" 1 (List.length s.Spec.nets);
    Alcotest.(check int) "relocs" 2 (List.length s.Spec.relocs);
    Alcotest.(check int) "copies" 3 (Spec.total_fc_copies s);
    let filter = Spec.region s "filter" in
    Alcotest.(check int) "filter clb" 2
      (Resource.demand_get filter.Spec.demand Resource.Clb);
    (match s.Spec.relocs with
    | [ a; b ] ->
      Alcotest.(check bool) "hard mode" true (a.Spec.mode = Spec.Hard);
      Alcotest.(check bool) "soft mode" true (b.Spec.mode = Spec.Soft 1.5)
    | _ -> Alcotest.fail "wrong reloc count")

let test_spec_roundtrip () =
  match Io.parse_spec design_text with
  | Error e -> fail_diag e
  | Ok s -> (
    match Io.parse_spec (Io.spec_to_string s) with
    | Error e -> fail_diag e
    | Ok s' ->
      Alcotest.(check (list string)) "regions" (Spec.region_names s)
        (Spec.region_names s');
      Alcotest.(check int) "copies" (Spec.total_fc_copies s)
        (Spec.total_fc_copies s'))

let test_parse_spec_errors () =
  (match Io.parse_spec "region a clb=0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero demand accepted");
  (match Io.parse_spec "region a clb=1\nnet a b\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "net to unknown region accepted");
  match Io.parse_spec "frobnicate\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage line accepted"

(* On a one-row device of six CLB columns, this design with net B-C
   weighted -10 once solved to wire length -28.5, reported optimal,
   while -48.5 was reachable: the engine's prunes take weights as
   non-negative.  A weight that is negative, NaN or infinite is refused
   with RF302, on nets and on soft relocation requests; 0 is allowed. *)
let test_parse_spec_weights () =
  let design w =
    "region A clb=2\nregion B clb=1\nregion C clb=1\nnet A B 1\nnet B C " ^ w
    ^ "\n"
  in
  let refused label text =
    match Io.parse_spec text with
    | Error d -> Alcotest.(check string) label "RF302" d.Rfloor_diag.Diagnostic.code
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  List.iter
    (fun w -> refused ("net weight " ^ w) (design w))
    [ "-10"; "-0.5"; "nan"; "inf"; "-inf" ];
  List.iter
    (fun w -> refused ("soft weight " ^ w) ("region A clb=1\nreloc A 1 soft " ^ w ^ "\n"))
    [ "-1"; "nan"; "inf" ];
  List.iter
    (fun text -> match Io.parse_spec text with Error e -> fail_diag e | Ok _ -> ())
    [ design "0"; "region A clb=1\nreloc A 1 soft 0\n" ]

let test_loaded_device_solves () =
  (* end to end: text -> grid -> partition -> floorplan *)
  match (Io.parse_grid device_text, Io.parse_spec design_text) with
  | Ok g, Ok s -> (
    let part = Partition.columnar_exn g in
    let soft_only =
      (* the 10x2 demo device cannot host 2 extra hard copies: relax *)
      Spec.with_relocs s
        [ { Spec.target = "filter"; copies = 2; mode = Spec.Soft 1. } ]
    in
    match (Search.Engine.solve part soft_only).Search.Engine.plan with
    | Some plan ->
      Alcotest.(check bool) "valid" true (Floorplan.is_valid part soft_only plan)
    | None -> Alcotest.fail "no plan on loaded device")
  | Error e, _ | _, Error e -> fail_diag e

let suites =
  [
    ( "device.io",
      [
        Alcotest.test_case "parse grid" `Quick test_parse_grid;
        Alcotest.test_case "grid round trip" `Quick test_grid_roundtrip;
        Alcotest.test_case "grid errors" `Quick test_parse_grid_errors;
        Alcotest.test_case "parse spec" `Quick test_parse_spec;
        Alcotest.test_case "spec round trip" `Quick test_spec_roundtrip;
        Alcotest.test_case "spec errors" `Quick test_parse_spec_errors;
        Alcotest.test_case "weights -> RF302" `Quick test_parse_spec_weights;
        Alcotest.test_case "loaded device solves" `Quick test_loaded_device_solves;
      ] );
  ]
