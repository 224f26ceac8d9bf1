(* Tests for the combinatorial engine: candidate enumeration invariants,
   optimality against brute force on tiny instances, and the Section VI
   results on the FX70T model. *)

open Device

let mini_part = lazy (Partition.columnar_exn Devices.mini)
let fx_part = lazy (Partition.columnar_exn Devices.virtex5_fx70t)

let test_candidates_satisfy_demand () =
  let part = Lazy.force mini_part in
  let demand = [ (Resource.Clb, 3); (Resource.Bram, 1) ] in
  let cands = Search.Candidates.enumerate part demand in
  Alcotest.(check bool) "non-empty" true (cands <> []);
  List.iter
    (fun (c : Search.Candidates.candidate) ->
      Alcotest.(check bool) "satisfies" true
        (Compat.satisfies part c.Search.Candidates.rect demand);
      Alcotest.(check int) "waste agrees"
        (Compat.wasted_frames part c.Search.Candidates.rect demand)
        c.Search.Candidates.waste;
      Alcotest.(check bool) "no forbidden" true
        (not (Grid.rect_hits_forbidden part.Partition.grid c.Search.Candidates.rect)))
    cands;
  (* sorted by waste *)
  let rec sorted = function
    | (a : Search.Candidates.candidate) :: (b :: _ as rest) ->
      a.Search.Candidates.waste <= b.Search.Candidates.waste && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "waste ascending" true (sorted cands)

let test_candidates_unplaceable () =
  let part = Lazy.force mini_part in
  (* mini has 4 DSP tiles in one column; 5 are impossible *)
  Alcotest.(check (option int)) "unplaceable" None
    (Search.Candidates.min_waste part [ (Resource.Dsp, 5) ]);
  Alcotest.(check (option int)) "placeable zero waste" (Some 0)
    (Search.Candidates.min_waste part [ (Resource.Clb, 2) ])

let prop_candidates_complete =
  QCheck2.Test.make ~name:"candidate enumeration is complete" ~count:60
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng ->
         let g = Devices.random ~max_width:7 ~max_height:4 rng in
         let demand =
           [ (Resource.Clb, 1 + Random.State.int rng 3) ]
           @ (if Random.State.bool rng then [ (Resource.Bram, 1) ] else [])
         in
         (Partition.columnar_exn g, demand))
       ~shrink:(fun _ -> Seq.empty))
    (fun (part, demand) ->
      let cands = Search.Candidates.enumerate part demand in
      let member r =
        List.exists
          (fun (c : Search.Candidates.candidate) ->
            Rect.equal c.Search.Candidates.rect r)
          cands
      in
      let ok = ref true in
      let w = Partition.width part and h = Partition.height part in
      for x = 1 to w do
        for y = 1 to h do
          for rw = 1 to w - x + 1 do
            for rh = 1 to h - y + 1 do
              let r = Rect.make ~x ~y ~w:rw ~h:rh in
              let expected =
                Compat.satisfies part r demand
                && not (Grid.rect_hits_forbidden part.Partition.grid r)
              in
              if expected <> member r then ok := false
            done
          done
        done
      done;
      !ok)

(* brute-force lexicographic optimum for tiny specs: the least (wasted
   frames, wire length) over every disjoint assignment of candidates,
   the wire length summed over the nets in spec order *)
let brute_force_best part (spec : Spec.t) =
  let cands =
    List.map
      (fun (r : Spec.region) ->
        (r.Spec.r_name, Search.Candidates.enumerate part r.Spec.demand))
      spec.Spec.regions
  in
  let wirelength placed =
    List.fold_left
      (fun acc (nt : Spec.net) ->
        acc
        +. nt.Spec.weight
           *. Rect.manhattan_centers
                (List.assoc nt.Spec.src placed)
                (List.assoc nt.Spec.dst placed))
      0. spec.Spec.nets
  in
  let best = ref None in
  let rec go placed waste = function
    | [] ->
      let v = (waste, wirelength placed) in
      (match !best with
      | Some b when compare b v <= 0 -> ()
      | _ -> best := Some v)
    | (name, cs) :: rest ->
      List.iter
        (fun (c : Search.Candidates.candidate) ->
          let rect = c.Search.Candidates.rect in
          if not (List.exists (fun (_, r) -> Rect.overlaps rect r) placed)
          then go ((name, rect) :: placed) (waste + c.Search.Candidates.waste) rest)
        cs
  in
  go [] 0 cands;
  !best

let prop_engine_matches_bruteforce =
  QCheck2.Test.make ~name:"engine optimum matches brute force" ~count:40
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng ->
         let g = Devices.random ~max_width:6 ~max_height:3 rng in
         let nregions = 1 + Random.State.int rng 2 in
         let region i =
           {
             Spec.r_name = Printf.sprintf "R%d" i;
             demand = [ (Resource.Clb, 1 + Random.State.int rng 2) ];
           }
         in
         let spec =
           Spec.make ~name:"rand" (List.init nregions region)
         in
         (Partition.columnar_exn g, spec))
       ~shrink:(fun _ -> Seq.empty))
    (fun (part, spec) ->
      let opts =
        { Search.Engine.default_options with optimize_wirelength = false }
      in
      let r = Search.Engine.solve ~options:opts part spec in
      match (r.Search.Engine.wasted, brute_force_best part spec) with
      | Some a, Some (b, _) -> a = b && r.Search.Engine.optimal
      | None, None -> r.Search.Engine.optimal
      | _ -> false)

(* both stages: chain nets of assorted bus widths, so the wire-length
   stage and its bound decide the answer *)
let prop_engine_lex_matches_bruteforce =
  QCheck2.Test.make ~name:"engine lexicographic optimum matches brute force"
    ~count:60
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng ->
         let g = Devices.random ~max_width:6 ~max_height:3 rng in
         let names = List.init (2 + Random.State.int rng 2) (Printf.sprintf "R%d") in
         let regions =
           List.map
             (fun r_name ->
               { Spec.r_name; demand = [ (Resource.Clb, 1 + Random.State.int rng 2) ] })
             names
         in
         let nets =
           List.map
             (fun (nt : Spec.net) ->
               { nt with Spec.weight = [| 0.5; 1.; 2.5; 32.; 64. |].(Random.State.int rng 5) })
             (Spec.chain_nets names)
         in
         (Partition.columnar_exn g, Spec.make ~name:"rand" ~nets regions))
       ~shrink:(fun _ -> Seq.empty))
    (fun (part, spec) ->
      let r = Search.Engine.solve part spec in
      match brute_force_best part spec with
      | Some (waste, wl) ->
        r.Search.Engine.wasted = Some waste
        && r.Search.Engine.wirelength = Some wl
        && r.Search.Engine.optimal
      | None -> r.Search.Engine.plan = None && r.Search.Engine.optimal)

let prop_engine_plans_valid =
  QCheck2.Test.make ~name:"engine plans validate" ~count:40
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng ->
         let g = Devices.random ~max_width:8 ~max_height:4 rng in
         let spec =
           Spec.make ~name:"rand"
             ~relocs:
               (if Random.State.bool rng then
                  [ { Spec.target = "R0"; copies = 1; mode = Spec.Hard } ]
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
      | Some plan -> Floorplan.is_valid part spec plan)

(* ------------------------------------------------------------------ *)
(* Section VI results on the FX70T model *)

let test_sdr_optimum () =
  let part = Lazy.force fx_part in
  let opts =
    { Search.Engine.default_options with optimize_wirelength = false }
  in
  let r = Search.Engine.solve ~options:opts part Sdr.design in
  Alcotest.(check bool) "optimal" true r.Search.Engine.optimal;
  Alcotest.(check (option int)) "wasted" (Some 90) r.Search.Engine.wasted

let test_sdr2_same_cost () =
  let part = Lazy.force fx_part in
  let opts =
    { Search.Engine.default_options with optimize_wirelength = false }
  in
  let r = Search.Engine.solve ~options:opts part Sdr.sdr2 in
  Alcotest.(check (option int)) "wasted" (Some 90) r.Search.Engine.wasted;
  match r.Search.Engine.plan with
  | Some plan ->
    Alcotest.(check int) "6 areas" 6 (Floorplan.fc_count plan);
    Alcotest.(check bool) "valid" true (Floorplan.is_valid part Sdr.sdr2 plan)
  | None -> Alcotest.fail "no plan"

let test_sdr3_feasible_nine_areas () =
  let part = Lazy.force fx_part in
  let r = Search.Engine.feasible part Sdr.sdr3 in
  match r.Search.Engine.plan with
  | Some plan ->
    Alcotest.(check int) "9 areas" 9 (Floorplan.fc_count plan);
    Alcotest.(check bool) "valid" true (Floorplan.is_valid part Sdr.sdr3 plan)
  | None -> Alcotest.fail "SDR3 should be feasible"

let test_feasibility_analysis () =
  let part = Lazy.force fx_part in
  let expect = function
    | name when List.mem name Sdr.relocatable -> true
    | _ -> false
  in
  List.iter
    (fun name ->
      let spec = Sdr.feasibility_variant name in
      let r =
        Search.Engine.feasible
          ~options:
            { Search.Engine.default_options with time_limit = Some 60. }
          part spec
      in
      match (r.Search.Engine.plan, r.Search.Engine.optimal) with
      | Some plan, _ ->
        Alcotest.(check bool) (name ^ " expected feasible") true (expect name);
        Alcotest.(check bool) (name ^ " plan valid") true
          (Floorplan.is_valid part spec plan)
      | None, proven ->
        Alcotest.(check bool) (name ^ " expected infeasible") false (expect name);
        Alcotest.(check bool) (name ^ " infeasibility proven") true proven)
    Sdr.module_names

let test_soft_areas_best_effort () =
  let part = Lazy.force mini_part in
  let spec =
    Spec.make ~name:"soft"
      ~relocs:[ { Spec.target = "A"; copies = 2; mode = Spec.Soft 1. } ]
      [ { Spec.r_name = "A"; demand = [ (Resource.Clb, 2) ] } ]
  in
  let r = Search.Engine.solve part spec in
  match r.Search.Engine.plan with
  | Some plan ->
    Alcotest.(check bool) "some areas found" true (Floorplan.fc_count plan >= 1);
    Alcotest.(check bool) "valid" true (Floorplan.is_valid part spec plan)
  | None -> Alcotest.fail "no plan"

(* ------------------------------------------------------------------ *)
(* The flat engine against the frozen list-based one *)

module E = Search.Engine
module T = Rfloor_trace
module Ref = Reference_engine

(* [f part demand] on 100 [Devices.random] fabrics from case [first]
   on, a third of them with a forbidden area, each also with per-kind
   frame counts whose wastes span several bytes (the rank sort then runs
   several passes) and with a negative count (wastes below zero). *)
let random_fabrics first f =
  let base = Generators.base_seed () in
  let frame_counts =
    [
      Resource.default_frames;
      (function
      | Resource.Clb -> 1_000_003
      | Resource.Bram -> 196_611
      | Resource.Dsp -> (1 lsl 40) + 1
      | Resource.Io -> 36);
      (function Resource.Bram -> -30_000_007 | k -> Resource.default_frames k);
    ]
  in
  let with_forbidden = ref 0 in
  for i = 0 to 99 do
    let rng = Random.State.make [| Generators.case_seed base (first + i) |] in
    let g = Devices.random rng in
    if Grid.forbidden g <> [] then incr with_forbidden;
    let demand =
      (Resource.Clb, 1 + Random.State.int rng 4)
      :: List.filter_map
           (fun k -> if Random.State.bool rng then Some (k, 1) else None)
           [ Resource.Bram; Resource.Dsp ]
    in
    List.iter
      (fun frames ->
        let g =
          Grid.create ~frames ~forbidden:(Grid.forbidden g) ~width:(Grid.width g)
            ~height:(Grid.height g) (Grid.tile g)
        in
        f (Partition.columnar_exn g) demand)
      frame_counts
  done;
  Alcotest.(check bool) "some random fabric has a forbidden area" true
    (!with_forbidden > 0)

let test_enumerate_matches_reference () =
  let same part demand =
    let got =
      List.map
        (fun (c : Search.Candidates.candidate) ->
          (c.Search.Candidates.rect, c.Search.Candidates.waste))
        (Search.Candidates.enumerate part demand)
    and want =
      List.map
        (fun (c : Ref.candidate) -> (c.Ref.rect, c.Ref.waste))
        (Ref.enumerate part demand)
    in
    Alcotest.(check bool) "same candidates in the same order" true (got = want)
  in
  let fx = Lazy.force fx_part in
  List.iter
    (fun (r : Spec.region) -> same fx r.Spec.demand)
    Sdr.design.Spec.regions;
  let base = Generators.base_seed () in
  for i = 0 to 99 do
    let prng = Generators.Prng.make (Generators.case_seed base i) in
    let part = Generators.random_partition prng in
    let spec = Generators.random_spec prng part in
    List.iter (fun (r : Spec.region) -> same part r.Spec.demand) spec.Spec.regions
  done;
  random_fabrics 100 same

(* The level generator, one level at a time: after each write the
   candidates written are a prefix of [enumerate]'s, all of the level's
   waste, ending where the waste changes; the last write reaches the
   end.  [least_coverage], known before any write, is the least
   coverage per kind over that whole enumeration.  On the SDR demands on
   the FX70T and on random fabrics, where forbidden areas leave some
   levels empty. *)
let test_levels_are_prefixes () =
  let kinds = [| Resource.Clb; Resource.Bram; Resource.Dsp; Resource.Io |] in
  let module C = Search.Candidates in
  let empty = ref 0 in
  let check part demand =
    let full = Array.of_list (C.enumerate part demand) in
    let m = Array.length full in
    let least = Array.make 4 max_int in
    Array.iter
      (fun (c : C.candidate) ->
        let r = c.C.rect in
        Array.iteri
          (fun k kind ->
            let cols = ref 0 in
            for x = r.Rect.x to Rect.x2 r do
              if (Partition.column_type part x).Resource.kind = kind then incr cols
            done;
            least.(k) <- min least.(k) (r.Rect.h * !cols))
          kinds)
      full;
    let g = C.generator part demand in
    Alcotest.(check (array int)) "least coverage"
      (Array.map (fun c -> if c = max_int then 0 else c) least)
      (C.least_coverage g);
    Alcotest.(check int) "nothing written up front" 0 (C.written g);
    while not (C.exhausted g) do
      let from = C.written g and v = C.next_waste g in
      C.write_level g;
      let upto = C.written g and d = C.data g in
      if upto = from then incr empty;
      if upto > m then Alcotest.failf "%d candidates written of %d" upto m;
      for i = from to upto - 1 do
        let c = full.(i) and o = C.stride * i in
        let r = c.C.rect in
        if
          [| d.(o); d.(o + 1); d.(o + 2); d.(o + 3); d.(o + 4) |]
          <> [| r.Rect.x; r.Rect.y; r.Rect.w; r.Rect.h; c.C.waste |]
          || d.(o + 4) <> v
        then Alcotest.failf "candidate %d of level %d is not enumerate's" i v
      done;
      if upto > 0 && upto < m && full.(upto).C.waste = full.(upto - 1).C.waste then
        Alcotest.failf "a level ends at candidate %d, inside waste %d" upto v;
      if (not (C.exhausted g)) && C.next_waste g <= v then
        Alcotest.failf "level %d is followed by level %d" v (C.next_waste g)
    done;
    Alcotest.(check int) "all written" m (C.written g)
  in
  List.iter
    (fun (r : Spec.region) -> check (Lazy.force fx_part) r.Spec.demand)
    Sdr.design.Spec.regions;
  random_fabrics 200 check;
  Alcotest.(check bool) "some level has no candidate clear of forbidden areas" true
    (!empty > 0)

let plan_string (p : Floorplan.t) =
  String.concat " "
    (List.map
       (fun (pl : Floorplan.placement) ->
         pl.Floorplan.p_region ^ Rect.to_string pl.Floorplan.p_rect)
       p.Floorplan.placements
    @ List.map
        (fun (f : Floorplan.fc_area) ->
          Printf.sprintf "%s#%d%s" f.Floorplan.fc_region f.Floorplan.fc_index
            (Rect.to_string f.Floorplan.fc_rect))
        p.Floorplan.fc_areas)

(* What a run shows: the outcome; the answer as one string (wasted,
   wire length, optimal flag, stop reason, the plan with placements and
   areas in list order); every [on_improvement] call; the objective
   bits of each incumbent event and the node it came at; and whether
   the run entered the wire-length stage. *)
type run = {
  outcome : E.outcome;
  answer : string;
  improvements : string list;
  objectives : string list;
  incumbent_nodes : int list;
  stage_two : bool;
}

let record run options part spec =
  let ring = T.Ring.create () in
  let improvements = ref [] in
  let options =
    {
      options with
      E.trace = T.create ~sink:(T.Ring.sink ring) ();
      on_improvement =
        Some
          (fun plan w ->
            improvements := Printf.sprintf "%d: %s" w (plan_string plan) :: !improvements);
    }
  in
  let o : E.outcome = run ~options part spec in
  let opt f = function None -> "-" | Some v -> f v in
  let events = T.Ring.events ring in
  let incumbents =
    List.filter_map
      (fun (e : T.Event.t) ->
        match e.T.Event.payload with
        | T.Event.Incumbent { objective; node } -> Some (Printf.sprintf "%h" objective, node)
        | _ -> None)
      events
  in
  {
    outcome = o;
    answer =
      Printf.sprintf "wasted=%s wl=%s optimal=%b stop=%s\nplan: %s"
        (opt string_of_int o.E.wasted)
        (opt (Printf.sprintf "%h") o.E.wirelength)
        o.E.optimal
        (opt (function E.Budget -> "budget" | E.Cancelled -> "cancelled") o.E.stop)
        (opt plan_string o.E.plan);
    improvements = List.rev !improvements;
    objectives = List.map fst incumbents;
    incumbent_nodes = List.map snd incumbents;
    stage_two =
      List.exists
        (fun (e : T.Event.t) ->
          match e.T.Event.payload with T.Event.Restart _ -> true | _ -> false)
        events;
  }

let rec is_prefix p l =
  match (p, l) with
  | [], _ -> true
  | x :: p', y :: l' -> x = y && is_prefix p' l'
  | _ :: _, [] -> false

(* The contract with the reference engine.  A run that never enters the
   wire-length stage (waste-only solves, [feasible], a stopped waste
   stage) is the reference's to the node: same answer, same incumbents
   at the same nodes, same node count.  The wire-length stage prunes
   more, so there a finished run gives the same answer and the same
   incumbent objectives in fewer or as many nodes; where the reference
   stopped (node limit or cancel), its incumbent objectives are a
   prefix of ours, our wire length is no worse and our node count no
   larger.  [options ()] gives each run its own options, so a stateful
   cancel token starts afresh for both engines.  Returns both outcomes,
   ours first. *)
let check_same label ~feasible options part spec =
  let run_new, run_ref =
    if feasible then ((fun ~options -> E.feasible ~options), fun ~options -> Ref.feasible ~options)
    else ((fun ~options -> E.solve ~options), fun ~options -> Ref.solve ~options)
  in
  let got = record run_new (options ()) part spec in
  let want = record run_ref (options ()) part spec in
  let check_objectives () =
    Alcotest.(check (list string)) (label ^ ": incumbent objectives") want.objectives
      got.objectives
  in
  let no_more_nodes () =
    if got.outcome.E.nodes > want.outcome.E.nodes then
      Alcotest.failf "%s: %d nodes, the reference took %d" label got.outcome.E.nodes
        want.outcome.E.nodes
  in
  Alcotest.(check bool) (label ^ ": wire-length stage") want.stage_two got.stage_two;
  Alcotest.(check (list string)) (label ^ ": improvements") want.improvements
    got.improvements;
  if not want.stage_two then begin
    Alcotest.(check string) label want.answer got.answer;
    check_objectives ();
    Alcotest.(check (list int)) (label ^ ": incumbent nodes") want.incumbent_nodes
      got.incumbent_nodes;
    Alcotest.(check int) (label ^ ": nodes") want.outcome.E.nodes got.outcome.E.nodes
  end
  else if want.outcome.E.stop = None then begin
    Alcotest.(check string) label want.answer got.answer;
    check_objectives ();
    no_more_nodes ()
  end
  else begin
    if not (is_prefix want.objectives got.objectives) then
      Alcotest.failf "%s: the reference's incumbent objectives [%s] are not a prefix of [%s]"
        label (String.concat " " want.objectives) (String.concat " " got.objectives);
    Alcotest.(check (option int)) (label ^ ": wasted") want.outcome.E.wasted
      got.outcome.E.wasted;
    (match (got.outcome.E.wirelength, want.outcome.E.wirelength) with
    | Some g, Some w when g <= w -> ()
    | g, w ->
      let s = function None -> "-" | Some v -> Printf.sprintf "%h" v in
      Alcotest.failf "%s: wire length %s, the reference reached %s" label (s g) (s w));
    no_more_nodes ()
  end;
  (got.outcome, want.outcome)

let test_engine_matches_reference_fx70t () =
  let part = Lazy.force fx_part in
  let default () = E.default_options in
  let limit nl () = { E.default_options with node_limit = Some nl } in
  let no_wl () = { E.default_options with optimize_wirelength = false } in
  let sdr, sdr_ref = check_same "SDR" ~feasible:false default part Sdr.design in
  let sdr2, sdr2_ref = check_same "SDR2" ~feasible:false default part Sdr.sdr2 in
  List.iter
    (fun nl ->
      ignore
        (check_same (Printf.sprintf "SDR3 at %d nodes" nl) ~feasible:false (limit nl)
           part Sdr.sdr3))
    [ 1; 1024; 30_000 ];
  let sdr3, _ =
    check_same "SDR3 at 250000 nodes" ~feasible:false (limit 250_000) part Sdr.sdr3
  in
  let cancel_at k () =
    let polls = ref 0 in
    { E.default_options with cancel = (fun () -> incr polls; !polls >= k) }
  in
  let cancelled, cancelled_ref =
    check_same "SDR2 cancelled at the 20th poll" ~feasible:false (cancel_at 20) part
      Sdr.sdr2
  in
  List.iter
    (fun (name, spec) ->
      ignore (check_same (name ^ " without wire length") ~feasible:false no_wl part spec))
    [ ("SDR", Sdr.design); ("SDR2", Sdr.sdr2); ("SDR3", Sdr.sdr3) ];
  List.iter
    (fun name ->
      ignore
        (check_same ("feasible " ^ name) ~feasible:true default part
           (Sdr.feasibility_variant name)))
    Sdr.module_names;
  (* the reference's own counts, then ours with the wire-length bound *)
  Alcotest.(check int) "SDR nodes, reference" 47_787 sdr_ref.E.nodes;
  Alcotest.(check int) "SDR2 nodes, reference" 109_150 sdr2_ref.E.nodes;
  Alcotest.(check int) "SDR nodes" 9_972 sdr.E.nodes;
  Alcotest.(check int) "SDR2 nodes" 28_048 sdr2.E.nodes;
  (* the same 20 polls reach further *)
  Alcotest.(check (option (float 0.))) "cancelled SDR2 wire length, reference"
    (Some 3680.) cancelled_ref.E.wirelength;
  Alcotest.(check (option (float 0.))) "cancelled SDR2 wire length" (Some 1568.)
    cancelled.E.wirelength;
  (* at the cap both engines stop at the same node *)
  Alcotest.(check int) "SDR3 nodes at 250k" 252_151 sdr3.E.nodes;
  Alcotest.(check (option int)) "SDR3 wasted at 250k" (Some 120) sdr3.E.wasted;
  Alcotest.(check (option (float 0.))) "SDR3 wire length at 250k" (Some 1888.)
    sdr3.E.wirelength

(* Seeded small instances: random partitions, nets, 1-3 hard copies;
   full solves, waste-only solves, feasibility, node limits and a
   cancellation at the first or second poll (the budget and the token
   are polled every 1024 nodes, so these bite on the larger searches
   only). *)
let test_engine_matches_reference_seeded () =
  (* a prune-threshold tie: once the incumbent's wire length is exactly
     1e-9 (one net of that weight at distance 1), the threshold
     [best -. 1e-9] is 0 and the next placement of A, with no net
     resolved yet, ties it *)
  let clb = Resource.tile_type Resource.Clb in
  let tie_part = Partition.columnar_exn (Grid.of_columns ~rows:1 [ clb; clb ]) in
  let tie_spec =
    Spec.make ~name:"tie"
      ~nets:[ { Spec.src = "A"; dst = "B"; weight = 1e-9 } ]
      [
        { Spec.r_name = "A"; demand = [ (Resource.Clb, 1) ] };
        { Spec.r_name = "B"; demand = [ (Resource.Clb, 1) ] };
      ]
  in
  ignore
    (check_same "prune-threshold tie" ~feasible:false
       (fun () -> E.default_options)
       tie_part tie_spec);
  let base = Generators.base_seed () in
  for i = 0 to 319 do
    let seed = Generators.case_seed base i in
    let prng = Generators.Prng.make seed in
    let part = Generators.random_partition prng in
    let spec = Generators.random_engine_spec prng part in
    let options () =
      let polls = ref 0 in
      {
        E.default_options with
        optimize_wirelength = i mod 4 <> 3;
        node_limit = (if i mod 5 = 4 then Some (1 + (1024 * (i mod 3))) else None);
        cancel =
          (if i mod 7 = 6 then fun () -> incr polls; !polls > i mod 2
           else fun () -> false);
      }
    in
    let label = Printf.sprintf "case %d (seed %d)" i seed in
    ignore (check_same (label ^ " solve") ~feasible:false options part spec);
    ignore (check_same (label ^ " feasible") ~feasible:true options part spec)
  done

(* Stage two's search tree on 200 seeded instances, pinned as one digest.
   [check_same] bounds stage-two nodes only from above, so a skip that
   wrongly drops a subtree holding no improving leaf would pass it;
   here every node count stays what it was.  Per instance: the nodes of
   each stage (stage one from a waste-only solve, which explores the
   same tree), each stage's incumbents as (node, objective bits), and
   the answer.  A quarter of the solves run under a node limit.  The
   seeds are fixed, whatever RFLOOR_TEST_SEED says. *)
let test_engine_tree_digest () =
  let buf = Buffer.create 65536 in
  for i = 0 to 199 do
    let seed = Generators.case_seed 2015 (1000 + i) in
    let prng = Generators.Prng.make seed in
    let part = Generators.random_partition prng in
    let spec = Generators.random_engine_spec prng part in
    let node_limit = if i mod 4 = 3 then Some (1 + (1024 * (i mod 3))) else None in
    let options = { E.default_options with node_limit } in
    let one = E.solve ~options:{ options with optimize_wirelength = false } part spec in
    let ring = T.Ring.create () in
    let trace = T.create ~sink:(T.Ring.sink ring) () in
    let o = E.solve ~options:{ options with trace } part spec in
    Printf.bprintf buf "%d: %d %d" i one.E.nodes (o.E.nodes - one.E.nodes);
    List.iter
      (fun (e : T.Event.t) ->
        match e.T.Event.payload with
        | T.Event.Restart _ -> Buffer.add_string buf " |"
        | T.Event.Incumbent { objective; node } ->
          Printf.bprintf buf " %d:%h" node objective
        | _ -> ())
      (T.Ring.events ring);
    Printf.bprintf buf " = %s %s %s\n"
      (match o.E.wasted with None -> "-" | Some w -> string_of_int w)
      (match o.E.wirelength with None -> "-" | Some l -> Printf.sprintf "%h" l)
      (match o.E.plan with None -> "-" | Some p -> plan_string p)
  done;
  Alcotest.(check string) "digest of 200 seeded search trees"
    "cdbc8ac5bcf8a746eaf36f4ccae0d850"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The time budget covers both stages: the wire-length stage gets what
   the waste stage left of it.  With five copies per relocatable region
   the waste stage takes about a quarter of a 2 s budget, and the
   wire-length stage does not finish in the rest.  With no budget left
   (SDR's waste stage ends before the first poll), the wire-length stage
   is skipped and the waste stage's plan comes back stopped. *)
let test_engine_budget_spans_stages () =
  let part = Lazy.force fx_part in
  let solve time_limit spec =
    let ring = T.Ring.create () in
    let options =
      {
        E.default_options with
        time_limit = Some time_limit;
        trace = T.create ~sink:(T.Ring.sink ring) ();
      }
    in
    let o = E.solve ~options part spec in
    let stage_two =
      List.exists
        (fun (e : T.Event.t) ->
          match e.T.Event.payload with
          | T.Event.Restart { stage } -> stage = "wirelength"
          | _ -> false)
        (T.Ring.events ring)
    in
    (o, stage_two)
  in
  let o, stage_two = solve 2. (Sdr.with_copies 5) in
  Alcotest.(check bool) "entered the wire-length stage" true stage_two;
  if o.E.elapsed > 2.2 then
    Alcotest.failf "a 2 s budget ran %.2f s over both stages" o.E.elapsed;
  let o, stage_two = solve 0. Sdr.design in
  Alcotest.(check bool) "no budget left: no wire-length stage" false stage_two;
  Alcotest.(check (option int)) "the waste stage's plan" (Some 90) o.E.wasted;
  Alcotest.(check bool) "stopped by the budget" true
    (o.E.stop = Some E.Budget && not o.E.optimal)

(* The budget is wall time of the solve: a domain spinning next to it
   takes none of it (process CPU time would count both domains and end
   a 0.5 s budget after about 0.25 s).  SDR3's proof takes far longer
   than the budget. *)
let test_engine_budget_is_wall_time () =
  let part = Lazy.force fx_part in
  let stop = Atomic.make false in
  let spinner =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done)
  in
  let clock = T.create () in
  let t0 = T.now clock in
  let o =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join spinner)
      (fun () ->
        E.solve ~options:{ E.default_options with time_limit = Some 0.5 } part Sdr.sdr3)
  in
  let wall = T.now clock -. t0 in
  Alcotest.(check bool) "stopped by the budget" true (o.E.stop = Some E.Budget);
  if wall < 0.5 then Alcotest.failf "a 0.5 s budget stopped after %.3f s" wall;
  if o.E.elapsed > wall then
    Alcotest.failf "elapsed %.3f s, more than the %.3f s the solve took" o.E.elapsed wall

(* The flat kernel allocates nothing per candidate scanned: a full SDR2
   solve, candidate tables included, stays far below one boxed float
   per candidate scanned (about 17 scans per node).  It reads about 4.3
   words per node. *)
let test_engine_allocation () =
  let part = Lazy.force fx_part in
  ignore (E.solve part Sdr.design);
  let before = Gc.minor_words () in
  let o = E.solve part Sdr.sdr2 in
  let words = Gc.minor_words () -. before in
  let per_node = words /. float_of_int o.E.nodes in
  if per_node > 16. then
    Alcotest.failf "SDR2 allocates %.1f minor words per node (%d nodes), bound 16"
      per_node o.E.nodes

(* The candidate tables are written only as far as the search reaches:
   an SDR2 solve (after an SDR solve, so one-time set-up is not counted)
   allocates about 78k major words; writing every table in full would
   take about 538k.  Minor words cannot show this: arrays of more than
   256 words go straight to the major heap. *)
let test_engine_major_words () =
  let part = Lazy.force fx_part in
  ignore (E.solve part Sdr.design);
  let _, _, before = Gc.counters () in
  ignore (E.solve part Sdr.sdr2);
  let _, _, after = Gc.counters () in
  let words = after -. before in
  if words > 160_000. then
    Alcotest.failf "SDR2 allocates %.0f major words, bound 160000" words

let suites =
  [
    ( "search.candidates",
      [
        Alcotest.test_case "satisfy demand" `Quick test_candidates_satisfy_demand;
        Alcotest.test_case "unplaceable" `Quick test_candidates_unplaceable;
        Alcotest.test_case "enumerate = reference enumeration" `Quick
          test_enumerate_matches_reference;
        Alcotest.test_case "levels are prefixes of enumerate" `Quick
          test_levels_are_prefixes;
      ]
      @ Generators.qsuite [ prop_candidates_complete ] );
    ( "search.engine",
      Generators.qsuite
        [
          prop_engine_matches_bruteforce;
          prop_engine_lex_matches_bruteforce;
          prop_engine_plans_valid;
        ]
      @ [
          Alcotest.test_case "soft areas best effort" `Quick
            test_soft_areas_best_effort;
          Alcotest.test_case "time budget spans both stages" `Slow
            test_engine_budget_spans_stages;
          Alcotest.test_case "time budget is wall time" `Slow
            test_engine_budget_is_wall_time;
          Alcotest.test_case "engine = reference engine" `Slow
            test_engine_matches_reference_fx70t;
          Alcotest.test_case "engine = reference engine (seeded instances)" `Quick
            test_engine_matches_reference_seeded;
          Alcotest.test_case "search trees of 200 seeded instances" `Quick
            test_engine_tree_digest;
          Alcotest.test_case "allocation per node" `Quick test_engine_allocation;
          Alcotest.test_case "major words of the tables" `Quick test_engine_major_words;
        ] );
    ( "search.sdr",
      [
        Alcotest.test_case "SDR optimum 90" `Quick test_sdr_optimum;
        Alcotest.test_case "SDR2 same cost, 6 areas" `Quick test_sdr2_same_cost;
        Alcotest.test_case "SDR3 feasible, 9 areas" `Quick
          test_sdr3_feasible_nine_areas;
        Alcotest.test_case "feasibility analysis" `Slow test_feasibility_analysis;
      ] );
  ]
