(* Unit tests for Rfloor_service: canonicalization properties (region
   relabeling and tile-type renaming invariance, discrimination under
   geometry changes), cooperative cancellation at the branch-and-bound
   and solver levels, and the pool's cache / warm-start / cancel /
   multi-worker behaviour.

   Everything runs on generator instances or the mini device — never
   FX70T-scale inputs, which need ~an hour per root LP on one core. *)

open Device
module C = Rfloor_service.Canonical
module Pool = Rfloor_service.Pool
module Solver = Rfloor.Solver
module Bb = Milp.Branch_bound
module T = Rfloor_trace

(* ------------------------------------------------------------------ *)
(* Canonicalization *)

(* Rename every region and reverse the declaration order: an isomorphic
   instance that shares no region name with the original. *)
let relabel_spec (spec : Spec.t) =
  let rename n = "zz_" ^ n ^ "_relabeled" in
  let regions =
    List.rev_map
      (fun r -> { r with Spec.r_name = rename r.Spec.r_name })
      spec.Spec.regions
  in
  let nets =
    List.map
      (fun n -> { n with Spec.src = rename n.Spec.src; dst = rename n.Spec.dst })
      spec.Spec.nets
  in
  let relocs =
    List.map (fun rr -> { rr with Spec.target = rename rr.Spec.target }) spec.Spec.relocs
  in
  Spec.make ~nets ~relocs ~name:"relabeled" regions

let test_relabel_invariance () =
  let base = Generators.base_seed () in
  for i = 0 to 9 do
    let prng = Generators.Prng.make (Generators.case_seed base i) in
    let part = Generators.random_partition prng in
    let spec = Generators.random_spec prng part in
    let c1 = C.of_instance part spec in
    let c2 = C.of_instance part (relabel_spec spec) in
    Alcotest.(check string)
      (Printf.sprintf "case %d: same canonical text" i)
      c1.C.instance_text c2.C.instance_text;
    Alcotest.(check string)
      (Printf.sprintf "case %d: same instance key" i)
      c1.C.instance_key c2.C.instance_key
  done

(* Rename the tile kinds (Clb->Dsp, Bram->Clb, Dsp->Bram) while keeping
   the left-to-right portion sequence and the per-kind frame counts:
   the tile-type-sequence equivalence of Properties .3/.4.  Constant
   [frames] on both devices, since the real per-kind counts differ. *)
let test_tile_renaming_invariance () =
  let frames _ = 36 in
  let tt = Resource.tile_type in
  let columns kinds =
    List.concat_map (fun (k, w) -> List.init w (fun _ -> tt k)) kinds
  in
  let shape1 = [ (Resource.Clb, 2); (Resource.Bram, 1); (Resource.Clb, 2); (Resource.Dsp, 1) ] in
  let shape2 = [ (Resource.Dsp, 2); (Resource.Clb, 1); (Resource.Dsp, 2); (Resource.Bram, 1) ] in
  let grid name shape =
    Grid.of_columns ~name ~frames ~rows:4 (columns shape)
  in
  let spec name (ka, kb) =
    Spec.make ~name
      ~nets:[ { Spec.src = "filter"; dst = "decoder"; weight = 32. } ]
      [
        { Spec.r_name = "filter"; demand = [ (ka, 2); (kb, 1) ] };
        { Spec.r_name = "decoder"; demand = [ (ka, 1) ] };
      ]
  in
  let c1 =
    C.of_instance
      (Partition.columnar_exn (grid "dev_a" shape1))
      (spec "spec_a" (Resource.Clb, Resource.Bram))
  in
  let c2 =
    C.of_instance
      (Partition.columnar_exn (grid "dev_b" shape2))
      (spec "spec_b" (Resource.Dsp, Resource.Clb))
  in
  Alcotest.(check string) "same canonical text" c1.C.instance_text c2.C.instance_text;
  Alcotest.(check string) "same instance key" c1.C.instance_key c2.C.instance_key

let test_geometry_discriminates () =
  let tt = Resource.tile_type in
  let cols = [ tt Resource.Clb; tt Resource.Clb; tt Resource.Bram; tt Resource.Clb ] in
  let spec =
    Spec.make ~name:"s"
      [ { Spec.r_name = "r1"; demand = [ (Resource.Clb, 2) ] } ]
  in
  let key rows cols =
    (C.of_instance
       (Partition.columnar_exn (Grid.of_columns ~name:"g" ~rows cols))
       spec)
      .C.instance_key
  in
  let k4 = key 4 cols in
  Alcotest.(check bool) "height change changes the key" false (k4 = key 5 cols);
  let wider = [ tt Resource.Clb; tt Resource.Clb; tt Resource.Clb; tt Resource.Bram; tt Resource.Clb ] in
  Alcotest.(check bool) "tile-count change changes the key" false (k4 = key 4 wider)

(* Budgets, workers and observability must not enter the options key;
   the answer-defining options must. *)
let test_options_key_scope () =
  let part = Partition.columnar_exn Devices.mini in
  let spec =
    Spec.make ~name:"s" [ { Spec.r_name = "r1"; demand = [ (Resource.Clb, 2) ] } ]
  in
  let c = C.of_instance part spec in
  let key o = fst (C.options_key c o) in
  let k_base = key (Solver.Options.make ~time_limit:5. ()) in
  Alcotest.(check string) "budget/workers excluded" k_base
    (key
       (Solver.Options.make ~time_limit:50. ~node_limit:7
          ~strategy:(Solver.Strategy.milp ~workers:4 ())
          ()));
  Alcotest.(check bool) "objective mode included" false
    (k_base = key (Solver.Options.make ~objective_mode:Solver.Feasibility_only ()));
  Alcotest.(check bool) "paper_literal_l included" false
    (k_base = key (Solver.Options.make ~paper_literal_l:true ()))

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation *)

let test_bb_cancel () =
  let lp = Generators.hard_knapsack ~seed:(Generators.case_seed (Generators.base_seed ()) 77) in
  let polls = ref 0 in
  let options =
    {
      Bb.default_options with
      cancel =
        (fun () ->
          incr polls;
          !polls > 5);
    }
  in
  let r = Bb.solve ~options lp in
  Alcotest.(check bool) "stop = Cancelled" true (r.Bb.stop = Some Bb.Cancelled);
  Alcotest.(check bool)
    (Printf.sprintf "cancel bounds the node count (%d nodes)" r.Bb.nodes)
    true
    (r.Bb.nodes <= 6)

(* Parallel cancel: every worker observes the token, but exactly one
   Stopped trace event may be emitted. *)
let test_parallel_cancel () =
  let lp = Generators.hard_knapsack ~seed:(Generators.case_seed (Generators.base_seed ()) 79) in
  let ring = T.Ring.create ~capacity:4096 () in
  let polls = Atomic.make 0 in
  let options =
    {
      Bb.default_options with
      trace = T.create ~sink:(T.Ring.sink ring) ();
      cancel = (fun () -> Atomic.fetch_and_add polls 1 >= 20);
    }
  in
  let r = Bb.solve ~options ~workers:4 lp in
  Alcotest.(check bool) "stop = Cancelled" true (r.Bb.stop = Some Bb.Cancelled);
  let stopped =
    List.filter
      (fun e ->
        match e.T.Event.payload with T.Event.Stopped _ -> true | _ -> false)
      (T.Ring.events ring)
  in
  Alcotest.(check int) "exactly one Stopped event" 1 (List.length stopped);
  (match stopped with
  | [ { T.Event.payload = T.Event.Stopped { reason }; _ } ] ->
    Alcotest.(check string) "reason" "cancel" reason
  | _ -> ())

(* Solver level: a fired token still returns the warm-start incumbent. *)
let test_solver_cancel_keeps_incumbent () =
  let part = Partition.columnar_exn Devices.mini in
  let spec =
    Spec.make ~name:"toy"
      ~nets:[ { Spec.src = "filter"; dst = "decoder"; weight = 32. } ]
      [
        { Spec.r_name = "filter"; demand = [ (Resource.Clb, 2); (Resource.Bram, 1) ] };
        { Spec.r_name = "decoder"; demand = [ (Resource.Clb, 2); (Resource.Dsp, 1) ] };
      ]
  in
  let options = Solver.Options.make ~cancel:(fun () -> true) () in
  let o = Solver.solve ~options part spec in
  Alcotest.(check bool) "stop = Cancelled" true (o.Solver.stop = Some Solver.Cancelled);
  Alcotest.(check bool) "not proven optimal" true (o.Solver.status <> Solver.Optimal);
  Alcotest.(check bool) "warm incumbent survives" true (o.Solver.plan <> None)

(* ------------------------------------------------------------------ *)
(* Pool: cache, warm start, cancellation, workers *)

let mini_part = lazy (Partition.columnar_exn Devices.mini)

let toy_spec ?(relocs = []) () =
  Spec.make ~name:"toy" ~relocs
    ~nets:[ { Spec.src = "filter"; dst = "decoder"; weight = 32. } ]
    [
      { Spec.r_name = "filter"; demand = [ (Resource.Clb, 2); (Resource.Bram, 1) ] };
      { Spec.r_name = "decoder"; demand = [ (Resource.Clb, 2); (Resource.Dsp, 1) ] };
    ]

let await_solved pool label ticket =
  match Pool.await pool ticket with
  | Pool.Completed s -> s
  | Pool.Stopped (_, reason) -> Alcotest.failf "%s: stopped (%s)" label reason
  | Pool.Failed msg -> Alcotest.failf "%s: failed: %s" label msg

let test_pool_cache_hit () =
  let pool = Pool.create () in
  let part = Lazy.force mini_part and spec = toy_spec () in
  let options = Solver.Options.make ~objective_mode:Solver.Feasibility_only ~time_limit:30. () in
  let t1 = Pool.submit pool ~options part spec in
  let s1 = await_solved pool "first" t1 in
  Alcotest.(check bool) "first is a miss" true (s1.Pool.source = Pool.Solved);
  Alcotest.(check bool) "first is optimal" true (s1.Pool.outcome.Solver.status = Solver.Optimal);
  (* same instance under relabeled regions: still an exact hit *)
  let t2 = Pool.submit pool ~options part (relabel_spec spec) in
  let s2 = await_solved pool "repeat" t2 in
  Alcotest.(check bool) "repeat served from cache" true (s2.Pool.source = Pool.Cache_hit);
  Alcotest.(check int) "zero branch-and-bound nodes" 0 s2.Pool.outcome.Solver.nodes;
  Alcotest.(check bool) "cached plan rebinds" true (s2.Pool.outcome.Solver.plan <> None);
  let st = Pool.stats pool in
  Alcotest.(check int) "one cache hit" 1 st.Pool.s_cache_hits;
  Alcotest.(check int) "one miss" 1 st.Pool.s_cache_misses;
  Pool.shutdown pool

let test_pool_warm_start () =
  let pool = Pool.create () in
  let part = Lazy.force mini_part and spec = toy_spec () in
  let t1 =
    Pool.submit pool
      ~options:(Solver.Options.make ~objective_mode:Solver.Feasibility_only ~time_limit:30. ())
      part spec
  in
  ignore (await_solved pool "seed solve" t1);
  (* same instance, different options: near hit, cached plan as HO seed *)
  let t2 =
    Pool.submit pool ~options:(Solver.Options.make ~time_limit:30. ()) part spec
  in
  let s2 = await_solved pool "lex solve" t2 in
  Alcotest.(check bool) "warm-started" true (s2.Pool.source = Pool.Warm_start);
  Alcotest.(check bool) "has a plan" true (s2.Pool.outcome.Solver.plan <> None);
  Alcotest.(check int) "counted" 1 (Pool.stats pool).Pool.s_warm_starts;
  Pool.shutdown pool

let test_pool_deadline_stop () =
  let pool = Pool.create () in
  let relocs = [ { Spec.target = "filter"; copies = 1; mode = Spec.Hard } ] in
  let t =
    Pool.submit pool ~deadline:0.4
      ~options:(Solver.Options.make ~time_limit:60. ())
      (Lazy.force mini_part) (toy_spec ~relocs ())
  in
  (match Pool.await pool t with
  | Pool.Stopped (s, reason) ->
    Alcotest.(check string) "reason" "deadline" reason;
    Alcotest.(check bool) "outcome records the stop" true
      (s.Pool.outcome.Solver.stop = Some Solver.Cancelled);
    Alcotest.(check bool) "incumbent survives the stop" true
      (s.Pool.outcome.Solver.plan <> None)
  | Pool.Completed _ -> Alcotest.fail "deadline did not fire"
  | Pool.Failed msg -> Alcotest.failf "failed: %s" msg);
  Pool.shutdown pool

let test_pool_queued_cancel () =
  let pool = Pool.create ~workers:1 () in
  let relocs = [ { Spec.target = "filter"; copies = 1; mode = Spec.Hard } ] in
  (* [a] occupies the only worker until its deadline; [b] sits queued. *)
  let a =
    Pool.submit pool ~deadline:0.5
      ~options:(Solver.Options.make ~time_limit:60. ())
      (Lazy.force mini_part) (toy_spec ~relocs ())
  in
  let b =
    Pool.submit pool
      ~options:(Solver.Options.make ~objective_mode:Solver.Feasibility_only ())
      (Lazy.force mini_part) (toy_spec ())
  in
  Alcotest.(check bool) "cancel accepted" true (Pool.cancel pool b);
  (match Pool.await pool b with
  | Pool.Stopped (s, reason) ->
    Alcotest.(check string) "reason" "cancel" reason;
    Alcotest.(check string) "never canonicalized" "" s.Pool.key
  | Pool.Completed _ -> Alcotest.fail "queued cancel ignored"
  | Pool.Failed msg -> Alcotest.failf "failed: %s" msg);
  (match Pool.await pool a with
  | Pool.Stopped (_, "deadline") -> ()
  | Pool.Stopped (_, r) -> Alcotest.failf "job a stopped with %S" r
  | Pool.Completed _ -> ()  (* finished before the deadline: fine *)
  | Pool.Failed msg -> Alcotest.failf "job a failed: %s" msg);
  Alcotest.(check bool) "finished cancel refused" false (Pool.cancel pool b);
  Pool.shutdown pool

(* Four worker domains drain a queue of seeded generator instances. *)
let test_pool_soak () =
  let pool = Pool.create ~workers:4 () in
  let base = Generators.base_seed () in
  let options = Solver.Options.make ~objective_mode:Solver.Feasibility_only ~time_limit:10. () in
  let tickets =
    List.init 8 (fun i ->
        let prng = Generators.Prng.make (Generators.case_seed base (100 + i)) in
        let part = Generators.random_partition prng in
        let spec = Generators.random_spec prng part in
        Pool.submit pool ~priority:(i mod 3) ~options part spec)
  in
  List.iteri
    (fun i t ->
      match Pool.await pool t with
      | Pool.Completed _ | Pool.Stopped _ -> ()
      | Pool.Failed msg -> Alcotest.failf "soak job %d failed: %s" i msg)
    tickets;
  let st = Pool.stats pool in
  Alcotest.(check int) "all finished" 8 st.Pool.s_finished;
  Alcotest.(check int) "queue drained" 0 st.Pool.s_queued;
  Pool.shutdown pool;
  (* submissions after shutdown must be refused *)
  match
    Pool.submit pool (Lazy.force mini_part) (toy_spec ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "submit after shutdown accepted"

(* ------------------------------------------------------------------ *)
(* Cache under concurrency *)

module Cache = Rfloor_service.Cache
module R = Rfloor_metrics.Registry

let cache_entry k =
  {
    Cache.instance_key = k;
    options_key = "opts";
    instance_text = "text:" ^ k;
    options_text = "otext";
    status = Solver.Optimal;
    wasted = Some 0;
    wirelength = Some 0.;
    objective = Some 0.;
    fc_identified = 0;
    plan = None;
  }

let cache_find cache k =
  Cache.find cache ~instance_key:k ~instance_text:("text:" ^ k)
    ~options_key:"opts" ~options_text:"otext"

(* Four domains hammer one capacity-bounded cache with interleaved
   inserts, hits and misses over overlapping key ranges.  Afterwards
   the size bound holds, stored keys are unique, and every surviving
   entry still round-trips as an exact hit. *)
let test_cache_concurrent () =
  let capacity = 8 in
  let cache = Cache.create ~capacity () in
  let key d i = Printf.sprintf "k%02d" ((i + (d * 5)) mod 24) in
  let errors = Atomic.make 0 in
  let work d () =
    for i = 0 to 399 do
      let k = key d i in
      (match cache_find cache k with
      | Some (Cache.Exact e) | Some (Cache.Near e) ->
        (* a hit must carry the entry it was stored under *)
        if e.Cache.instance_text <> "text:" ^ e.Cache.instance_key then
          Atomic.incr errors
      | None -> Cache.store cache (cache_entry k));
      if Cache.length cache > capacity then Atomic.incr errors
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (work d)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no invariant violations inside domains" 0
    (Atomic.get errors);
  Alcotest.(check bool) "size bound" true (Cache.length cache <= capacity);
  let keys = Cache.keys cache in
  Alcotest.(check int) "length agrees with keys" (Cache.length cache)
    (List.length keys);
  Alcotest.(check (list string)) "keys unique" (List.sort_uniq compare keys)
    keys;
  (* every survivor answers an exact hit with its own payload *)
  List.iter
    (fun full ->
      let k = List.hd (String.split_on_char '/' full) in
      match cache_find cache k with
      | Some (Cache.Exact e) ->
        Alcotest.(check string) (k ^ " payload") ("text:" ^ k)
          e.Cache.instance_text
      | Some (Cache.Near _) | None -> Alcotest.failf "%s: not an exact hit" k)
    keys

(* Hits and misses must be conserved: pool stats and the
   rfloor_service_* metric counters agree with the submission mix. *)
let test_pool_hit_miss_conservation () =
  let reg = R.create () in
  let pool = Pool.create ~metrics:reg () in
  let part = Lazy.force mini_part and spec = toy_spec () in
  let options =
    Solver.Options.make ~objective_mode:Solver.Feasibility_only ~time_limit:30.
      ()
  in
  (* one miss, then two exact hits of the same canonical instance *)
  ignore (await_solved pool "seed" (Pool.submit pool ~options part spec));
  ignore (await_solved pool "hit1" (Pool.submit pool ~options part spec));
  ignore
    (await_solved pool "hit2"
       (Pool.submit pool ~options part (relabel_spec spec)));
  (* a geometrically different instance: a second miss *)
  let prng = Generators.Prng.make (Generators.case_seed (Generators.base_seed ()) 55) in
  let part2 = Generators.random_partition prng in
  let spec2 = Generators.random_spec prng part2 in
  ignore (await_solved pool "other" (Pool.submit pool ~options part2 spec2));
  let st = Pool.stats pool in
  Alcotest.(check int) "stats hits" 2 st.Pool.s_cache_hits;
  Alcotest.(check int) "stats misses" 2 st.Pool.s_cache_misses;
  Alcotest.(check int) "hits + misses = jobs" 4
    (st.Pool.s_cache_hits + st.Pool.s_cache_misses);
  let counter_total name =
    List.fold_left
      (fun acc m ->
        match m with
        | R.Snapshot.Counter { name = n; value; _ } when n = name -> acc + value
        | _ -> acc)
      0 (R.snapshot reg)
  in
  Alcotest.(check int) "metric hits agree" st.Pool.s_cache_hits
    (counter_total "rfloor_service_cache_hits_total");
  Alcotest.(check int) "metric misses agree" st.Pool.s_cache_misses
    (counter_total "rfloor_service_cache_misses_total");
  (* queue-depth gauge: every submission was awaited, so the gauge must
     have drained back to zero and every worker must be idle again *)
  let gauge_value name =
    List.fold_left
      (fun acc m ->
        match m with
        | R.Snapshot.Gauge { name = n; value; _ } when n = name -> Some value
        | _ -> acc)
      None (R.snapshot reg)
  in
  Alcotest.(check (option (float 0.)))
    "queue-depth gauge drained" (Some 0.)
    (gauge_value "rfloor_service_queue_depth");
  Alcotest.(check int) "stats queue drained" 0 st.Pool.s_queued;
  List.iter
    (fun w -> Alcotest.(check string) "worker idle" "idle" w)
    (Pool.worker_states pool);
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Protocol *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A JSON number past the int range is refused with the field's name:
   [int_of_float] would wrap it (1e19 reads as 0 on x86-64). *)
let test_out_of_range_integers () =
  List.iter
    (fun (field, frame) ->
      match Rfloor_service.Protocol.parse_request frame with
      | Ok _ -> Alcotest.failf "accepted: %s" frame
      | Error e ->
        if not (contains e (Printf.sprintf "%S" field)) then
          Alcotest.failf "error %S does not name %S" e field)
    [
      ("clb", {|{"op":"add","name":"m","demand":{"clb":1e19}}|});
      ( "priority",
        {|{"op":"solve","id":"s","device":"mini","design":"sdr","priority":-1e19}|} );
      ("max_moves", {|{"op":"add","name":"m","demand":{"clb":2},"max_moves":1e19}|});
    ]

(* [strategy] is the one spelling of a solver: a frame in the old
   spelling is refused, not quietly run as plain milp *)
let test_old_strategy_spelling () =
  List.iter
    (fun frame ->
      match Rfloor_service.Protocol.parse_request frame with
      | Ok _ -> Alcotest.failf "accepted: %s" frame
      | Error e ->
        if not (contains e {|"strategy"|}) then
          Alcotest.failf "error %S does not name \"strategy\"" e)
    [
      {|{"op":"solve","id":"s","device":"mini","design":"sdr","engine":"milp"}|};
      {|{"op":"solve","id":"s","device":"mini","design":"sdr","workers":2}|};
      {|{"op":"solve","id":"s","device":"mini","design":"sdr","strategy":"milp","engine":"milp-ho"}|};
    ];
  match
    Rfloor_service.Protocol.parse_request
      {|{"op":"solve","id":"s","device":"mini","design":"sdr"}|}
  with
  | Ok (Rfloor_service.Protocol.Solve sq) ->
    Alcotest.(check bool) "no strategy given" true
      (sq.Rfloor_service.Protocol.sq_strategy = None)
  | _ -> Alcotest.fail "a frame without strategy was refused"

(* A line the protocol refuses is answered, through a session as
   [batch] runs one, by an error frame carrying the line's string
   "id"; a line that is not JSON gets one without an id. *)
let test_refused_frames_keep_id () =
  let module J = Rfloor_json in
  let input = Filename.temp_file "rfloor_refused" ".ndjson" in
  let output = Filename.temp_file "rfloor_refused" ".out" in
  let oc = open_out input in
  List.iter
    (fun line -> output_string oc (line ^ "\n"))
    [
      {|{"op":"solve","id":"d","device":"mini","design":"sdr","engine":"milp"}|};
      {|{"op":"nope","id":"e"}|};
      {|{"op":"solve","id":"f","device":"mini","design":"sdr","priority":1e19}|};
      {|{"op":"solve","id":"g",|};
    ];
  close_out oc;
  let ic = open_in input and out = open_out output in
  Rfloor_service.Session.run ~workers:1
    ~devices:(fun _ -> None)
    ~designs:(fun _ -> None)
    ic out;
  close_in ic;
  close_out out;
  let ic = open_in output in
  let frames = In_channel.input_all ic in
  close_in ic;
  Sys.remove input;
  Sys.remove output;
  let frame line =
    match J.parse line with
    | Error e -> Alcotest.failf "bad frame %s: %s" line e
    | Ok j ->
      ( (match J.member "type" j with Some (J.Str t) -> t | _ -> "?"),
        match J.member "id" j with Some (J.Str id) -> Some id | _ -> None )
  in
  Alcotest.(check (list (pair string (option string))))
    "error frames and their ids"
    [
      ("error", Some "d"); ("error", Some "e"); ("error", Some "f");
      ("error", None);
    ]
    (List.map frame
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' frames)))

let suites =
  [
    ( "service.protocol",
      [
        Alcotest.test_case "out-of-range integers name their field" `Quick
          test_out_of_range_integers;
        Alcotest.test_case "engine and workers fields refused" `Quick
          test_old_strategy_spelling;
        Alcotest.test_case "refused frames keep their id" `Quick
          test_refused_frames_keep_id;
      ] );
    ( "service.canonical",
      [
        Alcotest.test_case "region relabeling invariance" `Quick test_relabel_invariance;
        Alcotest.test_case "tile-type renaming invariance" `Quick test_tile_renaming_invariance;
        Alcotest.test_case "geometry discriminates" `Quick test_geometry_discriminates;
        Alcotest.test_case "options key scope" `Quick test_options_key_scope;
      ] );
    ( "service.cancel",
      [
        Alcotest.test_case "branch-and-bound token" `Quick test_bb_cancel;
        Alcotest.test_case "parallel token, one Stopped event" `Quick test_parallel_cancel;
        Alcotest.test_case "solver keeps warm incumbent" `Quick test_solver_cancel_keeps_incumbent;
      ] );
    ( "service.pool",
      [
        Alcotest.test_case "exact cache hit" `Quick test_pool_cache_hit;
        Alcotest.test_case "warm start on near hit" `Quick test_pool_warm_start;
        Alcotest.test_case "deadline stops with incumbent" `Quick test_pool_deadline_stop;
        Alcotest.test_case "queued cancel" `Quick test_pool_queued_cancel;
        Alcotest.test_case "four-worker soak" `Quick test_pool_soak;
        Alcotest.test_case "four-domain cache storm" `Quick test_cache_concurrent;
        Alcotest.test_case "hit/miss conservation vs metrics" `Quick test_pool_hit_miss_conservation;
      ] );
  ]
