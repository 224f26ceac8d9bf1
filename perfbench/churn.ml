(* online-churn: a steady-state runtime manager on the FX70T.  Modules
   arrive and leave after lifetimes of 6-14 events (Gen.churn), replayed by
   [Workload.replay ~check:false ~fallback:false].  Chosen because every
   online layer works on every event: admission into the maximal free
   rectangles, their upkeep, the breadth-first no-break defragmentation
   planner on blocked arrivals and the bitstream relocation of each
   move.  Fallback is off: its residual solve has a 5 s CPU budget, so
   with it on the layout after a fallback would depend on timing. *)

module Ol = Rfloor_online
module W = Ol.Workload
module S = Bench.Spans

let now = Bench.now
let events = 2000

let setup ~seed () =
  let part =
    S.span "device.partition" (fun () ->
        Device.Partition.columnar_exn Device.Devices.virtex5_fx70t)
  in
  (part, S.span "bench.gen" (fun () -> Gen.churn ~seed ~events:(Bench.scaled events) part))

let counts (s : W.stats) =
  (s.W.s_admitted, s.W.s_defrag_admitted, s.W.s_fallbacks, s.W.s_rejected, s.W.s_departed, s.W.s_moves)

let pp_counts (a, d, f, r, p, m) =
  Printf.sprintf "admitted %d, after defrag %d, fallback %d, rejected %d, departed %d, moves %d"
    a d f r p m

(* The oracle: a checked replay of the same trace (free rectangles
   recomputed from scratch after every event) finds no violation and the
   same counts as every timed replay, given as its counts and
   violations. *)
let oracle r part trace timed =
  let errors = ref 0 in
  let checked =
    W.replay ~check:true ~fallback:false
      ~on_event:(fun _ _ outcome -> if outcome = "error" then incr errors)
      part trace
  in
  let problems =
    List.map (fun v -> "checked replay: " ^ v) checked.W.s_violations
    @ List.concat_map
        (fun (c, violations) ->
          List.map (fun v -> "replay: " ^ v) violations
          @
          if counts checked = c then []
          else
            [
              Printf.sprintf "replays disagree: %s vs %s" (pp_counts c)
                (pp_counts (counts checked));
            ])
        timed
  in
  let ops = List.length trace in
  Bench.tally r ~ops ~failed:(min ops (!errors + List.length problems)) problems

let is_arrival = function W.Arrive _ -> true | W.Depart _ -> false

let run r ~seed ~seconds =
  let replays = ref [] in
  Bench.report_rounds r
    (Bench.rounds ~seconds ~setup:(setup ~seed) (fun (part, trace) ->
         let kinds = Array.of_list (List.map is_arrival trace) in
         let lat = ref [] in
         let t0 = Bench.clock () in
         let prev = ref t0 in
         let stats =
           W.replay ~check:false ~fallback:false
             ~on_event:(fun k _ _ ->
               let t = Bench.clock () in
               if kinds.(k) then lat := (t -. !prev) :: !lat;
               prev := t;
               Bench.Speed.tick ())
             part trace
         in
         let secs = Bench.clock () -. t0 in
         replays := (counts stats, stats.W.s_violations) :: !replays;
         { Bench.lat = !lat; ops = List.length trace; secs }));
  let part, trace = setup ~seed () in
  oracle r part trace !replays

(* ---------------- traced pass ---------------- *)

(* The same trace driven through Layout and Defrag directly, one span
   per call, with the same decisions [Workload.replay] makes (planner on
   a blocked arrival, no fallback).  The inputs of the calls that happen
   inside them (free-rectangle upkeep, bitstream relocation) are
   captured and replayed afterwards as per-call probes. *)
let traced r ~seed =
  let promoted = Bench.promoted_words () in
  let t0 = now () in
  let part, trace = setup ~seed () in
  let capture f = S.span "bench.capture" f in
  let adds = ref [] and removes = ref [] and relocs = ref [] and mers = ref [] in
  let admitted = ref 0 and defragged = ref 0 and rejected = ref 0 in
  let departed = ref 0 and moves = ref 0 and plans = ref 0 and hits = ref 0 in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let turned_away = Hashtbl.create 64 in
  let place l name demand =
    let before = capture (fun () -> Ol.Layout.free_rects l) in
    let res = S.span "online.admit" (fun () -> Ol.Layout.place l name demand) in
    (match res with Ok (_, rect) -> adds := (before, rect) :: !adds | Error _ -> ());
    res
  in
  let step l = function
    | W.Depart { d_name } -> (
      match Ol.Layout.find l d_name with
      | None ->
        if not (Hashtbl.mem turned_away d_name) then problem "departure of unknown %s" d_name;
        l
      | Some e -> (
        let before, occupied =
          capture (fun () ->
              ( Ol.Layout.free_rects l,
                List.filter_map
                  (fun (x : Ol.Layout.entry) ->
                    if x.Ol.Layout.e_name = d_name then None else Some x.Ol.Layout.e_rect)
                  (Ol.Layout.entries l) ))
        in
        match S.span "online.remove" (fun () -> Ol.Layout.remove l d_name) with
        | Ok l' ->
          incr departed;
          removes := (occupied, before, e.Ol.Layout.e_rect) :: !removes;
          l'
        | Error _ ->
          problem "departure of %s refused" d_name;
          l))
    | W.Arrive { a_name; a_demand } -> (
      match place l a_name a_demand with
      | Ok (l', _) ->
        incr admitted;
        l'
      | Error d when d.Rfloor_diag.Diagnostic.code <> "RF701" ->
        problem "arrival of %s refused" a_name;
        l
      | Error _ -> (
        incr plans;
        match
          S.span "online.plan" (fun () ->
              Ol.Defrag.plan ~fallback:false l ~name:a_name ~demand:a_demand)
        with
        | Ok (Ol.Defrag.Moves (schedule, _)) -> (
          incr hits;
          capture (fun () ->
              List.iter
                (fun (m : Ol.Defrag.move) ->
                  match Ol.Layout.find l m.Ol.Defrag.mv_name with
                  | Some e when Device.Rect.equal e.Ol.Layout.e_rect m.Ol.Defrag.mv_src ->
                    relocs := (e.Ol.Layout.e_image, m.Ol.Defrag.mv_src, m.Ol.Defrag.mv_dst) :: !relocs
                  | _ -> ())
                schedule);
          match S.span "online.execute" (fun () -> Ol.Defrag.execute l schedule) with
          | Error _ ->
            problem "schedule for %s refused" a_name;
            l
          | Ok l' -> (
            moves := !moves + List.length schedule;
            match place l' a_name a_demand with
            | Ok (l'', _) ->
              incr defragged;
              l''
            | Error _ ->
              problem "admission of %s after defragmentation failed" a_name;
              l'))
        | Ok _ ->
          problem "planner admitted %s without moves" a_name;
          l
        | Error _ ->
          incr rejected;
          Hashtbl.replace turned_away a_name ();
          l))
  in
  let final =
    List.fold_left
      (fun l ev ->
        let l = step l ev in
        mers := float_of_int (List.length (capture (fun () -> Ol.Layout.free_rects l))) :: !mers;
        l)
      (Ol.Layout.create part) trace
  in
  let t1 = now () in
  let promoted = Bench.promoted_words () -. promoted in
  let spans = S.all () in
  Bench.report_profile r (S.profile ~t0 ~t1 spans);
  let ms name p = 1000. *. Bench.Stats.percentile p (S.durations name spans) in
  Bench.set r "online.admit_ms.p50" (ms "online.admit" 50.);
  Bench.set r "online.admit_ms.p99" (ms "online.admit" 99.);
  Bench.set r "online.remove_ms.p50" (ms "online.remove" 50.);
  Bench.set r "online.plan_ms.p50" (ms "online.plan" 50.);
  Bench.set r "online.plan_ms.p99" (ms "online.plan" 99.);
  Bench.set r "online.execute_ms.p50" (ms "online.execute" 50.);
  Bench.set r "online.plan_hit_ratio" (Bench.Stats.ratio !hits !plans);
  Bench.set r "online.mer_count.mean" (Bench.Stats.mean !mers);
  Bench.set r "online.moves" (float_of_int !moves);
  Bench.set r "online.reject_ratio" (Bench.Stats.ratio !rejected (!admitted + !defragged + !rejected));
  Bench.set r "online.promoted_mwords" (promoted /. 1e6);
  Bench.set r "online.free_space_add_us"
    (Bench.us_per_call (fun (m, rect) -> Ol.Free_space.add m rect) !adds);
  Bench.set r "online.free_space_remove_us"
    (Bench.us_per_call
       (fun (occupied, m, rect) -> Ol.Free_space.remove part ~occupied m rect)
       !removes);
  Bench.set r "bitstream.relocate_us"
    (Bench.us_per_call
       (fun (image, src, dst) -> Bitstream.Relocate.relocate part ~src ~dst image)
       !relocs);
  (* the same final state as the library's own replay of the trace *)
  let replay = W.replay ~check:false ~fallback:false part trace in
  let entries l =
    List.map (fun (e : Ol.Layout.entry) -> (e.Ol.Layout.e_name, e.Ol.Layout.e_rect)) (Ol.Layout.entries l)
  in
  let mine = (!admitted, !defragged, 0, !rejected, !departed, !moves) in
  if counts replay <> mine then
    problem "traced pass disagrees with the replay: %s vs %s" (pp_counts mine)
      (pp_counts (counts replay));
  if entries replay.W.s_final <> entries final then problem "final layouts differ";
  let ops = List.length trace in
  Bench.tally r ~ops ~failed:(min ops (List.length !problems)) (List.rev !problems)
