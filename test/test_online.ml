(* Online floorplanning: incremental maximal-free-rectangle tracking
   pinned against a brute-force oracle, admission, the no-break
   defragmentation planner, and the seeded workload replayer. *)

open Device
module Fs = Rfloor_online.Free_space
module Layout = Rfloor_online.Layout
module Defrag = Rfloor_online.Defrag
module Workload = Rfloor_online.Workload

let mini_part = lazy (Partition.columnar_exn Devices.mini)

(* Brute-force oracle, deliberately different from the library's
   row-span sweep: enumerate every rectangle, keep the free ones, keep
   those not contained in another free one. *)
let oracle part occupied =
  let g = part.Partition.grid in
  let w = Grid.width g and h = Grid.height g in
  let free_cell c r =
    (not (Grid.in_forbidden g c r))
    && not (List.exists (fun o -> Rect.contains_point o c r) occupied)
  in
  let rect_free rect =
    let ok = ref true in
    for c = rect.Rect.x to Rect.x2 rect do
      for r = rect.Rect.y to Rect.y2 rect do
        if not (free_cell c r) then ok := false
      done
    done;
    !ok
  in
  let all = ref [] in
  for x = 1 to w do
    for y = 1 to h do
      for rw = 1 to w - x + 1 do
        for rh = 1 to h - y + 1 do
          let rect = Rect.make ~x ~y ~w:rw ~h:rh in
          if rect_free rect then all := rect :: !all
        done
      done
    done
  done;
  let free = !all in
  List.filter
    (fun a ->
      not
        (List.exists
           (fun b -> (not (Rect.equal a b)) && Rect.contains b a)
           free))
    free
  |> List.sort Rect.compare

let test_mer_differential () =
  let checked = ref 0 in
  for seed = 0 to 199 do
    let grid = Devices.random (Random.State.make [| seed |]) in
    match Partition.columnar grid with
    | Error _ -> ()
    | Ok part ->
      let rng = Generators.Prng.make (seed * 7919) in
      let placed = ref [] in
      let mers = ref (Fs.recompute part ~occupied:[]) in
      for op = 0 to 29 do
        (if !placed <> [] && Generators.Prng.int rng 5 < 2 then begin
           (* departure *)
           let i = Generators.Prng.int rng (List.length !placed) in
           let r = List.nth !placed i in
           placed := List.filteri (fun j _ -> j <> i) !placed;
           mers := Fs.remove part ~occupied:!placed !mers r
         end
         else
           (* arrival into a random sub-rectangle of a random MER *)
           match !mers with
           | [] -> ()
           | ms ->
             let m = List.nth ms (Generators.Prng.int rng (List.length ms)) in
             let rw = Generators.Prng.range rng 1 m.Rect.w in
             let rh = Generators.Prng.range rng 1 m.Rect.h in
             let x = Generators.Prng.range rng m.Rect.x (Rect.x2 m - rw + 1) in
             let y = Generators.Prng.range rng m.Rect.y (Rect.y2 m - rh + 1) in
             let r = Rect.make ~x ~y ~w:rw ~h:rh in
             placed := r :: !placed;
             mers := Fs.add !mers r);
        incr checked;
        if not (Fs.equal_sets !mers (oracle part !placed)) then
          Alcotest.failf "MER set diverged (seed %d, op %d):@ inc=[%s]@ ref=[%s]"
            seed op
            (String.concat " " (List.map Rect.to_string !mers))
            (String.concat " " (List.map Rect.to_string (oracle part !placed)))
      done
  done;
  if !checked < 1000 then Alcotest.failf "too few differential checks (%d)" !checked

let ok = function
  | Ok v -> v
  | Error (d : Rfloor_diag.Diagnostic.t) -> Alcotest.failf "diagnostic: %s" d.message

let test_admission_best_fit () =
  let part = Lazy.force mini_part in
  let l = Layout.create part in
  (* empty mini: free space is the whole 10x4 device, one MER *)
  Alcotest.(check int) "one MER when empty" 1 (List.length (Layout.free_rects l));
  Alcotest.(check (float 1e-9)) "fragmentation 0" 0. (Layout.fragmentation l);
  let l, r1 = ok (Layout.place l "a" [ (Resource.Clb, 4) ]) in
  (* 4 CLBs fit in a 1-column x 4-row strip of a CLB column *)
  Alcotest.(check int) "minimal area" 4 (Rect.area r1);
  Alcotest.(check bool) "differential" true (Layout.check_free_rects l);
  Alcotest.(check bool) "occupancy > 0" true (Layout.occupancy l > 0.);
  let l2 = ok (Layout.remove l "a") in
  Alcotest.(check int) "empty again" 0 (Layout.modules l2);
  Alcotest.(check int) "one MER again" 1 (List.length (Layout.free_rects l2))

let test_admission_rejects_dup_and_unknown () =
  let part = Lazy.force mini_part in
  let l = Layout.create part in
  let l, _ = ok (Layout.place l "a" [ (Resource.Clb, 2) ]) in
  (match Layout.place l "a" [ (Resource.Clb, 2) ] with
  | Error d -> Alcotest.(check string) "dup code" "RF702" d.Rfloor_diag.Diagnostic.code
  | Ok _ -> Alcotest.fail "duplicate admitted");
  match Layout.remove l "ghost" with
  | Error d -> Alcotest.(check string) "unknown code" "RF702" d.Rfloor_diag.Diagnostic.code
  | Ok _ -> Alcotest.fail "removed a ghost"

(* A crafted one-move instance: an 8-wide, 1-tall all-CLB device with
   modules at columns 1-2 and 4-5.  A 4-column arrival does not fit
   (max free run is 3), but moving "b" right by one run makes room —
   the planner must find a single-move schedule, and the non-moving
   module must come through byte-identical. *)
let one_move_device = lazy (Grid.of_strings ~name:"strip" [ "CCCCCCCC" ])

let one_move_layout () =
  let part = Partition.columnar_exn (Lazy.force one_move_device) in
  let l = Layout.create part in
  let l = ok (Layout.place_at l "a" [ (Resource.Clb, 2) ] (Rect.make ~x:1 ~y:1 ~w:2 ~h:1)) in
  let l = ok (Layout.place_at l "b" [ (Resource.Clb, 2) ] (Rect.make ~x:4 ~y:1 ~w:2 ~h:1)) in
  (part, l)

let test_defrag_minimal_move () =
  let _, l = one_move_layout () in
  let demand = [ (Resource.Clb, 4) ] in
  Alcotest.(check bool) "blocked" true (Layout.admission_rect l demand = None);
  match ok (Defrag.plan ~fallback:false l ~name:"c" ~demand) with
  | Defrag.Fallback _ -> Alcotest.fail "planner fell back"
  | Defrag.Moves (schedule, rect) ->
    Alcotest.(check int) "one move" 1 (List.length schedule);
    let a_before = Option.get (Layout.find l "a") in
    let l' = ok (Defrag.execute l schedule) in
    let a_after = Option.get (Layout.find l' "a") in
    Alcotest.(check bool) "no-break: frames byte-identical" true
      (Bytes.equal
         (Bitstream.Image.serialize a_before.Layout.e_image)
         (Bitstream.Image.serialize a_after.Layout.e_image));
    let l'', placed = ok (Layout.place l' "c" demand) in
    Alcotest.(check bool) "admitted at planned rect" true (Rect.equal rect placed);
    Alcotest.(check bool) "differential" true (Layout.check_free_rects l'')

let test_moved_module_payload_preserved () =
  let _, l = one_move_layout () in
  match ok (Defrag.plan ~fallback:false l ~name:"c" ~demand:[ (Resource.Clb, 4) ]) with
  | Defrag.Moves (schedule, _) ->
    let mv = List.hd schedule in
    let before = Option.get (Layout.find l mv.Defrag.mv_name) in
    let l' = ok (Defrag.execute l schedule) in
    let after = Option.get (Layout.find l' mv.Defrag.mv_name) in
    (* relocation rewrites addresses but never payload words *)
    Alcotest.(check bool) "payload equal" true
      (Bitstream.Image.payload_equal before.Layout.e_image after.Layout.e_image);
    Alcotest.(check bool) "image differs (addresses moved)" true
      (not
         (Bytes.equal
            (Bitstream.Image.serialize before.Layout.e_image)
            (Bitstream.Image.serialize after.Layout.e_image)))
  | _ -> Alcotest.fail "expected a move schedule"

(* The audit itself: a planned schedule passes, and every fault a
   schedule could hide in a module it does not name is reported, while
   the module it does name may move. *)
let test_no_break_audit_catches_faults () =
  let _, l = one_move_layout () in
  (match ok (Defrag.plan ~fallback:false l ~name:"c" ~demand:[ (Resource.Clb, 4) ]) with
  | Defrag.Moves (schedule, _) ->
    let moved = List.map (fun m -> m.Defrag.mv_name) schedule in
    Alcotest.(check (list string)) "planned schedule" []
      (Workload.no_break_violations ~before:l
         ~after:(ok (Defrag.execute l schedule)) ~moved)
  | _ -> Alcotest.fail "expected a move schedule");
  let part =
    Partition.columnar_exn (Grid.of_strings ~name:"strip16" [ String.make 16 'C' ])
  in
  let clb2 = [ (Resource.Clb, 2) ] in
  let at x = Rect.make ~x ~y:1 ~w:2 ~h:1 in
  let before =
    List.fold_left
      (fun l (name, seed, x) -> ok (Layout.place_at ~seed l name clb2 (at x)))
      (Layout.create part)
      [ ("a", 1, 1); ("b", 2, 4); ("c", 3, 7); ("d", 4, 10) ]
  in
  (* "d" moves as scheduled; "a" is re-placed on its own rectangle with
     another seed, "b" is relocated (same payload, other addresses) and
     "c" is dropped *)
  let after = ok (Layout.move before "d" (at 13)) in
  let after = ok (Layout.remove after "a") in
  let after = ok (Layout.place_at ~seed:9 after "a" clb2 (at 1)) in
  let after = ok (Layout.move after "b" (at 15)) in
  let after = ok (Layout.remove after "c") in
  let image l name = (Option.get (Layout.find l name)).Layout.e_image in
  Alcotest.(check bool) "relocated payload unchanged" true
    (Bitstream.Image.payload_equal (image before "b") (image after "b"));
  Alcotest.(check (list string))
    "faults reported"
    [ "defrag changed frames of non-moving module \"a\"";
      "defrag changed frames of non-moving module \"b\"";
      "defrag dropped non-moving module \"c\"" ]
    (Workload.no_break_violations ~before ~after ~moved:[ "d" ])

let test_move_rejects_bad_destination () =
  let _, l = one_move_layout () in
  (* overlaps module "b" *)
  match Layout.move l "a" (Rect.make ~x:5 ~y:1 ~w:2 ~h:1) with
  | Error d -> Alcotest.(check string) "code" "RF705" d.Rfloor_diag.Diagnostic.code
  | Ok _ -> Alcotest.fail "moved onto an occupied rectangle"

let test_workload_deterministic () =
  let part = Lazy.force mini_part in
  let a = Workload.generate ~seed:7 ~events:50 part in
  let b = Workload.generate ~seed:7 ~events:50 part in
  Alcotest.(check bool) "same trace" true (a = b);
  let c = Workload.generate ~seed:8 ~events:50 part in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_workload_replay_audits_clean () =
  let part = Lazy.force mini_part in
  let events = Workload.generate ~seed:2015 ~events:100 part in
  let stats = Workload.replay ~check:true part events in
  Alcotest.(check (list string)) "no violations" [] stats.Workload.s_violations;
  Alcotest.(check int) "all events consumed" 100 stats.Workload.s_events;
  Alcotest.(check bool) "final differential" true
    (Layout.check_free_rects stats.Workload.s_final)

(* ------------------------------------------------------------------ *)
(* Admission decisions pinned to the original scan *)

(* The original admission scan, kept verbatim as the oracle: it visits
   every column range of every MER, recounts each demanded kind column
   by column and takes the waste from [Compat.wasted_frames]. *)
let reference_admission_rect_in part ~mers demand =
  let module R = Device.Rect in
  let module P = Device.Partition in
  let module Res = Device.Resource in
  let demand = List.filter (fun (_, n) -> n > 0) demand in
  if demand = [] then None
  else begin
    let best = ref None in
    let consider rect =
      let wasted = Device.Compat.wasted_frames part rect demand in
      let key = (wasted, R.area rect, rect.R.x, rect.R.y) in
      match !best with
      | Some (k, _) when k <= key -> ()
      | _ -> best := Some (key, rect)
    in
    List.iter
      (fun (m : R.t) ->
        for x1 = m.R.x to R.x2 m do
          for x2 = x1 to R.x2 m do
            let ncols k =
              let n = ref 0 in
              for c = x1 to x2 do
                if Res.equal_kind (P.column_type part c).Res.kind k then incr n
              done;
              !n
            in
            let h =
              List.fold_left
                (fun acc (k, d) ->
                  let nc = ncols k in
                  if nc = 0 then max_int
                  else if acc = max_int then max_int
                  else max acc ((d + nc - 1) / nc))
                1 demand
            in
            if h <> max_int && h <= m.R.h then
              consider (R.make ~x:x1 ~y:m.R.y ~w:(x2 - x1 + 1) ~h)
          done
        done)
      mers;
    Option.map snd !best
  end

let fx70t_part = lazy (Partition.columnar_exn Devices.virtex5_fx70t)

(* Steady-state churn, modelled on the benchmark's generator: a module
   departs once its lifetime (6-14 events) has run out, otherwise the
   next event is an arrival.  CLB demand is in [clb/16, clb/16 + clb/6),
   1-2 BRAM tiles are added with p = 1/3 and one DSP tile with p = 1/4. *)
let churn ~seed ~events part =
  let module Pr = Generators.Prng in
  let rng = Pr.make seed in
  let avail k = Resource.demand_get (Grid.usable_tiles part.Partition.grid) k in
  let clb = avail Resource.Clb in
  let demand () =
    let d = [ (Resource.Clb, (clb / 16) + Pr.int rng (max 1 (clb / 6))) ] in
    let d =
      if avail Resource.Bram > 0 && Pr.int rng 3 = 0 then
        d @ [ (Resource.Bram, Pr.range rng 1 2) ]
      else d
    in
    if avail Resource.Dsp > 0 && Pr.int rng 4 = 0 then d @ [ (Resource.Dsp, 1) ]
    else d
  in
  (* live modules as (due event, name), earliest first *)
  let live = ref [] in
  List.init events (fun i ->
      match !live with
      | (due, name) :: rest when due <= i ->
        live := rest;
        Workload.Depart { d_name = name }
      | _ ->
        let name = Printf.sprintf "m%d" i in
        live := List.merge compare [ (i + Pr.range rng 6 14, name) ] !live;
        Workload.Arrive { a_name = name; a_demand = demand () })

(* Every admission a churn replay makes (the planner on a blocked
   arrival, no fallback), as the (MERs, demand) the scan is given. *)
let churn_admissions part events =
  let states = ref [] in
  let place l name demand =
    states := (Layout.free_rects l, demand) :: !states;
    Layout.place l name demand
  in
  let step l = function
    | Workload.Depart { d_name } -> (
      match Layout.remove l d_name with Ok l' -> l' | Error _ -> l)
    | Workload.Arrive { a_name; a_demand } -> (
      match place l a_name a_demand with
      | Ok (l', _) -> l'
      | Error _ -> (
        match Defrag.plan ~fallback:false l ~name:a_name ~demand:a_demand with
        | Ok (Defrag.Moves (schedule, _)) -> (
          match Defrag.execute l schedule with
          | Error _ -> l
          | Ok l' -> (
            match place l' a_name a_demand with
            | Ok (l'', _) -> l''
            | Error _ -> l'))
        | _ -> l))
  in
  ignore (List.fold_left step (Layout.create part) events);
  List.rev !states

let pp_rect_opt = function None -> "none" | Some r -> Rect.to_string r

let check_admission part ~what (mers, demand) =
  let got = Layout.admission_rect_in part ~mers demand in
  let want = reference_admission_rect_in part ~mers demand in
  if got <> want then
    Alcotest.failf "%s: admission of [%a] into [%s]: %s, original scan %s" what
      Resource.pp_demand demand
      (String.concat " " (List.map Rect.to_string mers))
      (pp_rect_opt got) (pp_rect_opt want);
  want <> None

let test_admission_matches_original_churn () =
  let part = Lazy.force fx70t_part in
  let states = ref 0 and admitted = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun st ->
          incr states;
          if check_admission part ~what:(Printf.sprintf "churn seed %d" seed) st
          then incr admitted)
        (churn_admissions part (churn ~seed ~events:500 part)))
    [ 1000; 1001 ];
  if !states < 400 || !admitted < 300 then
    Alcotest.failf "too few churn admissions checked (%d states, %d admitted)"
      !states !admitted

(* Random layouts on random columnar grids and on [mini].  Demands mix
   duplicate kinds, zero and negative counts, IO and kinds the grid may
   lack, so every branch of the scan's per-kind accounting is reached. *)
let test_admission_matches_original_random () =
  let module Pr = Generators.Prng in
  let states = ref 0 and admitted = ref 0 in
  for seed = 0 to 399 do
    let grid =
      if seed mod 4 = 0 then Devices.mini
      else Devices.random (Random.State.make [| seed |])
    in
    match Partition.columnar grid with
    | Error _ -> ()
    | Ok part ->
      let rng = Pr.make (seed * 104729) in
      let kinds = Resource.[| Clb; Clb; Clb; Bram; Dsp; Io |] in
      let big = Partition.width part * Partition.height part / 4 in
      let placed = ref [] in
      let mers = ref (Fs.recompute part ~occupied:[]) in
      for _ = 1 to 10 do
        (match !mers with
        | [] -> ()
        | ms when Pr.int rng 4 > 0 ->
          let m = List.nth ms (Pr.int rng (List.length ms)) in
          let rw = Pr.range rng 1 m.Rect.w and rh = Pr.range rng 1 m.Rect.h in
          let x = Pr.range rng m.Rect.x (Rect.x2 m - rw + 1) in
          let y = Pr.range rng m.Rect.y (Rect.y2 m - rh + 1) in
          let r = Rect.make ~x ~y ~w:rw ~h:rh in
          placed := r :: !placed;
          mers := Fs.add !mers r
        | _ -> (
          match !placed with
          | [] -> ()
          | r :: rest ->
            placed := rest;
            mers := Fs.remove part ~occupied:rest !mers r));
        for _ = 1 to 5 do
          let demand =
            List.init (Pr.range rng 1 4) (fun _ ->
                (Pr.pick rng kinds, Pr.range rng (-1) (max 1 big)))
          in
          incr states;
          if check_admission part ~what:(Printf.sprintf "random seed %d" seed)
               (!mers, demand)
          then incr admitted
        done
      done
  done;
  if !states < 15000 || !admitted < 3000 then
    Alcotest.failf "too few random admissions checked (%d states, %d admitted)"
      !states !admitted

let final_rects l =
  List.map
    (fun (e : Layout.entry) ->
      e.Layout.e_name ^ " " ^ Rect.to_string e.Layout.e_rect)
    (Layout.entries l)

let images_md5 l =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun (e : Layout.entry) ->
               Bytes.to_string (Bitstream.Image.serialize e.Layout.e_image))
             (Layout.entries l))))

(* A checked 400-event FX70T churn replay, pinned: its counts, its
   final layout and an MD5 of its final images.  A change to any
   admission, move or payload byte moves them. *)
let test_churn_replay_pinned () =
  let part = Lazy.force fx70t_part in
  let s =
    Workload.replay ~check:true ~fallback:false part
      (churn ~seed:2015 ~events:400 part)
  in
  Alcotest.(check (list string)) "no violations" [] s.Workload.s_violations;
  Alcotest.(check (list int))
    "admitted, after defrag, fallbacks, rejected, departed, moves"
    [ 143; 4; 0; 56; 144; 4 ]
    [ s.Workload.s_admitted; s.Workload.s_defrag_admitted;
      s.Workload.s_fallbacks; s.Workload.s_rejected; s.Workload.s_departed;
      s.Workload.s_moves ];
  Alcotest.(check (list string))
    "final layout"
    [ "m390 (x=4 y=1 w=5 h=7)"; "m392 (x=12 y=1 w=9 h=6)";
      "m393 (x=34 y=1 w=9 h=8)" ]
    (final_rects s.Workload.s_final);
  Alcotest.(check string) "final images md5" "5d7125ea9b9bb37cfb361437e133d114"
    (images_md5 s.Workload.s_final)

(* ------------------------------------------------------------------ *)
(* rfloor-service/1 online frames, end to end through Session.run *)

(* Feeds [frames] to a Session.run on the builtin mini device and
   returns the response lines in order. *)
let session_lines ?(warn = fun (_ : Rfloor_diag.Diagnostic.t) -> ()) frames =
  let input = Filename.temp_file "rfloor_online" ".ndjson" in
  let output = Filename.temp_file "rfloor_online" ".out" in
  let oc = open_out input in
  List.iter (fun line -> output_string oc (line ^ "\n")) frames;
  close_out oc;
  let ic = open_in input and out = open_out output in
  Rfloor_service.Session.run ~warn
    ~devices:(fun n -> if n = "mini" then Some Devices.mini else None)
    ~designs:(fun _ -> None)
    ic out;
  close_in ic;
  close_out out;
  let ic = open_in output in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | l -> go (l :: acc)
  in
  let lines = go [] in
  Sys.remove input;
  Sys.remove output;
  lines

let frame_json line =
  match Rfloor_json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad frame %s: %s" line e

let frame_string key line =
  match Rfloor_json.member key (frame_json line) with
  | Some (Rfloor_json.Str s) -> s
  | _ -> ""

let test_service_online_roundtrip () =
  let module J = Rfloor_json in
  let warns = ref [] in
  let lines =
    session_lines
      ~warn:(fun d -> warns := d.Rfloor_diag.Diagnostic.code :: !warns)
      [
        (* before any layout: RF703 *)
        {|{"op":"add","name":"early","demand":{"clb":2}}|};
        {|{"op":"layout","device":"mini"}|};
        {|{"op":"add","name":"a","demand":{"clb":4}}|};
        (* duplicate: RF702 *)
        {|{"op":"add","name":"a","demand":{"clb":4}}|};
        (* out-of-range bound: clamped with an RF706 warning *)
        {|{"op":"defrag","max_moves":99}|};
        {|{"op":"remove","name":"a"}|};
        (* unknown (and never rejected): RF702 *)
        {|{"op":"remove","name":"a"}|};
        (* turned away, then admitted under the same name: once it has
           departed, its name is unknown again (RF702), not skipped *)
        {|{"op":"add","name":"a","demand":{"clb":500},"defrag":false}|};
        {|{"op":"add","name":"a","demand":{"clb":2}}|};
        {|{"op":"remove","name":"a"}|};
        {|{"op":"remove","name":"a"}|};
        {|{"op":"layout"}|};
        {|{"op":"shutdown"}|};
      ]
  in
  let outcomes = List.map (frame_string "outcome") lines in
  Alcotest.(check (list string))
    "outcome sequence"
    [
      "error"; "established"; "admitted"; "error"; "compacted"; "removed";
      "error"; "rejected"; "admitted"; "removed"; "error"; "ok";
    ]
    outcomes;
  let codes = List.map (frame_string "code") lines in
  Alcotest.(check string) "RF703 before layout" "RF703" (List.nth codes 0);
  Alcotest.(check string) "RF702 duplicate add" "RF702" (List.nth codes 3);
  Alcotest.(check string) "RF702 unknown remove" "RF702" (List.nth codes 6);
  Alcotest.(check string) "RF702 remove after re-admission" "RF702"
    (List.nth codes 10);
  Alcotest.(check bool) "RF706 clamp warned" true (List.mem "RF706" !warns);
  (* the final layout report is empty again *)
  match J.member "layout" (frame_json (List.nth lines 11)) with
  | Some lay ->
    Alcotest.(check bool)
      "empty layout" true
      (J.member "modules" lay = Some (J.Num 0.));
    Alcotest.(check bool)
      "zero occupancy" true
      (J.member "occupancy" lay = Some (J.Num 0.))
  | None -> Alcotest.fail "final layout frame lacks the layout summary"

(* The service and the replayer on the same seeded mini trace: the same
   outcome for every event (the service's "removed" is the replay's
   "departed") and the same final (name, rect) list.  The frames show
   no rectangle of a module a fallback re-placed, so the service's
   layout is read back through the wire: one-tile probes fill the free
   tiles, and a module's tiles are those the probes find free once it
   has departed. *)
let test_service_agrees_with_replay () =
  let module J = Rfloor_json in
  let part = Lazy.force mini_part in
  let events = Workload.generate ~seed:(Generators.base_seed ()) ~events:100 part in
  let kind k = String.lowercase_ascii (Resource.kind_to_string k) in
  let add ?(defrag = true) name demand =
    J.to_string
      (J.Obj
         ([ ("op", J.Str "add"); ("name", J.Str name);
            ("demand",
              J.Obj
                (List.map (fun (k, n) -> (kind k, J.Num (float_of_int n))) demand)) ]
         @ if defrag then [] else [ ("defrag", J.Bool false) ]))
  in
  let remove name =
    J.to_string (J.Obj [ ("op", J.Str "remove"); ("name", J.Str name) ])
  in
  let event_frame = function
    | Workload.Arrive { a_name; a_demand } -> add a_name a_demand
    | Workload.Depart { d_name } -> remove d_name
  in
  (* replay side *)
  let replayed = ref [] in
  let stats =
    Workload.replay
      ~on_event:(fun _ _ word -> replayed := word :: !replayed)
      part events
  in
  let replayed = List.rev !replayed in
  let final =
    List.map
      (fun (e : Layout.entry) -> (e.Layout.e_name, Rect.to_string e.Layout.e_rect))
      (Layout.entries stats.Workload.s_final)
  in
  (* service side: the trace, then a probe round after each departure
     of the replay's final modules (and one before the first) *)
  let probes r =
    List.concat_map
      (fun (k, n) ->
        List.init n (fun i -> (Printf.sprintf "probe%d.%s.%d" r (kind k) i, k)))
      (List.filter (fun (_, n) -> n > 0) (Grid.usable_tiles part.Partition.grid))
  in
  let round r =
    let ps = probes r in
    List.map (fun (p, k) -> add ~defrag:false p [ (k, 1) ]) ps
    @ List.map (fun (p, _) -> remove p) ps
  in
  let frames =
    ({|{"op":"layout","device":"mini"}|} :: List.map event_frame events)
    @ round 0
    @ List.concat
        (List.mapi (fun i (name, _) -> remove name :: round (i + 1)) final)
    @ [ {|{"op":"shutdown"}|} ]
  in
  let lines = Array.of_list (session_lines frames) in
  let n = List.length events in
  let served =
    List.init n (fun i ->
        match frame_string "outcome" lines.(i + 1) with
        | "removed" -> "departed"
        | w -> w)
  in
  let label i ev w = Format.asprintf "%d %a: %s" i Workload.pp_event ev w in
  Alcotest.(check (list string))
    "every event's outcome"
    (List.mapi (fun i w -> label i (List.nth events i) w) replayed)
    (List.mapi (fun i w -> label i (List.nth events i) w) served);
  let seen w = List.mem w replayed in
  if not ((seen "defrag" || seen "fallback") && seen "rejected" && seen "skipped")
  then
    Alcotest.failf "vacuous trace: no defrag or fallback, rejection or skip in %s"
      (String.concat " " replayed);
  (* the free tiles one probe round found, the round's reply lines
     starting at [at] *)
  let nprobes = List.length (probes 0) in
  let free_tiles at =
    List.concat
      (List.init nprobes (fun i ->
           match J.member "rect" (frame_json lines.(at + i)) with
           | Some r ->
             let get k =
               match J.member k r with
               | Some (J.Num f) -> int_of_float f
               | _ -> Alcotest.failf "probe rect lacks %s" k
             in
             List.concat
               (List.init (get "w") (fun dx ->
                    List.init (get "h") (fun dy -> (get "x" + dx, get "y" + dy))))
           | None -> []))
  in
  let round_len = 2 * nprobes in
  let first = n + 1 in
  let served_final =
    List.mapi
      (fun i (name, _) ->
        let at = first + round_len + (i * (round_len + 1)) in
        Alcotest.(check string) ("departure of " ^ name) "removed"
          (frame_string "outcome" lines.(at));
        let before = free_tiles (at - round_len) and after = free_tiles (at + 1) in
        let tiles = List.filter (fun t -> not (List.mem t before)) after in
        let xs = List.map fst tiles and ys = List.map snd tiles in
        let lo l = List.fold_left min max_int l and hi l = List.fold_left max 0 l in
        let rect =
          Rect.make ~x:(lo xs) ~y:(lo ys) ~w:(hi xs - lo xs + 1) ~h:(hi ys - lo ys + 1)
        in
        if Rect.area rect <> List.length tiles then
          Alcotest.failf "%s frees %d tiles, not a rectangle" name (List.length tiles);
        (name, Rect.to_string rect))
      final
  in
  Alcotest.(check (list (pair string string))) "final layout" final served_final;
  Alcotest.(check int) "no module left" (Layout.usable_area (Layout.create part))
    (List.length (free_tiles (first + (List.length final * (round_len + 1)))))

let suites =
  [
    ( "online",
      [
        Alcotest.test_case "MER incremental vs oracle (200 seeds)" `Slow
          test_mer_differential;
        Alcotest.test_case "admission best fit" `Quick test_admission_best_fit;
        Alcotest.test_case "admission duplicate/unknown" `Quick
          test_admission_rejects_dup_and_unknown;
        Alcotest.test_case "defrag minimal move + no-break" `Quick
          test_defrag_minimal_move;
        Alcotest.test_case "moved module payload preserved" `Quick
          test_moved_module_payload_preserved;
        Alcotest.test_case "no-break audit catches faults" `Quick
          test_no_break_audit_catches_faults;
        Alcotest.test_case "move rejects bad destination" `Quick
          test_move_rejects_bad_destination;
        Alcotest.test_case "workload deterministic" `Quick
          test_workload_deterministic;
        Alcotest.test_case "workload replay audits clean" `Quick
          test_workload_replay_audits_clean;
        Alcotest.test_case "admission = original scan (FX70T churn)" `Quick
          test_admission_matches_original_churn;
        Alcotest.test_case "admission = original scan (random layouts)" `Quick
          test_admission_matches_original_random;
        Alcotest.test_case "FX70T churn replay pinned" `Quick
          test_churn_replay_pinned;
        Alcotest.test_case "service online round-trip" `Quick
          test_service_online_roundtrip;
        Alcotest.test_case "service = replay, every event" `Quick
          test_service_agrees_with_replay;
      ] );
  ]
