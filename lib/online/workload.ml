module Res = Device.Resource
module D = Rfloor_diag.Diagnostic

type event =
  | Arrive of { a_name : string; a_demand : Res.demand }
  | Depart of { d_name : string }

let pp_event ppf = function
  | Arrive { a_name; a_demand } ->
    Format.fprintf ppf "arrive %s %a" a_name Res.pp_demand a_demand
  | Depart { d_name } -> Format.fprintf ppf "depart %s" d_name

(* Splitmix-style PRNG (same construction as the test generators):
   explicit state, reproducible from the seed alone. *)
module Prng = struct
  type t = { mutable s : int64 }

  let mix64 z =
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let make seed = { s = mix64 (Int64.of_int (seed + 0x5EED)) }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    mix64 t.s

  let int t n =
    if n <= 0 then invalid_arg "Prng.int: bound must be positive";
    Int64.to_int
      (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

  let range t lo hi = lo + int t (hi - lo + 1)
end

let generate ?(seed = 2015) ?(events = 100) part =
  let rng = Prng.make seed in
  let usable = Device.Grid.usable_tiles part.Device.Partition.grid in
  let avail k = Res.demand_get usable k in
  (* demands sized so ~4 modules fill the device's CLB budget *)
  let demand () =
    let clb = avail Res.Clb in
    let d =
      if clb > 0 then
        [ (Res.Clb, Prng.range rng (max 1 (clb / 12)) (max 2 (clb / 4))) ]
      else []
    in
    let d =
      if avail Res.Bram > 0 && Prng.int rng 3 = 0 then
        (Res.Bram, Prng.range rng 1 (max 1 (avail Res.Bram / 4))) :: d
      else d
    in
    let d =
      if avail Res.Dsp > 0 && Prng.int rng 4 = 0 then
        (Res.Dsp, Prng.range rng 1 (max 1 (avail Res.Dsp / 4))) :: d
      else d
    in
    if d = [] then [ (Res.Clb, 1) ] else List.rev d
  in
  let live = ref [] in
  let next_id = ref 0 in
  List.init events (fun _ ->
      let arrive = !live = [] || Prng.int rng 5 < 3 in
      if arrive then begin
        incr next_id;
        let name = Printf.sprintf "m%d" !next_id in
        live := name :: !live;
        Arrive { a_name = name; a_demand = demand () }
      end
      else begin
        let i = Prng.int rng (List.length !live) in
        let name = List.nth !live i in
        live := List.filter (fun n -> n <> name) !live;
        Depart { d_name = name }
      end)

type stats = {
  s_events : int;
  s_admitted : int;
  s_defrag_admitted : int;
  s_fallbacks : int;
  s_rejected : int;
  s_departed : int;
  s_moves : int;
  s_violations : string list;
  s_final : Layout.t;
}

let defrag_episodes s = s.s_defrag_admitted + s.s_fallbacks

(* Rebuild a layout from a full re-placement assignment (the RF704
   fallback path): every module is re-placed, images re-synthesized —
   precisely the guarantee the no-break planner exists to avoid. *)
let rebuild layout ~name ~demand assignment =
  let demands =
    (name, demand)
    :: List.map
         (fun (e : Layout.entry) -> (e.Layout.e_name, e.Layout.e_demand))
         (Layout.entries layout)
  in
  List.fold_left
    (fun acc (name, rect) ->
      match acc with
      | Error _ as e -> e
      | Ok l -> (
        match List.assoc_opt name demands with
        | None ->
          Error
            (D.diagf ~code:"RF702" D.Error (D.Layout name)
               "fallback assignment names unknown module %S" name)
        | Some demand -> Layout.place_at l name demand rect))
    (Ok (Layout.create (Layout.partition layout)))
    assignment

let no_break_violations ~before ~after ~moved =
  List.filter_map
    (fun (e : Layout.entry) ->
      let name = e.Layout.e_name in
      if List.mem name moved then None
      else
        match Layout.find after name with
        | None ->
          Some (Format.asprintf "defrag dropped non-moving module %S" name)
        | Some e' ->
          if Bitstream.Image.equal e.Layout.e_image e'.Layout.e_image then None
          else
            Some
              (Format.asprintf "defrag changed frames of non-moving module %S"
                 name))
    (Layout.entries before)

type state = { st_layout : Layout.t; st_turned_away : string list }

let start part = { st_layout = Layout.create part; st_turned_away = [] }

type outcome =
  | Admitted of Device.Rect.t
  | Defragged of Defrag.move list * Device.Rect.t
  | Fallback of Device.Rect.t
  | Rejected of D.t
  | Departed
  | Skipped
  | Failed of D.t

let outcome_word = function
  | Admitted _ -> "admitted"
  | Defragged _ -> "defrag"
  | Fallback _ -> "fallback"
  | Rejected _ -> "rejected"
  | Departed -> "departed"
  | Skipped -> "skipped"
  | Failed _ -> "error"

let forget name names =
  if List.mem name names then List.filter (fun n -> n <> name) names
  else names

let step ~defrag ~max_moves ~fallback ~on_move st ev =
  let l = st.st_layout in
  let admit name l' outcome =
    ( { st_layout = l'; st_turned_away = forget name st.st_turned_away },
      outcome )
  in
  let reject name d =
    ({ st with st_turned_away = name :: st.st_turned_away }, Rejected d)
  in
  match ev with
  | Depart { d_name } -> (
    match Layout.remove l d_name with
    | Ok l' -> ({ st with st_layout = l' }, Departed)
    | Error _ when List.mem d_name st.st_turned_away ->
      ({ st with st_turned_away = forget d_name st.st_turned_away }, Skipped)
    | Error d -> (st, Failed d))
  | Arrive { a_name; a_demand } -> (
    match Layout.place l a_name a_demand with
    | Ok (l', rect) -> admit a_name l' (Admitted rect)
    | Error d when d.D.code <> "RF701" -> (st, Failed d)
    | Error d when not defrag -> reject a_name d
    | Error _ -> (
      match Defrag.plan ~max_moves ~fallback l ~name:a_name ~demand:a_demand with
      | Error d -> reject a_name d
      | Ok (Defrag.Moves (schedule, _)) -> (
        match Defrag.execute ~on_move l schedule with
        | Error d -> (st, Failed d)
        | Ok l' -> (
          match Layout.place l' a_name a_demand with
          | Ok (l'', rect) -> admit a_name l'' (Defragged (schedule, rect))
          | Error d -> ({ st with st_layout = l' }, Failed d) (* moves kept *)))
      | Ok (Defrag.Fallback assignment) -> (
        match rebuild l ~name:a_name ~demand:a_demand assignment with
        | Error d -> (st, Failed d)
        | Ok l' -> (
          match Layout.find l' a_name with
          | Some e -> admit a_name l' (Fallback e.Layout.e_rect)
          | None ->
            ( st,
              Failed
                (D.diagf ~code:"RF701" D.Error (D.Layout a_name)
                   "fallback re-placement lost the arriving module") )))))

let replay ?(defrag = true) ?(max_moves = 3) ?(fallback = true)
    ?(check = true) ?(on_event = fun _ _ _ -> ()) part events =
  let violations = ref [] in
  let violate fmt =
    Format.kasprintf (fun m -> violations := m :: !violations) fmt
  in
  let admitted = ref 0 and defragged = ref 0 and fallbacks = ref 0 in
  let rejected = ref 0 and departed = ref 0 and moves = ref 0 in
  (* the modules the current event relocated, for its no-break audit *)
  let moved = ref [] in
  let on_move (m : Defrag.move) =
    incr moves;
    moved := m.Defrag.mv_name :: !moved
  in
  let final =
    List.fold_left
      (fun (i, st) ev ->
        moved := [];
        let st', outcome = step ~defrag ~max_moves ~fallback ~on_move st ev in
        if !moved <> [] then
          violations :=
            List.rev_append
              (no_break_violations ~before:st.st_layout ~after:st'.st_layout
                 ~moved:!moved)
              !violations;
        (match outcome with
        | Admitted _ -> incr admitted
        | Defragged _ -> incr defragged
        | Fallback _ -> incr fallbacks
        | Rejected _ -> incr rejected
        | Departed -> incr departed
        | Skipped -> ()
        | Failed d -> (
          match ev with
          | Arrive { a_name; _ } ->
            violate "arrival of %S failed: %s" a_name d.D.message
          | Depart { d_name } ->
            violate "departure of %S failed: %s" d_name d.D.message));
        on_event i ev (outcome_word outcome);
        if check && not (Layout.check_free_rects st'.st_layout) then
          violate "free-rectangle differential check failed after event %d" i;
        (i + 1, st'))
      (0, start part) events
    |> snd
  in
  {
    s_events = List.length events;
    s_admitted = !admitted;
    s_defrag_admitted = !defragged;
    s_fallbacks = !fallbacks;
    s_rejected = !rejected;
    s_departed = !departed;
    s_moves = !moves;
    s_violations = List.rev !violations;
    s_final = final.st_layout;
  }
