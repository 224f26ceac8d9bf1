module R = Device.Rect
module P = Device.Partition
module D = Rfloor_diag.Diagnostic

type move = {
  mv_name : string;
  mv_src : R.t;
  mv_dst : R.t;
  mv_frames : int;
}

type plan =
  | Moves of move list * R.t
  | Fallback of (string * R.t) list

let rect_frames part rect =
  P.frames_of_demand part (Device.Compat.covered_demand part rect)

(* ---- breadth-first search over move sequences ---- *)

type state = {
  st_rects : (string * R.t) list;  (* sorted by module name *)
  st_mers : R.t list;
  st_moves : move list;  (* newest first *)
  st_frames : int;
}

let state_key st =
  String.concat ";"
    (List.map (fun (n, r) -> n ^ "=" ^ R.to_string r) st.st_rects)

let successors part st =
  List.concat_map
    (fun (name, src) ->
      let others = List.filter (fun (n, _) -> n <> name) st.st_rects in
      let occupied = List.map snd st.st_rects in
      (* [occupied] includes [src] itself, so every site is disjoint
         from the source — the copy the filter performs never reads
         cells it is overwriting *)
      let sites =
        Device.Compat.free_compatible_sites ~occupied part src
      in
      List.map
        (fun dst ->
          let frames = rect_frames part src in
          let mv = { mv_name = name; mv_src = src; mv_dst = dst;
                     mv_frames = frames } in
          let rects =
            List.sort (fun (a, _) (b, _) -> compare a b)
              ((name, dst) :: others)
          in
          let mers =
            Free_space.add
              (Free_space.remove part ~occupied:(List.map snd others)
                 st.st_mers src)
              dst
          in
          { st_rects = rects; st_mers = mers; st_moves = mv :: st.st_moves;
            st_frames = st.st_frames + frames })
        sites)
    st.st_rects

(* states a search may explore before it gives up *)
let max_states = 5000

let search part ~max_moves ~demand init =
  let visited = Hashtbl.create 256 in
  Hashtbl.replace visited (state_key init) ();
  let explored = ref 0 in
  let rec bfs level depth =
    if level = [] || depth >= max_moves then None
    else begin
      let next = ref [] in
      let goals = ref [] in
      List.iter
        (fun st ->
          List.iter
            (fun succ ->
              let key = state_key succ in
              if (not (Hashtbl.mem visited key)) && !explored < max_states
              then begin
                Hashtbl.replace visited key ();
                incr explored;
                match
                  Layout.admission_rect_in part ~mers:succ.st_mers demand
                with
                | Some r -> goals := (succ, r) :: !goals
                | None -> next := succ :: !next
              end)
            (successors part st))
        level;
      match !goals with
      | [] -> bfs !next (depth + 1)
      | gs ->
        Some
          (List.fold_left
             (fun (best, br) (st, r) ->
               if st.st_frames < best.st_frames then (st, r) else (best, br))
             (List.hd gs) (List.tl gs))
    end
  in
  bfs [ init ] 0

(* ---- residual full re-placement (no-break waived) ---- *)

(* the residual solve's budget, seconds on the monotonic clock *)
let time_limit = 5.

let residual_replace layout ~name ~demand =
  let positive d = List.filter (fun (_, n) -> n > 0) d in
  let regions =
    List.map
      (fun (e : Layout.entry) ->
        { Device.Spec.r_name = e.e_name; demand = positive e.e_demand })
      (Layout.entries layout)
    @ [ { Device.Spec.r_name = name; demand = positive demand } ]
  in
  match Device.Spec.make ~name:"defrag-residual" regions with
  | exception Invalid_argument msg ->
    Error
      (D.diagf ~code:"RF701" D.Error (D.Layout name)
         "residual instance rejected: %s" msg)
  | spec -> (
    let options =
      Rfloor.Solver.Options.make
        ~strategy:(Rfloor.Solver.Strategy.combinatorial ~time_limit ())
        ~time_limit ()
    in
    let out = Rfloor.Solver.feasible ~options (Layout.partition layout) spec in
    match out.Rfloor.Solver.plan with
    | Some fp ->
      Ok
        (Fallback
           (List.map
              (fun (p : Device.Floorplan.placement) ->
                (p.Device.Floorplan.p_region, p.Device.Floorplan.p_rect))
              fp.Device.Floorplan.placements))
    | None ->
      Error
        (D.diagf ~code:"RF701" D.Error (D.Layout name)
           "arrival %a inadmissible even after full re-placement (%s)"
           Device.Resource.pp_demand demand
           (match out.Rfloor.Solver.status with
           | Rfloor.Solver.Infeasible -> "proved infeasible"
           | _ -> "residual solve inconclusive")))

let plan ?(max_moves = 3) ?(fallback = true) layout ~name ~demand =
  if Layout.find layout name <> None then
    Error
      (D.diagf ~code:"RF702" D.Error (D.Layout name)
         "module %S is already placed" name)
  else if List.for_all (fun (_, n) -> n <= 0) demand then
    Error
      (D.diagf ~code:"RF701" D.Error (D.Layout name) "empty demand for %S"
         name)
  else
    let part = Layout.partition layout in
    let init =
      {
        st_rects =
          List.sort
            (fun (a, _) (b, _) -> compare a b)
            (List.map
               (fun (e : Layout.entry) -> (e.Layout.e_name, e.Layout.e_rect))
               (Layout.entries layout));
        st_mers = Layout.free_rects layout;
        st_moves = [];
        st_frames = 0;
      }
    in
    match search part ~max_moves ~demand init with
    | Some (st, r) -> Ok (Moves (List.rev st.st_moves, r))
    | None ->
      if fallback then residual_replace layout ~name ~demand
      else
        Error
          (D.diagf ~code:"RF701" D.Error (D.Layout name)
             "no move schedule within %d moves admits %a" max_moves
             Device.Resource.pp_demand demand)

let execute ?(on_move = fun _ -> ()) layout moves =
  List.fold_left
    (fun acc mv ->
      match acc with
      | Error _ as e -> e
      | Ok l -> (
        match Layout.move l mv.mv_name mv.mv_dst with
        | Ok l' ->
          on_move mv;
          Ok l'
        | Error _ as e -> e))
    (Ok layout) moves

let compact ?(max_moves = 3) layout =
  let part = Layout.partition layout in
  let usable = Layout.usable_area layout in
  let occ =
    List.fold_left
      (fun acc (e : Layout.entry) -> acc + R.area e.Layout.e_rect)
      0 (Layout.entries layout)
  in
  let free = usable - occ in
  let frag mers =
    if free = 0 then 0.
    else 1. -. (float_of_int (Free_space.largest_area mers) /. float_of_int free)
  in
  let rec go rects mers acc n =
    if n >= max_moves then List.rev acc
    else begin
      let current = frag mers in
      let best = ref None in
      List.iter
        (fun (name, src) ->
          let others = List.filter (fun (n', _) -> n' <> name) rects in
          let occupied = List.map snd rects in
          List.iter
            (fun dst ->
              let mers' =
                Free_space.add
                  (Free_space.remove part ~occupied:(List.map snd others)
                     mers src)
                  dst
              in
              let f = frag mers' in
              if f < current -. 1e-9 then begin
                let frames = rect_frames part src in
                let key = (f, frames) in
                match !best with
                | Some (k, _, _, _) when k <= key -> ()
                | _ ->
                  best :=
                    Some
                      ( key,
                        { mv_name = name; mv_src = src; mv_dst = dst;
                          mv_frames = frames },
                        (name, dst) :: others,
                        mers' )
              end)
            (Device.Compat.free_compatible_sites ~occupied part src))
        rects;
      match !best with
      | None -> List.rev acc
      | Some (_, mv, rects', mers') -> go rects' mers' (mv :: acc) (n + 1)
    end
  in
  go
    (List.map
       (fun (e : Layout.entry) -> (e.Layout.e_name, e.Layout.e_rect))
       (Layout.entries layout))
    (Layout.free_rects layout) [] 0
