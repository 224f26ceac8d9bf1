(* Reference combinatorial engine for differential testing.

   This is the list-based branch and bound that [Search.Engine] used
   before its node kernel moved to flat arrays, frozen as an oracle
   together with the candidate enumeration it ran on (polymorphic
   compare on the rectangle record, as [Device.Rect.compare] was).  It
   shares no search or enumeration code with the live engine, so equal
   node counts, incumbent events and plans are evidence that the rewrite
   kept the search tree.  The options and outcome types are the live
   engine's, so both run from one set of options; the unused
   [region_order] knob is stripped.  The algorithm is otherwise
   untouched.  Do not "improve" this file — its value is being old. *)

open Device
module Engine = Search.Engine

type candidate = { rect : Rect.t; waste : int }

(* ---------------- candidate enumeration ---------------- *)

let kind_index = function
  | Resource.Clb -> 0
  | Resource.Bram -> 1
  | Resource.Dsp -> 2
  | Resource.Io -> 3

let prefix_counts part =
  let w = Partition.width part in
  let pref = Array.make_matrix 4 (w + 1) 0 in
  for x = 1 to w do
    let k = kind_index (Partition.column_type part x).Resource.kind in
    for ki = 0 to 3 do
      pref.(ki).(x) <- pref.(ki).(x - 1) + if ki = k then 1 else 0
    done
  done;
  pref

let window_kind_counts pref x w =
  Array.init 4 (fun ki -> pref.(ki).(x + w - 1) - pref.(ki).(x - 1))

let demand_by_index demand =
  let d = Array.make 4 0 in
  List.iter
    (fun (k, n) -> d.(kind_index k) <- d.(kind_index k) + n)
    demand;
  d

let min_height_for d counts =
  let h = ref 1 and ok = ref true in
  for ki = 0 to 3 do
    if d.(ki) > 0 then
      if counts.(ki) = 0 then ok := false
      else h := max !h ((d.(ki) + counts.(ki) - 1) / counts.(ki))
  done;
  if !ok then Some !h else None

let frames_by_index part =
  let frames = Grid.frames part.Partition.grid in
  [|
    frames Resource.Clb; frames Resource.Bram; frames Resource.Dsp;
    frames Resource.Io;
  |]

let waste_of part_frames d counts h =
  let acc = ref 0 in
  for ki = 0 to 3 do
    acc := !acc + (part_frames.(ki) * ((h * counts.(ki)) - d.(ki)))
  done;
  !acc

let rect_compare (a : Rect.t) b = compare a b

let enumerate part demand =
  let width = Partition.width part and height = Partition.height part in
  let pref = prefix_counts part in
  let d = demand_by_index demand in
  let fr = frames_by_index part in
  let out = ref [] in
  for x = 1 to width do
    for w = 1 to width - x + 1 do
      let counts = window_kind_counts pref x w in
      match min_height_for d counts with
      | None -> ()
      | Some hmin ->
        for h = hmin to height do
          let waste = waste_of fr d counts h in
          for y = 1 to height - h + 1 do
            let rect = Rect.make ~x ~y ~w ~h in
            if not (Grid.rect_hits_forbidden part.Partition.grid rect) then
              out := { rect; waste } :: !out
          done
        done
    done
  done;
  List.sort
    (fun a b ->
      match compare a.waste b.waste with 0 -> rect_compare a.rect b.rect | c -> c)
    !out

(* ---------------- search ---------------- *)

exception Budget_exhausted
exception Cancelled_exn
exception Found_one

type entity = {
  e_region : Spec.region;
  e_cands : candidate array; (* waste ascending *)
  e_hard_copies : int;
}

let hard_copies (spec : Spec.t) name =
  List.fold_left
    (fun acc (rr : Spec.reloc_req) ->
      match rr.Spec.mode with
      | Spec.Hard when rr.Spec.target = name -> acc + rr.Spec.copies
      | Spec.Hard | Spec.Soft _ -> acc)
    0 spec.Spec.relocs

let order_entities (spec : Spec.t) part =
  let frames = Grid.frames part.Partition.grid in
  let weight (r : Spec.region) =
    Resource.demand_frames ~frames r.Spec.demand
  in
  let regions =
    List.sort (fun a b -> compare (weight b) (weight a)) spec.Spec.regions
  in
  List.map
    (fun (r : Spec.region) ->
      {
        e_region = r;
        e_cands = Array.of_list (enumerate part r.Spec.demand);
        e_hard_copies = hard_copies spec r.Spec.r_name;
      })
    regions

let add_soft_areas part (spec : Spec.t) plan =
  let soft =
    List.filter_map
      (fun (rr : Spec.reloc_req) ->
        match rr.Spec.mode with
        | Spec.Soft w -> Some (w, rr)
        | Spec.Hard -> None)
      spec.Spec.relocs
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  let occupied = ref (Floorplan.all_rects plan) in
  let extra = ref [] in
  List.iter
    (fun (_, (rr : Spec.reloc_req)) ->
      match Floorplan.rect_of plan rr.Spec.target with
      | None -> ()
      | Some rect ->
        let base = List.length (Floorplan.fc_for plan rr.Spec.target) in
        let placed = ref 0 in
        let sites =
          Compat.free_compatible_sites ~occupied:!occupied part rect
        in
        List.iter
          (fun site ->
            if
              !placed < rr.Spec.copies
              && not (List.exists (Rect.overlaps site) !occupied)
            then begin
              incr placed;
              occupied := site :: !occupied;
              extra :=
                {
                  Floorplan.fc_region = rr.Spec.target;
                  fc_index = base + !placed;
                  fc_rect = site;
                }
                :: !extra
            end)
          sites)
    soft;
  { plan with Floorplan.fc_areas = plan.Floorplan.fc_areas @ List.rev !extra }

type search_mode =
  | Min_waste of { stop_at_first : bool }
  | Min_wirelength of { waste_budget : int }

let coverage_of part rect =
  let cov = Array.make 4 0 in
  List.iter
    (fun (k, n) -> cov.(kind_index k) <- n)
    (Compat.covered_demand part rect);
  cov

let search ~(options : Engine.options) ~mode part (spec : Spec.t) entities =
  Rfloor_trace.span options.Engine.trace Rfloor_trace.Event.Branch_bound
  @@ fun () ->
  let t0 = Sys.time () in
  let nodes = ref 0 in
  let stopped = ref None in
  let entities = Array.of_list entities in
  let n = Array.length entities in
  let min_remaining = Array.make (n + 1) 0 in
  let unplaceable = ref false in
  for i = n - 1 downto 0 do
    let c = entities.(i).e_cands in
    if Array.length c = 0 then unplaceable := true
    else min_remaining.(i) <- min_remaining.(i + 1) + c.(0).waste
  done;
  let capacity =
    let cap = Array.make 4 0 in
    let g = part.Partition.grid in
    for col = 1 to Partition.width part do
      let k = kind_index (Partition.column_type part col).Resource.kind in
      for row = 1 to Partition.height part do
        if not (Grid.in_forbidden g col row) then cap.(k) <- cap.(k) + 1
      done
    done;
    cap
  in
  let cand_coverage =
    Array.map
      (fun e -> Array.map (fun c -> coverage_of part c.rect) e.e_cands)
      entities
  in
  let min_cov_suffix = Array.make_matrix (n + 1) 4 0 in
  for i = n - 1 downto 0 do
    let covs = cand_coverage.(i) in
    let mult = 1 + entities.(i).e_hard_copies in
    for k = 0 to 3 do
      let m = ref max_int in
      Array.iter (fun cov -> if cov.(k) < !m then m := cov.(k)) covs;
      let m = if !m = max_int then 0 else !m in
      min_cov_suffix.(i).(k) <- min_cov_suffix.(i + 1).(k) + (mult * m)
    done
  done;
  let best_waste = ref max_int and best_wl = ref infinity in
  let best_plan = ref None in
  let budget_check () =
    incr nodes;
    if !nodes land 1023 = 0 then begin
      if options.Engine.cancel () then raise Cancelled_exn;
      (match options.Engine.node_limit with
      | Some nl when !nodes >= nl -> raise Budget_exhausted
      | _ -> ());
      match options.Engine.time_limit with
      | Some tl when Sys.time () -. t0 > tl -> raise Budget_exhausted
      | _ -> ()
    end
  in
  let net_list = spec.Spec.nets in
  let wl_between placements =
    List.fold_left
      (fun acc (nt : Spec.net) ->
        match
          ( List.assoc_opt nt.Spec.src placements,
            List.assoc_opt nt.Spec.dst placements )
        with
        | Some a, Some b -> acc +. (nt.Spec.weight *. Rect.manhattan_centers a b)
        | _ -> acc)
      0. net_list
  in
  let record placements fcs waste =
    let plan =
      Floorplan.make
        (List.rev_map
           (fun (name, rect) -> { Floorplan.p_region = name; p_rect = rect })
           placements)
        (List.rev fcs)
    in
    let wl = wl_between placements in
    match mode with
    | Min_waste { stop_at_first } ->
      if waste < !best_waste then begin
        best_waste := waste;
        best_wl := wl;
        best_plan := Some plan;
        Rfloor_trace.incumbent options.Engine.trace ~worker:0
          ~objective:(float_of_int waste) ~node:!nodes;
        (match options.Engine.on_improvement with
        | Some f -> f plan waste
        | None -> ());
        if stop_at_first then raise Found_one
      end
    | Min_wirelength _ ->
      if wl < !best_wl -. 1e-9 then begin
        best_wl := wl;
        best_waste := min !best_waste waste;
        best_plan := Some plan;
        Rfloor_trace.incumbent options.Engine.trace ~worker:0 ~objective:wl
          ~node:!nodes
      end
  in
  let waste_cap () =
    match mode with
    | Min_waste _ -> !best_waste
    | Min_wirelength { waste_budget } -> waste_budget + 1
  in
  let overlaps_any rect placed =
    List.exists (fun (_, r) -> Rect.overlaps rect r) placed
  in
  let rec choose_sites k start sites placed acc kont =
    if k = 0 then kont (List.rev acc)
    else begin
      let nsites = Array.length sites in
      for idx = start to nsites - k do
        let site = sites.(idx) in
        if
          (not (overlaps_any site placed))
          && not (List.exists (Rect.overlaps site) acc)
        then
          choose_sites (k - 1) (idx + 1) sites placed (site :: acc) kont
      done
    end
  in
  let used = Array.make 4 0 in
  let rec place i placed placements fcs waste wl =
    budget_check ();
    if i = n then record placements fcs waste
    else begin
      let e = entities.(i) in
      let cands = e.e_cands in
      let ncands = Array.length cands in
      let mult = 1 + e.e_hard_copies in
      let continue_ = ref true in
      let ci = ref 0 in
      while !continue_ && !ci < ncands do
        let cidx = !ci in
        let c = cands.(cidx) in
        incr ci;
        let lb = waste + c.waste + min_remaining.(i + 1) in
        if lb >= waste_cap () then continue_ := false
        else begin
          let cov = cand_coverage.(i).(cidx) in
          let cap_ok = ref true in
          for k = 0 to 3 do
            if
              used.(k) + (mult * cov.(k)) + min_cov_suffix.(i + 1).(k)
              > capacity.(k)
            then cap_ok := false
          done;
          let rect = c.rect in
          if !cap_ok && not (overlaps_any rect placed) then begin
            let name = e.e_region.Spec.r_name in
            let placements' = (name, rect) :: placements in
            let wl' =
              List.fold_left
                (fun acc (nt : Spec.net) ->
                  let other =
                    if nt.Spec.src = name then Some nt.Spec.dst
                    else if nt.Spec.dst = name then Some nt.Spec.src
                    else None
                  in
                  match other with
                  | None -> acc
                  | Some o -> (
                    match List.assoc_opt o placements with
                    | None -> acc
                    | Some r ->
                      acc +. (nt.Spec.weight *. Rect.manhattan_centers rect r)))
                wl net_list
            in
            let wl_prune =
              match mode with
              | Min_wirelength _ -> wl' >= !best_wl -. 1e-9
              | Min_waste _ -> false
            in
            if not wl_prune then begin
              for k = 0 to 3 do
                used.(k) <- used.(k) + (mult * cov.(k))
              done;
              let placed' = (name, rect) :: placed in
              (if e.e_hard_copies = 0 then
                place (i + 1) placed' placements' fcs (waste + c.waste) wl'
              else begin
                let sites =
                  Array.of_list (Compat.relocation_sites part rect)
                in
                let sites =
                  Array.of_list
                    (List.filter
                       (fun s -> not (Rect.equal s rect))
                       (Array.to_list sites))
                in
                choose_sites e.e_hard_copies 0 sites placed' [] (fun chosen ->
                    budget_check ();
                    let fcs' =
                      List.mapi
                        (fun k site ->
                          {
                            Floorplan.fc_region = name;
                            fc_index = k + 1;
                            fc_rect = site;
                          })
                        chosen
                      @ fcs
                    in
                    let placed'' =
                      List.map (fun s -> ("fc:" ^ name, s)) chosen @ placed'
                    in
                    place (i + 1) placed'' placements' fcs'
                      (waste + c.waste)
                      wl')
              end);
              for k = 0 to 3 do
                used.(k) <- used.(k) - (mult * cov.(k))
              done
            end
          end
        end
      done
    end
  in
  let optimal = ref true in
  if not !unplaceable then begin
    try place 0 [] [] [] 0 0. with
    | Budget_exhausted ->
      stopped := Some Engine.Budget;
      optimal := false
    | Cancelled_exn ->
      stopped := Some Engine.Cancelled;
      optimal := false;
      Rfloor_trace.stopped options.Engine.trace ~worker:0 "cancel"
    | Found_one -> ()
  end;
  let elapsed = Sys.time () -. t0 in
  Rfloor_trace.add_worker_totals options.Engine.trace ~worker:0 ~nodes:!nodes
    ~iterations:0;
  ( !best_plan,
    (if !best_waste = max_int then None else Some !best_waste),
    (if !best_wl = infinity then None else Some !best_wl),
    !optimal,
    !nodes,
    elapsed,
    !stopped )

let finish part spec (plan, waste, wl, optimal, nodes, elapsed, stop) =
  let plan = Option.map (add_soft_areas part spec) plan in
  let wasted =
    match (plan, waste) with
    | Some p, _ -> Some (Floorplan.wasted_frames part spec p)
    | None, w -> w
  in
  let wirelength =
    match plan with Some p -> Some (Floorplan.wirelength spec p) | None -> wl
  in
  { Engine.plan; wasted; wirelength; optimal; nodes; elapsed; stop }

let solve ?(options = Engine.default_options) part spec =
  let entities = order_entities spec part in
  let r1 =
    search ~options ~mode:(Min_waste { stop_at_first = false }) part spec
      entities
  in
  let plan1, waste1, _, opt1, nodes1, el1, stop1 = r1 in
  match (plan1, waste1) with
  | None, _ | _, None ->
    finish part spec (plan1, waste1, None, opt1, nodes1, el1, stop1)
  | Some _, Some w when options.Engine.optimize_wirelength && opt1 ->
    Rfloor_trace.restart options.Engine.trace "wirelength";
    let plan2, waste2, wl2, opt2, nodes2, el2, stop2 =
      search ~options ~mode:(Min_wirelength { waste_budget = w }) part spec
        entities
    in
    let plan = match plan2 with Some p -> Some p | None -> plan1 in
    finish part spec
      ( plan,
        (match waste2 with Some _ -> Some w | None -> waste1),
        wl2,
        opt1 && opt2,
        nodes1 + nodes2,
        el1 +. el2,
        (match stop2 with Some _ -> stop2 | None -> stop1) )
  | Some _, Some _ -> finish part spec r1

let feasible ?(options = Engine.default_options) part spec =
  let entities = order_entities spec part in
  let r =
    search ~options ~mode:(Min_waste { stop_at_first = true }) part spec
      entities
  in
  finish part spec r
