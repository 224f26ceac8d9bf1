open Device

type stop_reason = Budget | Cancelled

type options = {
  time_limit : float option;
  node_limit : int option;
  optimize_wirelength : bool;
  trace : Rfloor_trace.t;
  cancel : unit -> bool;
  on_improvement : (Floorplan.t -> int -> unit) option;
}

let default_options =
  {
    time_limit = None;
    node_limit = None;
    optimize_wirelength = true;
    trace = Rfloor_trace.disabled;
    cancel = (fun () -> false);
    on_improvement = None;
  }

type outcome = {
  plan : Floorplan.t option;
  wasted : int option;
  wirelength : float option;
  optimal : bool;
  nodes : int;
  elapsed : float;
  stop : stop_reason option;
}

exception Budget_exhausted
exception Cancelled_exn
exception Found_one

let hard_copies (spec : Spec.t) name =
  List.fold_left
    (fun acc (rr : Spec.reloc_req) ->
      match rr.Spec.mode with
      | Spec.Hard when rr.Spec.target = name -> acc + rr.Spec.copies
      | Spec.Hard | Spec.Soft _ -> acc)
    0 spec.Spec.relocs

(* Greedy best-effort placement of soft free-compatible areas on a
   finished floorplan, heaviest weight first. *)
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

(* Per-solve tables, built once and shared by the waste and wire-length
   stages.  Entities are the regions in placement order (decreasing
   frame demand); a candidate is [Candidates.stride] ints (x, y, w, h,
   waste) of its entity's generator, which writes its candidates one
   waste level at a time as the search reaches them. *)
type tables = {
  names : string array;
  copies : int array;  (* hard free-compatible copies per entity *)
  gens : Candidates.generator array;
  cands : int array array;  (* per entity: its generator's data *)
  unplaceable : bool;  (* some entity has no candidate *)
  min_remaining : int array;
      (* [n + 1]: cheapest candidate wastes summed over entities i.. *)
  capacity : int array;  (* usable tiles per kind *)
  min_cov : int array;
      (* [4 * (n + 1)]: least coverage per kind of entities i.. and
          their copies *)
  pref : int array;  (* {!Candidates.prefix_counts} *)
  width1 : int;  (* row length of [pref] *)
  near : int array array;
      (* per entity: the earlier entity of each net it ends, in
          spec-net order *)
  near_w : float array array;  (* ... and that net's weight *)
  net_a : int array;  (* nets resolved to entity indices, spec order *)
  net_b : int array;
  net_w : float array;
  boxes : int array array;
      (* per entity, per block of [block] candidates: the least and
          greatest doubled centre x, then y, of its written candidates *)
  sites : int array array array;
      (* per entity with copies, per candidate: its hard-copy sites as
          (x, y) pairs, filled on first visit ([unknown] until then) *)
}

let unknown : int array = [| 0 |]

(* Candidates per block of the wire-length stage's block bound. *)
let block = 8

let[@inline] coverage pref width1 k x w h =
  let row = k * width1 in
  h * (pref.(row + x + w - 1) - pref.(row + x - 1))

(* The Manhattan distance between two centres given doubled, as
   (2x + w, 2y + h).  Centres are half-integers, so their differences,
   the absolute values and the sum are exact in floating point: twice
   the distance, computed on ints and halved, is the same float as
   [Rect.manhattan_centers]. *)
let[@inline] half_distance ax ay bx by =
  float_of_int (abs (ax - bx) + abs (ay - by)) *. 0.5

(* [Rect.manhattan_centers] on the fields. *)
let[@inline] manhattan ax ay aw ah bx by bw bh =
  half_distance ((2 * ax) + aw) ((2 * ay) + ah) ((2 * bx) + bw) ((2 * by) + bh)

(* [a] grown to at least [len] ints, new slots [fill]. *)
let grow a len fill =
  if Array.length a >= len then a
  else begin
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Brings entity [i]'s data, block boxes and sites memo up to its
   generator, whose candidates [from..] were just written. *)
let extend t i from =
  let stride = Candidates.stride in
  let cs = Candidates.data t.gens.(i) in
  let room = Array.length cs / stride in
  t.cands.(i) <- cs;
  t.boxes.(i) <- grow t.boxes.(i) (4 * ((room + block - 1) / block)) 0;
  if t.copies.(i) > 0 then t.sites.(i) <- grow t.sites.(i) room unknown;
  let boxes = t.boxes.(i) in
  for c = from to Candidates.written t.gens.(i) - 1 do
    let o = stride * c and b = 4 * (c / block) in
    let cx = (2 * cs.(o)) + cs.(o + 2) and cy = (2 * cs.(o + 1)) + cs.(o + 3) in
    if c mod block = 0 then begin
      boxes.(b) <- cx;
      boxes.(b + 1) <- cx;
      boxes.(b + 2) <- cy;
      boxes.(b + 3) <- cy
    end
    else begin
      boxes.(b) <- min boxes.(b) cx;
      boxes.(b + 1) <- max boxes.(b + 1) cx;
      boxes.(b + 2) <- min boxes.(b + 2) cy;
      boxes.(b + 3) <- max boxes.(b + 3) cy
    end
  done

let write_level t i =
  let from = Candidates.written t.gens.(i) in
  Candidates.write_level t.gens.(i);
  extend t i from

let tables (spec : Spec.t) part =
  let frames = Grid.frames part.Partition.grid in
  let weight (r : Spec.region) =
    Resource.demand_frames ~frames r.Spec.demand
  in
  let regions =
    Array.of_list
      (List.sort (fun a b -> compare (weight b) (weight a)) spec.Spec.regions)
  in
  let n = Array.length regions in
  let names = Array.map (fun (r : Spec.region) -> r.Spec.r_name) regions in
  let copies = Array.map (hard_copies spec) names in
  let gens =
    Array.map
      (fun (r : Spec.region) -> Candidates.generator part r.Spec.demand)
      regions
  in
  (* the cheapest candidate of each entity: its first non-empty level *)
  Array.iter Candidates.write_first gens;
  let min_remaining = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    if Candidates.written gens.(i) > 0 then
      min_remaining.(i) <- min_remaining.(i + 1) + (Candidates.data gens.(i)).(4)
  done;
  (* Per-kind tile capacity pruning: placed coverage plus a lower bound
     on the coverage of every remaining entity (regions and their
     compatible copies, which cover exactly what the region covers) can
     never exceed the device's usable tiles of that kind.  This is what
     proves the matched-filter / video-decoder duplication infeasible
     quickly: DSP tiles are exactly exhausted, so any DSP-wasting
     candidate dies immediately. *)
  let capacity = Array.make 4 0 in
  let g = part.Partition.grid in
  for col = 1 to Partition.width part do
    let k =
      Candidates.kind_index (Partition.column_type part col).Resource.kind
    in
    for row = 1 to Partition.height part do
      if not (Grid.in_forbidden g col row) then
        capacity.(k) <- capacity.(k) + 1
    done
  done;
  let pref = Candidates.prefix_counts part in
  let width1 = Partition.width part + 1 in
  let min_cov = Array.make (4 * (n + 1)) 0 in
  for i = n - 1 downto 0 do
    let least = Candidates.least_coverage gens.(i) in
    for k = 0 to 3 do
      min_cov.((4 * i) + k) <-
        min_cov.((4 * (i + 1)) + k) + ((1 + copies.(i)) * least.(k))
    done
  done;
  let index name =
    let rec go i = if i = n then -1 else if names.(i) = name then i else go (i + 1) in
    go 0
  in
  (* per entity: (earlier entity, weight) of each net it ends *)
  let near =
    Array.init n (fun i ->
        List.filter_map
          (fun (nt : Spec.net) ->
            let other =
              if nt.Spec.src = names.(i) then index nt.Spec.dst
              else if nt.Spec.dst = names.(i) then index nt.Spec.src
              else -1
            in
            if other >= 0 && other < i then Some (other, nt.Spec.weight)
            else None)
          spec.Spec.nets)
  in
  let resolved =
    List.filter_map
      (fun (nt : Spec.net) ->
        let a = index nt.Spec.src and b = index nt.Spec.dst in
        if a >= 0 && b >= 0 then Some (a, b, nt.Spec.weight) else None)
      spec.Spec.nets
  in
  let t =
    {
      names;
      copies;
      gens;
      cands = Array.map Candidates.data gens;
      unplaceable = Array.exists (fun g -> Candidates.written g = 0) gens;
      min_remaining;
      capacity;
      min_cov;
      pref;
      width1;
      near = Array.map (fun l -> Array.of_list (List.map fst l)) near;
      near_w = Array.map (fun l -> Array.of_list (List.map snd l)) near;
      net_a = Array.of_list (List.map (fun (a, _, _) -> a) resolved);
      net_b = Array.of_list (List.map (fun (_, b, _) -> b) resolved);
      net_w = Array.of_list (List.map (fun (_, _, w) -> w) resolved);
      boxes = Array.make n [||];
      sites = Array.make n [||];
    }
  in
  for i = 0 to n - 1 do
    extend t i 0
  done;
  t

(* The hard-copy sites of candidate [c] of entity [i]: its relocation
   sites other than itself, in [Compat.relocation_sites] order. *)
let sites_of part t i c =
  let s = t.sites.(i).(c) in
  if s != unknown then s
  else begin
    let cs = t.cands.(i) and o = Candidates.stride * c in
    let rect =
      { Rect.x = cs.(o); y = cs.(o + 1); w = cs.(o + 2); h = cs.(o + 3) }
    in
    let l =
      List.filter
        (fun s -> not (Rect.equal s rect))
        (Compat.relocation_sites part rect)
    in
    let a = Array.make (2 * List.length l) 0 in
    List.iteri
      (fun j (r : Rect.t) ->
        a.(2 * j) <- r.Rect.x;
        a.((2 * j) + 1) <- r.Rect.y)
      l;
    t.sites.(i).(c) <- a;
    a
  end

(* A lower bound on the wire length the wire-length stage has still to
   resolve, for the waste budget [budget]: [rest.(i)] sums weight *
   delta over the nets whose later endpoint is entity [i] or later
   (a net from a region to itself has length 0 and is not counted).
   Only candidates of entity [i] whose waste is at most its cheapest
   plus [budget - min_remaining.(0)] can be placed in that stage; the
   waste cap ends every other scan.  A net's delta is the least centre
   distance over disjoint pairs of such candidates of its two ends (0
   when there is none).  Every complete placement of the stage uses
   them, pairwise disjoint, so [rest.(i)] never exceeds the wire length
   of the nets it counts (weights are non-negative bus widths, which
   [Spec.make] enforces and the partial-sum prune also needs). *)
let wire_floor t budget =
  let n = Array.length t.names and stride = Candidates.stride in
  let slack = budget - t.min_remaining.(0) in
  let eligible =
    Array.init n (fun i ->
        let g = t.gens.(i) in
        let m = Candidates.written g in
        if m = 0 then 0
        else begin
          let top = t.cands.(i).(4) + slack in
          while (not (Candidates.exhausted g)) && Candidates.next_waste g <= top do
            write_level t i
          done;
          let cs = t.cands.(i) and m = Candidates.written g in
          let k = ref 0 in
          while !k < m && cs.((stride * !k) + 4) <= top do
            incr k
          done;
          !k
        end)
  in
  let delta a b =
    let ca = t.cands.(a) and cb = t.cands.(b) in
    let best = ref infinity in
    for p = 0 to eligible.(a) - 1 do
      let oa = stride * p in
      let ax = ca.(oa) and ay = ca.(oa + 1) and aw = ca.(oa + 2)
      and ah = ca.(oa + 3) in
      for q = 0 to eligible.(b) - 1 do
        let ob = stride * q in
        let bx = cb.(ob) and by = cb.(ob + 1) and bw = cb.(ob + 2)
        and bh = cb.(ob + 3) in
        if ax + aw <= bx || bx + bw <= ax || ay + ah <= by || by + bh <= ay
        then begin
          let d = manhattan ax ay aw ah bx by bw bh in
          if d < !best then best := d
        end
      done
    done;
    if !best = infinity then 0. else !best
  in
  (* [near.(i)] holds exactly the nets whose later endpoint is [i] *)
  let rest = Array.make (n + 1) 0. in
  for i = n - 1 downto 0 do
    let near = t.near.(i) and near_w = t.near_w.(i) in
    let acc = ref rest.(i + 1) in
    for j = 0 to Array.length near - 1 do
      acc := !acc +. (near_w.(j) *. delta i near.(j))
    done;
    rest.(i) <- !acc
  done;
  rest

(* Wire length of a complete assignment, summed over the nets in spec
   order. *)
let[@inline] leaf_wirelength t cur =
  let acc = ref 0. in
  for j = 0 to Array.length t.net_a - 1 do
    let a = t.net_a.(j) and b = t.net_b.(j) in
    let ca = t.cands.(a) and oa = Candidates.stride * cur.(a) in
    let cb = t.cands.(b) and ob = Candidates.stride * cur.(b) in
    acc :=
      !acc
      +. t.net_w.(j)
         *. manhattan ca.(oa) ca.(oa + 1) ca.(oa + 2) ca.(oa + 3) cb.(ob)
              cb.(ob + 1) cb.(ob + 2) cb.(ob + 3)
  done;
  !acc

(* The floorplan of a complete assignment: placements in entity order;
   free-compatible areas entity by entity, each entity's copies from
   the last index down to 1. *)
let plan_of t cur slot0 site_at =
  let n = Array.length t.names in
  let rect_at i =
    let cs = t.cands.(i) and o = Candidates.stride * cur.(i) in
    { Rect.x = cs.(o); y = cs.(o + 1); w = cs.(o + 2); h = cs.(o + 3) }
  in
  let placements =
    List.init n (fun i ->
        { Floorplan.p_region = t.names.(i); p_rect = rect_at i })
  in
  let fcs =
    List.concat
      (List.init n (fun i ->
           let r = rect_at i and k = t.copies.(i) in
           let sites = if k = 0 then [||] else t.sites.(i).(cur.(i)) in
           List.init k (fun j ->
               let idx = site_at.(slot0.(i) + k - 1 - j) in
               {
                 Floorplan.fc_region = t.names.(i);
                 fc_index = k - j;
                 fc_rect =
                   { r with Rect.x = sites.(2 * idx); y = sites.((2 * idx) + 1) };
               })))
  in
  Floorplan.make placements fcs

(* Core branch and bound.  Places entities in order, each over its
   candidates in waste order; immediately after a region, its hard
   free-compatible copies are placed (all combinations of disjoint
   compatible sites are explored, site indices increasing, to avoid
   permutation symmetry).  A node is counted at every [place] call and
   at every completed choice of copies.  The state is flat: the chosen
   candidate per entity, the chosen site per copy, the placed
   rectangles as (x1, y1, x2, y2) on an int stack, the per-kind tiles
   used, the wire length before each entity, and per entity the
   doubled centres of its nets' placed ends. *)
let search ~options ~mode part t =
  Rfloor_trace.span options.trace Rfloor_trace.Event.Branch_bound @@ fun () ->
  let t0 = Rfloor_trace.clock () in
  let nodes = ref 0 in
  let stopped = ref None in
  let n = Array.length t.names in
  let stride = Candidates.stride in
  let slot0 = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    slot0.(i + 1) <- slot0.(i) + t.copies.(i)
  done;
  let cur = Array.make n 0 in
  let site_at = Array.make slot0.(n) 0 in
  let wl_at = Array.make (n + 1) 0. in
  let ends_at = Array.map (fun near -> Array.make (2 * Array.length near) 0) t.near in
  let stack = Array.make (4 * (n + slot0.(n))) 0 and top = ref 0 in
  let used = Array.make 4 0 in
  let pref = t.pref and width1 = t.width1 in
  let best_waste = ref max_int and best_wl = ref infinity in
  let best_plan = ref None in
  let wirelength_stage, cap, rest_wl =
    match mode with
    | Min_waste _ -> (false, ref max_int, [||])
    | Min_wirelength { waste_budget } ->
      (true, ref (waste_budget + 1), wire_floor t waste_budget)
  in
  let budget_check () =
    incr nodes;
    if !nodes land 1023 = 0 then begin
      if options.cancel () then raise Cancelled_exn;
      (match options.node_limit with
      | Some nl when !nodes >= nl -> raise Budget_exhausted
      | _ -> ());
      match options.time_limit with
      | Some tl when Rfloor_trace.clock () -. t0 > tl -> raise Budget_exhausted
      | _ -> ()
    end
  in
  let record waste =
    match mode with
    | Min_waste { stop_at_first } ->
      if waste < !best_waste then begin
        let plan = plan_of t cur slot0 site_at in
        best_waste := waste;
        cap := waste;
        best_wl := leaf_wirelength t cur;
        best_plan := Some plan;
        Rfloor_trace.incumbent options.trace ~worker:0
          ~objective:(float_of_int waste) ~node:!nodes;
        (match options.on_improvement with
        | Some f -> f plan waste
        | None -> ());
        if stop_at_first then raise Found_one
      end
    | Min_wirelength _ ->
      let wl = leaf_wirelength t cur in
      if wl < !best_wl -. 1e-9 then begin
        best_wl := wl;
        best_waste := min !best_waste waste;
        best_plan := Some (plan_of t cur slot0 site_at);
        Rfloor_trace.incumbent options.trace ~worker:0 ~objective:wl
          ~node:!nodes
      end
  in
  let overlaps x1 y1 x2 y2 =
    let hit = ref false and p = ref 0 in
    while (not !hit) && !p < !top do
      let q = !p in
      if
        x1 <= stack.(q + 2) && stack.(q) <= x2 && y1 <= stack.(q + 3)
        && stack.(q + 1) <= y2
      then hit := true;
      p := q + 4
    done;
    !hit
  in
  (* the tiles of every kind still suffice for entities [next..] after
     placing [mult] copies of (x, w, h) *)
  let fits next mult x w h =
    let ok = ref true in
    for k = 0 to 3 do
      if
        used.(k)
        + (mult * coverage pref width1 k x w h)
        + t.min_cov.((4 * next) + k)
        > t.capacity.(k)
      then ok := false
    done;
    !ok
  in
  (* The wire-length test on a whole block of entity [i]'s candidates:
     each net it ends taken to the block's box of doubled centres.  Each
     term is at most the one any candidate of the block gets, and float
     rounding is monotone, so when the block fails the test every
     candidate in it fails it too. *)
  let block_fails i b =
    let boxes = t.boxes.(i) and near = t.near.(i) and near_w = t.near_w.(i)
    and ends = ends_at.(i) in
    let x0 = boxes.(4 * b) and x1 = boxes.((4 * b) + 1)
    and y0 = boxes.((4 * b) + 2) and y1 = boxes.((4 * b) + 3) in
    let acc = ref wl_at.(i) in
    for j = 0 to Array.length near - 1 do
      let ex = ends.(2 * j) and ey = ends.((2 * j) + 1) in
      let dx = if ex < x0 then x0 - ex else if ex > x1 then ex - x1 else 0 in
      let dy = if ey < y0 then y0 - ey else if ey > y1 then ey - y1 else 0 in
      acc := !acc +. (near_w.(j) *. (float_of_int (dx + dy) *. 0.5))
    done;
    !acc +. rest_wl.(i + 1) >= !best_wl -. 1e-9
  in
  (* Whether entity [i]'s scan at [waste] has a candidate [c]: past the
     written ones, the next level is written when the waste cap lets the
     scan reach it (a level may hold no candidate). *)
  let rec reach i waste c =
    let g = t.gens.(i) in
    c < Candidates.written g
    || (not (Candidates.exhausted g))
       && waste + Candidates.next_waste g + t.min_remaining.(i + 1) < !cap
       && begin
         write_level t i;
         reach i waste c
       end
  in
  let push x y w h =
    let q = !top in
    stack.(q) <- x;
    stack.(q + 1) <- y;
    stack.(q + 2) <- x + w - 1;
    stack.(q + 3) <- y + h - 1;
    top := q + 4
  in
  let rec place i waste =
    budget_check ();
    if i = n then record waste
    else begin
      let g = t.gens.(i) in
      let copies = t.copies.(i) in
      let mult = 1 + copies in
      let rest = t.min_remaining.(i + 1) in
      let near = t.near.(i) and near_w = t.near_w.(i) and ends = ends_at.(i) in
      (* the net ends stay put while this entity's candidates are scanned *)
      if wirelength_stage then
        for j = 0 to Array.length near - 1 do
          let ce = t.cands.(near.(j)) and oe = stride * cur.(near.(j)) in
          ends.(2 * j) <- (2 * ce.(oe)) + ce.(oe + 2);
          ends.((2 * j) + 1) <- (2 * ce.(oe + 1)) + ce.(oe + 3)
        done;
      (* the candidates written so far, read again when [reach] writes
         a level *)
      let cs = ref t.cands.(i) and ncands = ref (Candidates.written g) in
      let c = ref 0 and scanning = ref true in
      while
        !scanning
        && (!c < !ncands
           || reach i waste !c
              && begin
                cs := t.cands.(i);
                ncands := Candidates.written g;
                true
              end)
      do
        let ci = !c in
        let cs = !cs in
        let o = stride * ci in
        let cwaste = cs.(o + 4) in
        c := ci + 1;
        (* waste-sorted: the first candidate over the cap ends the scan *)
        if waste + cwaste + rest >= !cap then scanning := false
        else if wirelength_stage && ci mod block = 0 && block_fails i (ci / block)
        then c := min (ci + block) !ncands
        else begin
          let x = cs.(o) and y = cs.(o + 1) and w = cs.(o + 2)
          and h = cs.(o + 3) in
          let wl =
            if wirelength_stage then begin
              let acc = ref wl_at.(i) in
              let cx = (2 * x) + w and cy = (2 * y) + h in
              for j = 0 to Array.length near - 1 do
                acc :=
                  !acc
                  +. near_w.(j)
                     *. half_distance cx cy ends.(2 * j) ends.((2 * j) + 1)
              done;
              !acc
            end
            else 0.
          in
          (* three side-effect-free skips; the wire-length bound goes
             first: it reads only this entity's nets, while [overlaps]
             scans every placed rectangle *)
          if
            (not (wirelength_stage && wl +. rest_wl.(i + 1) >= !best_wl -. 1e-9))
            && (not (overlaps x y (x + w - 1) (y + h - 1)))
            && fits (i + 1) mult x w h
          then begin
            for k = 0 to 3 do
              used.(k) <- used.(k) + (mult * coverage pref width1 k x w h)
            done;
            push x y w h;
            cur.(i) <- ci;
            wl_at.(i + 1) <- wl;
            if copies = 0 then place (i + 1) (waste + cwaste)
            else
              choose i (waste + cwaste) copies 0 (sites_of part t i ci) w h;
            top := !top - 4;
            for k = 0 to 3 do
              used.(k) <- used.(k) - (mult * coverage pref width1 k x w h)
            done
          end
        end
      done
    end
  (* choose the remaining [k] copies of entity [i] from [sites], site
     indices from [start] on *)
  and choose i waste k start sites w h =
    if k = 0 then begin
      budget_check ();
      place (i + 1) waste
    end
    else begin
      let slot = slot0.(i + 1) - k in
      for idx = start to (Array.length sites / 2) - k do
        let sx = sites.(2 * idx) and sy = sites.((2 * idx) + 1) in
        if not (overlaps sx sy (sx + w - 1) (sy + h - 1)) then begin
          push sx sy w h;
          site_at.(slot) <- idx;
          choose i waste (k - 1) (idx + 1) sites w h;
          top := !top - 4
        end
      done
    end
  in
  let optimal = ref true in
  if not t.unplaceable then begin
    try place 0 0 with
    | Budget_exhausted ->
      stopped := Some Budget;
      optimal := false
    | Cancelled_exn ->
      stopped := Some Cancelled;
      optimal := false;
      Rfloor_trace.stopped options.trace ~worker:0 "cancel"
    | Found_one -> ()
  end;
  let elapsed = Rfloor_trace.clock () -. t0 in
  Rfloor_trace.add_worker_totals options.trace ~worker:0 ~nodes:!nodes
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
  (* recompute metrics on the final plan for reporting hygiene *)
  let wasted =
    match (plan, waste) with
    | Some p, _ -> Some (Floorplan.wasted_frames part spec p)
    | None, w -> w
  in
  let wirelength =
    match plan with Some p -> Some (Floorplan.wirelength spec p) | None -> wl
  in
  { plan; wasted; wirelength; optimal; nodes; elapsed; stop }

let solve ?(options = default_options) part spec =
  let t = tables spec part in
  let r1 =
    search ~options ~mode:(Min_waste { stop_at_first = false }) part t
  in
  let plan1, waste1, _, opt1, nodes1, el1, stop1 = r1 in
  match (plan1, waste1) with
  | None, _ | _, None ->
    finish part spec (plan1, waste1, None, opt1, nodes1, el1, stop1)
  | Some _, Some w when options.optimize_wirelength && opt1 -> (
    (* the time budget covers both stages; the node limit is per stage *)
    match Option.map (fun tl -> tl -. el1) options.time_limit with
    | Some left when left <= 0. ->
      finish part spec (plan1, waste1, None, false, nodes1, el1, Some Budget)
    | time_limit ->
      Rfloor_trace.restart options.trace "wirelength";
      let plan2, waste2, wl2, opt2, nodes2, el2, stop2 =
        search ~options:{ options with time_limit }
          ~mode:(Min_wirelength { waste_budget = w }) part t
      in
      let plan = match plan2 with Some p -> Some p | None -> plan1 in
      finish part spec
        ( plan,
          (match waste2 with Some _ -> Some w | None -> waste1),
          wl2,
          opt1 && opt2,
          nodes1 + nodes2,
          el1 +. el2,
          (match stop2 with Some _ -> stop2 | None -> stop1) ))
  | Some _, Some _ -> finish part spec r1

let feasible ?(options = default_options) part spec =
  let t = tables spec part in
  let r =
    search ~options ~mode:(Min_waste { stop_at_first = true }) part t
  in
  finish part spec r
