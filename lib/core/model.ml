open Device
module Lp = Milp.Lp

type objective =
  | Weighted of Objective.weights
  | Wasted_frames_only
  | Wirelength_only
  | Feasibility

type pair_relation = Left_of | Right_of | Above | Below

type options = {
  objective : objective;
  paper_literal_l : bool;
  pair_relations : ((string * string) * pair_relation) list;
  extra_waste_cap : float option;
}

let default_options =
  {
    objective = Weighted Objective.default_weights;
    paper_literal_l = false;
    pair_relations = [];
    extra_waste_cap = None;
  }

(* One placed entity: a reconfigurable region or a free-compatible area.
   Free-compatible areas are modelled as special regions (Section IV.A):
   they share all geometry variables but carry no resource demand. *)
type entity = {
  e_name : string;
  e_demand : Resource.demand option; (* None for free-compatible areas *)
  e_target : int option; (* index of the region a FC area duplicates *)
  e_soft : float option; (* Some weight = relocation as a metric *)
  (* variables *)
  vx : Lp.var;
  vw : Lp.var;
  va : Lp.var array; (* row coverage a(n,r), 1-based slot r *)
  vs : Lp.var array; (* row start s(n,r) *)
  vh : Lp.var;
  v_edge_a : Lp.var array; (* A(n,p) = [x >= P1(p)], slots 1..|P|+1 *)
  v_edge_b : Lp.var array; (* B(n,p) = [x+w-1 >= P1(p)] *)
  vk : Lp.var array; (* portion coverage k(n,p) *)
  vo : Lp.var array; (* offsets o(n,p), Eq. 4-5 *)
  vu : Lp.var array; (* horizontal portion overlap u(n,p) *)
  vl : Lp.var array array; (* l(n,p,r); empty for FC areas unless literal *)
  vv : Lp.var option; (* violation v(c) for soft areas, Section V *)
  v_cx : Lp.var;
  v_cy : Lp.var;
}

type t = {
  lp : Lp.t;
  part : Partition.t;
  spec : Spec.t;
  options : options;
  entities : entity array;
  priorities : float array;
  waste_constant : float;
  viol_terms : (float * Lp.term) list;
  pair_vars : ((int * int) * (Lp.var * Lp.var * Lp.var)) list;
  q_vars : ((int * Rect.t) * Lp.var) list;
  net_vars : (Spec.net * (Lp.var * Lp.var)) list;
}

let lp t = t.lp
let entity_names t = Array.to_list (Array.map (fun e -> e.e_name) t.entities)
let violation_terms t = t.viol_terms
let branching_priorities t = t.priorities

let kind_of_tid part tid =
  part.Partition.types.(tid - 1).Resource.kind

let build ?(options = default_options) part (spec : Spec.t) =
  let lp = Lp.create ~name:(Milp.Lp_format.sanitize spec.Spec.s_name) () in
  let np = Array.length part.Partition.portions in
  let width = Partition.width part and height = Partition.height part in
  let widthf = float_of_int width and heightf = float_of_int height in
  let mx = widthf +. 1. in
  let portions = part.Partition.portions in
  let p1 p = float_of_int portions.(p - 1).Partition.x1 in
  let p2 p = float_of_int portions.(p - 1).Partition.x2 in
  let pwidth p = float_of_int (Partition.portion_width portions.(p - 1)) in
  let tid p = portions.(p - 1).Partition.tid in
  let frames = Grid.frames part.Partition.grid in
  let bin name = Lp.add_var lp ~name ~kind:Lp.Binary () in
  let real ?(lb = 0.) ?(ub = infinity) name = Lp.add_var lp ~name ~lb ~ub () in
  let fixed name value = Lp.add_var lp ~name ~lb:value ~ub:value () in
  let le ?name terms rhs = Lp.add_constr lp ?name terms Lp.Le rhs in
  let ge ?name terms rhs = Lp.add_constr lp ?name terms Lp.Ge rhs in
  let eq ?name terms rhs = Lp.add_constr lp ?name terms Lp.Eq rhs in

  (* ---------------- per-entity variables and geometry ---------------- *)
  let make_entity ~name ~demand ~target ~soft ~with_l =
    let n = name in
    let vx =
      Lp.add_var lp ~name:(n ^ ".x") ~lb:1. ~ub:widthf ~kind:Lp.Integer ()
    in
    let vw =
      Lp.add_var lp ~name:(n ^ ".w") ~lb:1. ~ub:widthf ~kind:Lp.Integer ()
    in
    (* x + w - 1 <= width *)
    le ~name:(n ^ ".fit") [ (1., vx); (1., vw) ] (widthf +. 1.);
    let va =
      Array.init height (fun r -> bin (Printf.sprintf "%s.a[%d]" n (r + 1)))
    in
    let vs =
      Array.init height (fun r ->
          real ~ub:1. (Printf.sprintf "%s.s[%d]" n (r + 1)))
    in
    let vh = real ~lb:1. ~ub:heightf (n ^ ".h") in
    (* h = sum a ; rows contiguous via start variables (mirror of Eq. 4-5):
       sum s = 1, s1 = a1, s(r) >= a(r) - a(r-1) *)
    eq ~name:(n ^ ".hdef")
      ((-1., vh) :: Array.to_list (Array.map (fun v -> (1., v)) va))
      0.;
    eq ~name:(n ^ ".sone") (Array.to_list (Array.map (fun v -> (1., v)) vs)) 1.;
    eq ~name:(n ^ ".s1") [ (1., vs.(0)); (-1., va.(0)) ] 0.;
    for r = 1 to height - 1 do
      ge [ (1., vs.(r)); (-1., va.(r)); (1., va.(r - 1)) ] 0.
    done;
    (* edge-position binaries: A(p) = [x >= P1(p)], B(p) = [x2 >= P1(p)].
       Slot p in 1..np+1 where np+1 is a virtual portion at width+1. *)
    let v_edge_a = Array.make (np + 2) (-1) in
    let v_edge_b = Array.make (np + 2) (-1) in
    v_edge_a.(1) <- fixed (n ^ ".A[1]") 1.;
    v_edge_b.(1) <- fixed (n ^ ".B[1]") 1.;
    v_edge_a.(np + 1) <- fixed (Printf.sprintf "%s.A[%d]" n (np + 1)) 0.;
    v_edge_b.(np + 1) <- fixed (Printf.sprintf "%s.B[%d]" n (np + 1)) 0.;
    for p = 2 to np do
      v_edge_a.(p) <- bin (Printf.sprintf "%s.A[%d]" n p);
      v_edge_b.(p) <- bin (Printf.sprintf "%s.B[%d]" n p);
      (* A: x >= P1p - M(1-A) ; x <= P1p - 1 + M A *)
      ge [ (1., vx); (-.mx, v_edge_a.(p)) ] (p1 p -. mx);
      le [ (1., vx); (-.mx, v_edge_a.(p)) ] (p1 p -. 1.);
      (* B over x2 = x + w - 1 *)
      ge [ (1., vx); (1., vw); (-.mx, v_edge_b.(p)) ] (p1 p +. 1. -. mx);
      le [ (1., vx); (1., vw); (-.mx, v_edge_b.(p)) ] (p1 p)
    done;
    (* monotonicity and A <= B *)
    for p = 1 to np do
      le [ (1., v_edge_a.(p + 1)); (-1., v_edge_a.(p)) ] 0.;
      le [ (1., v_edge_b.(p + 1)); (-1., v_edge_b.(p)) ] 0.;
      le [ (1., v_edge_a.(p)); (-1., v_edge_b.(p)) ] 0.
    done;
    (* portion coverage k(p) = B(p) - A(p+1) *)
    let vk = Array.make (np + 1) (-1) in
    for p = 1 to np do
      vk.(p) <- real ~ub:1. (Printf.sprintf "%s.k[%d]" n p);
      eq
        [ (1., vk.(p)); (-1., v_edge_b.(p)); (1., v_edge_a.(p + 1)) ]
        0.
    done;
    (* offsets o(p), Eq. 4 and Eq. 5 *)
    let vo = Array.make (np + 1) (-1) in
    for p = 1 to np do
      vo.(p) <- real ~ub:1. (Printf.sprintf "%s.o[%d]" n p)
    done;
    eq ~name:(n ^ ".o_unique")
      (List.init np (fun i -> (1., vo.(i + 1))))
      1.;
    eq [ (1., vo.(1)); (-1., vk.(1)) ] 0.;
    for p = 2 to np do
      ge [ (1., vo.(p)); (1., vk.(p - 1)); (-1., vk.(p)) ] 0.
    done;
    (* horizontal overlap u(p): upper bounds only; together with
       sum u = w and the fact that portions tile the device they force
       u(p) to the exact overlap width. *)
    let vu = Array.make (np + 1) (-1) in
    for p = 1 to np do
      let u = real ~ub:(pwidth p) (Printf.sprintf "%s.u[%d]" n p) in
      vu.(p) <- u;
      le [ (1., u); (-1., vw) ] 0.;
      (* u <= x2 - P1p + 1 + M(1-k) = x + w - P1p + M(1-k) *)
      le [ (1., u); (-1., vx); (-1., vw); (mx, vk.(p)) ] (mx -. p1 p);
      (* u <= P2p - x + 1 + M(1-k) *)
      le [ (1., u); (1., vx); (mx, vk.(p)) ] (p2 p +. 1. +. mx);
      (* u <= Wp * k *)
      le [ (1., u); (-.pwidth p, vk.(p)) ] 0.
    done;
    eq ~name:(n ^ ".u_sum")
      ((-1., vw) :: List.init np (fun i -> (1., vu.(i + 1))))
      0.;
    (* per-row intersections l(n,p,r) *)
    let vl =
      if with_l then
        Array.init (np + 1) (fun p ->
            if p = 0 then [||]
            else
              Array.init height (fun r ->
                  let l =
                    real ~ub:(pwidth p) (Printf.sprintf "%s.l[%d,%d]" n p (r + 1))
                  in
                  le [ (1., l); (-1., vu.(p)) ] 0.;
                  le [ (1., l); (-.pwidth p, va.(r)) ] 0.;
                  if not options.paper_literal_l then
                    (* tight from below: l >= u - Wp(1 - a) *)
                    ge
                      [ (1., l); (-1., vu.(p)); (-.pwidth p, va.(r)) ]
                      (-.pwidth p);
                  l))
      else [||]
    in
    let vv =
      match soft with
      | Some _ -> Some (bin (n ^ ".v"))
      | None -> None
    in
    (* centers for wire length: cx = x + (w-1)/2 ; cy = ymin + (h-1)/2
       with ymin = sum r * s(r) *)
    let v_cx = real ~lb:1. ~ub:widthf (n ^ ".cx") in
    let v_cy = real ~lb:1. ~ub:heightf (n ^ ".cy") in
    eq
      [ (1., v_cx); (-1., vx); (-0.5, vw) ]
      (-0.5);
    eq
      (((1., v_cy) :: (-0.5, vh)
       :: List.init height (fun r -> (-.float_of_int (r + 1), vs.(r)))))
      (-0.5);
    {
      e_name = name;
      e_demand = demand;
      e_target = target;
      e_soft = soft;
      vx;
      vw;
      va;
      vs;
      vh;
      v_edge_a;
      v_edge_b;
      vk;
      vo;
      vu;
      vl;
      vv;
      v_cx;
      v_cy;
    }
  in

  (* entity list: regions, then free-compatible areas *)
  let region_index = Hashtbl.create 8 in
  List.iteri
    (fun i (r : Spec.region) -> Hashtbl.replace region_index r.Spec.r_name i)
    spec.Spec.regions;
  let regions =
    List.map
      (fun (r : Spec.region) ->
        make_entity ~name:r.Spec.r_name ~demand:(Some r.Spec.demand)
          ~target:None ~soft:None ~with_l:true)
      spec.Spec.regions
  in
  let fcs =
    List.concat_map
      (fun (rr : Spec.reloc_req) ->
        let target = Hashtbl.find region_index rr.Spec.target in
        List.init rr.Spec.copies (fun i ->
            let name = Printf.sprintf "%s/%d" rr.Spec.target (i + 1) in
            let soft =
              match rr.Spec.mode with
              | Spec.Hard -> None
              | Spec.Soft w -> Some w
            in
            make_entity ~name ~demand:None ~target:(Some target) ~soft
              ~with_l:options.paper_literal_l))
      spec.Spec.relocs
  in
  let entities = Array.of_list (regions @ fcs) in
  let ne = Array.length entities in

  let soft_term e = match e.vv with Some v -> [ (1., v) ] | None -> [] in

  (* ---------------- resource demands (regions only) ---------------- *)
  Array.iter
    (fun e ->
      match e.e_demand with
      | None -> ()
      | Some demand ->
        List.iter
          (fun (k, need) ->
            if need > 0 then begin
              let terms = ref [] in
              for p = 1 to np do
                if Resource.equal_kind (kind_of_tid part (tid p)) k then
                  for r = 0 to height - 1 do
                    terms := (1., e.vl.(p).(r)) :: !terms
                  done
              done;
              ge
                ~name:(Printf.sprintf "%s.res.%s" e.e_name (Resource.kind_to_string k))
                !terms (float_of_int need)
            end)
          demand)
    entities;

  let pair_vars = ref [] and q_vars = ref [] and net_vars = ref [] in

  (* ---------------- forbidden areas (Eq. 1 and Eq. 2) ---------------- *)
  List.iter
    (fun (fa : Rect.t) ->
      Array.iteri
        (fun ei e ->
          let q = bin (Printf.sprintf "%s.q[%s]" e.e_name (Rect.to_string fa)) in
          q_vars := ((ei, fa), q) :: !q_vars;
          let xa1 = float_of_int fa.Rect.x in
          let xa2 = float_of_int (Rect.x2 fa) in
          (* Eq. 1: x + w <= xa1 + q * M *)
          le
            ([ (1., e.vx); (1., e.vw); (-.mx, q) ] @ List.map (fun (c, v) -> (-.mx *. c, v)) (soft_term e))
            xa1;
          (* Eq. 2: for rows of the area: x >= xa2 + 1 - (2 - q - a(r) [+ v]) * M *)
          for r = fa.Rect.y to Rect.y2 fa do
            (* x + M q + M a(r) - M v >= xa2 + 1 - 2M *)
            ge
              ([ (1., e.vx); (mx, q); (mx, e.va.(r - 1)) ]
              @ List.map (fun (c, v) -> (-.mx *. c, v)) (soft_term e))
              (xa2 +. 1. -. (2. *. mx))
          done)
        entities)
    part.Partition.forbidden;

  (* ---------------- pairwise non-overlap ---------------- *)
  let relation_of a b =
    let rec find = function
      | [] -> None
      | ((x, y), rel) :: rest ->
        if x = a.e_name && y = b.e_name then Some rel
        else if x = b.e_name && y = a.e_name then
          Some
            (match rel with
            | Left_of -> Right_of
            | Right_of -> Left_of
            | Above -> Below
            | Below -> Above)
        else find rest
    in
    find options.pair_relations
  in
  for i = 0 to ne - 1 do
    for j = i + 1 to ne - 1 do
      let a = entities.(i) and b = entities.(j) in
      let pname rel = Printf.sprintf "no[%s|%s].%s" a.e_name b.e_name rel in
      let soft = soft_term a @ soft_term b in
      let hl = bin (pname "left") in
      let hr = bin (pname "right") in
      let vv = bin (pname "vert") in
      pair_vars := ((i, j), (hl, hr, vv)) :: !pair_vars;
      (* hl = 1 -> a entirely left of b *)
      le [ (1., a.vx); (1., a.vw); (-1., b.vx); (mx, hl) ] mx;
      (* hr = 1 -> a entirely right of b *)
      le [ (1., b.vx); (1., b.vw); (-1., a.vx); (mx, hr) ] mx;
      (* vv = 1 -> row-disjoint *)
      for r = 0 to height - 1 do
        le [ (1., a.va.(r)); (1., b.va.(r)); (1., vv) ] 2.
      done;
      ge
        ([ (1., hl); (1., hr); (1., vv) ] @ soft)
        1.;
      (match relation_of a b with
      | None -> ()
      | Some rel ->
        let fix v x = Lp.set_bounds lp v ~lb:x ~ub:x in
        (match rel with
        | Left_of -> fix hl 1.
        | Right_of -> fix hr 1.
        | Above | Below ->
          fix vv 1.;
          (* orient the vertical split with the seed: a above b means every
             row of a is <= every row of b; encode via start rows *)
          let ymin e =
            List.init height (fun r -> (float_of_int (r + 1), e.vs.(r)))
          in
          let diff =
            match rel with
            | Above ->
              (* ymin_a + h_a <= ymin_b *)
              (ymin a @ [ (1., a.vh) ]) @ List.map (fun (c, v) -> (-.c, v)) (ymin b)
            | Below | Left_of | Right_of ->
              (ymin b @ [ (1., b.vh) ]) @ List.map (fun (c, v) -> (-.c, v)) (ymin a)
          in
          le (diff @ List.map (fun (c, v) -> (-.heightf *. c, v)) soft) 0.))
    done
  done;

  (* ---------------- compatibility of FC areas (Eq. 6/7/9/10) -------- *)
  Array.iter
    (fun c ->
      match c.e_target with
      | None -> ()
      | Some ti ->
        let n = entities.(ti) in
        let soft = soft_term c in
        let mh = heightf in
        (* Eq. 6: h_c = h_n (relaxed by v) *)
        le ([ (1., c.vh); (-1., n.vh) ] @ List.map (fun (w, v) -> (-.mh *. w, v)) soft) 0.;
        ge ([ (1., c.vh); (-1., n.vh) ] @ List.map (fun (w, v) -> (mh *. w, v)) soft) 0.;
        (* Eq. 7: equal number of covered portions *)
        let mk = float_of_int np in
        let ksum e sign = List.init np (fun p -> (sign, e.vk.(p + 1))) in
        le
          (ksum c 1. @ ksum n (-1.)
          @ List.map (fun (w, v) -> (-.mk *. w, v)) soft)
          0.;
        ge
          (ksum c 1. @ ksum n (-1.) @ List.map (fun (w, v) -> (mk *. w, v)) soft)
          0.;
        (* Eq. 9 / Eq. 10 over first-portion pairs (pc, pn) and relative
           index i >= 0 (for i < 0, k(n, pn+i) = 1 contradicts o(n, pn) = 1,
           so those rows are vacuous and omitted). *)
        for pc = 1 to np do
          for pn = 1 to np do
            let imax = min (np - pc) (np - pn) in
            for i = 0 to imax do
              let guard =
                [ (1., c.vo.(pc)); (1., n.vo.(pn)); (1., n.vk.(pn + i)) ]
              in
              if tid (pc + i) <> tid (pn + i) then
                (* Eq. 10 (tightened Eq. 8): type sequences must match *)
                le
                  (guard @ List.map (fun (w, v) -> (-1. *. w, v)) soft)
                  2.
              else begin
                (* Eq. 9: equal covered tiles per relative portion; with
                   tight u and equal heights, equal horizontal overlap *)
                if options.paper_literal_l then begin
                  (* Eq. 9 with the paper's M = maxW * |R| and l-sums *)
                  let m9 = widthf *. heightf in
                  let lsum e p sign =
                    List.init height (fun r -> (sign, e.vl.(p).(r)))
                  in
                  le
                    (lsum c (pc + i) 1. @ lsum n (pn + i) (-1.)
                    @ List.map (fun (_, v) -> (m9, v)) guard
                    @ List.map (fun (w, v) -> (-.m9 *. w, v)) soft)
                    (3. *. m9);
                  ge
                    (lsum c (pc + i) 1. @ lsum n (pn + i) (-1.)
                    @ List.map (fun (_, v) -> (-.m9, v)) guard
                    @ List.map (fun (w, v) -> (m9 *. w, v)) soft)
                    (-3. *. m9)
                end
                else begin
                  let m9 = widthf in
                  (* u_c - u_n <= M(3 - guard + v) ->
                     u_c - u_n + M*guard - M*v <= 3M *)
                  le
                    ([ (1., c.vu.(pc + i)); (-1., n.vu.(pn + i)) ]
                    @ List.map (fun (_, v) -> (m9, v)) guard
                    @ List.map (fun (w, v) -> (-.m9 *. w, v)) soft)
                    (3. *. m9);
                  ge
                    ([ (1., c.vu.(pc + i)); (-1., n.vu.(pn + i)) ]
                    @ List.map (fun (_, v) -> (-.m9, v)) guard
                    @ List.map (fun (w, v) -> (m9 *. w, v)) soft)
                    (-3. *. m9)
                end
              end
            done
          done
        done)
    entities;

  (* ---------------- objective pieces ---------------- *)
  let waste_terms = ref [] and waste_constant = ref 0. in
  Array.iter
    (fun e ->
      match e.e_demand with
      | None -> ()
      | Some demand ->
        for p = 1 to np do
          let fr = float_of_int (frames (kind_of_tid part (tid p))) in
          for r = 0 to height - 1 do
            waste_terms := (fr, e.vl.(p).(r)) :: !waste_terms
          done
        done;
        waste_constant :=
          !waste_constant -. float_of_int (Resource.demand_frames ~frames demand))
    entities;
  let wl_terms = ref [] in
  List.iter
    (fun (net : Spec.net) ->
      let ea = entities.(Hashtbl.find region_index net.Spec.src) in
      let eb = entities.(Hashtbl.find region_index net.Spec.dst) in
      let dx = real (Printf.sprintf "net[%s|%s].dx" ea.e_name eb.e_name) in
      let dy = real (Printf.sprintf "net[%s|%s].dy" ea.e_name eb.e_name) in
      ge [ (1., dx); (-1., ea.v_cx); (1., eb.v_cx) ] 0.;
      ge [ (1., dx); (1., ea.v_cx); (-1., eb.v_cx) ] 0.;
      ge [ (1., dy); (-1., ea.v_cy); (1., eb.v_cy) ] 0.;
      ge [ (1., dy); (1., ea.v_cy); (-1., eb.v_cy) ] 0.;
      net_vars := (net, (dx, dy)) :: !net_vars;
      wl_terms := (net.Spec.weight, dx) :: (net.Spec.weight, dy) :: !wl_terms)
    spec.Spec.nets;
  let viol_terms =
    Array.to_list entities
    |> List.filter_map (fun e ->
           match (e.e_soft, e.vv) with
           | Some w, Some v -> Some (w, (1., v))
           | _ -> None)
  in
  let perim_terms =
    Array.to_list entities
    |> List.concat_map (fun e ->
           if e.e_demand = None then []
           else [ (2., e.vw); (2., e.vh) ])
  in
  (match options.extra_waste_cap with
  | None -> ()
  | Some cap -> le ~name:"waste_cap" !waste_terms (cap -. !waste_constant));
  (match options.objective with
  | Feasibility -> Lp.set_objective lp Lp.Minimize []
  | Wasted_frames_only ->
    Lp.set_objective lp Lp.Minimize ~constant:!waste_constant !waste_terms
  | Wirelength_only -> Lp.set_objective lp Lp.Minimize !wl_terms
  | Weighted w ->
    let scale f terms = List.map (fun (c, v) -> (f *. c, v)) terms in
    let wlmax = max 1. (Objective.wl_max part spec) in
    let pmax = max 1. (Objective.perimeter_max part spec) in
    let rmax = max 1. (Objective.resources_max part) in
    let rlmax = max 1. (Objective.relocation_max spec) in
    let terms =
      scale (w.Objective.q_wirelength /. wlmax) !wl_terms
      @ scale (w.Objective.q_perimeter /. pmax) perim_terms
      @ scale (w.Objective.q_resources /. rmax) !waste_terms
      @ List.map
          (fun (cw, (c, v)) ->
            (w.Objective.q_relocation /. rlmax *. cw *. c, v))
          viol_terms
    in
    Lp.set_objective lp Lp.Minimize
      ~constant:(w.Objective.q_resources /. rmax *. !waste_constant)
      terms);

  (* branching priorities: violations first, then pairwise and edge
     binaries (they decide the combinatorial structure), then rows *)
  let priorities = Array.make (Lp.num_vars lp) 0. in
  Array.iter
    (fun e ->
      (match e.vv with Some v -> priorities.(v) <- 100. | None -> ());
      Array.iter (fun v -> if v >= 0 then priorities.(v) <- 10.) e.v_edge_a;
      Array.iter (fun v -> if v >= 0 then priorities.(v) <- 10.) e.v_edge_b;
      Array.iter (fun v -> priorities.(v) <- 5.) e.va;
      priorities.(e.vx) <- 8.;
      priorities.(e.vw) <- 8.)
    entities;
  {
    lp;
    part;
    spec;
    options;
    entities;
    priorities;
    waste_constant = !waste_constant;
    viol_terms;
    pair_vars = !pair_vars;
    q_vars = !q_vars;
    net_vars = !net_vars;
  }

(* ---------------- decoding ---------------- *)

let entity_rect e (x : float array) =
  let xi = int_of_float (Float.round x.(e.vx)) in
  let rows =
    List.filter (fun r -> x.(e.va.(r - 1)) > 0.5)
      (List.init (Array.length e.va) (fun i -> i + 1))
  in
  match rows with
  | [] -> None
  | y :: _ ->
    let h = List.length rows in
    let w = int_of_float (Float.round x.(e.vw)) in
    Some (Rect.make ~x:xi ~y ~w ~h)

let decode t x =
  let placements = ref [] and fcs = ref [] in
  let counters = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      let dropped =
        match e.vv with Some v -> x.(v) > 0.5 | None -> false
      in
      match (entity_rect e x, e.e_target) with
      | None, _ -> ()
      | Some rect, None ->
        placements := { Floorplan.p_region = e.e_name; p_rect = rect } :: !placements
      | Some rect, Some ti ->
        if not dropped then begin
          let target = t.entities.(ti).e_name in
          let idx = try Hashtbl.find counters target + 1 with Not_found -> 1 in
          Hashtbl.replace counters target idx;
          fcs :=
            { Floorplan.fc_region = target; fc_index = idx; fc_rect = rect }
            :: !fcs
        end)
    t.entities;
  Floorplan.make (List.rev !placements) (List.rev !fcs)

let fc_identified t x =
  Array.to_list t.entities
  |> List.filter (fun e ->
         e.e_target <> None
         && (match e.vv with Some v -> x.(v) <= 0.5 | None -> true))
  |> List.length


(* ---------------- encoding a floorplan as an assignment -------------- *)

(* Rectangle of an entity in a plan: regions by name; free-compatible
   areas "target/i" by the i-th area of the target region.  Soft areas
   may be absent. *)
let plan_rect t plan e =
  match e.e_target with
  | None -> Floorplan.rect_of plan e.e_name
  | Some ti ->
    let target = t.entities.(ti).e_name in
    let idx =
      match String.rindex_opt e.e_name '/' with
      | Some i ->
        int_of_string (String.sub e.e_name (i + 1) (String.length e.e_name - i - 1))
      | None -> invalid_arg "Model.plan_rect: bad FC entity name"
    in
    let rects =
      List.filter (fun f -> f.Floorplan.fc_region = target) plan.Floorplan.fc_areas
      |> List.map (fun f -> f.Floorplan.fc_rect)
    in
    List.nth_opt rects (idx - 1)

let encode t plan =
  let x = Array.make (Lp.num_vars t.lp) 0. in
  let part = t.part in
  let np = Array.length part.Partition.portions in
  let height = Partition.height part in
  let p1 p = part.Partition.portions.(p - 1).Partition.x1 in
  let p2 p = part.Partition.portions.(p - 1).Partition.x2 in
  let rects =
    Array.map
      (fun e ->
        match (plan_rect t plan e, e.e_soft) with
        | Some r, _ -> Some r
        | None, Some _ -> None
        | None, None ->
          invalid_arg
            (Printf.sprintf "Model.encode: entity %s missing from the plan"
               e.e_name))
      t.entities
  in
  Array.iteri
    (fun ei e ->
      let dropped = rects.(ei) = None in
      let r =
        match rects.(ei) with
        | Some r -> r
        | None -> Rect.make ~x:1 ~y:1 ~w:1 ~h:1
      in
      let rx = r.Rect.x and rw = r.Rect.w and ry = r.Rect.y and rh = r.Rect.h in
      let rx2 = Rect.x2 r in
      x.(e.vx) <- float_of_int rx;
      x.(e.vw) <- float_of_int rw;
      for row = 1 to height do
        let covered = ry <= row && row <= Rect.y2 r in
        x.(e.va.(row - 1)) <- (if covered then 1. else 0.);
        x.(e.vs.(row - 1)) <- (if row = ry then 1. else 0.)
      done;
      x.(e.vh) <- float_of_int rh;
      for p = 1 to np + 1 do
        let pstart = if p <= np then p1 p else Partition.width part + 1 in
        if e.v_edge_a.(p) >= 0 then
          x.(e.v_edge_a.(p)) <- (if rx >= pstart then 1. else 0.);
        if e.v_edge_b.(p) >= 0 then
          x.(e.v_edge_b.(p)) <- (if rx2 >= pstart then 1. else 0.)
      done;
      let first = ref 0 in
      for p = 1 to np do
        let covered = rx <= p2 p && rx2 >= p1 p in
        x.(e.vk.(p)) <- (if covered then 1. else 0.);
        if covered && !first = 0 then first := p;
        let ov = min rx2 (p2 p) - max rx (p1 p) + 1 in
        let ov = max 0 ov in
        x.(e.vu.(p)) <- float_of_int ov;
        if Array.length e.vl > 0 then
          for row = 1 to height do
            let rc = ry <= row && row <= Rect.y2 r in
            x.(e.vl.(p).(row - 1)) <- (if rc then float_of_int ov else 0.)
          done
      done;
      if !first > 0 then x.(e.vo.(!first)) <- 1.;
      x.(e.v_cx) <- float_of_int rx +. ((float_of_int rw -. 1.) /. 2.);
      x.(e.v_cy) <- float_of_int ry +. ((float_of_int rh -. 1.) /. 2.);
      match e.vv with
      | Some v -> x.(v) <- (if dropped then 1. else 0.)
      | None -> ())
    t.entities;
  List.iter
    (fun ((ei, fa), q) ->
      match rects.(ei) with
      | None -> x.(q) <- 1.
      | Some r -> x.(q) <- (if Rect.x2 r < fa.Rect.x then 0. else 1.))
    t.q_vars;
  List.iter
    (fun ((i, j), (hl, hr, vv)) ->
      match (rects.(i), rects.(j)) with
      | Some a, Some b ->
        let rows_disjoint = Rect.y2 a < b.Rect.y || Rect.y2 b < a.Rect.y in
        x.(hl) <- (if Rect.x2 a < b.Rect.x then 1. else 0.);
        x.(hr) <- (if Rect.x2 b < a.Rect.x then 1. else 0.);
        x.(vv) <- (if rows_disjoint then 1. else 0.)
      | _ -> ())
    t.pair_vars;
  List.iter
    (fun ((net : Spec.net), (dx, dy)) ->
      let find name =
        let rec go i =
          if i >= Array.length t.entities then None
          else if t.entities.(i).e_name = name then rects.(i)
          else go (i + 1)
        in
        go 0
      in
      match (find net.Spec.src, find net.Spec.dst) with
      | Some a, Some b ->
        let ax, ay = Rect.center a and bx, by = Rect.center b in
        x.(dx) <- abs_float (ax -. bx);
        x.(dy) <- abs_float (ay -. by)
      | _ -> ())
    t.net_vars;
  x


let portion_indicators t name x =
  match Array.find_opt (fun e -> e.e_name = name) t.entities with
  | None -> invalid_arg ("Model.portion_indicators: unknown entity " ^ name)
  | Some e ->
    Array.init
      (Array.length e.vk - 1)
      (fun i -> (x.(e.vk.(i + 1)), x.(e.vo.(i + 1))))
