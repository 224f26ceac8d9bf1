open Device

(* ---------------- hashing ---------------- *)

(* FNV-1a, 64-bit, two independent lanes (different offset bases) so a
   key is 32 hex characters.  Collisions are additionally ruled out at
   the cache layer by comparing the full canonical text on every hit. *)
let fnv_prime = 0x100000001b3L
let lane1_offset = 0xcbf29ce484222325L
let lane2_offset = Int64.logxor 0xcbf29ce484222325L 0x9e3779b97f4a7c15L

let fnv1a init s =
  let h = ref init in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let hash_hex s = Printf.sprintf "%016Lx%016Lx" (fnv1a lane1_offset s) (fnv1a lane2_offset s)

(* ---------------- canonical instances ---------------- *)

type t = {
  instance_key : string;
  instance_text : string;
  order : string array;
  index_of : (string, int) Hashtbl.t;
}

let region_name t i = t.order.(i)

let region_index t name =
  match Hashtbl.find_opt t.index_of name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Canonical.region_index: %s" name)

(* Numbers are printed with %.17g so distinct floats stay distinct and
   equal floats serialize identically. *)
let fl x = Printf.sprintf "%.17g" x

let rect_str (r : Rect.t) = Printf.sprintf "%d,%d,%d,%d" r.Rect.x r.Rect.y r.Rect.w r.Rect.h

(* Canonical kind numbering: kinds are anonymized — renamed by first
   appearance in the left-to-right portion sequence — so the key only
   retains what the solvers consume (equality and per-kind frames).
   Kinds that appear in demands but in no portion are numbered after,
   in the fixed [Resource.all_kinds] order (deterministic; renamings
   among such kinds are simply not recognized — a missed hit, never a
   false one). *)
let kind_numbering part (spec : Spec.t) =
  let canon : (Resource.kind, int) Hashtbl.t = Hashtbl.create 4 in
  let next = ref 0 in
  let visit k =
    if not (Hashtbl.mem canon k) then begin
      incr next;
      Hashtbl.add canon k !next
    end
  in
  Array.iter (fun p -> visit p.Partition.tile.Resource.kind) part.Partition.portions;
  List.iter
    (fun k ->
      let demanded =
        List.exists
          (fun r -> List.exists (fun (k', c) -> k' = k && c > 0) r.Spec.demand)
          spec.Spec.regions
      in
      if demanded then visit k)
    Resource.all_kinds;
  canon

let canon_demand kinds (d : Resource.demand) =
  List.filter_map
    (fun (k, c) ->
      if c <= 0 then None
      else
        match Hashtbl.find_opt kinds k with
        | Some ck -> Some (ck, c)
        | None -> None)
    d
  |> List.sort compare

let demand_str d =
  String.concat "," (List.map (fun (ck, c) -> Printf.sprintf "%d:%d" ck c) d)

let reloc_str (rl : Spec.reloc_req) =
  Printf.sprintf "%d:%s" rl.Spec.copies
    (match rl.Spec.mode with
    | Spec.Hard -> "hard"
    | Spec.Soft w -> "soft:" ^ fl w)

(* Weisfeiler-Lehman-style refinement over the net graph: a region's
   signature starts from its relabeling-invariant content (demand,
   relocation requests) and is refined by the sorted multiset of
   (neighbor signature, net weight) pairs.  Three rounds distinguish
   everything the solve can distinguish on these small design graphs;
   ties are broken by original position, which can only cost cache hits
   between relabelings of symmetric designs, never correctness. *)
let region_order kinds (spec : Spec.t) =
  let regions = Array.of_list spec.Spec.regions in
  let n = Array.length regions in
  let idx_of_name = Hashtbl.create (2 * n) in
  Array.iteri (fun i r -> Hashtbl.add idx_of_name r.Spec.r_name i) regions;
  let sigs =
    Array.map
      (fun r ->
        let relocs =
          List.filter (fun rl -> rl.Spec.target = r.Spec.r_name) spec.Spec.relocs
          |> List.map reloc_str |> List.sort compare
        in
        hash_hex
          (Printf.sprintf "d=%s;rl=%s"
             (demand_str (canon_demand kinds r.Spec.demand))
             (String.concat ";" relocs)))
      regions
  in
  for _round = 1 to 3 do
    let next =
      Array.mapi
        (fun i _ ->
          let neighbours =
            List.filter_map
              (fun nt ->
                let other =
                  if nt.Spec.src = regions.(i).Spec.r_name then Some nt.Spec.dst
                  else if nt.Spec.dst = regions.(i).Spec.r_name then Some nt.Spec.src
                  else None
                in
                Option.map
                  (fun o ->
                    Printf.sprintf "%s@%s"
                      sigs.(Hashtbl.find idx_of_name o)
                      (fl nt.Spec.weight))
                  other)
              spec.Spec.nets
            |> List.sort compare
          in
          hash_hex (sigs.(i) ^ "|" ^ String.concat ";" neighbours))
        regions
    in
    Array.blit next 0 sigs 0 n
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (sigs.(a), a) (sigs.(b), b)) order;
  Array.map (fun i -> regions.(i).Spec.r_name) order

let of_instance part (spec : Spec.t) =
  let kinds = kind_numbering part spec in
  let order = region_order kinds spec in
  let index_of = Hashtbl.create (2 * Array.length order) in
  Array.iteri (fun i name -> Hashtbl.add index_of name i) order;
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "rfloor-canon/1";
  line "h %d" (Partition.height part);
  (* portion sequence with first-appearance tile ids (Properties .3/.4:
     the sequence, not the names, identifies a columnar device) *)
  line "p %s"
    (String.concat ";"
       (List.map
          (fun (t, w) -> Printf.sprintf "%d,%d" t w)
          (Partition.type_sequence part)));
  (* canonical tile id -> canonical kind: walk portions again with the
     same first-appearance numbering type_sequence used *)
  let tid_canon : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let tk = Buffer.create 64 in
  Array.iter
    (fun p ->
      if not (Hashtbl.mem tid_canon p.Partition.tid) then begin
        let ct = Hashtbl.length tid_canon + 1 in
        Hashtbl.add tid_canon p.Partition.tid ct;
        Printf.bprintf tk "%d:%d;" ct
          (Hashtbl.find kinds p.Partition.tile.Resource.kind)
      end)
    part.Partition.portions;
  line "tk %s" (Buffer.contents tk);
  (* frames per canonical kind, the only kind property the model reads *)
  let kf =
    Hashtbl.fold (fun k ck acc -> (ck, Grid.frames part.Partition.grid k) :: acc) kinds []
    |> List.sort compare
    |> List.map (fun (ck, f) -> Printf.sprintf "%d:%d" ck f)
  in
  line "kf %s" (String.concat ";" kf);
  line "fb %s"
    (String.concat ";"
       (List.map rect_str (List.sort Rect.compare part.Partition.forbidden)));
  Array.iteri
    (fun i name ->
      let r = Spec.region spec name in
      let relocs =
        List.filter (fun rl -> rl.Spec.target = name) spec.Spec.relocs
        |> List.map reloc_str |> List.sort compare
      in
      line "r %d d %s rl %s" i
        (demand_str (canon_demand kinds r.Spec.demand))
        (String.concat ";" relocs))
    order;
  let nets =
    List.map
      (fun nt ->
        let a = Hashtbl.find index_of nt.Spec.src
        and b = Hashtbl.find index_of nt.Spec.dst in
        (* wire length is symmetric in the endpoints *)
        (min a b, max a b, nt.Spec.weight))
      spec.Spec.nets
    |> List.sort compare
  in
  line "n %s"
    (String.concat ";"
       (List.map (fun (a, b, w) -> Printf.sprintf "%d-%d:%s" a b (fl w)) nets));
  let instance_text = Buffer.contents buf in
  { instance_key = hash_hex instance_text; instance_text; order; index_of }

(* ---------------- canonical floorplans ---------------- *)

type plan = {
  placements : (int * Rect.t) list;
  fc_areas : (int * int * Rect.t) list;
}

let encode_plan t (p : Floorplan.t) =
  {
    placements =
      List.map
        (fun pl -> (region_index t pl.Floorplan.p_region, pl.Floorplan.p_rect))
        p.Floorplan.placements
      |> List.sort compare;
    fc_areas =
      List.map
        (fun fa ->
          (region_index t fa.Floorplan.fc_region, fa.Floorplan.fc_index, fa.Floorplan.fc_rect))
        p.Floorplan.fc_areas
      |> List.sort compare;
  }

let decode_plan t plan =
  Floorplan.make
    (List.map
       (fun (i, r) -> { Floorplan.p_region = region_name t i; p_rect = r })
       plan.placements)
    (List.map
       (fun (i, c, r) ->
         { Floorplan.fc_region = region_name t i; fc_index = c; fc_rect = r })
       plan.fc_areas)

let plan_to_string plan =
  String.concat ";"
    (List.map (fun (i, r) -> Printf.sprintf "%d@%s" i (rect_str r)) plan.placements)
  ^ "|"
  ^ String.concat ";"
      (List.map
         (fun (i, c, r) -> Printf.sprintf "%d.%d@%s" i c (rect_str r))
         plan.fc_areas)

(* ---------------- option keys ---------------- *)

(* Only answer-defining options enter the key: the strategy (an HO
   member restricts the search space it can prove optimal over; an
   LNS member carries its seed), the objective and the literal-L
   flag.  Budgets, worker counts, warm-start and observability
   options do not change what an [Optimal] answer is, and the cache
   only serves [Optimal] entries exactly — so they are normalized
   away by [strategy_text], which is sound and maximizes hits. *)
let rec strategy_text t (s : Rfloor.Solver.Strategy.t) =
  match s with
  | Rfloor.Solver.Strategy.Milp { engine = Rfloor.Solver.O; _ } -> "milp-o"
  | Rfloor.Solver.Strategy.Milp { engine = Rfloor.Solver.Ho None; _ } ->
    "milp-ho-auto"
  | Rfloor.Solver.Strategy.Milp { engine = Rfloor.Solver.Ho (Some seed); _ } ->
    "milp-ho-seed:" ^ plan_to_string (encode_plan t seed)
  | Rfloor.Solver.Strategy.Combinatorial _ -> "comb"
  | Rfloor.Solver.Strategy.Lns { seed; _ } -> Printf.sprintf "lns:%d" seed
  | Rfloor.Solver.Strategy.Portfolio ms ->
    (* member order never affects the answer a race can prove *)
    "portfolio["
    ^ String.concat "," (List.sort compare (List.map (strategy_text t) ms))
    ^ "]"

let options_text t (o : Rfloor.Solver.options) =
  let strategy = strategy_text t o.Rfloor.Solver.strategy in
  let objective =
    match o.Rfloor.Solver.objective_mode with
    | Rfloor.Solver.Lexicographic -> "lex"
    | Rfloor.Solver.Feasibility_only -> "feas"
    | Rfloor.Solver.Weighted w ->
      Printf.sprintf "w:%s,%s,%s,%s"
        (fl w.Rfloor.Objective.q_wirelength) (fl w.Rfloor.Objective.q_perimeter)
        (fl w.Rfloor.Objective.q_resources) (fl w.Rfloor.Objective.q_relocation)
  in
  Printf.sprintf "rfloor-opts/2\nstrategy %s\nobj %s\nlit %b\n" strategy
    objective o.Rfloor.Solver.paper_literal_l

let options_key t o =
  let text = options_text t o in
  (hash_hex text, text)
