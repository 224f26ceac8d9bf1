type region = { r_name : string; demand : Resource.demand }

type net = { src : string; dst : string; weight : float }

type reloc_mode = Hard | Soft of float

type reloc_req = { target : string; copies : int; mode : reloc_mode }

type t = {
  s_name : string;
  regions : region list;
  nets : net list;
  relocs : reloc_req list;
}

let make ?(nets = []) ?(relocs = []) ~name regions =
  let names = List.map (fun r -> r.r_name) regions in
  let module S = Set.Make (String) in
  let set = S.of_list names in
  if S.cardinal set <> List.length names then
    invalid_arg "Spec.make: duplicate region names";
  List.iter
    (fun r ->
      if r.demand = [] || List.exists (fun (_, n) -> n < 0) r.demand then
        invalid_arg (Printf.sprintf "Spec.make: bad demand for %s" r.r_name))
    regions;
  (* weights are bus widths and relocation rewards: the combinatorial
     engine's prunes take them as non-negative, and a NaN or infinite
     weight leaves no objective to compare *)
  let bad_weight w = w < 0. || not (Float.is_finite w) in
  List.iter
    (fun n ->
      if not (S.mem n.src set && S.mem n.dst set) then
        invalid_arg
          (Printf.sprintf "Spec.make: net %s-%s names unknown region" n.src n.dst);
      if bad_weight n.weight then
        invalid_arg
          (Printf.sprintf
             "Spec.make: net %s-%s has weight %g; weights must be finite and \
              non-negative"
             n.src n.dst n.weight))
    nets;
  let seen_targets = ref S.empty in
  List.iter
    (fun rr ->
      if not (S.mem rr.target set) then
        invalid_arg
          (Printf.sprintf "Spec.make: relocation request for unknown region %s"
             rr.target);
      if rr.copies <= 0 then
        invalid_arg "Spec.make: relocation request with non-positive copies";
      (match rr.mode with
      | Soft w when bad_weight w ->
        invalid_arg
          (Printf.sprintf
             "Spec.make: relocation request for %s has weight %g; weights must \
              be finite and non-negative"
             rr.target w)
      | Soft _ | Hard -> ());
      if S.mem rr.target !seen_targets then
        invalid_arg
          (Printf.sprintf "Spec.make: duplicate relocation request for %s"
             rr.target);
      seen_targets := S.add rr.target !seen_targets)
    relocs;
  { s_name = name; regions; nets; relocs }

let find_region t name = List.find_opt (fun r -> r.r_name = name) t.regions

let region t name =
  match find_region t name with Some r -> r | None -> raise Not_found

let region_names t = List.map (fun r -> r.r_name) t.regions

let total_demand t =
  let tally = List.map (fun k -> (k, ref 0)) Resource.all_kinds in
  List.iter
    (fun r ->
      List.iter
        (fun (k, n) ->
          let cell = List.assoc k tally in
          cell := !cell + n)
        r.demand)
    t.regions;
  List.filter_map (fun (k, r) -> if !r > 0 then Some (k, !r) else None) tally

let total_fc_copies t = List.fold_left (fun acc rr -> acc + rr.copies) 0 t.relocs

let chain_nets ?(weight = 1.) names =
  let rec go = function
    | a :: (b :: _ as rest) -> { src = a; dst = b; weight } :: go rest
    | [ _ ] | [] -> []
  in
  go names

let with_relocs t relocs = make ~nets:t.nets ~relocs ~name:t.s_name t.regions

let pp ppf t =
  Format.fprintf ppf "design %s: %d regions, %d nets, %d relocation requests"
    t.s_name (List.length t.regions) (List.length t.nets)
    (List.length t.relocs)
