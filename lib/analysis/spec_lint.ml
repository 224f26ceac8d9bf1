open Device
module D = Rfloor_diag.Diagnostic

(* ------------------------------------------------------------------ *)
(* Partition invariants (Section III, Properties .3/.4)               *)

let partition_only (part : Partition.t) =
  let out = ref [] in
  let add d = out := d :: !out in
  let ps = part.Partition.portions in
  let n = Array.length ps in
  let width = Partition.width part and height = Partition.height part in
  if n = 0 then
    add (D.diagf ~code:"RF001" D.Error D.Device "partition has no portions");
  Array.iteri
    (fun i p ->
      let open Partition in
      if p.index <> i + 1 then
        add
          (D.diagf ~code:"RF001" D.Error (D.Portion (i + 1))
             "portion at position %d has index %d (Property .4 ordering)"
             (i + 1) p.index);
      if p.x1 > p.x2 then
        add
          (D.diagf ~code:"RF001" D.Error (D.Portion (i + 1))
             "portion spans columns %d-%d (empty)" p.x1 p.x2);
      if i > 0 && ps.(i - 1).x2 + 1 <> p.x1 then
        add
          (D.diagf ~code:"RF001" D.Error (D.Portion (i + 1))
             "portion starts at column %d but the previous one ends at %d \
              (portions must tile the device left to right)"
             p.x1
             ps.(i - 1).x2);
      if i > 0 && Resource.equal_tile_type ps.(i - 1).tile p.tile then
        add
          (D.diagf ~code:"RF002" D.Error (D.Portion (i + 1))
             "adjacent portions %d and %d share type %s (Property .3)" i (i + 1)
             (Format.asprintf "%a" Resource.pp_tile_type p.tile)))
    ps;
  if n > 0 && ps.(0).Partition.x1 <> 1 then
    add
      (D.diagf ~code:"RF001" D.Error (D.Portion 1)
         "first portion starts at column %d, not 1" ps.(0).Partition.x1);
  if n > 0 && ps.(n - 1).Partition.x2 <> width then
    add
      (D.diagf ~code:"RF001" D.Error (D.Portion n)
         "last portion ends at column %d, device width is %d"
         ps.(n - 1).Partition.x2 width);
  List.iter
    (fun r ->
      if not (Rect.within ~width ~height r) then
        add
          (D.diagf ~code:"RF003" D.Error D.Device
             "forbidden area %s outside the %dx%d device" (Rect.to_string r)
             width height))
    part.Partition.forbidden;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Compatible-window sweep (cheap necessary condition for relocation) *)

(* Greedy lower bound on pairwise-disjoint sites of one compatibility
   class: pick non-overlapping column intervals left to right, stacking
   as many vertically-disjoint windows as fit at each. *)
let disjoint_estimate sites w h =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl r.Rect.x) in
      Hashtbl.replace tbl r.Rect.x (r.Rect.y :: prev))
    sites;
  let per_x =
    Hashtbl.fold (fun x ys acc -> (x, List.sort compare ys) :: acc) tbl []
    |> List.sort compare
  in
  let vertical ys =
    let count = ref 0 and last_end = ref 0 in
    List.iter
      (fun y ->
        if y > !last_end then begin
          incr count;
          last_end := y + h - 1
        end)
      ys;
    !count
  in
  let total = ref 0 and last_end = ref 0 in
  List.iter
    (fun (x, ys) ->
      if x > !last_end then begin
        total := !total + vertical ys;
        last_end := x + w - 1
      end)
    per_x;
  !total

(* Sweep every signature class (canonical representative = leftmost
   compatible column) x height; for classes satisfying the demand,
   track the best window count and disjoint-window estimate.  [stop]
   short-circuits once both reach the threshold. *)
let sweep ?stop part (demand : Resource.demand) =
  let width = Partition.width part and height = Partition.height part in
  let best_sites = ref 0 and best_disjoint = ref 0 in
  (try
     for w = 1 to width do
       for x = 1 to width - w + 1 do
         let probe = Rect.make ~x ~y:1 ~w ~h:1 in
         let xs = Compat.compatible_columns part probe in
         if List.hd xs = x then begin
           (* per-kind column counts of this signature *)
           let counts = List.map (fun k -> (k, ref 0)) Resource.all_kinds in
           for col = x to x + w - 1 do
             let ty = Partition.column_type part col in
             incr (List.assoc ty.Resource.kind counts)
           done;
           let cols_of k = !(List.assoc k counts) in
           for h = 1 to height do
             let satisfied =
               List.for_all (fun (k, n) -> h * cols_of k >= n) demand
             in
             if satisfied then begin
               let sites =
                 Compat.relocation_sites part (Rect.make ~x ~y:1 ~w ~h)
               in
               let nsites = List.length sites in
               if nsites > 0 then begin
                 if nsites > !best_sites then best_sites := nsites;
                 let dj = disjoint_estimate sites w h in
                 if dj > !best_disjoint then best_disjoint := dj;
                 match stop with
                 | Some n when !best_sites >= n && !best_disjoint >= n ->
                   raise Exit
                 | _ -> ()
               end
             end
           done
         end
       done
     done
   with Exit -> ());
  (!best_sites, !best_disjoint)

let compatible_windows part demand = sweep part demand

(* ------------------------------------------------------------------ *)
(* Design checks                                                      *)

let demand_checks part (spec : Spec.t) =
  let out = ref [] in
  let add d = out := d :: !out in
  let usable = Grid.usable_tiles part.Partition.grid in
  let over_kinds = Hashtbl.create 4 and over_regions = Hashtbl.create 4 in
  List.iter
    (fun (r : Spec.region) ->
      List.iter
        (fun (k, n) ->
          let have = Resource.demand_get usable k in
          if n > have then begin
            Hashtbl.replace over_kinds k ();
            Hashtbl.replace over_regions r.Spec.r_name ();
            add
              (D.diagf ~code:"RF004" D.Error (D.Region r.Spec.r_name)
                 "demands %d %s tiles but the device only has %d usable" n
                 (Resource.kind_to_string k) have)
          end)
        r.Spec.demand)
    spec.Spec.regions;
  (* A hard relocation copy is compatible with its region's rectangle
     (same size, same column types), so it holds at least the region's
     demand, and a valid plan keeps it disjoint from every other
     rectangle: each copy adds its region's demand to the sum. *)
  let hard_copies (r : Spec.region) =
    List.fold_left
      (fun acc (rq : Spec.reloc_req) ->
        if rq.Spec.mode = Spec.Hard && rq.Spec.target = r.Spec.r_name then
          max acc rq.Spec.copies
        else acc)
      0 spec.Spec.relocs
  in
  List.iter
    (fun (k, n) ->
      let have = Resource.demand_get usable k in
      let copies =
        List.filter_map
          (fun (r : Spec.region) ->
            let c = hard_copies r and d = Resource.demand_get r.Spec.demand k in
            if c > 0 && d > 0 then Some (r.Spec.r_name, c, c * d) else None)
          spec.Spec.regions
      in
      let total = List.fold_left (fun acc (_, _, t) -> acc + t) n copies in
      let named =
        if copies = [] then ""
        else
          Printf.sprintf " and their hard relocation copies (%s)"
            (String.concat ", "
               (List.map (fun (r, c, _) -> Printf.sprintf "%d of %s" c r) copies))
      in
      if total > have && not (Hashtbl.mem over_kinds k) then
        add
          (D.diagf ~code:"RF005" D.Error D.Design
             "regions%s collectively demand %d %s tiles, device has %d usable"
             named total (Resource.kind_to_string k) have))
    (Spec.total_demand spec);
  (List.rev !out, fun (r : Spec.region) -> Hashtbl.mem over_regions r.Spec.r_name)

let reference_checks (spec : Spec.t) =
  let known name = Spec.find_region spec name <> None in
  let nets =
    List.concat_map
      (fun (n : Spec.net) ->
        List.filter_map
          (fun e ->
            if known e then None
            else
              Some
                (D.diagf ~code:"RF008" D.Error D.Design
                   "net %s -> %s references unknown region %s" n.Spec.src
                   n.Spec.dst e))
          [ n.Spec.src; n.Spec.dst ])
      spec.Spec.nets
  in
  let relocs =
    List.filter_map
      (fun (rq : Spec.reloc_req) ->
        if known rq.Spec.target then None
        else
          Some
            (D.diagf ~code:"RF008" D.Error (D.Reloc rq.Spec.target)
               "relocation request targets unknown region %s" rq.Spec.target))
      spec.Spec.relocs
  in
  nets @ relocs

let placement_and_reloc_checks part (spec : Spec.t) ~skip_region =
  let out = ref [] in
  let add d = out := d :: !out in
  let unplaceable = Hashtbl.create 4 in
  List.iter
    (fun (r : Spec.region) ->
      if not (skip_region r) then begin
        let sites, _ = sweep ~stop:1 part r.Spec.demand in
        if sites = 0 then begin
          Hashtbl.replace unplaceable r.Spec.r_name ();
          add
            (D.diagf ~code:"RF009" D.Error (D.Region r.Spec.r_name)
               "no rectangle on the device satisfies demand %s"
               (Format.asprintf "%a" Resource.pp_demand r.Spec.demand))
        end
      end)
    spec.Spec.regions;
  List.iter
    (fun (rq : Spec.reloc_req) ->
      match Spec.find_region spec rq.Spec.target with
      | None -> () (* RF008 already reported *)
      | Some r when skip_region r || Hashtbl.mem unplaceable r.Spec.r_name -> ()
      | Some r ->
        (* the region plus [copies] free-compatible areas all live in one
           compatibility class, so that class must offer copies+1 windows *)
        let need = rq.Spec.copies + 1 in
        let sites, disjoint = sweep ~stop:need part r.Spec.demand in
        if sites < need then
          add
            (D.diagf ~code:"RF006"
               (match rq.Spec.mode with
               | Spec.Hard -> D.Error
               | Spec.Soft _ -> D.Warning)
               (D.Reloc rq.Spec.target)
               "%d cop%s requested but the best compatibility class has only \
                %d window%s (need %d)"
               rq.Spec.copies
               (if rq.Spec.copies = 1 then "y" else "ies")
               sites
               (if sites = 1 then "" else "s")
               need)
        else if rq.Spec.mode = Spec.Hard && disjoint < need then
          add
            (D.diagf ~code:"RF007" D.Warning (D.Reloc rq.Spec.target)
               "%d copies requested but only an estimated %d pairwise-disjoint \
                compatible windows exist (need %d); likely unsatisfiable"
               rq.Spec.copies disjoint need))
    spec.Spec.relocs;
  List.rev !out

let run part (spec : Spec.t) =
  let pdiags = partition_only part in
  let refs = reference_checks spec in
  let demands, over_capacity = demand_checks part spec in
  (* sweeps rely on a sane columnar structure; skip them when the
     partition itself is broken *)
  let sweeps =
    if D.has_errors pdiags then []
    else placement_and_reloc_checks part spec ~skip_region:over_capacity
  in
  pdiags @ refs @ demands @ sweeps
