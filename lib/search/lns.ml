open Device
module T = Rfloor_trace

type options = {
  seed : int;
  time_limit : float option;
  iter_limit : int option;
  trace : Rfloor_trace.t;
  cancel : unit -> bool;
  on_improvement : (Floorplan.t -> int -> unit) option;
}

let default_options =
  {
    seed = 1;
    time_limit = None;
    iter_limit = None;
    trace = Rfloor_trace.disabled;
    cancel = (fun () -> false);
    on_improvement = None;
  }

(* splitmix64: deterministic across platforms, one int64 of state. *)
module Prng = struct
  type t = { mutable state : int64 }

  let make seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
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

  let int t bound =
    if bound <= 1 then 0
    else
      Int64.to_int
        (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end

type entity = {
  e_region : Spec.region;
  e_cands : Candidates.candidate array; (* waste ascending *)
}

(* Hard relocation requests, keyed by target, in spec order. *)
let hard_reqs (spec : Spec.t) =
  List.filter
    (fun (rr : Spec.reloc_req) -> rr.Spec.mode = Spec.Hard)
    spec.Spec.relocs

(* A working solution: region placements plus hard free-compatible
   copies.  Soft areas are only added to the final answer. *)
type state = {
  placements : (string * Rect.t) list;
  fc : Floorplan.fc_area list;
}

let plan_of st =
  Floorplan.make
    (List.map
       (fun (name, rect) -> { Floorplan.p_region = name; p_rect = rect })
       st.placements)
    st.fc

let rects_of st = List.map snd st.placements @ List.map (fun (a : Floorplan.fc_area) -> a.Floorplan.fc_rect) st.fc

(* Pick uniformly among the first [k] candidates that fit — waste
   order first keeps the construction greedy, the random pick keeps
   restarts diverse. *)
let place_one rng occupied (e : entity) =
  let k = 5 in
  let feas = ref [] and n = ref 0 and i = ref 0 in
  let cands = e.e_cands in
  while !n < k && !i < Array.length cands do
    let r = cands.(!i).Candidates.rect in
    if not (List.exists (Rect.overlaps r) occupied) then begin
      feas := r :: !feas;
      incr n
    end;
    incr i
  done;
  match !feas with
  | [] -> None
  | l ->
    let a = Array.of_list l in
    Some a.(Prng.int rng (Array.length a))

(* First-fit the hard free-compatible copies of one target, with a
   small random choice among the cheapest sites. *)
let place_hard_fc rng part occupied (rr : Spec.reloc_req) target_rect =
  let occ = ref occupied and placed = ref [] in
  let ok = ref true in
  for idx = 1 to rr.Spec.copies do
    if !ok then begin
      let sites =
        Compat.free_compatible_sites ~occupied:!occ part target_rect
      in
      (* keep at most 3 options per copy to stay cheap *)
      let opts =
        List.filteri (fun i _ -> i < 3) sites
      in
      match opts with
      | [] -> ok := false
      | l ->
        let a = Array.of_list l in
        let site = a.(Prng.int rng (Array.length a)) in
        occ := site :: !occ;
        placed :=
          { Floorplan.fc_region = rr.Spec.target; fc_index = idx;
            fc_rect = site }
          :: !placed
    end
  done;
  if !ok then Some (List.rev !placed, !occ) else None

(* Place [ents] (in the given order) on top of [st], then the hard
   free-compatible copies of exactly those regions.  None on failure. *)
let repair rng part hard ents st =
  let rec regions st = function
    | [] -> Some st
    | e :: rest -> (
      match place_one rng (rects_of st) e with
      | None -> None
      | Some rect ->
        regions
          { st with
            placements =
              st.placements @ [ (e.e_region.Spec.r_name, rect) ] }
          rest)
  in
  match regions st ents with
  | None -> None
  | Some st ->
    let names = List.map (fun e -> e.e_region.Spec.r_name) ents in
    let rec fcs st = function
      | [] -> Some st
      | (rr : Spec.reloc_req) :: rest ->
        if not (List.mem rr.Spec.target names) then fcs st rest
        else begin
          match List.assoc_opt rr.Spec.target st.placements with
          | None -> None
          | Some rect -> (
            match place_hard_fc rng part (rects_of st) rr rect with
            | None -> None
            | Some (areas, _) -> fcs { st with fc = st.fc @ areas } rest)
        end
    in
    fcs st hard

let construct rng part hard ents =
  let order = Array.copy ents in
  Prng.shuffle rng order;
  (* bias: half the time keep the biggest regions first, like the
     exact engine's default order *)
  let ents =
    if Prng.int rng 2 = 0 then Array.to_list order
    else
      List.sort
        (fun a b ->
          compare
            (Array.length a.e_cands)
            (Array.length b.e_cands))
        (Array.to_list order)
  in
  repair rng part hard ents { placements = []; fc = [] }

let key part spec st =
  let plan = plan_of st in
  (Floorplan.wasted_frames part spec plan, Floorplan.wirelength spec plan)

let solve ?(options = default_options) part (spec : Spec.t) =
  let t0 = Rfloor_trace.clock () in
  let elapsed () = Rfloor_trace.clock () -. t0 in
  let rng = Prng.make options.seed in
  let trace = options.trace in
  let hard = hard_reqs spec in
  let ents =
    List.map
      (fun (r : Spec.region) ->
        {
          e_region = r;
          e_cands = Array.of_list (Candidates.enumerate part r.Spec.demand);
        })
      spec.Spec.regions
    |> Array.of_list
  in
  let unplaceable =
    Array.exists (fun e -> Array.length e.e_cands = 0) ents
  in
  let best = ref None and best_key = ref (max_int, infinity) in
  let iters = ref 0 in
  let stop = ref None in
  let over_budget () =
    (match options.time_limit with
    | Some l when elapsed () >= l -> true
    | _ -> (
      match options.iter_limit with
      | Some l when !iters >= l -> true
      | _ -> false))
  in
  let record st =
    let k = key part spec st in
    if compare k !best_key < 0 then begin
      best := Some st;
      best_key := k;
      T.incumbent trace ~worker:0 ~objective:(float_of_int (fst k))
        ~node:!iters;
      (match options.on_improvement with
      | Some f -> f (plan_of st) (fst k)
      | None -> ());
      true
    end
    else false
  in
  if not unplaceable then
    T.span trace T.Event.Branch_bound (fun () ->
        let current = ref None in
        let stale = ref 0 in
        let running = ref true in
        while !running do
          incr iters;
          if options.cancel () then begin
            stop := Some Engine.Cancelled;
            T.stopped trace ~worker:0 "cancel";
            running := false
          end
          else if over_budget () then begin
            stop := Some Engine.Budget;
            T.stopped trace ~worker:0 "budget";
            running := false
          end
          else begin
            (match !current with
            | None -> (
              match construct rng part hard (Array.copy ents) with
              | Some st ->
                current := Some st;
                ignore (record st)
              | None -> ())
            | Some st ->
              (* disrupt: drop 1-2 random regions and their copies *)
              let n = List.length st.placements in
              if n = 0 then running := false
              else begin
                let k = 1 + Prng.int rng (min 2 n) in
                let victims = ref [] in
                while List.length !victims < k do
                  let name, _ =
                    List.nth st.placements
                      (Prng.int rng n)
                  in
                  if not (List.mem name !victims) then
                    victims := name :: !victims
                done;
                let keep_p =
                  List.filter
                    (fun (nm, _) -> not (List.mem nm !victims))
                    st.placements
                and keep_fc =
                  List.filter
                    (fun (a : Floorplan.fc_area) ->
                      not (List.mem a.Floorplan.fc_region !victims))
                    st.fc
                in
                let removed =
                  List.filter
                    (fun e ->
                      List.mem e.e_region.Spec.r_name !victims)
                    (Array.to_list ents)
                in
                let removed = Array.of_list removed in
                Prng.shuffle rng removed;
                match
                  repair rng part hard (Array.to_list removed)
                    { placements = keep_p; fc = keep_fc }
                with
                | Some st' when compare (key part spec st') (key part spec st) < 0 ->
                  current := Some st';
                  if record st' then stale := 0 else incr stale
                | _ -> incr stale
              end);
            if !stale > 80 then begin
              stale := 0;
              current := None;
              T.restart trace ~worker:0 "lns-reconstruct"
            end
          end
        done);
  T.add_worker_totals trace ~worker:0 ~nodes:!iters ~iterations:0;
  let plan = Option.map plan_of !best in
  let plan = Option.map (Engine.add_soft_areas part spec) plan in
  {
    Engine.plan;
    wasted =
      Option.map (fun p -> Floorplan.wasted_frames part spec p) plan;
    wirelength = Option.map (fun p -> Floorplan.wirelength spec p) plan;
    optimal = false;
    nodes = !iters;
    elapsed = elapsed ();
    stop = !stop;
  }
