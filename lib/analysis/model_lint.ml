module D = Rfloor_diag.Diagnostic
module Lp = Milp.Lp

let family_of_name name =
  let stem =
    match String.index_opt name '.' with
    | Some i when i + 1 < String.length name ->
      String.sub name (i + 1) (String.length name - i - 1)
    | _ -> name
  in
  let buf = Buffer.create (String.length stem) in
  String.iter
    (fun c -> if not (c >= '0' && c <= '9') then Buffer.add_char buf c)
    stem;
  if Buffer.length buf = 0 then "c" else Buffer.contents buf

(* Range of a row's left-hand side over the variable bounds box. *)
let activity_range lp terms =
  List.fold_left
    (fun (lo, hi) (c, v) ->
      let lb = Lp.var_lb lp v and ub = Lp.var_ub lp v in
      if c >= 0. then (lo +. (c *. lb), hi +. (c *. ub))
      else (lo +. (c *. ub), hi +. (c *. lb)))
    (0., 0.) terms

let sense_str = function Lp.Le -> "<=" | Lp.Ge -> ">=" | Lp.Eq -> "="

(* [%.12g] of [x].  A nonzero integer below 1e12 in magnitude has at
   most 12 digits, which [%.12g] prints as [string_of_int] does; that
   covers almost every coefficient and rhs of a floorplanning model,
   and skips Printf's format interpretation. *)
let add_g buf x =
  if x <> 0. && Float.is_integer x && Float.abs x < 1e12 then
    Buffer.add_string buf (string_of_int (int_of_float x))
  else Buffer.add_string buf (Printf.sprintf "%.12g" x)

let row_keys terms sense rhs =
  let buf = Buffer.create 64 in
  List.iteri
    (fun k (c, v) ->
      if k > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ':';
      add_g buf c)
    (List.sort (fun (_, v1) (_, v2) -> Int.compare v1 v2) terms);
  Buffer.add_char buf '|';
  Buffer.add_string buf (sense_str sense);
  let skey = Buffer.contents buf in
  Buffer.add_char buf '|';
  add_g buf rhs;
  (Buffer.contents buf, skey)

let run ?(spread_threshold = 1e8) lp =
  let out = ref [] in
  let add d = out := d :: !out in
  let eps rhs = 1e-6 *. (1. +. abs_float rhs) in
  (* duplicate / dominated / conflicting rows, keyed on the terms *)
  let seen_exact = Hashtbl.create 64 in
  let seen_terms = Hashtbl.create 64 in
  (* per-family min/max coefficient magnitude *)
  let families = Hashtbl.create 16 in
  Lp.iter_constrs lp (fun i terms sense rhs ->
      let name = Lp.constr_name lp i in
      (match terms with
      | [] ->
        let feasible =
          match sense with
          | Lp.Le -> 0. <= rhs +. eps rhs
          | Lp.Ge -> 0. >= rhs -. eps rhs
          | Lp.Eq -> abs_float rhs <= eps rhs
        in
        if feasible then
          add
            (D.diagf ~code:"RF101" D.Info (D.Constraint name)
               "empty row (no terms survive normalization); always satisfied")
        else
          add
            (D.diagf ~code:"RF106" D.Error (D.Constraint name)
               "empty row requires 0 %s %g; unsatisfiable" (sense_str sense) rhs)
      | _ ->
        let lo, hi = activity_range lp terms in
        let infeasible =
          match sense with
          | Lp.Le -> lo > rhs +. eps rhs
          | Lp.Ge -> hi < rhs -. eps rhs
          | Lp.Eq -> lo > rhs +. eps rhs || hi < rhs -. eps rhs
        in
        if infeasible then
          add
            (D.diagf ~code:"RF106" D.Error (D.Constraint name)
               "activity range [%g, %g] cannot satisfy %s %g under the \
                variable bounds"
               lo hi (sense_str sense) rhs));
      let ekey, skey = row_keys terms sense rhs in
      (match Hashtbl.find_opt seen_exact ekey with
      | Some first ->
        add
          (D.diagf ~code:"RF102" D.Warning (D.Constraint name)
             "duplicate of row %s (same terms, sense and rhs)" first)
      | None -> Hashtbl.replace seen_exact ekey name);
      (match Hashtbl.find_opt seen_terms skey with
      | Some (first, first_rhs) when first_rhs <> rhs -> (
        match sense with
        | Lp.Eq ->
          add
            (D.diagf ~code:"RF106" D.Error (D.Constraint name)
               "conflicts with equality row %s: same terms, rhs %g vs %g"
               first rhs first_rhs)
        | Lp.Le | Lp.Ge ->
          let this_dominated =
            match sense with
            | Lp.Le -> rhs > first_rhs
            | Lp.Ge -> rhs < first_rhs
            | Lp.Eq -> false
          in
          let weaker = if this_dominated then name else first in
          add
            (D.diagf ~code:"RF103" D.Info (D.Constraint weaker)
               "dominated by a row with the same terms and a tighter rhs"))
      | Some _ -> () (* exact duplicate, already RF102 *)
      | None -> Hashtbl.replace seen_terms skey (name, rhs));
      match terms with
      | [] -> ()
      | (c0, _) :: _ ->
        (* one lookup per row; each term folds in as [min]/[max] would,
           in term order, on float comparisons *)
        let fam = family_of_name name in
        let lo, hi =
          match Hashtbl.find_opt families fam with
          | Some range -> range
          | None -> (abs_float c0, abs_float c0)
        in
        let rec fold lo hi = function
          | [] -> Hashtbl.replace families fam (lo, hi)
          | (c, _) :: rest ->
            let m = abs_float c in
            fold (if lo <= m then lo else m) (if hi >= m then hi else m) rest
        in
        fold lo hi terms);
  (* variables *)
  let fixed = ref [] and nfixed = ref 0 in
  for v = 0 to Lp.num_vars lp - 1 do
    let lb = Lp.var_lb lp v and ub = Lp.var_ub lp v in
    if lb = ub then begin
      incr nfixed;
      if !nfixed <= 5 then fixed := Lp.var_name lp v :: !fixed
    end;
    (match Lp.var_kind lp v with
    | Lp.Integer | Lp.Binary ->
      if lb = neg_infinity || ub = infinity then
        add
          (D.diagf ~code:"RF105" D.Warning (D.Variable (Lp.var_name lp v))
             "integer variable with infinite bound [%g, %g]: branch-and-bound \
              cannot enumerate its box"
             lb ub)
    | Lp.Continuous -> ())
  done;
  if !nfixed > 0 then
    add
      (D.diagf ~code:"RF104" D.Info D.Model
         "%d variable%s fixed by equal bounds (e.g. %s)" !nfixed
         (if !nfixed = 1 then "" else "s")
         (String.concat ", " (List.rev !fixed)));
  (* conditioning per family *)
  Hashtbl.iter
    (fun fam (lo, hi) ->
      if lo > 0. && hi /. lo > spread_threshold then
        add
          (D.diagf ~code:"RF107" D.Warning (D.Family fam)
             "coefficient magnitudes span [%g, %g] (ratio %.1e): check the \
              big-M constants"
             lo hi (hi /. lo)))
    families;
  List.rev !out
