(* Tests for the MILP substrate: simplex against hand-solved and
   brute-force-enumerated LPs, branch-and-bound against exhaustive
   integer enumeration, presolve soundness, LP-format round trips. *)

open Milp

let check_float = Alcotest.(check (float 1e-5))

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Brute-force LP solver: enumerate basic solutions (vertices) of
   { Ax sense b, l <= x <= u } by picking n tight constraints among
   rows-as-equalities and variable bounds, solving the linear system and
   keeping the best feasible point.  Exponential; for tiny LPs only. *)

let gaussian_solve a b =
  (* a: n x n, b: n; returns solution or None if singular *)
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  let ok = ref true in
  for col = 0 to n - 1 do
    if !ok then begin
      let piv = ref col in
      for i = col + 1 to n - 1 do
        if abs_float a.(i).(col) > abs_float a.(!piv).(col) then piv := i
      done;
      if abs_float a.(!piv).(col) < 1e-9 then ok := false
      else begin
        if !piv <> col then begin
          let t = a.(col) in a.(col) <- a.(!piv); a.(!piv) <- t;
          let t = b.(col) in b.(col) <- b.(!piv); b.(!piv) <- t
        end;
        for i = 0 to n - 1 do
          if i <> col then begin
            let f = a.(i).(col) /. a.(col).(col) in
            if f <> 0. then begin
              for k = col to n - 1 do
                a.(i).(k) <- a.(i).(k) -. (f *. a.(col).(k))
              done;
              b.(i) <- b.(i) -. (f *. b.(col))
            end
          end
        done
      end
    end
  done;
  if not !ok then None
  else Some (Array.init n (fun i -> b.(i) /. a.(i).(i)))

type brute_lp_result = B_opt of float | B_infeasible

let brute_force_lp lp =
  let n = Lp.num_vars lp in
  let rows = ref [] in
  Lp.iter_constrs lp (fun _ terms _ rhs ->
      let coefs = Array.make n 0. in
      List.iter (fun (c, v) -> coefs.(v) <- coefs.(v) +. c) terms;
      rows := (coefs, rhs) :: !rows);
  for v = 0 to n - 1 do
    let lb = Lp.var_lb lp v and ub = Lp.var_ub lp v in
    let unit x = Array.init n (fun i -> if i = v then x else 0.) in
    if Float.is_finite lb then rows := (unit 1., lb) :: !rows;
    if Float.is_finite ub then rows := (unit 1., ub) :: !rows
  done;
  let rows = Array.of_list !rows in
  let nrows = Array.length rows in
  let feasible x =
    Lp.constr_violation lp x < 1e-6 && Lp.bounds_violation lp x < 1e-6
  in
  let best = ref None in
  let consider x =
    if feasible x then begin
      let obj = Lp.objective_value lp x in
      let key =
        match Lp.objective_dir lp with Lp.Minimize -> obj | Lp.Maximize -> -.obj
      in
      match !best with
      | Some (k, _) when k <= key -> ()
      | _ -> best := Some (key, obj)
    end
  in
  (* all n-subsets of rows *)
  let idx = Array.make n 0 in
  let rec pick depth start =
    if depth = n then begin
      let a = Array.init n (fun i -> fst rows.(idx.(i))) in
      let b = Array.init n (fun i -> snd rows.(idx.(i))) in
      match gaussian_solve a b with Some x -> consider x | None -> ()
    end
    else
      for i = start to nrows - 1 do
        idx.(depth) <- i;
        pick (depth + 1) (i + 1)
      done
  in
  if n = 0 then B_opt (Lp.objective_constant lp)
  else begin
    pick 0 0;
    match !best with
    | Some (_, obj) -> B_opt obj
    | None ->
      (* no vertex: either infeasible or (rare, with infinite bounds)
         unbounded/non-vertex; report accordingly *)
      B_infeasible
  end

(* ------------------------------------------------------------------ *)
(* Hand-built LPs *)

let test_simplex_basic () =
  (* max 3x + 2y st x + y <= 4, x + 3y <= 6, x,y >= 0 -> x=4, y=0, obj 12 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~name:"x" () in
  let y = Lp.add_var lp ~name:"y" () in
  Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 4.;
  Lp.add_constr lp [ (1., x); (3., y) ] Lp.Le 6.;
  Lp.set_objective lp Lp.Maximize [ (3., x); (2., y) ];
  let r = Simplex.solve lp in
  Alcotest.(check bool) "optimal" true (r.Simplex.status = Simplex.Optimal);
  check_float "objective" 12. r.Simplex.objective;
  check_float "x" 4. r.Simplex.x.(x);
  check_float "y" 0. r.Simplex.x.(y)

let test_simplex_degenerate () =
  (* degeneracy-prone LP (Beale-style ratios); must terminate and agree
     with the brute-force vertex enumeration *)
  let lp = Lp.create () in
  let x1 = Lp.add_var lp ~ub:10. () in
  let x2 = Lp.add_var lp ~ub:10. () in
  let x3 = Lp.add_var lp ~ub:10. () in
  Lp.add_constr lp [ (0.5, x1); (-5.5, x2); (-2.5, x3) ] Lp.Le 0.;
  Lp.add_constr lp [ (0.5, x1); (-1.5, x2); (-0.5, x3) ] Lp.Le 0.;
  Lp.add_constr lp [ (1., x1) ] Lp.Le 1.;
  Lp.set_objective lp Lp.Maximize [ (10., x1); (-57., x2); (-9., x3) ];
  let r = Simplex.solve lp in
  Alcotest.(check bool) "optimal" true (r.Simplex.status = Simplex.Optimal);
  match brute_force_lp lp with
  | B_opt obj -> check_float "objective" obj r.Simplex.objective
  | B_infeasible -> Alcotest.fail "brute force says infeasible"

let test_simplex_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:1. () in
  Lp.add_constr lp [ (1., x) ] Lp.Ge 2.;
  Lp.set_objective lp Lp.Minimize [ (1., x) ];
  let r = Simplex.solve lp in
  Alcotest.(check bool) "infeasible" true (r.Simplex.status = Simplex.Infeasible)

let test_simplex_unbounded () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  let y = Lp.add_var lp () in
  Lp.add_constr lp [ (1., x); (-1., y) ] Lp.Le 1.;
  Lp.set_objective lp Lp.Maximize [ (1., x) ];
  let r = Simplex.solve lp in
  Alcotest.(check bool) "unbounded" true (r.Simplex.status = Simplex.Unbounded)

let test_simplex_equalities () =
  (* min x + y st x + y = 3, x - y = 1 -> x=2, y=1, obj 3 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~lb:neg_infinity () in
  let y = Lp.add_var lp ~lb:neg_infinity () in
  Lp.add_constr lp [ (1., x); (1., y) ] Lp.Eq 3.;
  Lp.add_constr lp [ (1., x); (-1., y) ] Lp.Eq 1.;
  Lp.set_objective lp Lp.Minimize [ (1., x); (1., y) ];
  let r = Simplex.solve lp in
  Alcotest.(check bool) "optimal" true (r.Simplex.status = Simplex.Optimal);
  check_float "objective" 3. r.Simplex.objective;
  check_float "x" 2. r.Simplex.x.(x);
  check_float "y" 1. r.Simplex.x.(y)

let test_simplex_negative_bounds () =
  (* min x st -5 <= x <= -2 -> -5 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~lb:(-5.) ~ub:(-2.) () in
  Lp.set_objective lp Lp.Minimize [ (1., x) ];
  let r = Simplex.solve lp in
  check_float "objective" (-5.) r.Simplex.objective

let test_simplex_free_vars () =
  (* min x + 2y st x + y >= 2, x - y <= 0, x free, y free -> x=1,y=1? check:
     min on the line: objective decreases along (1,-1)? x+2y with x+y=2 ->
     x + 2(2-x) = 4 - x, maximize x subject to x - y <= 0 -> x <= y = 2 - x
     -> x <= 1, so x=1,y=1, obj 3 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~lb:neg_infinity () in
  let y = Lp.add_var lp ~lb:neg_infinity () in
  Lp.add_constr lp [ (1., x); (1., y) ] Lp.Ge 2.;
  Lp.add_constr lp [ (1., x); (-1., y) ] Lp.Le 0.;
  Lp.set_objective lp Lp.Minimize [ (1., x); (2., y) ];
  let r = Simplex.solve lp in
  Alcotest.(check bool) "optimal" true (r.Simplex.status = Simplex.Optimal);
  check_float "objective" 3. r.Simplex.objective

(* ------------------------------------------------------------------ *)
(* Branch and bound *)

let test_bb_knapsack () =
  (* max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binary -> a=1,c=1 (17) vs
     b=c (20): 4+2=6 -> b=1,c=1 obj 20 *)
  let lp = Lp.create () in
  let a = Lp.add_var lp ~kind:Lp.Binary () in
  let b = Lp.add_var lp ~kind:Lp.Binary () in
  let c = Lp.add_var lp ~kind:Lp.Binary () in
  Lp.add_constr lp [ (3., a); (4., b); (2., c) ] Lp.Le 6.;
  Lp.set_objective lp Lp.Maximize [ (10., a); (13., b); (7., c) ];
  let r = Branch_bound.solve lp in
  Alcotest.(check bool) "optimal" true (r.Branch_bound.status = Branch_bound.Optimal);
  (match r.Branch_bound.incumbent with
  | Some (obj, x) ->
    check_float "objective" 20. obj;
    check_float "b" 1. x.(b);
    check_float "c" 1. x.(c)
  | None -> Alcotest.fail "no incumbent")

let test_bb_integer_rounding_matters () =
  (* max x + y st 2x + 2y <= 3, integer -> LP opt 1.5, IP opt 1 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~kind:Lp.Integer ~ub:10. () in
  let y = Lp.add_var lp ~kind:Lp.Integer ~ub:10. () in
  Lp.add_constr lp [ (2., x); (2., y) ] Lp.Le 3.;
  Lp.set_objective lp Lp.Maximize [ (1., x); (1., y) ];
  let r = Branch_bound.solve lp in
  match r.Branch_bound.incumbent with
  | Some (obj, _) -> check_float "objective" 1. obj
  | None -> Alcotest.fail "no incumbent"

let test_bb_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~kind:Lp.Integer ~ub:10. () in
  (* 2x = 3 has no integer solution but a fractional one *)
  Lp.add_constr lp [ (2., x) ] Lp.Eq 3.;
  Lp.set_objective lp Lp.Minimize [ (1., x) ];
  let r = Branch_bound.solve lp in
  Alcotest.(check bool) "infeasible" true
    (r.Branch_bound.status = Branch_bound.Infeasible)

let test_presolve_proven_infeasible () =
  (* x + y >= 10 with x, y in [0, 1]: activity-based bound propagation
     alone proves infeasibility, no simplex needed *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~name:"x" ~ub:1. () in
  let y = Lp.add_var lp ~name:"y" ~ub:1. () in
  Lp.add_constr lp ~name:"cover" [ (1., x); (1., y) ] Lp.Ge 10.;
  Lp.set_objective lp Lp.Minimize [ (1., x); (1., y) ];
  (* the model-lint preflight must reach the same verdict independently
     (RF106: row infeasible under the variable bounds) *)
  let ds = Rfloor_analysis.Model_lint.run (Lp.copy lp) in
  Alcotest.(check bool) "preflight flags RF106" true
    (List.exists
       (fun d ->
         d.Rfloor_diag.Diagnostic.code = "RF106"
         && d.Rfloor_diag.Diagnostic.severity
            = Rfloor_diag.Diagnostic.Error)
       ds);
  match Presolve.tighten lp with
  | Presolve.Proven_infeasible -> ()
  | Presolve.Tightened _ -> Alcotest.fail "presolve missed the infeasibility"

let test_bb_mixed () =
  (* min 2i + f st i + f >= 2.5, f <= 0.7, i integer -> i=2, f=0.5, obj 4.5 *)
  let lp = Lp.create () in
  let i = Lp.add_var lp ~kind:Lp.Integer ~ub:10. () in
  let f = Lp.add_var lp ~ub:0.7 () in
  Lp.add_constr lp [ (1., i); (1., f) ] Lp.Ge 2.5;
  Lp.set_objective lp Lp.Minimize [ (2., i); (1., f) ];
  let r = Branch_bound.solve lp in
  match r.Branch_bound.incumbent with
  | Some (obj, x) ->
    check_float "objective" 4.5 obj;
    check_float "i" 2. x.(i)
  | None -> Alcotest.fail "no incumbent"

let test_bb_warm_incumbent () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~kind:Lp.Integer ~ub:5. () in
  let y = Lp.add_var lp ~kind:Lp.Integer ~ub:5. () in
  Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 7.;
  Lp.set_objective lp Lp.Maximize [ (2., x); (3., y) ];
  let warm = [| 1.; 1. |] in
  let r = Branch_bound.solve ~incumbent:warm lp in
  match r.Branch_bound.incumbent with
  | Some (obj, _) -> check_float "objective" 19. obj (* x=2,y=5 *)
  | None -> Alcotest.fail "no incumbent"

(* ------------------------------------------------------------------ *)
(* Random cross-check generators *)

let rand_lp ~integer rng =
  let int_range lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let n = int_range 1 4 in
  let m = int_range 1 4 in
  let lp = Lp.create () in
  let coef () = float_of_int (int_range (-4) 4) in
  let vars =
    Array.init n (fun _ ->
        let ub = float_of_int (int_range 1 5) in
        let kind = if integer then Lp.Integer else Lp.Continuous in
        Lp.add_var lp ~lb:0. ~ub ~kind ())
  in
  for _ = 1 to m do
    let terms = Array.to_list (Array.map (fun v -> (coef (), v)) vars) in
    let sense =
      match int_range 0 2 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq
    in
    (* keep rhs in a plausible range so some instances are feasible *)
    let rhs = float_of_int (int_range (-3) 10) in
    Lp.add_constr lp terms sense rhs
  done;
  let obj = Array.to_list (Array.map (fun v -> (coef (), v)) vars) in
  let dir = if Random.State.bool rng then Lp.Minimize else Lp.Maximize in
  Lp.set_objective lp dir obj;
  lp

let prop_simplex_matches_bruteforce =
  QCheck2.Test.make ~name:"simplex matches brute-force vertex enumeration"
    ~count:300 ~print:(fun lp -> Lp_format.to_string lp)
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng -> rand_lp ~integer:false rng)
       ~shrink:(fun _ -> Seq.empty))
    (fun lp ->
      let r = Simplex.solve lp in
      match (r.Simplex.status, brute_force_lp lp) with
      | Simplex.Optimal, B_opt obj ->
        abs_float (r.Simplex.objective -. obj) < 1e-5
        && Lp.constr_violation lp r.Simplex.x < 1e-6
        && Lp.bounds_violation lp r.Simplex.x < 1e-6
      | Simplex.Infeasible, B_infeasible -> true
      | Simplex.Optimal, B_infeasible -> false
      | Simplex.Infeasible, B_opt _ -> false
      | (Simplex.Unbounded | Simplex.Iter_limit), _ ->
        (* bounded boxes: unbounded impossible; iteration limit suspicious *)
        false)

(* exhaustive integer enumeration for pure-IP instances *)
let brute_force_ip lp =
  let n = Lp.num_vars lp in
  let best = ref None in
  let x = Array.make n 0. in
  let rec go v =
    if v = n then begin
      if Lp.constr_violation lp x < 1e-6 then begin
        let obj = Lp.objective_value lp x in
        let key =
          match Lp.objective_dir lp with Lp.Minimize -> obj | Lp.Maximize -> -.obj
        in
        match !best with
        | Some k when k <= key -> ()
        | _ -> best := Some key
      end
    end
    else begin
      let lb = int_of_float (Lp.var_lb lp v) and ub = int_of_float (Lp.var_ub lp v) in
      for i = lb to ub do
        x.(v) <- float_of_int i;
        go (v + 1)
      done
    end
  in
  go 0;
  !best

let prop_bb_matches_enumeration =
  QCheck2.Test.make ~name:"branch&bound matches exhaustive integer enumeration"
    ~count:200 ~print:(fun lp -> Lp_format.to_string lp)
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng -> rand_lp ~integer:true rng)
       ~shrink:(fun _ -> Seq.empty))
    (fun lp ->
      let r = Branch_bound.solve lp in
      let brute = brute_force_ip lp in
      let key obj =
        match Lp.objective_dir lp with Lp.Minimize -> obj | Lp.Maximize -> -.obj
      in
      match (r.Branch_bound.status, r.Branch_bound.incumbent, brute) with
      | Branch_bound.Optimal, Some (obj, x), Some k ->
        abs_float (key obj -. k) < 1e-5 && Lp.validate lp x = Ok ()
      | Branch_bound.Infeasible, None, None -> true
      | Branch_bound.Optimal, Some _, None -> false
      | Branch_bound.Infeasible, None, Some _ -> false
      | _ -> false)

let prop_presolve_preserves_optimum =
  QCheck2.Test.make ~name:"presolve preserves the MILP optimum" ~count:150
    ~print:(fun lp -> Lp_format.to_string lp)
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng -> rand_lp ~integer:true rng)
       ~shrink:(fun _ -> Seq.empty))
    (fun lp ->
      let before = Branch_bound.solve lp in
      let lp' = Lp.copy lp in
      match Presolve.tighten lp' with
      | Presolve.Proven_infeasible ->
        before.Branch_bound.status = Branch_bound.Infeasible
      | Presolve.Tightened _ -> (
        let after = Branch_bound.solve lp' in
        match (before.Branch_bound.incumbent, after.Branch_bound.incumbent) with
        | Some (o1, _), Some (o2, _) -> abs_float (o1 -. o2) < 1e-5
        | None, None -> true
        | _ -> false))

let prop_lp_format_roundtrip =
  QCheck2.Test.make ~name:"LP format write/parse round trip preserves optimum"
    ~count:150
    ~print:(fun lp -> Lp_format.to_string lp)
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng -> rand_lp ~integer:(Random.State.bool rng) rng)
       ~shrink:(fun _ -> Seq.empty))
    (fun lp ->
      match Lp_format.parse (Lp_format.to_string lp) with
      | Error msg -> QCheck2.Test.fail_report ("parse failed: " ^ msg)
      | Ok lp' ->
        Lp.num_vars lp' = Lp.num_vars lp
        && Lp.num_constrs lp' = Lp.num_constrs lp
        &&
        let r = Branch_bound.solve lp and r' = Branch_bound.solve lp' in
        (match (r.Branch_bound.incumbent, r'.Branch_bound.incumbent) with
        | Some (o1, _), Some (o2, _) -> abs_float (o1 -. o2) < 1e-5
        | None, None -> true
        | _ -> false))

let test_lp_format_writer_shape () =
  let lp = Lp.create ~name:"demo" () in
  let x = Lp.add_var lp ~name:"x one" ~kind:Lp.Binary () in
  let y = Lp.add_var lp ~name:"y" ~kind:Lp.Integer ~ub:7. () in
  Lp.add_constr lp ~name:"cap" [ (2., x); (3., y) ] Lp.Le 12.;
  Lp.set_objective lp Lp.Maximize [ (1., x); (2., y) ];
  let s = Lp_format.to_string lp in
  Alcotest.(check bool) "has Maximize" true (contains s "Maximize");
  Alcotest.(check bool) "sanitized name" true (contains s "x_one")

let test_mps_writer_shape () =
  let lp = Lp.create ~name:"demo" () in
  let x = Lp.add_var lp ~name:"x" ~kind:Lp.Binary () in
  Lp.add_constr lp [ (1., x) ] Lp.Le 1.;
  Lp.set_objective lp Lp.Minimize [ (1., x) ];
  let s = Mps.to_string lp in
  Alcotest.(check bool) "has ROWS" true (contains s "ROWS");
  Alcotest.(check bool) "has marker" true (contains s "INTORG")

(* ------------------------------------------------------------------ *)
(* Sparse LP core fixtures: cycling, warm-start fallback, refactor
   triggers, ill-conditioned bases *)

module R = Rfloor_metrics.Registry

let counter reg name = R.Counter.value (R.counter reg name)

(* Beale's classic cycling LP: Dantzig-style pricing with fixed
   tie-breaking cycles forever on it; the anti-cycling path (degenerate
   streak -> Bland's rule) must terminate at the optimum -1/20. *)
let test_simplex_beale_cycling () =
  let lp = Lp.create ~name:"beale" () in
  let x1 = Lp.add_var lp ~name:"x1" () in
  let x2 = Lp.add_var lp ~name:"x2" () in
  let x3 = Lp.add_var lp ~name:"x3" () in
  let x4 = Lp.add_var lp ~name:"x4" () in
  Lp.add_constr lp [ (0.25, x1); (-60., x2); (-1. /. 25., x3); (9., x4) ] Lp.Le 0.;
  Lp.add_constr lp [ (0.5, x1); (-90., x2); (-1. /. 50., x3); (3., x4) ] Lp.Le 0.;
  Lp.add_constr lp [ (1., x3) ] Lp.Le 1.;
  Lp.set_objective lp Lp.Minimize
    [ (-0.75, x1); (150., x2); (-1. /. 50., x3); (6., x4) ];
  let r = Simplex.solve lp in
  Alcotest.(check bool) "terminates at optimum" true (r.Simplex.status = Simplex.Optimal);
  check_float "beale objective" (-0.05) r.Simplex.objective

(* A parent basis recorded with x fixed at 0 carries a negative reduced
   cost for x at its lower bound; re-solving with x freed makes that
   basis dual infeasible, so the warm path must decline and the cold
   fallback must still produce the right answer. *)
let test_warm_dual_infeasible_falls_back () =
  let lp = Lp.create ~name:"warm_fallback" () in
  let x = Lp.add_var lp ~name:"x" ~lb:0. ~ub:5. () in
  Lp.add_constr lp [ (1., x) ] Lp.Le 7.;
  Lp.set_objective lp Lp.Maximize [ (1., x) ];
  let core = Simplex.Core.of_lp lp in
  let reg = R.create () in
  let instr = Simplex.instruments reg in
  (* parent: x fixed at 0 (think "branched down to zero") *)
  let fixed = [| 0. |] in
  let parent_r, parent_basis =
    Simplex.Core.solve_warm ~lb:fixed ~ub:fixed ~instr core
  in
  Alcotest.(check bool) "parent optimal" true
    (parent_r.Simplex.status = Simplex.Optimal);
  let parent = Option.get parent_basis in
  let warm_before = counter reg "rfloor_lp_warm_starts_total" in
  (* child widens the bounds back out: dual infeasible warm start *)
  let r, _ =
    Simplex.Core.solve_warm ~lb:[| 0. |] ~ub:[| 5. |] ~warm:parent ~instr core
  in
  Alcotest.(check bool) "fallback solved" true (r.Simplex.status = Simplex.Optimal);
  check_float "fallback objective" 5. r.Simplex.objective;
  Alcotest.(check int) "warm counter untouched by the fallback" warm_before
    (counter reg "rfloor_lp_warm_starts_total");
  (* positive control: a bound tightening keeps the parent basis dual
     feasible, and the dual path must serve it warm *)
  let root_r, root_basis = Simplex.Core.solve_warm ~instr core in
  Alcotest.(check bool) "root optimal" true (root_r.Simplex.status = Simplex.Optimal);
  let root = Option.get root_basis in
  let warm_before = counter reg "rfloor_lp_warm_starts_total" in
  let r, _ =
    Simplex.Core.solve_warm ~lb:[| 0. |] ~ub:[| 3. |] ~warm:root ~instr core
  in
  Alcotest.(check bool) "warm child optimal" true (r.Simplex.status = Simplex.Optimal);
  check_float "warm child objective" 3. r.Simplex.objective;
  Alcotest.(check int) "warm counter incremented" (warm_before + 1)
    (counter reg "rfloor_lp_warm_starts_total")

(* Every warm fallback names its reason in the [Lp_warm] event, and
   the cold re-solve still answers correctly. *)
let test_warm_fallback_reasons () =
  let warm_events trace_run =
    let ring = Rfloor_trace.Ring.create () in
    let trace = Rfloor_trace.create ~sink:(Rfloor_trace.Ring.sink ring) () in
    let r = trace_run trace in
    ( r,
      List.filter_map
        (fun (e : Rfloor_trace.Event.t) ->
          match e.Rfloor_trace.Event.payload with
          | Rfloor_trace.Event.Lp_warm { result } -> Some result
          | _ -> None)
        (Rfloor_trace.Ring.events ring) )
  in
  let check_reason what want (r, events) =
    Alcotest.(check (list string)) what [ want ] events;
    r
  in
  (* max x + y  s.t.  x + y <= 4,  x, y in [0, 3] *)
  let lp = Lp.create ~name:"warm_reasons" () in
  let x = Lp.add_var lp ~name:"x" ~lb:0. ~ub:3. () in
  let y = Lp.add_var lp ~name:"y" ~lb:0. ~ub:3. () in
  Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 4.;
  Lp.set_objective lp Lp.Maximize [ (1., x); (1., y) ];
  let core = Simplex.Core.of_lp lp in
  let root_r, root_basis = Simplex.Core.solve_warm core in
  check_float "root objective" 4. root_r.Simplex.objective;
  let root = Option.get root_basis in
  (* a snapshot of another problem's shape *)
  let other = Lp.create ~name:"other" () in
  let z = Lp.add_var other ~name:"z" ~lb:0. ~ub:5. () in
  Lp.add_constr other [ (1., z) ] Lp.Le 7.;
  Lp.set_objective other Lp.Maximize [ (1., z) ];
  let other_core = Simplex.Core.of_lp other in
  let r =
    check_reason "mismatched snapshot" "fallback:shape"
      (warm_events (fun trace ->
           fst (Simplex.Core.solve_warm ~warm:root ~trace other_core)))
  in
  check_float "shape fallback objective" 5. r.Simplex.objective;
  (* the same rows with the objective reversed: the root basis is dual
     infeasible there *)
  let flipped = Lp.create ~name:"warm_reasons_min" () in
  let fx = Lp.add_var flipped ~name:"x" ~lb:0. ~ub:3. () in
  let fy = Lp.add_var flipped ~name:"y" ~lb:0. ~ub:3. () in
  Lp.add_constr flipped [ (1., fx); (1., fy) ] Lp.Le 4.;
  Lp.set_objective flipped Lp.Minimize [ (-1., fx); (-2., fy) ];
  let r =
    check_reason "reversed objective" "fallback:dual_infeasible"
      (warm_events (fun trace ->
           fst
             (Simplex.Core.solve_warm ~warm:root ~trace
                (Simplex.Core.of_lp flipped))))
  in
  check_float "dual-infeasible fallback objective" (-7.) r.Simplex.objective;
  (* both variables fixed at 3 break the row: the dual ratio test has
     no column to bring in, and the cold solve proves infeasibility *)
  let r =
    check_reason "infeasible child" "fallback:no_entering"
      (warm_events (fun trace ->
           fst
             (Simplex.Core.solve_warm ~lb:[| 3.; 3. |] ~ub:[| 3.; 3. |]
                ~warm:root ~trace core)))
  in
  Alcotest.(check bool) "infeasible child" true (r.Simplex.status = Simplex.Infeasible);
  (* positive control: a plain branching flip is served warm *)
  let r =
    check_reason "branching child" "dual"
      (warm_events (fun trace ->
           fst
             (Simplex.Core.solve_warm ~lb:[| 0.; 0. |] ~ub:[| 3.; 0. |]
                ~warm:root ~trace core)))
  in
  check_float "warm child objective" 3. r.Simplex.objective

(* A solve that pivots past the eta cap must refactorize mid-solve:
   more than 64 product-form updates forces at least one periodic
   rebuild on top of the initial and final factorizations.  The
   instance is a dense seeded LP big enough that devex still needs
   >64 basis changes; the objective is pinned against the frozen dense
   reference solver. *)
let test_refactor_trigger () =
  let prng = Generators.Prng.make (Generators.base_seed () + 31337) in
  let lp = Lp.create ~name:"refactor_mill" () in
  let n = 120 in
  let xs =
    Array.init n (fun i ->
        Lp.add_var lp ~name:(Printf.sprintf "x%d" i) ~lb:0. ~ub:10. ())
  in
  for r = 0 to n - 1 do
    let terms = ref [] in
    Array.iteri
      (fun j x ->
        if j = r || Generators.Prng.int prng 100 < 35 then
          terms := (float_of_int (Generators.Prng.range prng 1 9), x) :: !terms)
      xs;
    Lp.add_constr lp !terms Lp.Le (float_of_int (Generators.Prng.range prng 20 60))
  done;
  Lp.set_objective lp Lp.Maximize
    (Array.to_list
       (Array.map
          (fun x -> (float_of_int (Generators.Prng.range prng 1 9), x))
          xs));
  let reg = R.create () in
  let r = Simplex.solve ~metrics:reg lp in
  Alcotest.(check bool) "mill optimal" true (r.Simplex.status = Simplex.Optimal);
  let reference = Reference_simplex.solve lp in
  Alcotest.(check bool) "reference optimal" true
    (reference.Reference_simplex.status = Reference_simplex.Optimal);
  check_float "objective matches dense reference"
    reference.Reference_simplex.objective r.Simplex.objective;
  let ft = counter reg "rfloor_lp_ft_updates_total" in
  let factors = counter reg "rfloor_lp_factorizations_total" in
  Alcotest.(check bool)
    (Printf.sprintf "enough pivots to cross the eta cap (%d updates)" ft)
    true (ft > 64);
  (* initial + at least one periodic + final *)
  Alcotest.(check bool)
    (Printf.sprintf "periodic refactorization happened (%d factors)" factors)
    true (factors >= 3)

(* Ill-conditioned (Hilbert-like) constraint rows: the sparse LU with
   partial pivoting and stability-triggered refactorization must still
   agree with the dense reference. *)
let test_ill_conditioned_basis () =
  let lp = Lp.create ~name:"hilbert" () in
  let n = 8 in
  let xs =
    Array.init n (fun i ->
        Lp.add_var lp ~name:(Printf.sprintf "h%d" i) ~lb:0. ~ub:100. ())
  in
  for r = 0 to n - 1 do
    let terms =
      Array.to_list
        (Array.mapi (fun j x -> (1. /. float_of_int (r + j + 1), x)) xs)
    in
    Lp.add_constr lp terms Lp.Le 1.
  done;
  Lp.set_objective lp Lp.Maximize
    (Array.to_list (Array.map (fun x -> (1., x)) xs));
  let r = Simplex.solve lp in
  let reference = Reference_simplex.solve lp in
  Alcotest.(check bool) "hilbert optimal" true (r.Simplex.status = Simplex.Optimal);
  Alcotest.(check bool) "reference optimal" true
    (reference.Reference_simplex.status = Reference_simplex.Optimal);
  if
    Float.abs (r.Simplex.objective -. reference.Reference_simplex.objective)
    > 1e-5 *. Float.max 1. (Float.abs reference.Reference_simplex.objective)
  then
    Alcotest.failf "hilbert objective: sparse %.9f, dense reference %.9f"
      r.Simplex.objective reference.Reference_simplex.objective

(* The primal loop carries reduced costs through pivots by updates, and
   an update can lose a small reduced cost in a large intermediate.
   Here q enters first on the pivot 2^-27, so theta = -2^13 / 2^-27 =
   -2^40 and j's reduced cost -2^-15 becomes 2^40 - 2^-15, which rounds
   to 2^40 (half an ulp there is 2^-14); p then drives q out to its
   upper bound and the update brings j back to exactly 0, where j does
   not price in.  Its true reduced cost is still -2^-15, so only the
   recompute before the optimal verdict moves j to its upper bound. *)
let test_optimal_verdict_repriced () =
  let lp = Lp.create ~name:"lost_reduced_cost" () in
  let q = Lp.add_var lp ~name:"q" ~lb:0. ~ub:10. () in
  let p = Lp.add_var lp ~name:"p" ~lb:0. ~ub:1e5 () in
  let j = Lp.add_var lp ~name:"j" ~lb:0. ~ub:1000. () in
  Lp.add_constr lp [ (Float.ldexp 1. (-27), q); (-1., p); (1., j) ] Lp.Le 0.;
  Lp.set_objective lp Lp.Minimize
    [ (-8192., q); (-.Float.ldexp 1. (-15), j) ];
  let r = Simplex.solve lp in
  Alcotest.(check bool) "optimal" true (r.Simplex.status = Simplex.Optimal);
  Alcotest.(check (float 0.)) "q at its upper bound" 10. r.Simplex.x.(q);
  Alcotest.(check (float 0.)) "j priced in to its upper bound" 1000.
    r.Simplex.x.(j);
  Alcotest.(check (float 1e-9)) "objective"
    (-81920. -. (1000. *. Float.ldexp 1. (-15)))
    r.Simplex.objective

(* Regression for elapsed accounting around cooperative stops: a
   cancelled solve hands its node back to the open list, and [elapsed]
   must stay a single non-negative sample of this call's own wall
   time — never accumulate across the requeue or go negative. *)
let test_elapsed_monotone_on_stops () =
  let lp = Generators.hard_knapsack ~seed:(Generators.base_seed ()) in
  let check what (r : Branch_bound.result) outer =
    if r.Branch_bound.elapsed < 0. then
      Alcotest.failf "%s: negative elapsed %g" what r.Branch_bound.elapsed;
    if r.Branch_bound.elapsed > outer +. 0.25 then
      Alcotest.failf "%s: elapsed %g exceeds the call's own wall time %g"
        what r.Branch_bound.elapsed outer
  in
  let polls = ref 0 in
  let opts =
    {
      Branch_bound.default_options with
      Branch_bound.cancel =
        (fun () ->
          incr polls;
          !polls >= 5);
    }
  in
  let t0 = Unix.gettimeofday () in
  let r = Branch_bound.solve ~options:opts lp in
  check "sequential cancel" r (Unix.gettimeofday () -. t0);
  Alcotest.(check bool) "cancel stop reported" true
    (r.Branch_bound.stop = Some Branch_bound.Cancelled);
  let opts = { Branch_bound.default_options with node_limit = Some 3 } in
  let t0 = Unix.gettimeofday () in
  let r = Branch_bound.solve ~options:opts lp in
  check "sequential budget" r (Unix.gettimeofday () -. t0);
  let polls = Atomic.make 0 in
  let opts =
    {
      Branch_bound.default_options with
      Branch_bound.cancel = (fun () -> Atomic.fetch_and_add polls 1 >= 40);
    }
  in
  let t0 = Unix.gettimeofday () in
  let r = Branch_bound.solve ~options:opts ~workers:2 lp in
  check "parallel cancel" r (Unix.gettimeofday () -. t0)

(* The cancellation tests stop [Generators.hard_knapsack] after a few
   polls and expect a [Cancelled] stop, so no seed may let it finish
   within a handful of nodes. *)
let test_hard_knapsack_is_hard () =
  for seed = 1 to 200 do
    let r = Branch_bound.solve (Generators.hard_knapsack ~seed) in
    if r.Branch_bound.nodes < 10 then
      Alcotest.failf "seed %d: hard knapsack solved in %d nodes" seed
        r.Branch_bound.nodes
  done

let suites =
  [
    ( "milp.simplex",
      [
        Alcotest.test_case "basic max" `Quick test_simplex_basic;
        Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
        Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
        Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
        Alcotest.test_case "equalities" `Quick test_simplex_equalities;
        Alcotest.test_case "negative bounds" `Quick test_simplex_negative_bounds;
        Alcotest.test_case "free variables" `Quick test_simplex_free_vars;
        Alcotest.test_case "beale cycling fixture" `Quick test_simplex_beale_cycling;
        Alcotest.test_case "dual-infeasible warm start falls back" `Quick
          test_warm_dual_infeasible_falls_back;
        Alcotest.test_case "warm fallbacks name their reason" `Quick
          test_warm_fallback_reasons;
        Alcotest.test_case "eta cap forces mid-solve refactorization" `Quick
          test_refactor_trigger;
        Alcotest.test_case "ill-conditioned basis stays accurate" `Quick
          test_ill_conditioned_basis;
        Alcotest.test_case "optimal verdict re-priced on fresh reduced costs"
          `Quick test_optimal_verdict_repriced;
        Alcotest.test_case "elapsed stays monotone across stops" `Quick
          test_elapsed_monotone_on_stops;
      ] );
    ( "milp.branch_bound",
      [
        Alcotest.test_case "knapsack" `Quick test_bb_knapsack;
        Alcotest.test_case "rounding matters" `Quick test_bb_integer_rounding_matters;
        Alcotest.test_case "integer infeasible" `Quick test_bb_infeasible;
        Alcotest.test_case "presolve proves infeasible" `Quick
          test_presolve_proven_infeasible;
        Alcotest.test_case "mixed integer" `Quick test_bb_mixed;
        Alcotest.test_case "warm incumbent" `Quick test_bb_warm_incumbent;
        Alcotest.test_case "hard knapsack takes at least 10 nodes" `Quick
          test_hard_knapsack_is_hard;
      ] );
    ( "milp.io",
      [
        Alcotest.test_case "lp writer shape" `Quick test_lp_format_writer_shape;
        Alcotest.test_case "mps writer shape" `Quick test_mps_writer_shape;
      ] );
    ( "milp.properties",
      Generators.qsuite
        [
          prop_simplex_matches_bruteforce;
          prop_bb_matches_enumeration;
          prop_presolve_preserves_optimum;
          prop_lp_format_roundtrip;
        ] );
  ]
