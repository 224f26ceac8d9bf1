type var = int

type var_kind = Continuous | Integer | Binary

type dir = Minimize | Maximize

type sense = Le | Ge | Eq

type term = float * var

type row = { c_name : string; c_terms : term list; c_sense : sense; c_rhs : float }

type vinfo = {
  v_name : string;
  mutable v_lb : float;
  mutable v_ub : float;
  mutable v_kind : var_kind;
}

type t = {
  p_name : string;
  mutable vars : vinfo array;
  mutable nvars : int;
  mutable rows : row array;
  mutable nrows : int;
  mutable obj_dir : dir;
  mutable obj_constant : float;
  mutable obj : float array; (* dense coefficients, grown with vars *)
}

let create ?(name = "lp") () =
  {
    p_name = name;
    vars = [||];
    nvars = 0;
    rows = [||];
    nrows = 0;
    obj_dir = Minimize;
    obj_constant = 0.;
    obj = [||];
  }

let name t = t.p_name

let grow_vars t =
  let cap = Array.length t.vars in
  if t.nvars >= cap then begin
    let ncap = max 16 (2 * cap) in
    let dummy = { v_name = ""; v_lb = 0.; v_ub = 0.; v_kind = Continuous } in
    let nv = Array.make ncap dummy in
    Array.blit t.vars 0 nv 0 t.nvars;
    t.vars <- nv;
    let no = Array.make ncap 0. in
    Array.blit t.obj 0 no 0 t.nvars;
    t.obj <- no
  end

let grow_rows t =
  let cap = Array.length t.rows in
  if t.nrows >= cap then begin
    let ncap = max 16 (2 * cap) in
    let dummy = { c_name = ""; c_terms = []; c_sense = Eq; c_rhs = 0. } in
    let nr = Array.make ncap dummy in
    Array.blit t.rows 0 nr 0 t.nrows;
    t.rows <- nr
  end

let add_var t ?name ?(lb = 0.) ?(ub = infinity) ?(kind = Continuous) () =
  grow_vars t;
  let i = t.nvars in
  let v_name = match name with Some n -> n | None -> Printf.sprintf "x%d" i in
  let lb, ub =
    match kind with Binary -> (max lb 0., min ub 1.) | Continuous | Integer -> (lb, ub)
  in
  if lb > ub then
    invalid_arg (Printf.sprintf "Lp.add_var %s: lb %g > ub %g" v_name lb ub);
  t.vars.(i) <- { v_name; v_lb = lb; v_ub = ub; v_kind = kind };
  t.obj.(i) <- 0.;
  t.nvars <- i + 1;
  i

let check_var t v fn =
  if v < 0 || v >= t.nvars then
    invalid_arg (Printf.sprintf "Lp.%s: variable %d out of range [0,%d)" fn v t.nvars)

(* Sum duplicate variables and drop (near-)zero coefficients so that
   downstream solvers can assume each variable appears once per row. *)
let normalize_terms t fn terms =
  let tbl = Hashtbl.create (List.length terms) in
  let order = ref [] in
  let add (c, v) =
    check_var t v fn;
    match Hashtbl.find_opt tbl v with
    | Some r -> r := !r +. c
    | None ->
      let r = ref c in
      Hashtbl.replace tbl v r;
      order := v :: !order
  in
  List.iter add terms;
  List.rev !order
  |> List.filter_map (fun v ->
         let c = !(Hashtbl.find tbl v) in
         if abs_float c < 1e-12 then None else Some (c, v))

let add_constr t ?name terms sense rhs =
  grow_rows t;
  let i = t.nrows in
  let c_name = match name with Some n -> n | None -> Printf.sprintf "c%d" i in
  let c_terms = normalize_terms t "add_constr" terms in
  t.rows.(i) <- { c_name; c_terms; c_sense = sense; c_rhs = rhs };
  t.nrows <- i + 1

let set_objective t dir ?(constant = 0.) terms =
  t.obj_dir <- dir;
  t.obj_constant <- constant;
  Array.fill t.obj 0 t.nvars 0.;
  List.iter (fun (c, v) -> t.obj.(v) <- c) (normalize_terms t "set_objective" terms)

let num_vars t = t.nvars
let num_constrs t = t.nrows

let var_name t v = check_var t v "var_name"; t.vars.(v).v_name
let var_lb t v = check_var t v "var_lb"; t.vars.(v).v_lb
let var_ub t v = check_var t v "var_ub"; t.vars.(v).v_ub
let var_kind t v = check_var t v "var_kind"; t.vars.(v).v_kind

let set_bounds t v ~lb ~ub =
  check_var t v "set_bounds";
  if lb > ub then
    invalid_arg
      (Printf.sprintf "Lp.set_bounds %s: lb %g > ub %g" t.vars.(v).v_name lb ub);
  t.vars.(v).v_lb <- lb;
  t.vars.(v).v_ub <- ub

let set_kind t v kind = check_var t v "set_kind"; t.vars.(v).v_kind <- kind

let objective_dir t = t.obj_dir
let objective_constant t = t.obj_constant

let objective_terms t =
  let acc = ref [] in
  for v = t.nvars - 1 downto 0 do
    if t.obj.(v) <> 0. then acc := (t.obj.(v), v) :: !acc
  done;
  !acc

let objective_coeff t v = check_var t v "objective_coeff"; t.obj.(v)

let check_row t i fn =
  if i < 0 || i >= t.nrows then
    invalid_arg (Printf.sprintf "Lp.%s: row %d out of range [0,%d)" fn i t.nrows)

let constr_name t i = check_row t i "constr_name"; t.rows.(i).c_name

let iter_constrs t f =
  for i = 0 to t.nrows - 1 do
    let r = t.rows.(i) in
    f i r.c_terms r.c_sense r.c_rhs
  done

let fold_constrs t ~init f =
  let acc = ref init in
  for i = 0 to t.nrows - 1 do
    let r = t.rows.(i) in
    acc := f !acc i r.c_terms r.c_sense r.c_rhs
  done;
  !acc

let integer_vars t =
  let acc = ref [] in
  for v = t.nvars - 1 downto 0 do
    match t.vars.(v).v_kind with
    | Integer | Binary -> acc := v :: !acc
    | Continuous -> ()
  done;
  !acc

let num_integer_vars t = List.length (integer_vars t)

let copy t =
  {
    t with
    vars = Array.map (fun v -> { v with v_name = v.v_name }) t.vars;
    rows = Array.copy t.rows;
    obj = Array.copy t.obj;
  }

let relax t =
  let t' = copy t in
  for v = 0 to t'.nvars - 1 do
    t'.vars.(v).v_kind <- Continuous
  done;
  t'

let eval_terms x terms = List.fold_left (fun acc (c, v) -> acc +. (c *. x.(v))) 0. terms

let objective_value t x =
  let s = ref t.obj_constant in
  for v = 0 to t.nvars - 1 do
    s := !s +. (t.obj.(v) *. x.(v))
  done;
  !s

let row_violation sense lhs rhs =
  match sense with
  | Le -> max 0. (lhs -. rhs)
  | Ge -> max 0. (rhs -. lhs)
  | Eq -> abs_float (lhs -. rhs)

let constr_violation t x =
  let worst = ref 0. in
  iter_constrs t (fun _ terms sense rhs ->
      worst := max !worst (row_violation sense (eval_terms x terms) rhs));
  !worst

let bounds_violation t x =
  let worst = ref 0. in
  for v = 0 to t.nvars - 1 do
    let { v_lb; v_ub; _ } = t.vars.(v) in
    worst := max !worst (max (v_lb -. x.(v)) (x.(v) -. v_ub))
  done;
  max 0. !worst

let validate ?(eps = 1e-6) t x =
  if Array.length x <> t.nvars then
    Error
      (Printf.sprintf "assignment has %d entries, problem has %d variables"
         (Array.length x) t.nvars)
  else
    let bad = ref None in
    iter_constrs t (fun i terms sense rhs ->
        if !bad = None then
          let viol = row_violation sense (eval_terms x terms) rhs in
          if viol > eps then
            bad := Some (Printf.sprintf "row %s violated by %g" t.rows.(i).c_name viol));
    (match !bad with
    | None ->
      for v = 0 to t.nvars - 1 do
        if !bad = None then begin
          let { v_name; v_lb; v_ub; v_kind } = t.vars.(v) in
          if x.(v) < v_lb -. eps || x.(v) > v_ub +. eps then
            bad :=
              Some
                (Printf.sprintf "variable %s = %g outside [%g, %g]" v_name x.(v) v_lb
                   v_ub)
          else
            match v_kind with
            | Integer | Binary ->
              if abs_float (x.(v) -. Float.round x.(v)) > eps then
                bad := Some (Printf.sprintf "variable %s = %g not integral" v_name x.(v))
            | Continuous -> ()
        end
      done
    | Some _ -> ());
    match !bad with None -> Ok () | Some msg -> Error msg
