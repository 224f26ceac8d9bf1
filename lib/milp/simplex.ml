(* Sparse revised simplex over an LU-factorized basis.

   The basis inverse is never formed: every iteration works through
   {!Lu} ftran/btran solves against a sparse LU of the basis, extended
   by product-form etas after each pivot and refactorized from scratch
   when the eta file grows past its cap, accumulates fill, or absorbs a
   pivot too small to trust.  Each solve owns two factorizations and
   refactorizes into the spare one, swapping the two only when the new
   factor succeeds; both keep the capacity their arrays reach, so
   storage does not double up again on every refactorization.

   Pricing is devex (reference-framework weights, reset on phase
   switches or weight blow-up) with a Bland's-rule fallback after a
   long degenerate streak; the ratio test is a two-pass Harris test
   that relaxes bounds by a small tolerance in pass one and then picks
   the numerically largest eligible pivot.

   The primal loop prices on a reduced-cost array that every pivot
   updates from the pivot row the devex update already solves for, so
   a pivot costs one btran.  The costs' btran and a pass over the
   columns recompute it only on entry to a phase, after each fresh
   factorization and after a Bland's-rule pivot, and an optimal or
   unbounded verdict is always taken on recomputed values.  Pricing
   skips the artificials that are fixed for the whole phase.  The
   ftran image of the entering column lists its nonzero positions
   once, and the ratio test, the update of the basic values and the
   eta file walk that list instead of every row.

   Besides the classic cold two-phase primal solve there is a dual
   simplex path ({!Core.solve_warm}) for branch-and-bound children: a
   parent-optimal basis stays dual feasible after a branching bound
   flip, so the child re-solve starts from the parent {!Basis.t}
   snapshot and drives out primal infeasibility with dual pivots.
   Every doubt on that path — singular factorization, dual
   infeasibility beyond tolerance, no eligible entering column, an
   overshot entering bound, an iteration cap — falls back to the cold
   solve, which remains the correctness anchor. *)

type status = Optimal | Infeasible | Unbounded | Iter_limit

type outcome = {
  status : status;
  objective : float;
  x : float array;
  iterations : int;
}

let feas_eps = 1e-7
let dual_eps = 1e-7
let pivot_eps = 1e-9
let harris_tol = 1e-8 (* pass-one bound relaxation of the ratio test *)
let bland_after = 400 (* consecutive degenerate pivots before Bland's rule *)
let base_eta_cap = 64 (* product-form updates between refactorizations *)
let devex_reset = 1e8 (* weight blow-up that resets the reference frame *)
let warm_dual_tol = 1e-6 (* dual infeasibility accepted at warm install *)

module R = Rfloor_metrics.Registry

type instruments = {
  i_factor : R.Counter.t;
  i_ft : R.Counter.t;
  i_warm : R.Counter.t;
}

let instruments reg =
  {
    i_factor =
      R.counter reg ~help:"LP basis factorizations (fresh sparse LU builds)"
        "rfloor_lp_factorizations_total";
    i_ft =
      R.counter reg
        ~help:"Product-form basis updates between LP refactorizations"
        "rfloor_lp_ft_updates_total";
    i_warm =
      R.counter reg
        ~help:"LP re-solves served warm by the dual simplex from a parent basis"
        "rfloor_lp_warm_starts_total";
  }

module P = struct
  (* Columns are laid out as: structural vars [0, n), slacks [n, n+m),
     artificials [n+m, n+2m).  Slack and artificial columns are unit
     vectors and never stored explicitly.  Structural columns are CSC:
     column v's rows and coefficients sit at
     col_row/col_val.(col_start.(v) .. col_start.(v+1) - 1), in
     constraint order.  The same entries are also kept row-wise (CSR)
     for the pivot row: row i's columns and coefficients sit at
     row_col/row_val.(row_start.(i) .. row_start.(i+1) - 1), by
     ascending column. *)
  type t = {
    n : int;
    m : int;
    col_start : int array;
    col_row : int array;
    col_val : float array;
    row_start : int array;
    row_col : int array;
    row_val : float array;
    cost : float array; (* minimization costs for structural vars *)
    dir : Lp.dir;
    obj_constant : float;
    b : float array;
    lb0 : float array; (* default bounds, length n + 2m *)
    ub0 : float array;
  }

  let num_vars t = t.n

  let of_lp lp =
    let n = Lp.num_vars lp in
    let m = Lp.num_constrs lp in
    let col_start = Array.make (n + 1) 0 in
    let b = Array.make m 0. in
    Lp.iter_constrs lp (fun i terms _ rhs ->
        b.(i) <- rhs;
        List.iter (fun (_, v) -> col_start.(v + 1) <- col_start.(v + 1) + 1) terms);
    for v = 0 to n - 1 do
      col_start.(v + 1) <- col_start.(v + 1) + col_start.(v)
    done;
    let col_row = Array.make col_start.(n) 0 in
    let col_val = Array.make col_start.(n) 0. in
    let next = Array.sub col_start 0 n in
    Lp.iter_constrs lp (fun i terms _ _ ->
        List.iter
          (fun (c, v) ->
            col_row.(next.(v)) <- i;
            col_val.(next.(v)) <- c;
            next.(v) <- next.(v) + 1)
          terms);
    let row_start = Array.make (m + 1) 0 in
    Array.iter (fun i -> row_start.(i + 1) <- row_start.(i + 1) + 1) col_row;
    for i = 0 to m - 1 do
      row_start.(i + 1) <- row_start.(i + 1) + row_start.(i)
    done;
    let row_col = Array.make col_start.(n) 0 in
    let row_val = Array.make col_start.(n) 0. in
    let next = Array.sub row_start 0 m in
    for v = 0 to n - 1 do
      for p = col_start.(v) to col_start.(v + 1) - 1 do
        let i = col_row.(p) in
        row_col.(next.(i)) <- v;
        row_val.(next.(i)) <- col_val.(p);
        next.(i) <- next.(i) + 1
      done
    done;
    let dir = Lp.objective_dir lp in
    let sign = match dir with Lp.Minimize -> 1. | Lp.Maximize -> -1. in
    let cost = Array.init n (fun v -> sign *. Lp.objective_coeff lp v) in
    let total = n + m + m in
    let lb0 = Array.make total 0. and ub0 = Array.make total 0. in
    for v = 0 to n - 1 do
      lb0.(v) <- Lp.var_lb lp v;
      ub0.(v) <- Lp.var_ub lp v
    done;
    Lp.iter_constrs lp (fun i _ sense _ ->
        (* row + slack = rhs, so: Le -> slack >= 0; Ge -> slack <= 0 *)
        let l, u =
          match sense with
          | Lp.Le -> (0., infinity)
          | Lp.Ge -> (neg_infinity, 0.)
          | Lp.Eq -> (0., 0.)
        in
        lb0.(n + i) <- l;
        ub0.(n + i) <- u);
    (* artificial bounds are set per-solve from the initial residual *)
    { n; m; col_start; col_row; col_val; row_start; row_col; row_val; cost;
      dir; obj_constant = Lp.objective_constant lp; b; lb0; ub0 }

  (* The row of the unit column of slack or artificial [j]. *)
  let unit_row t j = if j < t.n + t.m then j - t.n else j - t.n - t.m
end

module Basis = struct
  (* Immutable basis snapshot: the basic column of every position plus
     the bound status of every structural/slack column (0 = at lower,
     1 = at upper, 2 = free at zero).  Statuses are re-clamped against
     the child's bounds at install time, which is exactly what a
     branching bound flip needs. *)
  type t = { bs_m : int; bs_nm : int; bs_basis : int array; bs_status : int array }

  let basic_columns t = Array.copy t.bs_basis
end

(* How [state.d] stands against the current basis: recomputed from
   the costs and not pivoted since, carried through pivots by
   pivot-row updates, or due for a recompute before the next price. *)
type reduced = Fresh | Updated | Stale

type state = {
  core : P.t;
  total : int; (* n + 2m *)
  lb : float array;
  ub : float array;
  cost : float array; (* current phase costs, length total *)
  x : float array;
  basis : int array; (* variable basic in each position *)
  basic_row : int array; (* variable -> basis position, or -1 *)
  mutable lu : Lu.t;
  mutable spare : Lu.t; (* [factorize] writes here, then swaps with [lu] *)
  y : float array; (* duals, original-row indexed scratch *)
  w : float array; (* ftran image of the entering column, scratch *)
  w_nz : int array; (* w's nonzero positions, ascending, scratch *)
  mutable n_w_nz : int;
  resid : float array; (* [compute_basics]' residual, scratch *)
  rho : float array; (* btran image of a unit vector (pivot row), scratch *)
  rho_nz : int array; (* rho's nonzero rows, ascending, scratch *)
  mutable n_rho_nz : int;
  alpha : float array; (* pivot-row coefficients of the structurals, scratch *)
  touched : int array; (* structurals with a row in rho_nz; alpha is 0. elsewhere *)
  is_touched : bool array;
  mutable n_touched : int;
  d : float array; (* primal reduced costs of the nonbasic columns, length total *)
  mutable d_state : reduced;
  dw : float array; (* devex reference weights, length total *)
  mutable high : int list; (* leaving columns weighted above devex_reset *)
  live_art : int array; (* artificials that can move in this phase, ascending *)
  mutable n_live_art : int;
  mutable iters : int;
  mutable ecap : int; (* current eta cap (pushed out on singular refactor) *)
  mutable degen_streak : int;
  instr : instruments option;
  trace : Rfloor_trace.t;
  t_worker : int;
}

(* The [Lu.factor] view of column [j]. *)
let col_iter (core : P.t) j f =
  if j < core.P.n then
    for p = core.P.col_start.(j) to core.P.col_start.(j + 1) - 1 do
      f core.P.col_row.(p) core.P.col_val.(p)
    done
  else f (P.unit_row core j) 1.

(* r := r - xj * column j *)
let sub_col (core : P.t) j xj r =
  if j < core.P.n then
    for p = core.P.col_start.(j) to core.P.col_start.(j + 1) - 1 do
      let i = core.P.col_row.(p) in
      r.(i) <- r.(i) -. (core.P.col_val.(p) *. xj)
    done
  else begin
    let i = P.unit_row core j in
    r.(i) <- r.(i) -. xj
  end

exception Singular_basis

let count_factor st reason =
  (match st.instr with Some i -> R.Counter.incr i.i_factor | None -> ());
  Rfloor_trace.lp_refactor st.trace ~worker:st.t_worker reason

(* A singular basis leaves [st.lu] and its eta file as they were.  The
   spare's storage is made when a factorization first needs it, so a
   solve that factors once holds one. *)
let factorize st reason =
  let m = st.core.P.m in
  if Lu.size st.spare <> m then st.spare <- Lu.create m;
  match Lu.factor st.spare (col_iter st.core) st.basis with
  | () ->
    let lu = st.lu in
    st.lu <- st.spare;
    st.spare <- lu;
    st.ecap <- base_eta_cap;
    st.d_state <- Stale;
    count_factor st reason
  | exception Lu.Singular -> raise Singular_basis

(* Recompute basic variable values from nonbasic values. *)
let compute_basics st =
  let m = st.core.P.m in
  let r = st.resid in
  Array.blit st.core.P.b 0 r 0 m;
  for j = 0 to st.total - 1 do
    if st.basic_row.(j) < 0 && st.x.(j) <> 0. then sub_col st.core j st.x.(j) r
  done;
  (* every entry, zeros too, so the solve reads their signs *)
  Lu.ftran st.lu (fun set -> for i = 0 to m - 1 do set i r.(i) done) r;
  for i = 0 to m - 1 do
    st.x.(st.basis.(i)) <- r.(i)
  done

let refactor st reason =
  factorize st reason;
  compute_basics st

(* Refactorization on the eta-file triggers; a singular fresh factor
   keeps the still-valid eta file and pushes the cap out instead. *)
let maybe_refactor st =
  if Lu.needs_refactor ~cap:st.ecap st.lu then begin
    let reason = if Lu.unstable st.lu then "stability" else "periodic" in
    try refactor st reason
    with Singular_basis -> st.ecap <- Lu.eta_count st.lu + base_eta_cap
  end

(* w := B^-1 * column j, with its nonzero positions listed ascending
   in w_nz.  Lp keeps no zero coefficient, so storing each one is
   adding it to a zeroed vector. *)
let ftran st j =
  Lu.ftran st.lu (col_iter st.core j) st.w;
  let nz = ref 0 in
  for i = 0 to st.core.P.m - 1 do
    if st.w.(i) <> 0. then begin
      st.w_nz.(!nz) <- i;
      incr nz
    end
  done;
  st.n_w_nz <- !nz

(* x_B := x_B - s * w over w's nonzeros.  A zero w_i would leave
   x.(basis.(i)) as it is, up to the sign of a zero value. *)
let update_basics st s =
  for k = 0 to st.n_w_nz - 1 do
    let i = st.w_nz.(k) in
    let bi = st.basis.(i) in
    st.x.(bi) <- st.x.(bi) -. (s *. st.w.(i))
  done

let lu_update st r =
  Lu.update st.lu r st.w st.w_nz st.n_w_nz;
  match st.instr with Some i -> R.Counter.incr i.i_ft | None -> ()

(* y := (B^-1)^T * cost_B, original-row indexed *)
let btran_costs st =
  let m = st.core.P.m in
  for i = 0 to m - 1 do
    st.y.(i) <- st.cost.(st.basis.(i))
  done;
  Lu.btran st.lu st.y

(* rho := row r of B^-1, original-row indexed, with its nonzero rows
   listed ascending in rho_nz; then alpha_j := rho · a_j over the
   structural columns those rows touch, listed in touched.  Each
   alpha_j adds its terms in ascending row order, as a dot product
   down column j would, less the terms of rho's zeros: those are zeros
   (A is finite), and adding a zero never changes a sum that starts
   at +0., so every alpha_j has the bits of the full dot product and
   every untouched column's is 0. *)
let pivot_row st r =
  let core = st.core in
  for k = 0 to st.n_touched - 1 do
    let j = st.touched.(k) in
    st.alpha.(j) <- 0.;
    st.is_touched.(j) <- false
  done;
  st.n_rho_nz <- Lu.btran_unit st.lu r st.rho st.rho_nz;
  let nt = ref 0 in
  for k = 0 to st.n_rho_nz - 1 do
    let i = st.rho_nz.(k) in
    let ri = st.rho.(i) in
    for p = core.P.row_start.(i) to core.P.row_start.(i + 1) - 1 do
      let j = core.P.row_col.(p) in
      if not st.is_touched.(j) then begin
        st.is_touched.(j) <- true;
        st.touched.(!nt) <- j;
        incr nt
      end;
      st.alpha.(j) <- st.alpha.(j) +. (ri *. core.P.row_val.(p))
    done
  done;
  st.n_touched <- !nt

(* The pivot-row coefficient of column [j], after [pivot_row]. *)
let[@inline] pivot_coef st j =
  if j < st.core.P.n then st.alpha.(j) else st.rho.(P.unit_row st.core j)

let[@inline] reduced_cost st j =
  let core = st.core in
  if j < core.P.n then begin
    let d = ref st.cost.(j) in
    for p = core.P.col_start.(j) to core.P.col_start.(j + 1) - 1 do
      d := !d -. (st.y.(core.P.col_row.(p)) *. core.P.col_val.(p))
    done;
    !d
  end
  else st.cost.(j) -. st.y.(P.unit_row core j)

let[@inline] movable st j = st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j)

(* The columns that can price in this phase: the structurals and
   slacks, then the artificials of [live_art]; every other artificial
   is fixed until the phase ends.  [priced st k] is the k-th of them,
   ascending, for k < [n_priced st]. *)
let[@inline] n_priced st = st.core.P.n + st.core.P.m + st.n_live_art

let[@inline] priced st k =
  let nm = st.core.P.n + st.core.P.m in
  if k < nm then k else st.live_art.(k - nm)

(* d := c - Aᵀy over the nonbasic columns that can move, y from a
   fresh btran of the basic costs. *)
let refresh_reduced st =
  btran_costs st;
  for k = 0 to n_priced st - 1 do
    let j = priced st k in
    if movable st j then st.d.(j) <- reduced_cost st j
  done;
  st.d_state <- Fresh

let reset_weights st =
  Array.fill st.dw 0 st.total 1.;
  st.high <- []

(* Column [j]'s part of [devex_update]: true when [j] is a movable
   nonbasic column other than [q] whose weight ends above
   [devex_reset]. *)
let[@inline] devex_column st ~q ~theta ~wq ~arq2 j =
  j <> q && movable st j
  && begin
    let arj = pivot_coef st j in
    if arj <> 0. then begin
      st.d.(j) <- st.d.(j) -. (theta *. arj);
      let cand = wq *. (arj *. arj) /. arq2 in
      if cand > st.dw.(j) then st.dw.(j) <- cand
    end;
    st.dw.(j) > devex_reset
  end

(* Devex reference-framework weight and reduced-cost update after a
   basis change: [q] enters, position [r] leaves, [arq] is the pivot
   element.  Each pivot-row coefficient a_rj serves both: with
   theta = d_q / a_rq, d_j -= theta * a_rj, the leaving column gets
   -theta and [q] gets 0.  Only the structurals in [touched] and the
   slack and artificial of each row in [rho_nz] can have a_rj <> 0.

   The weights reset when a movable nonbasic column other than [q]
   weighs more than [devex_reset].  Only two kinds of column can: one
   this update raised, which the loops test; and a leaving column,
   whose weight is written after its pivot's test, so [high] keeps the
   ones written above the line until the next reset.  Any other weight
   passed the test of the update that last raised it, or was reset
   since.  A Bland's-rule pivot writes no weight, but it can make a
   column of [high] nonbasic again.  So this decides as a test of
   every column would.  Uses the pre-update factorization, so it must
   run before [Lu.update]. *)
let devex_update st r q arq =
  pivot_row st r;
  let n = st.core.P.n and m = st.core.P.m in
  let wq = st.dw.(q) in
  let arq2 = arq *. arq in
  let theta = st.d.(q) /. arq in
  let blown = ref false in
  for k = 0 to st.n_touched - 1 do
    if devex_column st ~q ~theta ~wq ~arq2 st.touched.(k) then blown := true
  done;
  for k = 0 to st.n_rho_nz - 1 do
    let i = st.rho_nz.(k) in
    if devex_column st ~q ~theta ~wq ~arq2 (n + i) then blown := true;
    if devex_column st ~q ~theta ~wq ~arq2 (n + m + i) then blown := true
  done;
  let blown =
    !blown
    || st.high <> []
       && List.exists
            (fun j -> j <> q && movable st j && st.dw.(j) > devex_reset)
            st.high
  in
  let out = st.basis.(r) in
  st.d.(q) <- 0.;
  st.d.(out) <- -.theta;
  st.d_state <- Updated;
  st.dw.(out) <- Float.max (wq /. arq2) 1.;
  if blown then reset_weights st
  else if st.dw.(out) > devex_reset && not (List.mem out st.high) then
    st.high <- out :: st.high

(* Entering-variable choice over [st.d].  Returns (j, sigma) where
   sigma = +1 to increase from lower bound, -1 to decrease from upper
   bound.  Devex score d^2 / weight; Bland mode takes the first
   improving index. *)
let price st ~bland =
  let best = ref (-1) and best_sigma = ref 1. and best_score = ref 0. in
  let np = n_priced st in
  let k = ref 0 in
  while !k < np && not (bland && !best >= 0) do
    let jj = priced st !k in
    if st.basic_row.(jj) < 0 && st.lb.(jj) < st.ub.(jj) then begin
      let d = st.d.(jj) in
      let at_lb = st.x.(jj) <= st.lb.(jj) +. feas_eps in
      let at_ub = st.x.(jj) >= st.ub.(jj) -. feas_eps in
      let free = (not at_lb) && not at_ub in
      (* improving direction, 0 for none *)
      let sigma =
        if (at_lb || free) && d < -.dual_eps then 1.
        else if (at_ub || free) && d > dual_eps then -1.
        else 0.
      in
      if sigma <> 0. then begin
        let score = if bland then 1. else d *. d /. st.dw.(jj) in
        if !best < 0 || score > !best_score then begin
          best := jj;
          best_sigma := sigma;
          best_score := score
        end
      end
    end;
    incr k
  done;
  if !best < 0 then None else Some (!best, !best_sigma)

type step = Step_ok | Step_unbounded

type ratio = Ratio_flip | Ratio_pivot of int * float * bool | Ratio_unbounded

(* Harris two-pass ratio test over st.w for entering column j moving in
   direction sigma; Bland mode keeps the classic single pass with
   smallest-index tie-breaking.  Every pass walks w_nz in ascending
   order: a zero w_i is never eligible. *)
let ratio_test st ~bland j sigma =
  let own_limit =
    let range = st.ub.(j) -. st.lb.(j) in
    if Float.is_finite range then range else infinity
  in
  if bland then begin
    let limit = ref own_limit and leave = ref (-1) and leave_to_ub = ref false in
    for k = 0 to st.n_w_nz - 1 do
      let i = st.w_nz.(k) in
      let wi = st.w.(i) *. sigma in
      if abs_float wi > pivot_eps then begin
        let bi = st.basis.(i) in
        let xi = st.x.(bi) in
        let t, to_ub =
          if wi > 0. then ((xi -. st.lb.(bi)) /. wi, false)
          else ((st.ub.(bi) -. xi) /. -.wi, true)
        in
        (* [max t 0.] without the polymorphic [max], which boxes its
           float arguments; [Float.max] would turn -0. into +0. *)
        let t = if t >= 0. then t else 0. in
        if t < !limit -. 1e-10 then begin
          limit := t;
          leave := i;
          leave_to_ub := to_ub
        end
        else if t <= !limit +. 1e-10 && !leave >= 0 && bi < st.basis.(!leave)
        then begin
          leave := i;
          leave_to_ub := to_ub
        end
      end
    done;
    if !limit = infinity then Ratio_unbounded
    else if !leave < 0 then Ratio_flip
    else Ratio_pivot (!leave, !limit, !leave_to_ub)
  end
  else begin
    (* pass 1: tightest ratio with bounds relaxed by harris_tol *)
    let theta_max = ref infinity in
    for k = 0 to st.n_w_nz - 1 do
      let i = st.w_nz.(k) in
      let wi = st.w.(i) *. sigma in
      if abs_float wi > pivot_eps then begin
        let bi = st.basis.(i) in
        let room =
          if wi > 0. then st.x.(bi) -. st.lb.(bi) else st.ub.(bi) -. st.x.(bi)
        in
        let t = (room +. harris_tol) /. abs_float wi in
        if t < !theta_max then theta_max := t
      end
    done;
    if own_limit <= !theta_max then
      if own_limit = infinity then Ratio_unbounded else Ratio_flip
    else begin
      (* pass 2: numerically largest pivot among eligible rows *)
      let leave = ref (-1)
      and leave_to_ub = ref false
      and best_piv = ref 0.
      and leave_t = ref 0. in
      for k = 0 to st.n_w_nz - 1 do
        let i = st.w_nz.(k) in
        let wi = st.w.(i) *. sigma in
        if abs_float wi > pivot_eps then begin
          let bi = st.basis.(i) in
          let room, to_ub =
            if wi > 0. then (st.x.(bi) -. st.lb.(bi), false)
            else (st.ub.(bi) -. st.x.(bi), true)
          in
          let t = room /. abs_float wi in
          let t = if 0. >= t then 0. else t in
          if t <= !theta_max && abs_float st.w.(i) > !best_piv then begin
            best_piv := abs_float st.w.(i);
            leave := i;
            leave_to_ub := to_ub;
            leave_t := t
          end
        end
      done;
      if !leave < 0 then Ratio_unbounded
      else Ratio_pivot (!leave, !leave_t, !leave_to_ub)
    end
  end

(* Ratio test + pivot for entering column [j] moving in direction
   [sigma].  Implements bound flips and basis changes. *)
let step st ~bland j sigma =
  ftran st j;
  match ratio_test st ~bland j sigma with
  | Ratio_unbounded -> Step_unbounded
  | Ratio_flip ->
    let t = st.ub.(j) -. st.lb.(j) in
    if t > feas_eps then st.degen_streak <- 0
    else st.degen_streak <- st.degen_streak + 1;
    update_basics st (sigma *. t);
    (* snap to the opposite bound to kill drift *)
    st.x.(j) <- (if sigma > 0. then st.ub.(j) else st.lb.(j));
    Step_ok
  | Ratio_pivot (r, t, to_ub) ->
    if t > feas_eps then st.degen_streak <- 0
    else st.degen_streak <- st.degen_streak + 1;
    st.x.(j) <- st.x.(j) +. (sigma *. t);
    if t > 0. then update_basics st (sigma *. t);
    let out = st.basis.(r) in
    st.x.(out) <- (if to_ub then st.ub.(out) else st.lb.(out));
    (* a Bland's-rule pivot solves no pivot row to update [d] with *)
    if bland then st.d_state <- Stale else devex_update st r j st.w.(r);
    lu_update st r;
    st.basis.(r) <- j;
    st.basic_row.(out) <- -1;
    st.basic_row.(j) <- r;
    maybe_refactor st;
    Step_ok

(* Primal pivots until no column prices in.  The phase's costs are
   new on entry, so [d] is recomputed first; an optimal or unbounded
   verdict reached on updated reduced costs is re-priced on recomputed
   ones before it stands. *)
let iterate st ~max_iters ~phase1 =
  st.d_state <- Stale;
  let unbounded = ref false and hit_limit = ref false in
  let continue_ = ref true in
  while !continue_ do
    if st.iters >= max_iters then begin
      hit_limit := true;
      continue_ := false
    end
    else begin
      let bland = st.degen_streak > bland_after in
      if st.d_state = Stale then refresh_reduced st;
      match price st ~bland with
      | None ->
        if st.d_state = Fresh then continue_ := false
        else st.d_state <- Stale
      | Some (j, sigma) -> (
        st.iters <- st.iters + 1;
        match step st ~bland j sigma with
        | Step_ok -> ()
        | Step_unbounded ->
          if phase1 then
            (* phase-1 objective is bounded below by 0; an "unbounded"
              ray here is numerical noise *)
            continue_ := false
          else if st.d_state = Fresh then begin
            unbounded := true;
            continue_ := false
          end
          else st.d_state <- Stale)
    end
  done;
  if !unbounded then Unbounded else if !hit_limit then Iter_limit else Optimal

let current_cost st =
  let s = ref 0. in
  for j = 0 to st.total - 1 do
    if st.cost.(j) <> 0. then s := !s +. (st.cost.(j) *. st.x.(j))
  done;
  !s

let snapshot st =
  let n = st.core.P.n and m = st.core.P.m in
  let status =
    Array.init (n + m) (fun j ->
        if st.basic_row.(j) >= 0 then 0
        else begin
          let at_lb =
            Float.is_finite st.lb.(j) && st.x.(j) <= st.lb.(j) +. feas_eps
          in
          let at_ub =
            Float.is_finite st.ub.(j) && st.x.(j) >= st.ub.(j) -. feas_eps
          in
          if at_lb then 0 else if at_ub then 1 else 2
        end)
  in
  { Basis.bs_m = m; bs_nm = n + m; bs_basis = Array.copy st.basis;
    bs_status = status }

(* Shared optimal exit: final refactorization for numerical hygiene
   (skipped when the factorization is already fresh), warm snapshot,
   objective in the problem's own direction. *)
let finish_optimal st ?snapshot_sink () =
  let core = st.core in
  let n = core.P.n in
  if Lu.eta_count st.lu > 0 then
    (try refactor st "final" with Singular_basis -> ());
  (match snapshot_sink with
  | None -> ()
  | Some sink -> sink := Some (snapshot st));
  let internal = ref 0. in
  for v = 0 to n - 1 do
    internal := !internal +. (core.P.cost.(v) *. st.x.(v))
  done;
  let objective =
    core.P.obj_constant
    +. (match core.P.dir with Lp.Minimize -> !internal | Lp.Maximize -> -. !internal)
  in
  { status = Optimal; objective; x = Array.sub st.x 0 n; iterations = st.iters }

let make_state ?instr ?(trace = Rfloor_trace.disabled) ?(worker = 0) core wlb
    wub =
  let n = core.P.n and m = core.P.m in
  let total = n + m + m in
  {
    core;
    total;
    lb = wlb;
    ub = wub;
    cost = Array.make total 0.;
    x = Array.make total 0.;
    basis = Array.init m (fun i -> n + m + i);
    basic_row = Array.make total (-1);
    (* no factorization yet; [factorize] installs one before any solve
       touches it *)
    lu = Lu.create 0;
    spare = Lu.create 0;
    y = Array.make m 0.;
    w = Array.make m 0.;
    w_nz = Array.make m 0;
    n_w_nz = 0;
    resid = Array.make m 0.;
    rho = Array.make m 0.;
    rho_nz = Array.make m 0;
    n_rho_nz = 0;
    alpha = Array.make n 0.;
    touched = Array.make n 0;
    is_touched = Array.make n false;
    n_touched = 0;
    d = Array.make total 0.;
    d_state = Stale;
    dw = Array.make total 1.;
    high = [];
    live_art = Array.make m 0;
    n_live_art = 0;
    iters = 0;
    ecap = base_eta_cap;
    degen_streak = 0;
    instr;
    trace;
    t_worker = worker;
  }

let working_bounds core lb ub =
  let n = core.P.n in
  let wlb = Array.copy core.P.lb0 and wub = Array.copy core.P.ub0 in
  (match lb with Some l -> Array.blit l 0 wlb 0 n | None -> ());
  (match ub with Some u -> Array.blit u 0 wub 0 n | None -> ());
  let bad = ref false in
  for v = 0 to n - 1 do
    if wlb.(v) > wub.(v) +. 1e-12 then bad := true
  done;
  (wlb, wub, !bad)

let default_max_iters core =
  20_000 + (60 * (core.P.m + core.P.n))

let solve_core ?max_iters ?lb ?ub ?snapshot_sink ?instr
    ?(trace = Rfloor_trace.disabled) ?(worker = 0) (core : P.t) =
  let n = core.P.n and m = core.P.m in
  let max_iters =
    match max_iters with Some k -> k | None -> default_max_iters core
  in
  let wlb, wub, bad_bounds = working_bounds core lb ub in
  if bad_bounds then
    { status = Infeasible; objective = nan; x = Array.make n nan; iterations = 0 }
  else begin
    let st = make_state ?instr ~trace ~worker core wlb wub in
    for i = 0 to m - 1 do
      st.basic_row.(n + m + i) <- i
    done;
    (* nonbasic start: nearest finite bound, or 0 for free variables *)
    for j = 0 to n + m - 1 do
      st.x.(j) <-
        (if Float.is_finite st.lb.(j) then st.lb.(j)
         else if Float.is_finite st.ub.(j) then st.ub.(j)
         else 0.)
    done;
    (* artificial values = residuals; sign determines their bounds and
       phase-1 costs *)
    let resid = Array.copy core.P.b in
    for j = 0 to n + m - 1 do
      if st.x.(j) <> 0. then sub_col core j st.x.(j) resid
    done;
    let need_phase1 = ref false in
    for i = 0 to m - 1 do
      let s = n + i and a = n + m + i in
      if resid.(i) >= st.lb.(s) -. 1e-12 && resid.(i) <= st.ub.(s) +. 1e-12
      then begin
        (* slack crash: the row is satisfied with its own slack basic;
           the artificial is fixed out, phase 1 never touches it *)
        st.basis.(i) <- s;
        st.basic_row.(s) <- i;
        st.basic_row.(a) <- -1;
        st.x.(s) <- min st.ub.(s) (max st.lb.(s) resid.(i));
        st.x.(a) <- 0.;
        st.lb.(a) <- 0.;
        st.ub.(a) <- 0.;
        st.cost.(a) <- 0.
      end
      else begin
        st.live_art.(st.n_live_art) <- a;
        st.n_live_art <- st.n_live_art + 1;
        st.x.(a) <- resid.(i);
        if resid.(i) >= 0. then begin
          st.lb.(a) <- 0.;
          st.ub.(a) <- infinity;
          st.cost.(a) <- 1.
        end
        else begin
          st.lb.(a) <- neg_infinity;
          st.ub.(a) <- 0.;
          st.cost.(a) <- -1.
        end;
        if abs_float resid.(i) > feas_eps then need_phase1 := true
      end
    done;
    (* the crash basis is a mix of unit slack/artificial columns, so
       this first factorization is trivially nonsingular *)
    (try factorize st "initial" with Singular_basis -> assert false);
    let fail_status status =
      { status; objective = nan; x = Array.sub st.x 0 n; iterations = st.iters }
    in
    let phase1_result =
      if not !need_phase1 then Optimal
      else begin
        let r = iterate st ~max_iters ~phase1:true in
        match r with
        | Iter_limit -> Iter_limit
        | Optimal | Unbounded | Infeasible ->
          if abs_float (current_cost st) > 1e-6 then Infeasible else Optimal
      end
    in
    match phase1_result with
    | Iter_limit -> fail_status Iter_limit
    | Infeasible -> fail_status Infeasible
    | Unbounded | Optimal -> (
      (* fix artificials at zero and install phase-2 costs *)
      for i = 0 to m - 1 do
        let a = n + m + i in
        st.lb.(a) <- 0.;
        st.ub.(a) <- 0.;
        st.cost.(a) <- 0.;
        if st.basic_row.(a) < 0 then st.x.(a) <- 0.
      done;
      st.n_live_art <- 0;
      Array.fill st.cost 0 st.total 0.;
      Array.blit core.P.cost 0 st.cost 0 n;
      st.degen_streak <- 0;
      reset_weights st;
      match iterate st ~max_iters:(max_iters + st.iters) ~phase1:false with
      | Iter_limit -> fail_status Iter_limit
      | Infeasible -> fail_status Infeasible
      | Unbounded -> fail_status Unbounded
      | Optimal -> finish_optimal st ?snapshot_sink ())
  end

(* ------------------------------------------------------------------ *)
(* Dual simplex warm start *)

(* Install a parent basis snapshot against the current bounds and try
   to finish the solve with dual pivots.  Returns [Error reason]
   whenever the warm path cannot certify the result — the caller then
   falls back to the cold two-phase solve.  The reasons:
   - "shape": the snapshot's dimensions differ from this problem's;
   - "stale_basis": a basic column is out of range or repeated;
   - "singular": the installed basis does not factor;
   - "dual_infeasible": a reduced cost has the wrong sign at install;
   - "dual_cap": the dual pivots hit their iteration cap;
   - "no_entering": the dual ratio test found no eligible column;
   - "tiny_pivot": the entering column's pivot element is too small;
   - "overshoot": the entering variable would pass its own bound;
   - "cleanup": the closing primal pass did not end optimal. *)
let try_warm ~max_iters ~warm ?instr ~trace ~worker ~wlb ~wub
    ?snapshot_sink (core : P.t) =
  let n = core.P.n and m = core.P.m in
  if warm.Basis.bs_m <> m || warm.Basis.bs_nm <> n + m then Error "shape"
  else begin
    let st = make_state ?instr ~trace ~worker core wlb wub in
    Array.blit warm.Basis.bs_basis 0 st.basis 0 m;
    let valid = ref true in
    for i = 0 to m - 1 do
      let j = st.basis.(i) in
      if j < 0 || j >= st.total || st.basic_row.(j) >= 0 then valid := false
      else st.basic_row.(j) <- i
    done;
    if not !valid then Error "stale_basis"
    else begin
      (* artificials are fixed out of a warm solve *)
      for i = 0 to m - 1 do
        let a = n + m + i in
        st.lb.(a) <- 0.;
        st.ub.(a) <- 0.;
        st.cost.(a) <- 0.
      done;
      Array.blit core.P.cost 0 st.cost 0 n;
      match factorize st "warm" with
      | exception Singular_basis -> Error "singular"
      | () ->
        (* nonbasic values from the recorded statuses, clamped to the
           (possibly flipped) current bounds *)
        for j = 0 to st.total - 1 do
          if st.basic_row.(j) < 0 then begin
            let status =
              if j < n + m then warm.Basis.bs_status.(j) else 0
            in
            st.x.(j) <-
              (match status with
              | 1 ->
                if Float.is_finite st.ub.(j) then st.ub.(j)
                else if Float.is_finite st.lb.(j) then st.lb.(j)
                else 0.
              | 2 -> 0.
              | _ ->
                if Float.is_finite st.lb.(j) then st.lb.(j)
                else if Float.is_finite st.ub.(j) then st.ub.(j)
                else 0.)
          end
        done;
        compute_basics st;
        (* the parent basis must still be dual feasible *)
        btran_costs st;
        let dual_ok = ref true in
        for j = 0 to st.total - 1 do
          if !dual_ok && st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
            let d = reduced_cost st j in
            let at_lb = st.x.(j) <= st.lb.(j) +. feas_eps in
            let at_ub = st.x.(j) >= st.ub.(j) -. feas_eps in
            if at_lb && not at_ub then begin
              if d < -.warm_dual_tol then dual_ok := false
            end
            else if at_ub && not at_lb then begin
              if d > warm_dual_tol then dual_ok := false
            end
            else if (not at_lb) && not at_ub then begin
              if abs_float d > warm_dual_tol then dual_ok := false
            end
          end
        done;
        if not !dual_ok then Error "dual_infeasible"
        else begin
          let dual_cap = min max_iters (200 + (2 * m)) in
          let dual_iters = ref 0 in
          let fail = ref None and feasible = ref false in
          while Option.is_none !fail && not !feasible do
            (* most violated basic variable leaves *)
            let r = ref (-1) and viol = ref feas_eps and below = ref false in
            for i = 0 to m - 1 do
              let bi = st.basis.(i) in
              let under = st.lb.(bi) -. st.x.(bi) in
              let over = st.x.(bi) -. st.ub.(bi) in
              if under > !viol then begin
                viol := under;
                r := i;
                below := true
              end;
              if over > !viol then begin
                viol := over;
                r := i;
                below := false
              end
            done;
            if !r < 0 then feasible := true
            else if !dual_iters >= dual_cap then fail := Some "dual_cap"
            else begin
              incr dual_iters;
              btran_costs st;
              pivot_row st !r;
              (* dual ratio test: smallest |d_j / alpha_rj| among
                 columns whose move repairs the violation without
                 breaking dual feasibility; tie-break on pivot size *)
              let q = ref (-1) and best_ratio = ref infinity and best_piv = ref 0. in
              for j = 0 to st.total - 1 do
                if st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
                  let arj = pivot_coef st j in
                  if abs_float arj > pivot_eps then begin
                    let at_lb = st.x.(j) <= st.lb.(j) +. feas_eps in
                    let at_ub = st.x.(j) >= st.ub.(j) -. feas_eps in
                    let free = (not at_lb) && not at_ub in
                    let eligible =
                      if free then true
                      else if !below then
                        (at_lb && arj < 0.) || (at_ub && arj > 0.)
                      else (at_lb && arj > 0.) || (at_ub && arj < 0.)
                    in
                    if eligible then begin
                      let d = reduced_cost st j in
                      let ratio = abs_float d /. abs_float arj in
                      if
                        ratio < !best_ratio -. 1e-12
                        || (ratio < !best_ratio +. 1e-12
                           && abs_float arj > !best_piv)
                      then begin
                        best_ratio := ratio;
                        best_piv := abs_float arj;
                        q := j
                      end
                    end
                  end
                end
              done;
              if !q < 0 then fail := Some "no_entering"
              else begin
                ftran st !q;
                let wr = st.w.(!r) in
                if abs_float wr <= pivot_eps then fail := Some "tiny_pivot"
                else begin
                  let out = st.basis.(!r) in
                  let target =
                    if !below then st.lb.(out) else st.ub.(out)
                  in
                  let delta = target -. st.x.(out) in
                  let dq = -.delta /. wr in
                  let newq = st.x.(!q) +. dq in
                  if
                    newq < st.lb.(!q) -. feas_eps
                    || newq > st.ub.(!q) +. feas_eps
                  then
                    (* the entering variable would overshoot its own
                       bound (needs a bound-flipping ratio test) *)
                    fail := Some "overshoot"
                  else begin
                    st.iters <- st.iters + 1;
                    update_basics st dq;
                    st.x.(!q) <- newq;
                    st.x.(out) <- target;
                    lu_update st !r;
                    st.basis.(!r) <- !q;
                    st.basic_row.(out) <- -1;
                    st.basic_row.(!q) <- !r;
                    maybe_refactor st
                  end
                end
              end
            end
          done;
          match !fail with
          | Some reason -> Error reason
          | None -> (
            (* primal cleanup: normally zero iterations, but catches
               tolerance drift accumulated by the dual pivots *)
            st.degen_streak <- 0;
            match iterate st ~max_iters ~phase1:false with
            | Optimal ->
              Ok (finish_optimal st ?snapshot_sink ())
            | Iter_limit | Infeasible | Unbounded -> Error "cleanup")
        end
    end
  end

(* ------------------------------------------------------------------ *)
(* Public entry points *)

let solve ?max_iters ?(trace = Rfloor_trace.disabled)
    ?(metrics = Rfloor_metrics.Registry.null) lp =
  Rfloor_trace.span trace Rfloor_trace.Event.Lp_solve (fun () ->
      let mlive = R.live metrics in
      let instr = if mlive then Some (instruments metrics) else None in
      let t0 = if mlive then Rfloor_trace.clock () else 0. in
      let r = solve_core ?max_iters ?instr ~trace (P.of_lp lp) in
      if mlive then begin
        R.Histogram.observe
          (R.histogram metrics ~help:"Wall time per LP relaxation solve"
             "rfloor_lp_solve_seconds")
          (Rfloor_trace.clock () -. t0);
        R.Histogram.observe
          (R.histogram metrics ~help:"Simplex iterations per LP relaxation"
             ~buckets:R.count_buckets "rfloor_simplex_iterations_per_lp")
          (float_of_int r.iterations)
      end;
      r)

module Core = struct
  include P

  let solve ?max_iters ?lb ?ub t = solve_core ?max_iters ?lb ?ub t

  let solve_warm ?max_iters ?lb ?ub ?warm ?instr
      ?(trace = Rfloor_trace.disabled) ?(worker = 0) t =
    let max_iters' =
      match max_iters with Some k -> k | None -> default_max_iters t
    in
    let snap = ref None in
    let wlb, wub, bad_bounds = working_bounds t lb ub in
    if bad_bounds then
      ( { status = Infeasible; objective = nan;
          x = Array.make t.P.n nan; iterations = 0 },
        None )
    else begin
      let cold () =
        solve_core ?max_iters ?lb ?ub ~snapshot_sink:snap ?instr ~trace ~worker t
      in
      let outcome =
        match warm with
        | None -> cold ()
        | Some parent -> (
          match
            try_warm ~max_iters:max_iters' ~warm:parent ?instr ~trace ~worker
              ~wlb ~wub ~snapshot_sink:snap t
          with
          | Ok outcome ->
            (match instr with Some i -> R.Counter.incr i.i_warm | None -> ());
            Rfloor_trace.lp_warm trace ~worker "dual";
            outcome
          | Error reason ->
            Rfloor_trace.lp_warm trace ~worker ("fallback:" ^ reason);
            cold ())
      in
        (outcome, !snap)
    end
end
