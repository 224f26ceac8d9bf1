(* Sparse LU of a simplex basis with a product-form update file.

   The factorization computes L·U = P·B·Q.  The column order Q takes
   basis positions by ascending nonzero count (a stable counting sort,
   ties by position), so the unit slack and artificial columns come
   first and pivot on their own rows without elimination, and the
   structural columns follow, sparsest first.  The factorization is
   left-looking: the step-j column B·Q(j) is scattered into a dense
   scratch vector and eliminated against the earlier pivot steps it
   reaches, in ascending step order.  The row choice P is threshold
   partial pivoting with u = 0.1: among the unpivoted rows whose
   remaining |x| is at least u times the column's largest, the row
   with the fewest basis nonzeros wins; the partial-pivoting row (the
   first strict maximum in touch order) keeps ties, then the first in
   touch order.  Every L multiplier is then at most 1/u = 10 in
   magnitude.  L is built column-wise in original-row coordinates and
   renumbered to pivot steps once every row has one, with a unit
   diagonal implied; U is stored column-wise in pivot-step coordinates
   with an explicit diagonal.

   Basis changes append product-form etas (r, w, w_r) where w is the
   ftran image of the incoming column: the new basis is B·E with E the
   identity whose column r is w, so ftran applies the eta inverses
   oldest-first after the LU solve and btran applies the transposes
   newest-first before it.

   L, U and the eta file are flat compressed-sparse-column arrays.  The
   order of the entries inside a column fixes the order in which btran
   accumulates its dot products, so it is part of the numerical
   contract: L columns hold their rows in reverse order of first touch
   during elimination, U columns their steps in descending order, and
   etas their positions in ascending order.

   A [t] is storage for one factorization of a fixed dimension:
   [factor] overwrites it in place and keeps every capacity its arrays
   have grown to, the eta file's included, so refactorizing allocates
   nothing once the arrays have reached their working sizes. *)

exception Singular

(* Column c's entries are idx/v.(start.(c) .. start.(c+1) - 1); columns
   [0, cols) are closed and the open column runs from start.(cols) to
   nnz.  All three arrays grow by doubling. *)
type csc = {
  mutable start : int array;
  mutable idx : int array;
  mutable v : float array;
  mutable cols : int;
  mutable nnz : int;
}

type t = {
  m : int;
  perm : int array; (* pivot step -> original row *)
  rowpos : int array; (* original row -> pivot step *)
  q : int array; (* pivot step -> basis position *)
  l : csc; (* per step: later steps and multipliers *)
  u : csc; (* per step: earlier steps and coefficients *)
  diag : float array;
  mutable lu_fill : int;
  eta : csc; (* per eta: basis positions and values of w *)
  mutable eta_r : int array; (* per eta: basis position it replaced *)
  mutable eta_pivot : float array; (* per eta: w.(eta_r) *)
  mutable eta_fill : int;
  mutable unstable : bool;
  (* solve scratch *)
  fz : float array; (* ftran's step-space vector; zero between calls *)
  load : int -> float -> unit; (* stores b_i into fz at row i's step *)
  bv : float array; (* btran's step-space vector *)
  cu : float array; (* btran_unit's position-space vector; zero between calls *)
  mutable enz : int array; (* btran_unit: cu's nonzero positions *)
  (* factor scratch; between calls x is zero and touched false *)
  ccount : int array;
  rcount : int array;
  mutable next : int array;
  x : float array;
  touched : bool array;
  touch_list : int array;
  heap : int array;
  ustep : int array;
  uval : float array;
}

let size t = t.m

let factor_pivot_tol = 1e-12
let threshold_u = 0.1
let eta_drop_tol = 1e-13
let eta_pivot_tol = 1e-9
let base_eta_cap = 64

let extend a len zero =
  let b = Array.make len zero in
  Array.blit a 0 b 0 (Array.length a);
  b

let csc_create ~cols ~nnz =
  let nnz = max 8 nnz in
  { start = Array.make (cols + 1) 0; idx = Array.make nnz 0;
    v = Array.make nnz 0.; cols = 0; nnz = 0 }

(* Empties the file and keeps its capacity; start.(0) is always 0. *)
let csc_clear c =
  c.cols <- 0;
  c.nnz <- 0

let csc_grow c =
  let cap = 2 * Array.length c.idx in
  c.idx <- extend c.idx cap 0;
  c.v <- extend c.v cap 0.

(* Appends an entry to the open column. *)
let[@inline] csc_push c i x =
  if c.nnz = Array.length c.idx then csc_grow c;
  c.idx.(c.nnz) <- i;
  c.v.(c.nnz) <- x;
  c.nnz <- c.nnz + 1

let csc_close c =
  if c.cols + 2 > Array.length c.start then
    c.start <- extend c.start (2 * Array.length c.start) 0;
  c.cols <- c.cols + 1;
  c.start.(c.cols) <- c.nnz

let create m =
  let fz = Array.make m 0. and rowpos = Array.make m (-1) in
  {
    m;
    perm = Array.make m 0;
    rowpos;
    q = Array.make m 0;
    l = csc_create ~cols:m ~nnz:(4 * m);
    u = csc_create ~cols:m ~nnz:(4 * m);
    diag = Array.make m 0.;
    lu_fill = 0;
    eta = csc_create ~cols:base_eta_cap ~nnz:(4 * m);
    eta_r = Array.make base_eta_cap 0;
    eta_pivot = Array.make base_eta_cap 0.;
    eta_fill = 0;
    unstable = false;
    fz;
    load = (fun i b -> fz.(rowpos.(i)) <- b);
    bv = Array.make m 0.;
    cu = Array.make m 0.;
    enz = Array.make (base_eta_cap + 1) 0;
    ccount = Array.make m 0;
    rcount = Array.make m 0;
    next = [||];
    x = Array.make m 0.;
    touched = Array.make m false;
    touch_list = Array.make m 0;
    heap = Array.make m 0;
    ustep = Array.make m 0;
    uval = Array.make m 0.;
  }

(* Binary min-heap over h.(0 .. n-1) holding the pivot steps a column
   reaches; every step enters at most once per column.  [heap_push]
   adds k as entry n; [heap_pop] removes and returns the minimum. *)
let heap_push h n k =
  let i = ref n in
  while !i > 0 && h.((!i - 1) / 2) > k do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- k

let heap_pop h n =
  let top = h.(0) in
  let n = n - 1 in
  let last = h.(n) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let c = (2 * !i) + 1 in
    if c >= n then sifting := false
    else begin
      let c = if c + 1 < n && h.(c + 1) < h.(c) then c + 1 else c in
      if h.(c) < last then begin
        h.(!i) <- h.(c);
        i := c
      end
      else sifting := false
    end
  done;
  h.(!i) <- last;
  top

(* The column order Q into [t.q] and the static row counts into
   [t.rcount].  One pass over the basis counts the nonzeros of every
   column and every row; a stable counting sort by column count then
   lists the basis positions sparsest first, ties by position. *)
let column_order t col_iter basis =
  let m = t.m in
  let ccount = t.ccount and rcount = t.rcount in
  Array.fill ccount 0 m 0;
  Array.fill rcount 0 m 0;
  let cur = ref 0 in
  let count r _ =
    ccount.(!cur) <- ccount.(!cur) + 1;
    rcount.(r) <- rcount.(r) + 1
  in
  let maxc = ref 0 in
  for j = 0 to m - 1 do
    cur := j;
    col_iter basis.(j) count;
    if ccount.(j) > !maxc then maxc := ccount.(j)
  done;
  (* after the prefix sums, next.(c) is the first free slot of the
     count-c bucket *)
  if Array.length t.next < !maxc + 2 then t.next <- Array.make (!maxc + 2) 0
  else Array.fill t.next 0 (!maxc + 2) 0;
  let next = t.next in
  for j = 0 to m - 1 do
    next.(ccount.(j) + 1) <- next.(ccount.(j) + 1) + 1
  done;
  for c = 1 to !maxc do
    next.(c) <- next.(c) + next.(c - 1)
  done;
  let q = t.q in
  for j = 0 to m - 1 do
    let c = ccount.(j) in
    q.(next.(c)) <- j;
    next.(c) <- next.(c) + 1
  done

let factor t col_iter basis =
  let m = t.m in
  column_order t col_iter basis;
  let q = t.q and rcount = t.rcount in
  let perm = t.perm and rowpos = t.rowpos in
  Array.fill rowpos 0 m (-1);
  let l = t.l and u = t.u and diag = t.diag in
  csc_clear l;
  csc_clear u;
  csc_clear t.eta;
  t.eta_fill <- 0;
  t.unstable <- false;
  let x = t.x and touched = t.touched and touch_list = t.touch_list in
  let nt = ref 0 in
  (* pivot steps reached but not yet eliminated *)
  let heap = t.heap and nh = ref 0 in
  (* the current column's U entries, in ascending step order *)
  let ustep = t.ustep and uval = t.uval in
  let scatter r c =
    if not touched.(r) then begin
      touched.(r) <- true;
      touch_list.(!nt) <- r;
      incr nt;
      if rowpos.(r) >= 0 then begin
        heap_push heap !nh rowpos.(r);
        incr nh
      end
    end;
    x.(r) <- x.(r) +. c
  in
  let clear_touched () =
    for ti = 0 to !nt - 1 do
      let r = touch_list.(ti) in
      touched.(r) <- false;
      x.(r) <- 0.
    done
  in
  let fill = ref 0 in
  for j = 0 to m - 1 do
    nt := 0;
    col_iter basis.(q.(j)) scatter;
    (* left-looking elimination in step order; updates from step k only
       reach rows pivoted later, so every step it pushes exceeds k and
       the heap yields the reached steps in ascending order *)
    let ls = l.start and li = l.idx and lv = l.v in
    let nu = ref 0 in
    while !nh > 0 do
      let k = heap_pop heap !nh in
      decr nh;
      let ukj = x.(perm.(k)) in
      if ukj <> 0. then begin
        ustep.(!nu) <- k;
        uval.(!nu) <- ukj;
        incr nu;
        for p = ls.(k) to ls.(k + 1) - 1 do
          let r = li.(p) in
          (* [scatter]'s first touch, inlined on the hot path *)
          if not touched.(r) then begin
            touched.(r) <- true;
            touch_list.(!nt) <- r;
            incr nt;
            if rowpos.(r) >= 0 then begin
              heap_push heap !nh rowpos.(r);
              incr nh
            end
          end;
          x.(r) <- x.(r) -. (lv.(p) *. ukj)
        done
      end
    done;
    let best = ref (-1) and bestv = ref 0. in
    for ti = 0 to !nt - 1 do
      let r = touch_list.(ti) in
      if rowpos.(r) < 0 then begin
        let a = abs_float x.(r) in
        if a > !bestv then begin
          bestv := a;
          best := r
        end
      end
    done;
    if !best < 0 || !bestv < factor_pivot_tol then begin
      (* the scratch stays clean for the next factorization *)
      clear_touched ();
      raise Singular
    end;
    (* threshold row choice: the row with the fewest basis nonzeros
       among those within u of the largest; strict comparison keeps the
       partial-pivoting row on ties, then the first in touch order *)
    let cutoff = threshold_u *. !bestv in
    for ti = 0 to !nt - 1 do
      let r = touch_list.(ti) in
      if rowpos.(r) < 0 && rcount.(r) < rcount.(!best)
         && abs_float x.(r) >= cutoff
      then best := r
    done;
    let pr = !best in
    let d = x.(pr) in
    diag.(j) <- d;
    perm.(j) <- pr;
    rowpos.(pr) <- j;
    for ti = !nt - 1 downto 0 do
      let r = touch_list.(ti) in
      if rowpos.(r) < 0 && x.(r) <> 0. then csc_push l r (x.(r) /. d)
    done;
    clear_touched ();
    for i = !nu - 1 downto 0 do
      csc_push u ustep.(i) uval.(i)
    done;
    csc_close l;
    csc_close u;
    fill := !fill + (l.start.(j + 1) - l.start.(j)) + !nu + 1
  done;
  for p = 0 to l.nnz - 1 do
    l.idx.(p) <- rowpos.(l.idx.(p))
  done;
  t.lu_fill <- !fill

let ftran t rhs w =
  let m = t.m in
  let z = t.fz in
  (* b straight into step space, then L-solve there *)
  rhs t.load;
  let ls = t.l.start and li = t.l.idx and lv = t.l.v in
  for k = 0 to m - 1 do
    let zk = z.(k) in
    if zk <> 0. then
      for p = ls.(k) to ls.(k + 1) - 1 do
        let s = li.(p) in
        z.(s) <- z.(s) -. (lv.(p) *. zk)
      done
  done;
  (* U back-substitution into w, step j's value landing at q.(j); U
     column j holds earlier steps only, so z.(j) is final when read and
     is cleared for the next call *)
  let us = t.u.start and ui = t.u.idx and uv = t.u.v and diag = t.diag in
  let q = t.q in
  for j = m - 1 downto 0 do
    let yj = z.(j) /. diag.(j) in
    z.(j) <- 0.;
    if yj <> 0. then
      for p = us.(j) to us.(j + 1) - 1 do
        let k = ui.(p) in
        z.(k) <- z.(k) -. (uv.(p) *. yj)
      done;
    w.(q.(j)) <- yj
  done;
  (* eta inverses, oldest first *)
  let es = t.eta.start and ei = t.eta.idx and ev = t.eta.v in
  for i = 0 to t.eta.cols - 1 do
    let r = t.eta_r.(i) in
    let wr = w.(r) in
    if wr <> 0. then begin
      let tp = wr /. t.eta_pivot.(i) in
      for p = es.(i) to es.(i + 1) - 1 do
        let idx = ei.(p) in
        if idx = r then w.(idx) <- tp else w.(idx) <- w.(idx) -. (ev.(p) *. tp)
      done
    end
  done

(* Uᵀ forward and Lᵀ backward solves of a basis-position indexed [c]
   whose transposed etas are applied, into step space [t.bv]: the part
   of a btran after the eta file and before the permutation back to
   original rows. *)
let btran_steps t c =
  let m = t.m in
  (* U^T forward solve into step space, step j reading position q.(j) *)
  let v = t.bv in
  let us = t.u.start and ui = t.u.idx and uv = t.u.v and diag = t.diag in
  let q = t.q in
  for j = 0 to m - 1 do
    let s = ref c.(q.(j)) in
    for p = us.(j) to us.(j + 1) - 1 do
      s := !s -. (uv.(p) *. v.(ui.(p)))
    done;
    v.(j) <- !s /. diag.(j)
  done;
  (* L^T backward solve; L column k holds steps after k only, so the
     in-place descending sweep only reads finished entries *)
  let ls = t.l.start and li = t.l.idx and lv = t.l.v in
  for k = m - 1 downto 0 do
    let s = ref v.(k) in
    for p = ls.(k) to ls.(k + 1) - 1 do
      s := !s -. (lv.(p) *. v.(li.(p)))
    done;
    v.(k) <- !s
  done

let btran t c =
  (* transposed etas, newest first; c stays basis-position indexed *)
  let es = t.eta.start and ei = t.eta.idx and ev = t.eta.v in
  for i = t.eta.cols - 1 downto 0 do
    let r = t.eta_r.(i) in
    let s = ref 0. in
    for p = es.(i) to es.(i + 1) - 1 do
      let idx = ei.(p) in
      if idx <> r then s := !s +. (ev.(p) *. c.(idx))
    done;
    c.(r) <- (c.(r) -. !s) /. t.eta_pivot.(i)
  done;
  btran_steps t c;
  let v = t.bv and perm = t.perm in
  for k = 0 to t.m - 1 do
    c.(perm.(k)) <- v.(k)
  done

(* The transposed etas of e_r only write their own positions, so c's
   nonzeros stay within r and the eta positions written so far, which
   [enz] keeps ascending and distinct.  An eta's dot product takes the
   terms of those positions only, found by binary search in its
   ascending positions, and adds them in ascending order: the terms it
   leaves out multiply a zero of [c] by a finite eta value, and adding
   such a zero never changes a sum that starts at +0.  The result is
   gathered into original-row order, each row reading its step, so its
   nonzero rows are listed ascending in the same pass. *)
let btran_unit t r rho nz =
  let k_max = t.eta.cols in
  if Array.length t.enz <= k_max then t.enz <- Array.make (2 * (k_max + 1)) 0;
  let enz = t.enz and c = t.cu in
  c.(r) <- 1.;
  enz.(0) <- r;
  let nnz = ref 1 in
  let es = t.eta.start and ei = t.eta.idx and ev = t.eta.v in
  for i = k_max - 1 downto 0 do
    let r = t.eta_r.(i) in
    let s = ref 0. in
    let lo = ref es.(i) and hi = es.(i + 1) in
    for k = 0 to !nnz - 1 do
      let x = enz.(k) in
      (* leftmost entry of [lo, hi) at or past x *)
      let a = ref !lo and b = ref hi in
      while !a < !b do
        let mid = (!a + !b) lsr 1 in
        if ei.(mid) < x then a := mid + 1 else b := mid
      done;
      lo := !a;
      if !a < hi && ei.(!a) = x && x <> r then s := !s +. (ev.(!a) *. c.(x))
    done;
    c.(r) <- (c.(r) -. !s) /. t.eta_pivot.(i);
    if c.(r) <> 0. then begin
      (* insert r into the ascending list unless it is there *)
      let k = ref !nnz in
      while !k > 0 && enz.(!k - 1) > r do
        decr k
      done;
      if !k = 0 || enz.(!k - 1) <> r then begin
        Array.blit enz !k enz (!k + 1) (!nnz - !k);
        enz.(!k) <- r;
        incr nnz
      end
    end
  done;
  btran_steps t c;
  (* only r and the etas' own positions were written *)
  c.(r) <- 0.;
  for i = 0 to k_max - 1 do
    c.(t.eta_r.(i)) <- 0.
  done;
  let v = t.bv and rowpos = t.rowpos in
  let n = ref 0 in
  for i = 0 to t.m - 1 do
    let ri = v.(rowpos.(i)) in
    rho.(i) <- ri;
    if ri <> 0. then begin
      nz.(!n) <- i;
      incr n
    end
  done;
  !n

let update t r w nz n =
  let e = t.eta in
  let first = e.nnz and maxa = ref 0. in
  for k = 0 to n - 1 do
    let i = nz.(k) in
    let wi = w.(i) in
    if wi <> 0. && (i = r || abs_float wi > eta_drop_tol) then begin
      csc_push e i wi;
      let a = abs_float wi in
      if a > !maxa then maxa := a
    end
  done;
  let k = e.cols in
  if k = Array.length t.eta_r then begin
    t.eta_r <- extend t.eta_r (2 * k) 0;
    t.eta_pivot <- extend t.eta_pivot (2 * k) 0.
  end;
  let wr = w.(r) in
  t.eta_r.(k) <- r;
  t.eta_pivot.(k) <- wr;
  csc_close e;
  t.eta_fill <- t.eta_fill + (e.nnz - first);
  if abs_float wr < eta_pivot_tol *. (1. +. !maxa) then t.unstable <- true

let eta_count t = t.eta.cols
let fill t = t.lu_fill
let unstable t = t.unstable

let needs_refactor ?(cap = base_eta_cap) t =
  t.unstable || eta_count t >= cap || t.eta_fill > 4 * (t.lu_fill + t.m)

let perm t = Array.copy t.perm
let col_perm t = Array.copy t.q

let dense_l t =
  let m = t.m in
  let a = Array.init m (fun _ -> Array.make m 0.) in
  for k = 0 to m - 1 do
    a.(k).(k) <- 1.;
    for p = t.l.start.(k) to t.l.start.(k + 1) - 1 do
      a.(t.l.idx.(p)).(k) <- t.l.v.(p)
    done
  done;
  a

let dense_u t =
  let m = t.m in
  let a = Array.init m (fun _ -> Array.make m 0.) in
  for j = 0 to m - 1 do
    a.(j).(j) <- t.diag.(j);
    for p = t.u.start.(j) to t.u.start.(j + 1) - 1 do
      a.(t.u.idx.(p)).(j) <- t.u.v.(p)
    done
  done;
  a
