(* Sparse LU of a simplex basis with a product-form update file.

   The factorization is left-looking: column j of the basis is
   scattered into a dense scratch vector, eliminated against the
   earlier pivot steps it reaches, in ascending step order, and the
   largest remaining entry (partial pivoting) becomes the step-j pivot.
   L is built column-wise in original-row coordinates and renumbered to
   pivot steps once every row has one, with a unit diagonal implied; U
   is stored column-wise in pivot-step coordinates with an explicit
   diagonal.

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
   etas their positions in ascending order. *)

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
  l : csc; (* per step: later steps and multipliers *)
  u : csc; (* per step: earlier steps and coefficients *)
  diag : float array;
  lu_fill : int;
  eta : csc; (* per eta: basis positions and values of w *)
  mutable eta_r : int array; (* per eta: basis position it replaced *)
  mutable eta_pivot : float array; (* per eta: w.(eta_r) *)
  mutable eta_fill : int;
  mutable unstable : bool;
  fw : float array; (* solve scratch *)
}

let size t = t.m

let factor_pivot_tol = 1e-12
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

let factor ~m col_iter basis =
  let perm = Array.make m (-1) in
  let rowpos = Array.make m (-1) in
  let l = csc_create ~cols:m ~nnz:(4 * m) in
  let u = csc_create ~cols:m ~nnz:(4 * m) in
  let diag = Array.make m 0. in
  let x = Array.make m 0. in
  let touched = Array.make m false in
  let touch_list = Array.make m 0 in
  let nt = ref 0 in
  (* pivot steps reached but not yet eliminated *)
  let heap = Array.make m 0 and nh = ref 0 in
  (* the current column's U entries, in ascending step order *)
  let ustep = Array.make m 0 and uval = Array.make m 0. in
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
  let fill = ref 0 in
  for j = 0 to m - 1 do
    nt := 0;
    col_iter basis.(j) scatter;
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
    if !best < 0 || !bestv < factor_pivot_tol then raise Singular;
    let pr = !best in
    let d = x.(pr) in
    diag.(j) <- d;
    perm.(j) <- pr;
    rowpos.(pr) <- j;
    for ti = !nt - 1 downto 0 do
      let r = touch_list.(ti) in
      if rowpos.(r) < 0 && x.(r) <> 0. then csc_push l r (x.(r) /. d)
    done;
    for ti = 0 to !nt - 1 do
      let r = touch_list.(ti) in
      touched.(r) <- false;
      x.(r) <- 0.
    done;
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
  {
    m;
    perm;
    l;
    u;
    diag;
    lu_fill = !fill;
    eta = csc_create ~cols:base_eta_cap ~nnz:(4 * m);
    eta_r = Array.make base_eta_cap 0;
    eta_pivot = Array.make base_eta_cap 0.;
    eta_fill = 0;
    unstable = false;
    fw = Array.make m 0.;
  }

let ftran t b =
  let m = t.m in
  let z = t.fw and perm = t.perm in
  (* permute b into step space, then L-solve there *)
  for k = 0 to m - 1 do
    z.(k) <- b.(perm.(k))
  done;
  let ls = t.l.start and li = t.l.idx and lv = t.l.v in
  for k = 0 to m - 1 do
    let zk = z.(k) in
    if zk <> 0. then
      for p = ls.(k) to ls.(k + 1) - 1 do
        let s = li.(p) in
        z.(s) <- z.(s) -. (lv.(p) *. zk)
      done
  done;
  (* U back-substitution; b's row-space values are dead, reuse it for
     the basis-position result *)
  let us = t.u.start and ui = t.u.idx and uv = t.u.v and diag = t.diag in
  for j = m - 1 downto 0 do
    let yj = z.(j) /. diag.(j) in
    if yj <> 0. then
      for p = us.(j) to us.(j + 1) - 1 do
        let k = ui.(p) in
        z.(k) <- z.(k) -. (uv.(p) *. yj)
      done;
    b.(j) <- yj
  done;
  (* eta inverses, oldest first *)
  let es = t.eta.start and ei = t.eta.idx and ev = t.eta.v in
  for i = 0 to t.eta.cols - 1 do
    let r = t.eta_r.(i) in
    let br = b.(r) in
    if br <> 0. then begin
      let tp = br /. t.eta_pivot.(i) in
      for p = es.(i) to es.(i + 1) - 1 do
        let idx = ei.(p) in
        if idx = r then b.(idx) <- tp else b.(idx) <- b.(idx) -. (ev.(p) *. tp)
      done
    end
  done

let btran t c =
  let m = t.m in
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
  (* U^T forward solve into step space *)
  let v = t.fw in
  let us = t.u.start and ui = t.u.idx and uv = t.u.v and diag = t.diag in
  for j = 0 to m - 1 do
    let s = ref c.(j) in
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
  done;
  let perm = t.perm in
  for k = 0 to m - 1 do
    c.(perm.(k)) <- v.(k)
  done

let update t r w =
  let e = t.eta in
  let first = e.nnz and maxa = ref 0. in
  for i = 0 to t.m - 1 do
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
