(* Property tests for the sparse LU kernel under Simplex.

   Randomized bases (seeded; RFLOOR_TEST_SEED respected, failures print
   the case seed) are checked for the four contracts the revised
   simplex relies on:
   - factorization correctness: L·U = P·B·Q entrywise, Q a permutation
     of the basis positions and every L multiplier at most 1/u = 10;
   - ftran/btran are true solves: B·w = b and Bᵀ·y = c round-trip;
   - the product-form update file is exact: k column replacements via
     [Lu.update] answer ftran/btran identically (to rounding) to a
     fresh factorization of the replaced basis;
   - the pivot row's btran of a unit vector equals btran's bit for bit
     and lists its nonzero rows;
   - a factorization that fails in one [Lu.t] leaves another one's
     answers as they were, bit for bit.
   Small dense-ish bases (m <= 15, column j basic in position j) and
   simplex-scale ones (m up to 300, unit and structural columns
   interleaved, so Q is not the identity) both run through them.  The
   last cases pin the FX70T root LP of the benchmark (its iteration
   count, objective bits and solution digest, the allocation per
   iteration and the major-heap words per solve) and bound the fill of
   its optimal basis, and a digest pins the cold and warm pivot paths
   of 251 small LPs. *)

open Milp
module Prng = Generators.Prng

(* ------------------------------------------------------------------ *)
(* Random sparse bases *)

(* A permutation backbone with entries bounded away from zero makes the
   matrix structurally nonsingular; extra off-diagonal fill (which can
   still produce numerically singular draws — callers retry on
   [Lu.Singular]) exercises the elimination and pivoting paths. *)
let signed prng lo hi =
  let v = lo +. (float_of_int (Prng.int prng 1000) /. 1000. *. (hi -. lo)) in
  if Prng.bool prng then v else -.v

let random_cols prng m =
  let backbone = Array.init m (fun i -> i) in
  Prng.shuffle prng backbone;
  Array.init m (fun j ->
      let taken = Array.make m false in
      taken.(backbone.(j)) <- true;
      let entries = ref [ (backbone.(j), signed prng 0.5 4.) ] in
      let extra = Prng.int prng (1 + (m / 2)) in
      for _ = 1 to extra do
        let r = Prng.int prng m in
        if not taken.(r) then begin
          taken.(r) <- true;
          entries := (r, signed prng 0.05 2.) :: !entries
        end
      done;
      Array.of_list (List.rev !entries))

(* A basis shaped like a simplex one: about two positions in three
   hold a slack's unit column, the rest a structural column of a few
   nonzeros, interleaved in position order.  Every column keeps an
   entry on its own backbone row, which makes it structurally
   nonsingular. *)
let simplex_cols prng m =
  let backbone = Array.init m (fun i -> i) in
  Prng.shuffle prng backbone;
  Array.init m (fun j ->
      if Prng.int prng 3 > 0 then [| (backbone.(j), 1.) |]
      else begin
        let taken = Hashtbl.create 8 in
        Hashtbl.replace taken backbone.(j) ();
        let entries = ref [ (backbone.(j), signed prng 0.5 4.) ] in
        for _ = 1 to Prng.range prng 1 5 do
          let r = Prng.int prng m in
          if not (Hashtbl.mem taken r) then begin
            Hashtbl.replace taken r ();
            entries := (r, signed prng 0.05 2.) :: !entries
          end
        done;
        Array.of_list (List.rev !entries)
      end)

let col_iter cols j f = Array.iter (fun (r, c) -> f r c) cols.(j)

let factor_cols cols =
  let m = Array.length cols in
  let lu = Lu.create m in
  Lu.factor lu (col_iter cols) (Array.init m (fun j -> j));
  lu

(* [Lu.ftran] of a row-indexed right-hand side, every entry stored. *)
let ftran lu b =
  let w = Array.make (Array.length b) 0. in
  Lu.ftran lu (fun set -> Array.iteri set b) w;
  w

(* [Lu.ftran] of a sparse column, its entries scattered as [Simplex]
   scatters a column of A. *)
let ftran_col lu col =
  let w = Array.make (Lu.size lu) 0. in
  Lu.ftran lu (fun set -> Array.iter (fun (r, c) -> set r c) col) w;
  w

(* [Lu.update] with [w]'s nonzero positions listed ascending. *)
let update lu r w =
  let nz = Array.make (Array.length w) 0 and n = ref 0 in
  Array.iteri
    (fun i wi ->
      if wi <> 0. then begin
        nz.(!n) <- i;
        incr n
      end)
    w;
  Lu.update lu r w nz !n

(* Retry until a draw factors: keeps the test independent of how often
   random fill produces a (near-)singular matrix. *)
let rec random_factored ?(gen = random_cols) prng m tries =
  let cols = gen prng m in
  match factor_cols cols with
  | lu -> (cols, lu)
  | exception Lu.Singular ->
    if tries <= 0 then Alcotest.fail "no nonsingular draw in 50 tries"
    else random_factored ~gen prng m (tries - 1)

let dense_of_cols cols =
  let m = Array.length cols in
  let b = Array.make_matrix m m 0. in
  Array.iteri (fun j col -> Array.iter (fun (r, c) -> b.(r).(j) <- c) col) cols;
  b

let max_abs a =
  Array.fold_left (fun acc row -> Array.fold_left (fun a v -> Float.max a (abs_float v)) acc row) 0. a

(* ------------------------------------------------------------------ *)
(* Property 1: L·U = P·B·Q *)

(* Threshold pivoting with u = 0.1 keeps every multiplier within 1/u;
   the slack absorbs the rounding of the threshold and the division. *)
let max_multiplier = 10. *. (1. +. 1e-12)

let check_reconstructs ~seed cols lu =
  let m = Array.length cols in
  let b = dense_of_cols cols in
  let l = Lu.dense_l lu and u = Lu.dense_u lu and perm = Lu.perm lu in
  let q = Lu.col_perm lu in
  let scale = 1. +. max_abs b in
  (* Q must list every basis position exactly once *)
  if Array.length q <> m then
    Alcotest.failf "seed %d (m=%d): col_perm has length %d" seed m
      (Array.length q);
  let seen = Array.make m false in
  Array.iteri
    (fun k p ->
      if p < 0 || p >= m || seen.(p) then
        Alcotest.failf "seed %d (m=%d): col_perm[%d] = %d repeats or is out of range"
          seed m k p;
      seen.(p) <- true)
    q;
  (* L must be unit lower and U upper triangular *)
  for k = 0 to m - 1 do
    if l.(k).(k) <> 1. then
      Alcotest.failf "seed %d (m=%d): L[%d][%d] = %.12g, not 1" seed m k k
        l.(k).(k);
    for t = 0 to k - 1 do
      if abs_float l.(k).(t) > max_multiplier then
        Alcotest.failf "seed %d (m=%d): multiplier L[%d][%d] = %.12g exceeds 10"
          seed m k t l.(k).(t)
    done;
    for t = k + 1 to m - 1 do
      if l.(k).(t) <> 0. then
        Alcotest.failf "seed %d (m=%d): L[%d][%d] = %.12g above the diagonal"
          seed m k t l.(k).(t);
      if u.(t).(k) <> 0. then
        Alcotest.failf "seed %d (m=%d): U[%d][%d] = %.12g below the diagonal"
          seed m t k u.(t).(k)
    done
  done;
  for k = 0 to m - 1 do
    for j = 0 to m - 1 do
      let lu_kj = ref 0. in
      for t = 0 to m - 1 do
        lu_kj := !lu_kj +. (l.(k).(t) *. u.(t).(j))
      done;
      let want = b.(perm.(k)).(q.(j)) in
      if abs_float (!lu_kj -. want) > 1e-8 *. scale then
        Alcotest.failf "seed %d (m=%d): (L*U)[%d][%d] = %.12g, (P*B*Q) = %.12g"
          seed m k j !lu_kj want
    done
  done

let test_lu_reconstructs () =
  let base = Generators.base_seed () in
  for i = 0 to 59 do
    let seed = Generators.case_seed base i in
    let prng = Prng.make seed in
    let m = Prng.range prng 1 12 in
    let cols, lu = random_factored prng m 50 in
    check_reconstructs ~seed cols lu
  done

(* ------------------------------------------------------------------ *)
(* Property 2: ftran/btran solve B·w = b and Bᵀ·y = c *)

let check_ftran ~seed cols lu prng tag =
  let m = Array.length cols in
  let b = Array.init m (fun _ -> float_of_int (Prng.range prng (-9) 9)) in
  let w = ftran lu b in
  (* recompose: sum_j w_j * col_j must reproduce b row-wise *)
  let got = Array.make m 0. in
  for j = 0 to m - 1 do
    if w.(j) <> 0. then
      Array.iter (fun (r, c) -> got.(r) <- got.(r) +. (c *. w.(j))) cols.(j)
  done;
  let scale = 1. +. Array.fold_left (fun a v -> Float.max a (abs_float v)) 0. w in
  for r = 0 to m - 1 do
    if abs_float (got.(r) -. b.(r)) > 1e-7 *. scale then
      Alcotest.failf "seed %d (m=%d, %s): ftran: (B*w)[%d] = %.12g, b = %.12g"
        seed m tag r got.(r) b.(r)
  done

let check_btran ~seed cols lu prng tag =
  let m = Array.length cols in
  let c = Array.init m (fun _ -> float_of_int (Prng.range prng (-9) 9)) in
  let y = Array.copy c in
  Lu.btran lu y;
  (* Bᵀ·y = c means each basis column dotted with y gives its cost *)
  let scale = 1. +. Array.fold_left (fun a v -> Float.max a (abs_float v)) 0. y in
  for j = 0 to m - 1 do
    let dot = ref 0. in
    Array.iter (fun (r, coef) -> dot := !dot +. (coef *. y.(r))) cols.(j);
    if abs_float (!dot -. c.(j)) > 1e-7 *. scale then
      Alcotest.failf "seed %d (m=%d, %s): btran: (B^T*y)[%d] = %.12g, c = %.12g"
        seed m tag j !dot c.(j)
  done

let test_ftran_btran_roundtrip () =
  let base = Generators.base_seed () + 7777 in
  for i = 0 to 59 do
    let seed = Generators.case_seed base i in
    let prng = Prng.make seed in
    let m = Prng.range prng 1 15 in
    let cols, lu = random_factored prng m 50 in
    for _ = 1 to 3 do
      check_ftran ~seed cols lu prng "fresh";
      check_btran ~seed cols lu prng "fresh"
    done
  done

(* ------------------------------------------------------------------ *)
(* Property 3: k product-form updates ≡ fresh factorization *)

(* Replace position [r]'s column through the public protocol (ftran the
   incoming column, then [Lu.update]); mirrors exactly what [Simplex]
   does at a basis change.  Retries draws whose spike pivot is too
   small to represent an invertible replacement. *)
let rec apply_update ?(gen = random_cols) prng cols lu r tries =
  let m = Array.length cols in
  let newcol = (gen prng m).(Prng.int prng m) in
  let w = ftran_col lu newcol in
  if abs_float w.(r) < 1e-6 then
    if tries <= 0 then None
    else apply_update ~gen prng cols lu r (tries - 1)
  else begin
    update lu r w;
    cols.(r) <- newcol;
    Some ()
  end

(* Replaces the position holding the largest entry of the incoming
   column's spike, as a ratio test that prefers big pivots would: every
   draw applies, and the basis stays well conditioned over long update
   sequences. *)
let apply_largest_pivot ~gen prng cols lu =
  let m = Array.length cols in
  let newcol = (gen prng m).(Prng.int prng m) in
  let w = ftran_col lu newcol in
  let r = ref 0 in
  Array.iteri (fun i wi -> if abs_float wi > abs_float w.(!r) then r := i) w;
  update lu !r w;
  cols.(!r) <- newcol

(* Applies [k] random replacements to the factored [cols] (at random
   positions, or at the largest pivot) and checks the updated
   factorization against a fresh one of the new basis. *)
let check_updates ?(gen = random_cols) ?(largest_pivot = false) ~seed prng cols
    lu k =
  let m = Array.length cols in
  let applied = ref 0 in
  for _ = 1 to k do
    if largest_pivot then begin
      apply_largest_pivot ~gen prng cols lu;
      incr applied
    end
    else
      match apply_update ~gen prng cols lu (Prng.int prng m) 20 with
      | Some () -> incr applied
      | None -> ()
  done;
  if Lu.eta_count lu <> !applied then
    Alcotest.failf "seed %d: eta_count %d after %d updates" seed
      (Lu.eta_count lu) !applied;
  (* the updated factorization must answer like a fresh one *)
  (match factor_cols cols with
  | fresh ->
    for _ = 1 to 3 do
      let b = Array.init m (fun _ -> float_of_int (Prng.range prng (-9) 9)) in
      let w_upd = ftran lu b and w_fresh = ftran fresh b in
      let scale =
        1. +. Array.fold_left (fun a v -> Float.max a (abs_float v)) 0. w_fresh
      in
      for j = 0 to m - 1 do
        if abs_float (w_upd.(j) -. w_fresh.(j)) > 1e-6 *. scale then
          Alcotest.failf
            "seed %d (m=%d, %d updates): ftran[%d] updated %.12g vs fresh %.12g"
            seed m !applied j w_upd.(j) w_fresh.(j)
      done;
      let c = Array.init m (fun _ -> float_of_int (Prng.range prng (-9) 9)) in
      let y_upd = Array.copy c and y_fresh = Array.copy c in
      Lu.btran lu y_upd;
      Lu.btran fresh y_fresh;
      let scale =
        1. +. Array.fold_left (fun a v -> Float.max a (abs_float v)) 0. y_fresh
      in
      for r = 0 to m - 1 do
        if abs_float (y_upd.(r) -. y_fresh.(r)) > 1e-6 *. scale then
          Alcotest.failf
            "seed %d (m=%d, %d updates): btran[%d] updated %.12g vs fresh %.12g"
            seed m !applied r y_upd.(r) y_fresh.(r)
      done
    done
  | exception Lu.Singular ->
    (* every accepted update had |pivot| >= 1e-6, so the replaced
       basis is invertible; a singular fresh factor is a bug *)
    Alcotest.failf "seed %d: fresh refactorization singular after updates" seed);
  (* updated LU must still answer the *current* basis, directly *)
  check_ftran ~seed cols lu prng "updated";
  check_btran ~seed cols lu prng "updated";
  !applied

let test_updates_match_fresh () =
  let base = Generators.base_seed () + 424242 in
  for i = 0 to 39 do
    let seed = Generators.case_seed base i in
    let prng = Prng.make seed in
    let m = Prng.range prng 2 12 in
    let cols, lu = random_factored prng m 50 in
    ignore (check_updates ~seed prng cols lu (Prng.range prng 1 8))
  done

(* ------------------------------------------------------------------ *)
(* The three properties at simplex scale *)

let test_simplex_scale () =
  let base = Generators.base_seed () + 5150 in
  for i = 0 to 7 do
    let seed = Generators.case_seed base i in
    let prng = Prng.make seed in
    let m = if i = 0 then 300 else Prng.range prng 40 300 in
    let cols, lu = random_factored ~gen:simplex_cols prng m 50 in
    if Lu.col_perm lu = Array.init m Fun.id then
      Alcotest.failf "seed %d (m=%d): column order is the identity" seed m;
    check_reconstructs ~seed cols lu;
    for _ = 1 to 3 do
      check_ftran ~seed cols lu prng "fresh";
      check_btran ~seed cols lu prng "fresh"
    done;
    ignore
      (check_updates ~gen:simplex_cols ~seed prng cols lu (Prng.range prng 1 40))
  done

(* One update sequence longer than the eta file's first capacity (64
   etas, 4m entries), so its buffers grow mid-sequence. *)
let test_eta_growth () =
  let seed = Generators.case_seed (Generators.base_seed () + 6464) 0 in
  let prng = Prng.make seed in
  let cols, lu = random_factored ~gen:simplex_cols prng 300 50 in
  ignore
    (check_updates ~gen:simplex_cols ~largest_pivot:true ~seed prng cols lu 150)

(* ------------------------------------------------------------------ *)
(* The pivot row's btran *)

(* [Lu.btran_unit] of every unit vector against [Lu.btran] of it, bit
   for bit (stricter than [=], which equates the two zeros), and its
   list of nonzero rows against the result's.  The output starts full
   of NaNs: btran_unit writes every entry. *)
let check_btran_unit ~seed ~tag lu m =
  for r = 0 to m - 1 do
    let got = Array.make m nan and nz = Array.make m (-1) in
    let want = Array.make m 0. in
    want.(r) <- 1.;
    let n = Lu.btran_unit lu r got nz in
    Lu.btran lu want;
    for i = 0 to m - 1 do
      if Int64.bits_of_float got.(i) <> Int64.bits_of_float want.(i) then
        Alcotest.failf "seed %d (m=%d, %s): btran_unit e_%d [%d] = %h, btran %h"
          seed m tag r i got.(i) want.(i)
    done;
    let rows = List.filter (fun i -> got.(i) <> 0.) (List.init m Fun.id) in
    if Array.to_list (Array.sub nz 0 n) <> rows then
      Alcotest.failf "seed %d (m=%d, %s): btran_unit e_%d lists %d nonzero rows, has %d"
        seed m tag r n (List.length rows)
  done

(* Random simplex-shaped bases after 0, 1, a few and more than 64
   updates (past the eta file's first capacity; [Lu.update] takes any
   number, only [needs_refactor] reads the cap). *)
let test_btran_unit_random () =
  let base = Generators.base_seed () + 2525 in
  for i = 0 to 11 do
    let seed = Generators.case_seed base i in
    let prng = Prng.make seed in
    let m = Prng.range prng 2 60 in
    let cols, lu = random_factored ~gen:simplex_cols prng m 50 in
    check_btran_unit ~seed ~tag:"0 updates" lu m;
    apply_largest_pivot ~gen:simplex_cols prng cols lu;
    check_btran_unit ~seed ~tag:"1 update" lu m;
    let k = if i mod 3 = 0 then 100 else Prng.range prng 2 40 in
    for _ = 2 to k do
      apply_largest_pivot ~gen:simplex_cols prng cols lu
    done;
    check_btran_unit ~seed ~tag:(Printf.sprintf "%d updates" k) lu m
  done

(* Etas that take basis position 0 of e_1's btran nonzero, back to
   zero and nonzero again (newest first, [c.(0)] goes 1, 0, -2), then
   one that reads position 0: counting that position once per visit
   would give 4 where the solve gives 2.  The basis is the identity,
   so the etas' values carry through exactly. *)
let test_btran_unit_revisit () =
  let m = 4 in
  let unit_cols = Array.init m (fun i -> [| (i, 1.) |]) in
  let lu = factor_cols unit_cols in
  List.iter
    (fun (r, w) -> update lu r w)
    [
      (2, [| 1.; 0.; 1.; 0. |]);
      (0, [| 1.; 2.; 0.; 0. |]);
      (0, [| 1.; 1.; 0.; 0. |]);
      (0, [| 1.; -1.; 0.; 0. |]);
    ];
  let c = Array.make m 0. and nz = Array.make m 0 in
  ignore (Lu.btran_unit lu 1 c nz);
  Alcotest.(check (array (float 0.))) "B^-T e_1" [| -2.; 1.; 2.; 0. |] c;
  check_btran_unit ~seed:0 ~tag:"revisit" lu m

(* ------------------------------------------------------------------ *)
(* Refactorization triggers *)

let test_needs_refactor_cap () =
  let base = Generators.base_seed () + 99 in
  let seed = Generators.case_seed base 0 in
  let prng = Prng.make seed in
  let m = 8 in
  let cols, lu = random_factored prng m 50 in
  Alcotest.(check bool) "fresh factor trusted" false (Lu.needs_refactor lu);
  let applied = ref 0 in
  while !applied < 3 do
    let r = Prng.int prng m in
    match apply_update prng cols lu r 20 with
    | Some () -> incr applied
    | None -> ()
  done;
  Alcotest.(check bool) "below default cap" false
    (Lu.needs_refactor ~cap:64 lu);
  Alcotest.(check bool) "at explicit cap" true (Lu.needs_refactor ~cap:3 lu);
  Alcotest.(check bool) "stable so far" false (Lu.unstable lu)

(* Two factorizations, as [Simplex] keeps them: a live one with an eta
   file, and a spare that holds an older factorization.  A basis with
   a repeated structural column raises [Lu.Singular] partway through,
   after the spare's arrays were partly overwritten; the live one must
   still answer ftran, btran and btran_unit with the same bits, and the
   spare must then factor a basis exactly as new storage would. *)
let test_spare_singular () =
  let seed = Generators.case_seed (Generators.base_seed () + 4747) 0 in
  let prng = Prng.make seed in
  let m = 60 in
  let answers lu =
    let buf = Buffer.create 16384 in
    let put a = Array.iter (fun v -> Printf.bprintf buf "%h " v) a in
    let rhs = Prng.make seed in
    for _ = 1 to 3 do
      let b = Array.init m (fun _ -> float_of_int (Prng.range rhs (-9) 9)) in
      put (ftran lu b);
      let c = Array.copy b in
      Lu.btran lu c;
      put c
    done;
    for r = 0 to m - 1 do
      let rho = Array.make m 0. and nz = Array.make m 0 in
      let n = Lu.btran_unit lu r rho nz in
      put rho;
      Array.iter (Printf.bprintf buf "%d ") (Array.sub nz 0 n)
    done;
    Buffer.contents buf
  in
  let cols, live = random_factored ~gen:simplex_cols prng m 50 in
  for _ = 1 to 10 do
    apply_largest_pivot ~gen:simplex_cols prng cols live
  done;
  let before = answers live in
  let spare_cols, spare = random_factored ~gen:simplex_cols prng m 50 in
  for _ = 1 to 5 do
    apply_largest_pivot ~gen:simplex_cols prng spare_cols spare
  done;
  let structural =
    List.filter (fun j -> Array.length cols.(j) > 1) (List.init m Fun.id)
  in
  let singular =
    match structural with
    | j1 :: j2 :: _ -> Array.mapi (fun j col -> if j = j2 then cols.(j1) else col) cols
    | _ -> Alcotest.failf "seed %d: fewer than two structural columns" seed
  in
  (match Lu.factor spare (col_iter singular) (Array.init m Fun.id) with
  | () -> Alcotest.failf "seed %d: a repeated column factored" seed
  | exception Lu.Singular -> ());
  Alcotest.(check int) "live eta file kept" 10 (Lu.eta_count live);
  Alcotest.(check string) "live answers unchanged" before (answers live);
  Lu.factor spare (col_iter cols) (Array.init m Fun.id);
  Alcotest.(check string) "spare factors as new storage would"
    (answers (factor_cols cols)) (answers spare)

let test_singular_detected () =
  (* a column of zeros and a duplicated column must both raise *)
  let zero_cols = [| [| (0, 1.) |]; [||] |] in
  (match factor_cols zero_cols with
  | _ -> Alcotest.fail "zero column factored"
  | exception Lu.Singular -> ());
  let dup_cols = [| [| (0, 1.); (1, 2.) |]; [| (0, 2.); (1, 4.) |] |] in
  match factor_cols dup_cols with
  | _ -> Alcotest.fail "rank-1 basis factored"
  | exception Lu.Singular -> ()

(* ------------------------------------------------------------------ *)
(* The FX70T root LP, pinned *)

(* The stage-1 root LP the table2-milp benchmark solves: the SDR model
   on the FX70T with the wasted-frames objective, presolved, integer
   bounds snapped.  A kernel change that keeps every floating-point
   operation in order reproduces the pivot path exactly, so the
   iteration count, the objective's bits and a digest of x's bits are
   pinned (x86-64 values; OCaml emits no fused multiply-add there).
   The allocation bound sits about twice above the kernel's ~0.5k minor
   words per iteration, low enough that a boxed float per priced column
   (about 2.2k words more) or per row of the ratio test (the polymorphic
   [max] on floats there read 2.1k in all) breaks it.  The major-heap
   bound holds the solve's arrays, its two factorizations and their
   growth (about 0.8M words); a factorization that allocated its
   storage afresh each time read 8.5M. *)
let root_iterations = 998
let root_objective = "0x0p+0"
let root_x_digest = "6b816524e8cbd81541a7768bbf6561a4"
let max_minor_words_per_iter = 1_000.
let max_major_words = 2e6

let fx70t_root_lp () =
  let part = Device.Partition.columnar_exn Device.Devices.virtex5_fx70t in
  let model =
    Rfloor.Model.build
      ~options:
        { Rfloor.Model.default_options with objective = Rfloor.Model.Wasted_frames_only }
      part Sdr.design
  in
  let lp = Rfloor.Model.lp model in
  ignore (Presolve.tighten lp);
  let n = Lp.num_vars lp in
  let lb = Array.init n (Lp.var_lb lp) and ub = Array.init n (Lp.var_ub lp) in
  List.iter
    (fun v ->
      if Float.is_finite lb.(v) then lb.(v) <- Float.round (ceil (lb.(v) -. 1e-9));
      if Float.is_finite ub.(v) then ub.(v) <- Float.round (floor (ub.(v) +. 1e-9)))
    (Lp.integer_vars lp);
  (lp, Simplex.Core.of_lp lp, lb, ub)

let test_fx70t_root_lp () =
  let _, core, lb, ub = fx70t_root_lp () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let words0 = Gc.minor_words () in
  let o = Simplex.Core.solve ~lb ~ub core in
  let words = Gc.minor_words () -. words0 in
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  Alcotest.(check bool) "optimal" true (o.Simplex.status = Simplex.Optimal);
  Alcotest.(check int) "iterations" root_iterations o.Simplex.iterations;
  Alcotest.(check string) "objective bits" root_objective
    (Printf.sprintf "%h" o.Simplex.objective);
  if abs_float o.Simplex.objective > 1e-9 then
    Alcotest.failf "objective %h is not a rounding residue of the optimum 0"
      o.Simplex.objective;
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") o.Simplex.x))))
  in
  Alcotest.(check string) "x digest" root_x_digest digest;
  let per_iter = words /. float_of_int o.Simplex.iterations in
  if per_iter > max_minor_words_per_iter then
    Alcotest.failf "%.0f minor words per iteration (bound %.0f)" per_iter
      max_minor_words_per_iter;
  if major > max_major_words then
    Alcotest.failf "%.0f major-heap words per solve (bound %.0f)" major
      max_major_words

(* The optimal basis of that LP, factored over the LP's own columns
   (slacks and artificials as unit columns), must keep L+U within 1.5x
   its nonzeros (about 1.1x).  Factoring in basis-position order gives
   over 20x, and the sparse row choice alone about 2.5x. *)
let max_fill_ratio = 1.5

let test_fx70t_basis_fill () =
  let lp, core, lb, ub = fx70t_root_lp () in
  let o, snapshot = Simplex.Core.solve_warm ~lb ~ub core in
  Alcotest.(check bool) "optimal" true (o.Simplex.status = Simplex.Optimal);
  let basis =
    match snapshot with
    | Some b -> Simplex.Basis.basic_columns b
    | None -> Alcotest.fail "no basis"
  in
  let n = Lp.num_vars lp and m = Lp.num_constrs lp in
  let cols = Array.make n [] in
  Lp.iter_constrs lp (fun i terms _ _ ->
      List.iter (fun (c, v) -> cols.(v) <- (i, c) :: cols.(v)) terms);
  let cols = Array.map (fun col -> Array.of_list (List.rev col)) cols in
  let col_iter j f =
    if j < n then Array.iter (fun (r, c) -> f r c) cols.(j)
    else f (if j < n + m then j - n else j - n - m) 1.
  in
  let nnz =
    Array.fold_left
      (fun acc j -> acc + if j < n then Array.length cols.(j) else 1)
      0 basis
  in
  let lu = Lu.create m in
  Lu.factor lu col_iter basis;
  let ratio = float_of_int (Lu.fill lu) /. float_of_int nnz in
  if ratio > max_fill_ratio then
    Alcotest.failf "L+U holds %d entries for %d basis nonzeros (%.2fx, bound %.1fx)"
      (Lu.fill lu) nnz ratio max_fill_ratio

(* ------------------------------------------------------------------ *)
(* The pivot paths of small LPs, pinned *)

(* Cold solves of [Generators.milp_case] LPs at fixed seeds (not
   RFLOOR_TEST_SEED) and of two fixture families, and the down and up
   warm child re-solves that the differential suite builds from each
   root optimum, with the warm outcome ("dual" or "fallback:REASON").
   Every status, iteration count, objective and x is written with
   [%h], so a kernel change that keeps every floating-point operation
   in order reproduces the digest, and one that reorders a sum or
   breaks a tie differently does not.  The small families neither
   reset the devex weights nor reach Bland's rule; the fixtures do
   both. *)
let path_cases = 240
let path_digest = "cceb13cb8215bb92c0d4d4cd05ae4e30"

(* [m] homogeneous rows [a·x <= 0] (each variable in a row with
   probability 1/2, coefficients ±1..5) and [Σx <= 1] over
   [0 <= x <= 10], maximizing a positive objective.  From the slack
   basis most pivots are degenerate, so long streaks end in Bland's
   rule, and the weights of the cone's many tied columns blow past the
   devex reset. *)
let degenerate_lp prng =
  let m = 80 and n = 80 in
  let lp = Lp.create () in
  let xs = Array.init n (fun _ -> Lp.add_var lp ~ub:10. ()) in
  for _ = 1 to m do
    let terms =
      Array.to_list xs
      |> List.filter (fun _ -> Prng.int prng 2 = 0)
      |> List.map (fun x ->
             let a = float_of_int (Prng.range prng 1 5) in
             ((if Prng.int prng 2 = 0 then a else -.a), x))
    in
    if terms <> [] then Lp.add_constr lp terms Lp.Le 0.
  done;
  Lp.add_constr lp (Array.to_list (Array.map (fun x -> (1., x)) xs)) Lp.Le 1.;
  Lp.set_objective lp Lp.Maximize
    (Array.to_list (Array.map (fun x -> (float_of_int (Prng.range prng 1 9), x)) xs));
  lp

(* 12 rows [a·x <= b] over 24 bounded columns, each column in a row
   with probability 1/2, coefficients spanning 1e-4 to 9e4.  Small
   pivots on large weights leave columns weighted past the devex
   reset; at the seeds [scaled_seeds] (from a search of the first
   2000) such a leaving column, untouched by a later pivot row, is
   what decides a reset. *)
let scaled_lp prng =
  let m = 12 and n = 24 in
  let lp = Lp.create () in
  let xs =
    Array.init n (fun _ -> Lp.add_var lp ~ub:(float_of_int (Prng.range prng 1 20)) ())
  in
  for _ = 1 to m do
    let terms =
      Array.to_list xs
      |> List.filter (fun _ -> Prng.int prng 2 = 0)
      |> List.map (fun x ->
             let a =
               float_of_int (Prng.range prng 1 9)
               *. (10. ** float_of_int (Prng.range prng (-4) 4))
             in
             ((if Prng.int prng 2 = 0 then a else -.a), x))
    in
    if terms <> [] then
      Lp.add_constr lp terms Lp.Le (float_of_int (Prng.range prng 0 20))
  done;
  Lp.set_objective lp Lp.Maximize
    (Array.to_list (Array.map (fun x -> (float_of_int (Prng.range prng 1 9), x)) xs));
  lp

let scaled_seeds = [ 54; 299; 1405 ]

let path_record buf tag (o : Simplex.outcome) =
  Buffer.add_string buf tag;
  Buffer.add_string buf
    (match o.Simplex.status with
    | Simplex.Optimal -> " optimal"
    | Simplex.Infeasible -> " infeasible"
    | Simplex.Unbounded -> " unbounded"
    | Simplex.Iter_limit -> " iter_limit");
  Buffer.add_string buf
    (Printf.sprintf " %d %h" o.Simplex.iterations o.Simplex.objective);
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %h" v)) o.Simplex.x;
  Buffer.add_char buf '\n'

(* The warm outcome of a [solve_warm], read off its [Lp_warm] event. *)
let warm_solve ~lb ~ub ~warm core =
  let result = ref "none" in
  let trace =
    Rfloor_trace.create
      ~sink:
        (Rfloor_trace.Sink.of_fn (fun e ->
             match e.Rfloor_trace.Event.payload with
             | Rfloor_trace.Event.Lp_warm { result = r } -> result := r
             | _ -> ()))
      ()
  in
  let o, _ = Simplex.Core.solve_warm ~lb ~ub ~warm ~trace core in
  (o, !result)

let pivot_paths buf ~seed lp =
  let core = Simplex.Core.of_lp lp in
  let n = Simplex.Core.num_vars core in
  path_record buf "cold" (Simplex.Core.solve core);
  let root, basis = Simplex.Core.solve_warm core in
  match (root.Simplex.status, basis) with
  | Simplex.Optimal, Some parent when n > 0 ->
    (* the children of the differential suite's warm re-solve case *)
    let prng = Prng.make (seed + 17) in
    let v = Prng.int prng n in
    let fl = Float.round (floor (root.Simplex.x.(v) +. 1e-6)) in
    let root_lb = Array.init n (fun j -> Lp.var_lb lp j) in
    let root_ub = Array.init n (fun j -> Lp.var_ub lp j) in
    let children =
      [
        ( "down",
          root_lb,
          Array.init n (fun j ->
              if j = v then Float.min root_ub.(j) fl else root_ub.(j)) );
        ( "up",
          Array.init n (fun j ->
              if j = v then Float.max root_lb.(j) (fl +. 1.) else root_lb.(j)),
          root_ub );
      ]
    in
    List.iter
      (fun (tag, lb, ub) ->
        path_record buf (tag ^ " cold") (Simplex.Core.solve ~lb ~ub core);
        let o, result = warm_solve ~lb ~ub ~warm:parent core in
        path_record buf (tag ^ " warm " ^ result) o)
      children
  | _ -> ()

let test_pivot_paths () =
  let buf = Buffer.create 65536 in
  for i = 0 to path_cases - 1 do
    let seed = Generators.case_seed 2015 (8_000 + i) in
    pivot_paths buf ~seed (Generators.milp_case ~seed).Generators.c_lp
  done;
  for seed = 1 to 8 do
    pivot_paths buf ~seed (degenerate_lp (Prng.make seed))
  done;
  List.iter
    (fun seed -> pivot_paths buf ~seed (scaled_lp (Prng.make seed)))
    scaled_seeds;
  Alcotest.(check string) "pivot-path digest" path_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suites =
  [
    ( "simplex_core.lu",
      [
        Alcotest.test_case "L*U = P*B on random sparse bases" `Quick
          test_lu_reconstructs;
        Alcotest.test_case "ftran/btran round-trip" `Quick
          test_ftran_btran_roundtrip;
        Alcotest.test_case "k updates match a fresh factorization" `Quick
          test_updates_match_fresh;
        Alcotest.test_case "simplex-scale bases (m <= 300)" `Quick
          test_simplex_scale;
        Alcotest.test_case "update sequence grows the eta file" `Quick
          test_eta_growth;
        Alcotest.test_case "btran_unit = btran of e_r after 0..100 updates"
          `Quick test_btran_unit_random;
        Alcotest.test_case "btran_unit revisits a position" `Quick
          test_btran_unit_revisit;
        Alcotest.test_case "needs_refactor honors the eta cap" `Quick
          test_needs_refactor_cap;
        Alcotest.test_case "singular bases are rejected" `Quick
          test_singular_detected;
        Alcotest.test_case "a singular spare leaves the live factor" `Quick
          test_spare_singular;
      ] );
    ( "simplex_core.root_lp",
      [
        Alcotest.test_case "FX70T root LP pinned" `Quick test_fx70t_root_lp;
        Alcotest.test_case "optimal basis fill within 1.5x" `Quick
          test_fx70t_basis_fill;
      ] );
    ( "simplex_core.pivots",
      [
        Alcotest.test_case "cold and warm pivot paths pinned" `Quick
          test_pivot_paths;
      ] );
  ]
