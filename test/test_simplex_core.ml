(* Property tests for the sparse LU kernel under Simplex.

   Randomized bases (seeded; RFLOOR_TEST_SEED respected, failures print
   the case seed) are checked for the three contracts the revised
   simplex relies on:
   - factorization correctness: L·U = P·B entrywise;
   - ftran/btran are true solves: B·w = b and Bᵀ·y = c round-trip;
   - the product-form update file is exact: k column replacements via
     [Lu.update] answer ftran/btran identically (to rounding) to a
     fresh factorization of the replaced basis.
   Small dense-ish bases (m <= 15, identity column order) and
   simplex-scale ones (m up to 300, unit and structural columns
   interleaved) both run through them.  A last case pins the FX70T
   root LP of the benchmark: its iteration count, objective bits and
   solution digest, and the allocation per iteration. *)

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
  Lu.factor ~m (col_iter cols) (Array.init m (fun j -> j))

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
(* Property 1: L·U = P·B *)

let check_reconstructs ~seed cols lu =
  let m = Array.length cols in
  let b = dense_of_cols cols in
  let l = Lu.dense_l lu and u = Lu.dense_u lu and perm = Lu.perm lu in
  let scale = 1. +. max_abs b in
  (* L must be unit lower and U upper triangular *)
  for k = 0 to m - 1 do
    if l.(k).(k) <> 1. then
      Alcotest.failf "seed %d (m=%d): L[%d][%d] = %.12g, not 1" seed m k k
        l.(k).(k);
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
      let want = b.(perm.(k)).(j) in
      if abs_float (!lu_kj -. want) > 1e-8 *. scale then
        Alcotest.failf "seed %d (m=%d): (L*U)[%d][%d] = %.12g, (P*B) = %.12g"
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
  let w = Array.copy b in
  Lu.ftran lu w;
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
  let w = Array.make m 0. in
  Array.iter (fun (row, c) -> w.(row) <- w.(row) +. c) newcol;
  Lu.ftran lu w;
  if abs_float w.(r) < 1e-6 then
    if tries <= 0 then None
    else apply_update ~gen prng cols lu r (tries - 1)
  else begin
    Lu.update lu r w;
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
  let w = Array.make m 0. in
  Array.iter (fun (row, c) -> w.(row) <- w.(row) +. c) newcol;
  Lu.ftran lu w;
  let r = ref 0 in
  Array.iteri (fun i wi -> if abs_float wi > abs_float w.(!r) then r := i) w;
  Lu.update lu !r w;
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
      let w_upd = Array.copy b and w_fresh = Array.copy b in
      Lu.ftran lu w_upd;
      Lu.ftran fresh w_fresh;
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
   The allocation bound sits twice above the kernel's ~1.9k minor words
   per iteration: a boxed float per priced column already breaks it
   (~6k), a closure per column entry (~600k) by far. *)
let root_iterations = 1148
let root_objective = "-0x1.cp-38"
let root_x_digest = "32ef1b4c28b078954021dd4a2e2963b8"
let max_minor_words_per_iter = 4_000.

let test_fx70t_root_lp () =
  let part = Device.Partition.columnar_exn Device.Devices.virtex5_fx70t in
  let model =
    Rfloor.Model.build
      ~options:
        { Rfloor.Model.default_options with objective = Rfloor.Model.Wasted_frames_only }
      part Sdr.design
  in
  let lp = Rfloor.Model.lp model in
  ignore (Presolve.tighten lp);
  let core = Simplex.Core.of_lp lp in
  let n = Lp.num_vars lp in
  let lb = Array.init n (Lp.var_lb lp) and ub = Array.init n (Lp.var_ub lp) in
  List.iter
    (fun v ->
      if Float.is_finite lb.(v) then lb.(v) <- Float.round (ceil (lb.(v) -. 1e-9));
      if Float.is_finite ub.(v) then ub.(v) <- Float.round (floor (ub.(v) +. 1e-9)))
    (Lp.integer_vars lp);
  let words0 = Gc.minor_words () in
  let o = Simplex.Core.solve ~lb ~ub core in
  let words = Gc.minor_words () -. words0 in
  Alcotest.(check bool) "optimal" true (o.Simplex.status = Simplex.Optimal);
  Alcotest.(check int) "iterations" root_iterations o.Simplex.iterations;
  Alcotest.(check string) "objective bits" root_objective
    (Printf.sprintf "%h" o.Simplex.objective);
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") o.Simplex.x))))
  in
  Alcotest.(check string) "x digest" root_x_digest digest;
  let per_iter = words /. float_of_int o.Simplex.iterations in
  if per_iter > max_minor_words_per_iter then
    Alcotest.failf "%.0f minor words per iteration (bound %.0f)" per_iter
      max_minor_words_per_iter

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
        Alcotest.test_case "needs_refactor honors the eta cap" `Quick
          test_needs_refactor_cap;
        Alcotest.test_case "singular bases are rejected" `Quick
          test_singular_detected;
      ] );
    ( "simplex_core.root_lp",
      [ Alcotest.test_case "FX70T root LP pinned" `Quick test_fx70t_root_lp ] );
  ]
