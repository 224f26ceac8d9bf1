(* Seeded random generators shared by the differential and fuzz suites.

   Everything is driven by an explicit splitmix-style PRNG — never
   [Random.self_init] — so that any failure reproduces from the printed
   seed.  The base seed comes from RFLOOR_TEST_SEED (default 2015, the
   paper's year); case [i] derives its own independent stream from it.

   Three MILP families have known-optimal constructions (bounded
   knapsack via dynamic programming, assignment with a planted
   permutation, set cover by exhaustive enumeration over small set
   systems); a fourth fully random family exercises infeasible and
   degenerate shapes.  Device generators produce random columnar
   partitions satisfying Properties .3/.4 by construction plus random
   region demands sized to be mostly satisfiable. *)

open Milp

module Prng = struct
  type t = { mutable s : int64 }

  let mix64 z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let make seed = { s = mix64 (Int64.of_int (seed + 0x1234567)) }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    mix64 t.s

  let int t n =
    if n <= 0 then invalid_arg "Prng.int: bound must be positive";
    Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

  (* inclusive range *)
  let range t lo hi = lo + int t (hi - lo + 1)
  let bool t = Int64.logand (next t) 1L = 1L
  let pick t arr = arr.(int t (Array.length arr))

  let shuffle t arr =
    for i = Array.length arr - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done
end

let base_seed () =
  match Sys.getenv_opt "RFLOOR_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some n -> n | None -> 2015)
  | None -> 2015

(* Independent stream per case: a failure report of [seed] alone is a
   complete reproducer, whatever order the cases ran in. *)
let case_seed base i = base + (1000003 * (i + 1))

(* QCheck properties as Alcotest cases, each drawing from its own state
   seeded with the base seed, so RFLOOR_TEST_SEED reproduces them
   whichever cases run. *)
let qsuite tests =
  List.map
    (fun t ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| base_seed () |]) t)
    tests

(* Worker counts for the differential matrix: always {1, 2, 4}, plus
   whatever RFLOOR_WORKERS asks for (bin/lint.sh test-matrix). *)
let worker_counts () =
  List.sort_uniq compare (Branch_bound.workers_from_env () :: [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* MILP instance families *)

type milp_case = {
  c_lp : Lp.t;
  c_optimum : float option;  (** known optimal objective, original direction *)
  c_family : string;
}

(* Bounded knapsack; the optimum comes from exact dynamic programming
   over the (integer) capacity. *)
let knapsack prng =
  let n = Prng.range prng 3 6 in
  let w = Array.init n (fun _ -> Prng.range prng 1 9) in
  let v = Array.init n (fun _ -> Prng.range prng 1 9) in
  let u = Array.init n (fun _ -> Prng.range prng 1 3) in
  let total = Array.fold_left ( + ) 0 (Array.init n (fun i -> w.(i) * u.(i))) in
  let cap = max 1 (total * Prng.range prng 30 70 / 100) in
  let dp = Array.make (cap + 1) 0 in
  for i = 0 to n - 1 do
    for _copy = 1 to u.(i) do
      for c = cap downto w.(i) do
        dp.(c) <- max dp.(c) (dp.(c - w.(i)) + v.(i))
      done
    done
  done;
  let lp = Lp.create ~name:"gen_knapsack" () in
  let xs =
    Array.init n (fun i ->
        Lp.add_var lp
          ~name:(Printf.sprintf "x%d" i)
          ~ub:(float_of_int u.(i)) ~kind:Lp.Integer ())
  in
  Lp.add_constr lp ~name:"cap"
    (Array.to_list (Array.mapi (fun i x -> (float_of_int w.(i), x)) xs))
    Lp.Le (float_of_int cap);
  Lp.set_objective lp Lp.Maximize
    (Array.to_list (Array.mapi (fun i x -> (float_of_int v.(i), x)) xs));
  { c_lp = lp; c_optimum = Some (float_of_int dp.(cap)); c_family = "knapsack" }

(* Assignment with a planted permutation: planted edges cost 1, all
   others at least 2, and each row/column holds exactly one cost-1
   edge — so any assignment costs >= n with equality only on the
   planted one.  Known optimum: n. *)
let assignment prng =
  let n = Prng.range prng 2 4 in
  let perm = Array.init n (fun i -> i) in
  Prng.shuffle prng perm;
  let lp = Lp.create ~name:"gen_assignment" () in
  let x =
    Array.init n (fun i ->
        Array.init n (fun j ->
            Lp.add_var lp ~name:(Printf.sprintf "x%d_%d" i j) ~kind:Lp.Binary ()))
  in
  let cost i j = if perm.(i) = j then 1 else Prng.range prng 2 9 in
  let costs = Array.init n (fun i -> Array.init n (fun j -> cost i j)) in
  for i = 0 to n - 1 do
    Lp.add_constr lp
      ~name:(Printf.sprintf "row%d" i)
      (List.init n (fun j -> (1., x.(i).(j))))
      Lp.Eq 1.
  done;
  for j = 0 to n - 1 do
    Lp.add_constr lp
      ~name:(Printf.sprintf "col%d" j)
      (List.init n (fun i -> (1., x.(i).(j))))
      Lp.Eq 1.
  done;
  let obj = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      obj := (float_of_int costs.(i).(j), x.(i).(j)) :: !obj
    done
  done;
  Lp.set_objective lp Lp.Minimize !obj;
  { c_lp = lp; c_optimum = Some (float_of_int n); c_family = "assignment" }

(* Weighted set cover over a small universe; the optimum is found by
   exhaustive enumeration over the <= 2^7 subsets of sets. *)
let set_cover prng =
  let u = Prng.range prng 3 5 in
  let m = Prng.range prng 3 7 in
  let sets =
    Array.init m (fun _ ->
        Array.init u (fun _ -> Prng.int prng 100 < 40))
  in
  (* guarantee coverage: every element lands in at least one set *)
  for e = 0 to u - 1 do
    if not (Array.exists (fun s -> s.(e)) sets) then
      sets.(Prng.int prng m).(e) <- true
  done;
  let weight = Array.init m (fun _ -> Prng.range prng 1 9) in
  let best = ref max_int in
  for mask = 0 to (1 lsl m) - 1 do
    let covered e =
      let rec go j = j < m && ((mask land (1 lsl j) <> 0 && sets.(j).(e)) || go (j + 1)) in
      go 0
    in
    let rec all e = e >= u || (covered e && all (e + 1)) in
    if all 0 then begin
      let cost = ref 0 in
      for j = 0 to m - 1 do
        if mask land (1 lsl j) <> 0 then cost := !cost + weight.(j)
      done;
      if !cost < !best then best := !cost
    end
  done;
  let lp = Lp.create ~name:"gen_setcover" () in
  let xs =
    Array.init m (fun j ->
        Lp.add_var lp ~name:(Printf.sprintf "s%d" j) ~kind:Lp.Binary ())
  in
  for e = 0 to u - 1 do
    let terms =
      Array.to_list xs
      |> List.filteri (fun j _ -> sets.(j).(e))
      |> List.map (fun x -> (1., x))
    in
    Lp.add_constr lp ~name:(Printf.sprintf "cover%d" e) terms Lp.Ge 1.
  done;
  Lp.set_objective lp Lp.Minimize
    (Array.to_list (Array.mapi (fun j x -> (float_of_int weight.(j), x)) xs));
  { c_lp = lp; c_optimum = Some (float_of_int !best); c_family = "set_cover" }

(* Fully random box-bounded MILP: small, possibly infeasible, mixed
   senses and kinds — no known optimum, used for status-differential
   and format-fuzz coverage.  Every variable gets a nonzero coefficient
   in the first row so that serializers never drop a column. *)
let random_milp prng =
  let n = Prng.range prng 1 4 in
  let m = Prng.range prng 1 4 in
  let lp = Lp.create ~name:"gen_random" () in
  let nonzero () =
    let c = Prng.range prng 1 4 in
    float_of_int (if Prng.bool prng then c else -c)
  in
  let coef () = float_of_int (Prng.range prng (-4) 4) in
  let xs =
    Array.init n (fun i ->
        let ub = float_of_int (Prng.range prng 1 5) in
        let kind = if Prng.bool prng then Lp.Integer else Lp.Continuous in
        Lp.add_var lp ~name:(Printf.sprintf "r%d" i) ~lb:0. ~ub ~kind ())
  in
  for r = 0 to m - 1 do
    let terms =
      Array.to_list
        (Array.map (fun x -> ((if r = 0 then nonzero () else coef ()), x)) xs)
    in
    let sense =
      match Prng.int prng 3 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq
    in
    Lp.add_constr lp terms sense (float_of_int (Prng.range prng (-3) 10))
  done;
  Lp.set_objective lp
    (if Prng.bool prng then Lp.Minimize else Lp.Maximize)
    (Array.to_list (Array.map (fun x -> (coef (), x)) xs));
  { c_lp = lp; c_optimum = None; c_family = "random" }

let milp_case ~seed =
  let prng = Prng.make seed in
  match Prng.int prng 4 with
  | 0 -> knapsack prng
  | 1 -> assignment prng
  | 2 -> set_cover prng
  | _ -> random_milp prng

(* A deliberately harder bounded knapsack for timing and cancellation
   tests.  The weights are even and the capacity odd, so no integer
   point fills the capacity and the root relaxation's break item is
   always fractional: the root LP is never integral. *)
let hard_knapsack ~seed =
  let prng = Prng.make seed in
  let n = 12 in
  let w = Array.init n (fun _ -> 2 * Prng.range prng 2 10) in
  let v = Array.init n (fun _ -> Prng.range prng 3 19) in
  let total = Array.fold_left ( + ) 0 w * 3 in
  let cap = (total * 45 / 100) lor 1 in
  let lp = Lp.create ~name:"gen_hard_knapsack" () in
  let xs =
    Array.init n (fun i ->
        Lp.add_var lp ~name:(Printf.sprintf "x%d" i) ~ub:3. ~kind:Lp.Integer ())
  in
  Lp.add_constr lp ~name:"cap"
    (Array.to_list (Array.mapi (fun i x -> (float_of_int w.(i), x)) xs))
    Lp.Le (float_of_int cap);
  Lp.set_objective lp Lp.Maximize
    (Array.to_list (Array.mapi (fun i x -> (float_of_int v.(i), x)) xs));
  lp

(* ------------------------------------------------------------------ *)
(* Device / spec generators *)

(* Random columnar-partitionable grid: uniform columns, adjacent
   portions of differing kinds — Properties .3 and .4 hold by
   construction (and the differential suite re-checks them). *)
let random_partition prng =
  let kinds = [| Device.Resource.Clb; Device.Resource.Bram; Device.Resource.Dsp |] in
  let nportions = Prng.range prng 2 4 in
  let rows = Prng.range prng 4 6 in
  let cols = ref [] in
  let prev = ref None in
  for _ = 1 to nportions do
    let k = ref (Prng.pick prng kinds) in
    while Some !k = !prev do
      k := Prng.pick prng kinds
    done;
    prev := Some !k;
    let width = Prng.range prng 1 2 in
    for _ = 1 to width do
      cols := Device.Resource.tile_type !k :: !cols
    done
  done;
  let grid = Device.Grid.of_columns ~name:"gen_device" ~rows (List.rev !cols) in
  Device.Partition.columnar_exn grid

let random_spec prng (part : Device.Partition.t) =
  let avail = Device.Grid.usable_tiles part.Device.Partition.grid in
  let kinds_avail =
    List.filter
      (fun (k, c) -> c > 0 && k <> Device.Resource.Io)
      avail
  in
  let nregions = Prng.range prng 1 (min 3 (List.length kinds_avail + 1)) in
  let regions =
    List.init nregions (fun i ->
        let k, c = List.nth kinds_avail (Prng.int prng (List.length kinds_avail)) in
        let cap = max 1 (c / (2 * nregions)) in
        {
          Device.Spec.r_name = Printf.sprintf "R%d" (i + 1);
          demand = [ (k, Prng.range prng 1 cap) ];
        })
  in
  let names = List.map (fun r -> r.Device.Spec.r_name) regions in
  let nets =
    if List.length names >= 2 && Prng.bool prng then Device.Spec.chain_nets names
    else []
  in
  let relocs =
    if Prng.int prng 3 = 0 then
      [ { Device.Spec.target = List.hd names; copies = 1; mode = Device.Spec.Hard } ]
    else []
  in
  Device.Spec.make ~nets ~relocs ~name:"gen_spec" regions

(* Like [random_spec] but always with one relocation request of 2-3
   copies so interchangeable free-compatible areas exist — the shape
   the symmetry cuts order.  Soft mode keeps the instance feasible on
   devices too small for every copy; roughly half the cases go hard. *)
let random_reloc_spec prng (part : Device.Partition.t) =
  let spec = random_spec prng part in
  let names = Device.Spec.region_names spec in
  (* soft-biased: hard 3-copy requests on the small random devices are
     routinely infeasible-but-hard-to-prove, which starves the
     differential suites of conclusive pairs *)
  let mode =
    if Prng.range prng 0 3 = 0 then Device.Spec.Hard else Device.Spec.Soft 1.
  in
  Device.Spec.with_relocs spec
    [
      {
        Device.Spec.target = List.hd names;
        copies = (if Prng.range prng 0 3 = 0 then 3 else 2);
        mode;
      };
    ]

(* A spec for the combinatorial engine's differential: [random_spec] or
   [random_reloc_spec] with its relocation requests replaced by one hard
   request of 1-3 copies (plus, on some cases, a soft request on another
   region) and its nets by a chain in random bus widths, sometimes
   closed into a ring or joined by a self net. *)
let random_engine_spec prng (part : Device.Partition.t) =
  let base =
    if Prng.bool prng then random_spec prng part else random_reloc_spec prng part
  in
  let names = Array.of_list (Device.Spec.region_names base) in
  let n = Array.length names in
  let weight () = Prng.pick prng [| 0.5; 1.; 2.5; 32.; 64. |] in
  let net src dst = { Device.Spec.src; dst; weight = weight () } in
  let chain = List.init (n - 1) (fun i -> net names.(i) names.(i + 1)) in
  let extra =
    match Prng.int prng 4 with
    | 0 when n >= 3 -> [ net names.(n - 1) names.(0) ]
    | 1 -> [ net names.(0) names.(0) ]
    | _ -> []
  in
  let target = Prng.int prng n in
  let hard =
    { Device.Spec.target = names.(target); copies = Prng.range prng 1 3;
      mode = Device.Spec.Hard }
  in
  let soft =
    if n >= 2 && Prng.bool prng then
      [
        { Device.Spec.target = names.((target + 1) mod n);
          copies = Prng.range prng 1 2; mode = Device.Spec.Soft 1. };
      ]
    else []
  in
  Device.Spec.make ~nets:(chain @ extra) ~relocs:(hard :: soft)
    ~name:"gen_engine" base.Device.Spec.regions
