(* Shared machinery of the benchmark: the clock, a seeded PRNG, order
   statistics, the per-run result and the bench-side span recorder that
   traced passes use. *)

(* One clock for everything: the monotonic source the library's own
   tracer stamps its events with, so library event times and bench spans
   line up. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --scale: a smoke run shrinks every workload's counts by this factor. *)
let scale = ref 1.
let scaled n = max 1 (int_of_float (Float.round (float_of_int n *. !scale)))

(* splitmix64 with explicit state: a workload's inputs are a function of
   --seed alone. *)
module Prng = struct
  type t = { mutable s : int64 }

  let mix z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let make seed = { s = mix (Int64.of_int seed) }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    mix t.s

  let int t n = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int n))
  let range t lo hi = lo + int t (hi - lo + 1)

  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.

  let chance t p = float t < p
end

module Stats = struct
  (* Linear interpolation between order statistics (the default of
     numpy and of Python's statistics.quantiles inclusive method). *)
  let percentile p = function
    | [] -> 0.
    | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = p /. 100. *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

  let median xs = percentile 50. xs

  let mean = function
    | [] -> 0.
    | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
end

(* ---------------- one run's result ---------------- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** failure messages, newest first *)
  metrics : (string, float) Hashtbl.t;
}

let result () =
  { attempted = 0; failed = 0; notes = []; metrics = Hashtbl.create 64 }

let set r name v = Hashtbl.replace r.metrics name v

(* [ops] operations checked, [failed] of them failed, [notes] says why. *)
let tally r ~ops ~failed notes =
  r.attempted <- r.attempted + ops;
  r.failed <- r.failed + failed;
  r.notes <- List.rev_append notes r.notes

(* One operation's verdict: it failed when any check produced a message. *)
let verdict r msgs = tally r ~ops:1 ~failed:(if msgs = [] then 0 else 1) msgs

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let promoted_words () = (Gc.quick_stat ()).Gc.promoted_words

(* Mean microseconds per call of [f] over [inputs] (0 when empty). *)
let us_per_call f inputs =
  match inputs with
  | [] -> 0.
  | _ ->
    let t = now () in
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
    1e6 *. (now () -. t) /. float_of_int (List.length inputs)

(* ---------------- host speed ---------------- *)

(* The benchmark runs on shared hosts whose speed swings, with no sign in
   process CPU time or steal time: on the 2-vCPU Xeon container this was
   developed in, the same code runs at full speed or at about 0.65 of
   it, in phases of seconds to minutes, so a 30 s run can spend all its
   time in either.  Integer, allocating code slows by about the same
   factor in a phase (the library's search and online code alike), so a
   fixed piece of such code, timed every so often while a round runs,
   tells how fast the host ran the round.  [kernel] is that piece:
   hashing into an open-addressing table and sorting, standard library
   alone, so no change to the program changes it, and without
   allocating, so the program's heap neither slows it nor is changed by
   it. *)
module Speed = struct
  let table = Array.make 4096 0
  let keys = Array.init 25_000 (fun i -> i * 7919 mod 10007)
  let sorted = Array.make 25_000 0

  let kernel () =
    Array.fill table 0 4096 (-1);
    let distinct = ref 0 in
    for i = 1 to 10_000 do
      let k = i * 7919 mod 2503 in
      let j = ref (k * 0x9E3779B1 land 4095) in
      while table.(!j) <> -1 && table.(!j) <> k do
        j := (!j + 1) land 4095
      done;
      if table.(!j) = -1 then begin
        table.(!j) <- k;
        incr distinct
      end
    done;
    Array.blit keys 0 sorted 0 25_000;
    Array.sort compare sorted;
    !distinct + sorted.(100)

  (* The kernel's time, in seconds, at full speed on that container *)
  let reference = 0.0063

  (* How much slower than the reference the host runs now: one kernel
     run over [reference]. *)
  let probe () =
    let t = now () in
    ignore (Sys.opaque_identity (kernel ()));
    (now () -. t) /. reference

  (* Probing inside a round: [tick] is called at points the workload
     offers (solver events, online events) and probes when [interval]
     has passed since the last probe.  [probed] is all the time probes
     took, which the round clock leaves out.  Only the main domain
     probes. *)
  let interval = 0.15
  let probed = ref 0.
  let active = ref false
  let last = ref 0.
  let samples = ref []

  let tick () =
    if !active && Domain.is_main_domain () && now () -. !last >= interval then begin
      let t = now () in
      samples := probe () :: !samples;
      last := now ();
      probed := !probed +. (!last -. t)
    end

  (* Runs [f] with probing on; returns its value and the probes taken. *)
  let during f =
    samples := [];
    last := now ();
    active := true;
    let v = Fun.protect ~finally:(fun () -> active := false) f in
    (v, !samples)
end

(* The clock rounds time their work with: [now] less the time spent
   probing the host's speed. *)
let clock () = now () -. !Speed.probed

(* ---------------- set-up and rounds ---------------- *)

(* Runs [setup] 10 times; returns the last value and the fastest time,
   the one least disturbed by the host.  The heap is collected first, so
   neither the set-up nor the round after it pays for the garbage of the
   round before, and every round starts from the same heap. *)
let set_up setup =
  Gc.full_major ();
  let rec go i fastest =
    let t0 = now () in
    let v = setup () in
    let fastest = Float.min fastest (now () -. t0) in
    if i >= 9 then (v, fastest) else go (i + 1) fastest
  in
  go 0 infinity

(* One round of a workload, timed on [clock]: the latency of each
   operation in it, how many operations it completed and how long it
   took. *)
type round = { lat : float list; ops : int; secs : float }

(* A run: its rounds, each with the host's slowness while it ran (the
   mean of the probes before, during and after the round), and its
   set-up times, each with the probe right after it. *)
type run = { rounds : (round * float) list; setups : (float * float) list }

(* Runs rounds until [seconds] would be exceeded: another starts only
   when the median round so far still fits, and at least one runs.
   Every round gets a fresh [setup] followed by a speed probe, and the
   run ends with one more of each. *)
let rounds ~seconds ~setup round =
  let t0 = now () in
  let setups = ref [] in
  let set_up_and_probe () =
    let v, dt = set_up setup in
    let s = Speed.probe () in
    setups := (dt, s) :: !setups;
    (v, s)
  in
  let rec go i acc (v, before) =
    let elapsed = now () -. t0 in
    if i > 0 && elapsed +. Stats.median (List.map (fun (x, _) -> x.secs) acc) > seconds
    then List.rev acc
    else begin
      let x, during = Speed.during (fun () -> round v) in
      let ((_, after) as next) = set_up_and_probe () in
      go (i + 1) ((x, Stats.mean ((before :: during) @ [ after ])) :: acc) next
    end
  in
  let rounds = go 0 [] (set_up_and_probe ()) in
  { rounds; setups = List.rev !setups }

(* Every round of a run repeats the same work, so rounds differ only by
   how the host treated them.  Each time is divided by the host's
   slowness around it, so a run reports times at the reference speed
   (see [Speed]) whichever phases it ran in: each latency and throughput
   figure is the median over rounds of the round's normalized figure, and
   [setup_s] the median over set-ups of each one's normalized fastest
   time.  [heap_mb] is the top of the major heap over the run. *)
let report_rounds r { rounds; setups } =
  let show xs = String.concat " " (List.map (Printf.sprintf "%.3g") xs) in
  Printf.eprintf "%d rounds, %s s each, host slowness %s; set-ups %s s\n%!"
    (List.length rounds)
    (show (List.map (fun (x, _) -> x.secs) rounds))
    (show (List.map snd rounds))
    (show (List.map fst setups));
  let median f = Stats.median (List.map (fun (x, s) -> f x /. s) rounds) in
  set r "setup_s" (Stats.median (List.map (fun (dt, s) -> dt /. s) setups));
  set r "latency_p50_ms" (1000. *. median (fun x -> Stats.median x.lat));
  set r "latency_p90_ms" (1000. *. median (fun x -> Stats.percentile 90. x.lat));
  set r "ops_per_s" (1. /. median (fun x -> x.secs /. float_of_int x.ops));
  set r "heap_mb" (heap_mb ())

(* ---------------- bench-side spans ---------------- *)

(* A span is one call into a layer's public function, recorded by the
   benchmark around the call.  A [derived] span is one whose interval
   the benchmark read from what the library exports (trace events on a
   ring sink) rather than timed itself. *)
module Spans = struct
  type span = {
    id : int;
    name : string;  (** [layer.what]; the layer is the part before the dot *)
    parent : int;  (** [-1] for a root *)
    start : float;
    stop : float;
    derived : bool;
  }

  (* Spans are recorded by the main thread only. *)
  let enabled = ref false
  let next_id = ref 0
  let stack : int list ref = ref []
  let finished : span list ref = ref []
  let record s = finished := s :: !finished

  let fresh () =
    incr next_id;
    !next_id

  let current () = match !stack with id :: _ -> id | [] -> -1

  (* The span's parent is the innermost open one. *)
  let span name f =
    if not !enabled then f ()
    else begin
      let id = fresh () in
      let parent = current () in
      stack := id :: !stack;
      let start = now () in
      Fun.protect
        ~finally:(fun () ->
          let stop = now () in
          stack := List.tl !stack;
          record { id; name; parent; start; stop; derived = false })
        f
    end

  (* A derived span: an interval read from what the library exports,
     recorded after the fact.  Returns its id. *)
  let add ?(parent = current ()) name ~start ~stop =
    if !enabled then begin
      let id = fresh () in
      record { id; name; parent; start; stop; derived = true };
      id
    end
    else -1

  let all () = List.rev !finished

  let layer name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name

  (* Length of the union of [intervals] clipped to [lo, hi]. *)
  let covered ~lo ~hi intervals =
    let xs =
      List.filter_map
        (fun (a, b) ->
          let a = max a lo and b = min b hi in
          if b > a then Some (a, b) else None)
        intervals
      |> List.sort compare
    in
    let total, last =
      List.fold_left
        (fun (total, (ca, cb)) (a, b) ->
          if a > cb then (total +. (cb -. ca), (a, b)) else (total, (ca, max cb b)))
        (0., (lo, lo))
        xs
    in
    total +. (snd last -. fst last)

  (* Self time per span (its duration minus what its children cover)
     summed per span name and per layer, plus the part of [t0, t1] that
     no root span covers.  The per-layer rows and [unattributed] add up
     to [t1 - t0] whenever root spans stay inside the window. *)
  type profile = {
    by_name : (string, float * float) Hashtbl.t;  (** total, self *)
    by_layer : (string, float) Hashtbl.t;  (** self seconds *)
    unattributed : float;
    wall : float;
  }

  let profile ~t0 ~t1 spans =
    let children = Hashtbl.create 64 in
    List.iter
      (fun s -> Hashtbl.add children s.parent (s.start, s.stop))
      spans;
    let by_name = Hashtbl.create 32 and by_layer = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let dur = s.stop -. s.start in
        let self =
          dur -. covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all children s.id)
        in
        let total, self' = Option.value ~default:(0., 0.) (Hashtbl.find_opt by_name s.name) in
        Hashtbl.replace by_name s.name (total +. dur, self' +. self);
        let l = layer s.name in
        Hashtbl.replace by_layer l
          (self +. Option.value ~default:0. (Hashtbl.find_opt by_layer l)))
      spans;
    let roots = covered ~lo:t0 ~hi:t1 (Hashtbl.find_all children (-1)) in
    { by_name; by_layer; unattributed = t1 -. t0 -. roots; wall = t1 -. t0 }

  let total p name = Option.fold ~none:0. ~some:fst (Hashtbl.find_opt p.by_name name)
  let self p name = Option.fold ~none:0. ~some:snd (Hashtbl.find_opt p.by_name name)

  let durations name spans =
    List.filter_map (fun s -> if s.name = name then Some (s.stop -. s.start) else None) spans

  let write path ~epoch spans =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"parent\":%s,\"start\":%.9f,\"end\":%.9f,\"derived\":%b}\n"
          s.id s.name
          (if s.parent < 0 then "null" else string_of_int s.parent)
          (s.start -. epoch) (s.stop -. epoch) s.derived)
      spans
end

(* The per-layer self-time rows every traced pass reports, from the
   spans recorded inside [t0, t1]. *)
let self_rows = [ "device"; "analysis"; "core"; "search"; "milp"; "online"; "bench" ]

let report_profile r (p : Spans.profile) =
  List.iter
    (fun l ->
      set r ("self." ^ l ^ "_s")
        (Option.value ~default:0. (Hashtbl.find_opt p.Spans.by_layer l)))
    self_rows;
  set r "self.unattributed_s" p.Spans.unattributed;
  set r "trace.wall_s" p.Spans.wall;
  set r "device.partition_s" (Spans.total p "device.partition")
