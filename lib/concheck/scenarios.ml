(* The concurrency scenarios the repo actually worries about, modeled
   at the granularity where their interleavings differ, plus
   self-tests that prove the analyzers still have teeth.

   Each scenario mirrors a real structure: the incumbent CAS loop of
   Branch_bound, its work deque, the service LRU cache (used directly,
   not modeled), and the cancel-vs-drain handoff of the job pool.  A
   deliberately broken incumbent variant (blind write after a stale
   read) must produce a violation, otherwise the explorer itself is
   reported broken. *)

module D = Rfloor_diag.Diagnostic
module Sync = Rfloor_sync
module Cache = Rfloor_service.Cache

(* deterministic per-seed variation of the scenario data *)
let lcg seed =
  let s = ref (seed land 0x3FFFFFFF) in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod bound

(* ------------------------------------------------------------------ *)
(* Incumbent CAS loop (Branch_bound.improve): concurrent minimization
   must end at the minimum of all proposals.  [cas] models the real
   compare-and-set loop; [blind] models the bug the loop exists to
   prevent — write-after-stale-read loses an update under some
   schedule, which the explorer must find. *)

let incumbent_cas ~blind proposals =
  let initial = 1000 in
  let latest = ref (ref initial) in
  let threads () =
    let best = ref initial in
    latest := best;
    List.map
      (fun v ->
        let pc = ref `Read in
        let obs = ref 0 in
        fun () ->
          match !pc with
          | `Read ->
            obs := !best;
            pc := `Write;
            true
          | `Write ->
            (if v >= !obs then pc := `Done
             else if blind then begin
               best := v;
               pc := `Done
             end
             else if !best = !obs then begin
               (* CAS success: compare and set in one atomic step *)
               best := v;
               pc := `Done
             end
             else pc := `Read (* CAS failure: retry from a fresh read *));
            true
          | `Done -> false)
      proposals
  in
  let check () =
    let expect = List.fold_left min initial proposals in
    let got = !(!latest) in
    if got = expect then Ok ()
    else
      Error
        (Printf.sprintf "final incumbent %d, expected the minimum %d" got
           expect)
  in
  {
    Explorer.name =
      (if blind then "incumbent_cas_blind_write" else "incumbent_cas");
    threads;
    check;
    fingerprint = None (* thread-local pcs are not visible to a digest *);
  }

(* ------------------------------------------------------------------ *)
(* Work deque, steal vs. pop (Branch_bound's global queue): claims are
   whole critical sections, so every task must be consumed exactly
   once no matter how two consumers and the producer interleave. *)

let deque_steal_vs_pop tasks =
  let queue = ref [] in
  let consumed = Array.make 2 [] in
  let latest_fp = ref (fun () -> "") in
  let threads () =
    queue := [];
    consumed.(0) <- [];
    consumed.(1) <- [];
    (latest_fp :=
       fun () ->
         Printf.sprintf "q=%s c0=%s c1=%s"
           (String.concat "," (List.map string_of_int !queue))
           (String.concat "," (List.map string_of_int consumed.(0)))
           (String.concat "," (List.map string_of_int consumed.(1))));
    let producer =
      let remaining = ref tasks in
      fun () ->
        match !remaining with
        | [] -> false
        | t :: rest ->
          (* push: one critical section *)
          queue := !queue @ [ t ];
          remaining := rest;
          true
    in
    let consumer i =
      let done_ = ref false in
      fun () ->
        if !done_ then false
        else begin
          (* claim: one critical section — pop the head or observe
             empty and stop *)
          (match !queue with
          | [] -> done_ := true
          | t :: rest ->
            queue := rest;
            consumed.(i) <- t :: consumed.(i));
          true
        end
    in
    [ producer; consumer 0; consumer 1 ]
  in
  let check () =
    let all = !queue @ consumed.(0) @ consumed.(1) in
    let sorted = List.sort compare all in
    if sorted = List.sort compare tasks then Ok ()
    else
      Error
        (Printf.sprintf
           "task conservation broken: produced {%s}, accounted {%s}"
           (String.concat "," (List.map string_of_int tasks))
           (String.concat "," (List.map string_of_int sorted)))
  in
  {
    Explorer.name = "deque_steal_vs_pop";
    threads;
    check;
    fingerprint = Some (fun () -> !latest_fp ());
  }

(* ------------------------------------------------------------------ *)
(* LRU hit vs. evict, against the real service cache at capacity 2:
   a writer inserting three entries races a reader hitting the first
   two keys.  The size bound and key uniqueness must hold at every
   terminal schedule, and any hit must return the entry stored under
   that key. *)

let entry k =
  {
    Cache.instance_key = k;
    options_key = "opts";
    instance_text = "text:" ^ k;
    options_text = "otext";
    status = Rfloor.Solver.Optimal;
    wasted = Some 0;
    wirelength = None;
    objective = Some 1.;
    fc_identified = 0;
    plan = None;
  }

let lru_hit_vs_evict () =
  let latest = ref (Cache.create ~capacity:2 ()) in
  let hits : (string * Cache.hit option) list ref = ref [] in
  let threads () =
    let c = Cache.create ~capacity:2 () in
    latest := c;
    hits := [];
    let writer =
      let remaining = ref [ "k1"; "k2"; "k3" ] in
      fun () ->
        match !remaining with
        | [] -> false
        | k :: rest ->
          Cache.store c (entry k);
          remaining := rest;
          true
    in
    let reader =
      let remaining = ref [ "k1"; "k2" ] in
      fun () ->
        match !remaining with
        | [] -> false
        | k :: rest ->
          let h =
            Cache.find c ~instance_key:k ~instance_text:("text:" ^ k)
              ~options_key:"opts" ~options_text:"otext"
          in
          hits := (k, h) :: !hits;
          remaining := rest;
          true
    in
    [ writer; reader ]
  in
  let check () =
    let c = !latest in
    let n = Cache.length c in
    let keys = Cache.keys c in
    let rec dup = function
      | a :: (b :: _ as rest) -> if a = b then true else dup rest
      | _ -> false
    in
    if n > 2 then Error (Printf.sprintf "size bound broken: %d entries" n)
    else if List.length keys <> n then
      Error "key listing disagrees with the length"
    else if dup keys then Error "duplicate canonical keys"
    else
      List.fold_left
        (fun acc (k, h) ->
          match (acc, h) with
          | Error _, _ -> acc
          | Ok (), (None | Some (Cache.Near _)) -> Ok ()
          | Ok (), Some (Cache.Exact e) ->
            if e.Cache.instance_key = k && e.Cache.instance_text = "text:" ^ k
            then Ok ()
            else Error (Printf.sprintf "hit for %s returned a foreign entry" k))
        (Ok ()) !hits
  in
  {
    Explorer.name = "lru_hit_vs_evict";
    threads;
    check;
    fingerprint =
      Some
        (fun () ->
          String.concat "," (Cache.keys !latest)
          ^ "|"
          ^ String.concat ";"
              (List.map
                 (fun (k, h) ->
                   k ^ "="
                   ^
                   match h with
                   | None -> "miss"
                   | Some (Cache.Exact _) -> "exact"
                   | Some (Cache.Near _) -> "near")
                 !hits));
  }

(* ------------------------------------------------------------------ *)
(* Cancel vs. drain (the pool's cooperative cancellation): a worker
   checks the flag between unit steps; a canceller sets it once.  The
   job must finish exactly once, and a "stopped" outcome implies the
   flag really was set. *)

let cancel_vs_drain ~steps =
  let latest = ref (ref false, ref 0, ref None) in
  let threads () =
    let flag = ref false in
    let progress = ref 0 in
    let result = ref None in
    latest := (flag, progress, result);
    let worker =
      fun () ->
        match !result with
        | Some _ -> false
        | None ->
          (* one check-then-work step *)
          if !flag then begin
            result := Some "stopped";
            true
          end
          else if !progress >= steps then begin
            result := Some "completed";
            true
          end
          else begin
            incr progress;
            true
          end
    in
    let canceller =
      let done_ = ref false in
      fun () ->
        if !done_ then false
        else begin
          flag := true;
          done_ := true;
          true
        end
    in
    [ worker; canceller ]
  in
  let check () =
    let flag, progress, result = !latest in
    match !result with
    | None -> Error "job never finished"
    | Some "stopped" when not !flag -> Error "stopped without a cancel"
    | Some _ when !progress > steps ->
      Error (Printf.sprintf "progress %d overran %d steps" !progress steps)
    | Some _ -> Ok ()
  in
  {
    Explorer.name = "cancel_vs_drain";
    threads;
    check;
    fingerprint =
      Some
        (fun () ->
          let flag, progress, result = !latest in
          Printf.sprintf "%b/%d/%s" !flag !progress
            (Option.value ~default:"-" !result));
  }

(* ------------------------------------------------------------------ *)
(* The suite *)

let all ~seed =
  let rand = lcg seed in
  let proposals = List.init 3 (fun _ -> 1 + rand 999) in
  let tasks = List.init 3 (fun i -> ((i + 1) * 100) + rand 100) in
  [
    incumbent_cas ~blind:false proposals;
    deque_steal_vs_pop tasks;
    lru_hit_vs_evict ();
    cancel_vs_drain ~steps:3;
  ]

let run_all ?max_replays ~seed () =
  let rand = lcg (seed + 1) in
  let outcomes =
    List.map (Explorer.explore ?max_replays) (all ~seed)
  in
  let diags = List.concat_map Explorer.diagnostics outcomes in
  (* teeth check: the broken incumbent must be caught *)
  let blind =
    Explorer.explore ?max_replays
      (incumbent_cas ~blind:true (List.init 3 (fun _ -> 1 + rand 999)))
  in
  let teeth =
    match blind.Explorer.o_violation with
    | Some _ -> [] (* the explorer caught the seeded bug, as it must *)
    | None ->
      [
        D.diagf ~code:"RF420" D.Error
          (D.Schedule blind.Explorer.o_name)
          "seeded lost-update bug was NOT caught after %d schedules: the \
           explorer has lost its teeth"
          blind.Explorer.o_schedules;
      ]
  in
  (outcomes @ [ blind ], diags @ teeth)

(* ------------------------------------------------------------------ *)
(* Race-detector self-test, with real domains under the recorder *)

type self_test = {
  st_name : string;
  st_expected : string;  (** what the detector is expected to report *)
  st_pass : bool;
  st_detail : string;
}

let record_two_domains body =
  Sync.Recorder.start ();
  let cell = Sync.Shared.make ~name:"selftest.cell" 0 in
  let ctx = body cell in
  let log = Sync.Recorder.stop () in
  (log, ctx)

let detector_self_test () =
  (* 1. unsynchronized cross-domain writes: must race *)
  let log_racy, () =
    record_two_domains (fun cell ->
        let d =
          Sync.Domain.spawn ~name:"selftest.racy" (fun () ->
              for _ = 1 to 3 do
                Sync.Shared.set cell (Sync.Shared.get cell + 1)
              done)
        in
        for _ = 1 to 3 do
          Sync.Shared.set cell (Sync.Shared.get cell + 1)
        done;
        Sync.Domain.join d)
  in
  let r_racy, _ = Race.analyze log_racy in
  (* 2. mutex-protected: must be clean *)
  let log_safe, () =
    record_two_domains (fun cell ->
        let mu = Sync.Mutex.create ~name:"selftest.mu" () in
        let bump () =
          Sync.Mutex.protect mu (fun () ->
              Sync.Shared.set cell (Sync.Shared.get cell + 1))
        in
        let d =
          Sync.Domain.spawn ~name:"selftest.safe" (fun () ->
              for _ = 1 to 3 do
                bump ()
              done)
        in
        for _ = 1 to 3 do
          bump ()
        done;
        Sync.Domain.join d)
  in
  let r_safe, _ = Race.analyze log_safe in
  (* 3. CAS-spinlock-protected: ordered (no race) but lock-free, so
     the Eraser screen must still warn about the empty lockset *)
  let log_spin, () =
    record_two_domains (fun cell ->
        let lock = Sync.Atomic.make ~name:"selftest.spin" false in
        let bump () =
          while not (Sync.Atomic.compare_and_set lock false true) do
            ()
          done;
          Sync.Shared.set cell (Sync.Shared.get cell + 1);
          Sync.Atomic.set lock false
        in
        let d =
          Sync.Domain.spawn ~name:"selftest.spin" (fun () ->
              for _ = 1 to 2 do
                bump ()
              done)
        in
        for _ = 1 to 2 do
          bump ()
        done;
        Sync.Domain.join d)
  in
  let r_spin, _ = Race.analyze log_spin in
  let results =
    [
      {
        st_name = "racy_unsynchronized_writes";
        st_expected = "at least one RF410 race";
        st_pass = r_racy.Race.races <> [];
        st_detail =
          Printf.sprintf "%d races over %d events"
            (List.length r_racy.Race.races)
            r_racy.Race.events;
      };
      {
        st_name = "mutex_protected_writes";
        st_expected = "no races, no lockset warnings";
        st_pass =
          r_safe.Race.races = [] && r_safe.Race.lockset_warnings = [];
        st_detail =
          Printf.sprintf "%d races, %d warnings over %d events"
            (List.length r_safe.Race.races)
            (List.length r_safe.Race.lockset_warnings)
            r_safe.Race.events;
      };
      {
        st_name = "cas_spinlock_writes";
        st_expected = "no races, one RF411 lockset warning";
        st_pass =
          r_spin.Race.races = []
          && List.length r_spin.Race.lockset_warnings = 1;
        st_detail =
          Printf.sprintf "%d races, %d warnings over %d events"
            (List.length r_spin.Race.races)
            (List.length r_spin.Race.lockset_warnings)
            r_spin.Race.events;
      };
    ]
  in
  let diags =
    List.concat_map
      (fun r ->
        if r.st_pass then []
        else
          [
            D.diagf ~code:"RF410" D.Error (D.Sync r.st_name)
              "race-detector self-test failed: expected %s, got %s"
              r.st_expected r.st_detail;
          ])
      results
  in
  (results, diags)
