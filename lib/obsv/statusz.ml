(* The /statusz document: one versioned JSON object describing what
   this process is doing right now.  Rendered from plain values so the
   obsv library needs no dependency on lib/service — the service layer
   hands us a pool_view, we hand back the JSON. *)

module J = Rfloor_json

let version = "rfloor-statusz/1"

type pool_view = {
  pv_workers : string list;  (* per-worker state, e.g. "idle" / "job 3" *)
  pv_queued : int;
  pv_running : int;
  pv_finished : int;
  pv_cache_hits : int;
  pv_cache_misses : int;
  pv_cache_size : int;
}

type layout_view = {
  lv_device : string;
  lv_modules : int;
  lv_occupancy : float;  (* occupied fraction of the usable tiles *)
  lv_fragmentation : float;  (* 1 - largest free rect / total free *)
  lv_free_rects : int;
}

let opt_num = function Some v -> J.Num v | None -> J.Null

let job_json (s : Progress.snapshot) =
  J.Obj
    ([
       ("id", J.Str s.Progress.p_id);
       ("strategy", J.Str s.Progress.p_strategy);
       ("elapsed_s", J.Num s.Progress.p_elapsed);
       ("nodes", J.Num (float_of_int s.Progress.p_nodes));
       ("lp_iterations", J.Num (float_of_int s.Progress.p_lp_iterations));
       ("incumbent", opt_num s.Progress.p_incumbent);
       ("bound", opt_num s.Progress.p_bound);
       ("gap", opt_num s.Progress.p_gap);
     ]
    @
    match s.Progress.p_members with
    | [] -> []
    | members ->
      [
        ( "members",
          J.Arr
            (List.map
               (fun (label, nodes) ->
                 J.Obj
                   [
                     ("label", J.Str label);
                     ("nodes", J.Num (float_of_int nodes));
                   ])
               members) );
      ])

let layout_json lv =
  J.Obj
    [
      ("device", J.Str lv.lv_device);
      ("modules", J.Num (float_of_int lv.lv_modules));
      ("occupancy", J.Num lv.lv_occupancy);
      ("fragmentation", J.Num lv.lv_fragmentation);
      ("free_rects", J.Num (float_of_int lv.lv_free_rects));
    ]

let render ?pool ?layout ?(jobs = []) () =
  let pool_fields =
    match pool with
    | None -> []
    | Some pv ->
      [
        ( "pool",
          J.Obj
            [
              ( "workers",
                J.Arr (List.map (fun s -> J.Str s) pv.pv_workers) );
              ("queued", J.Num (float_of_int pv.pv_queued));
              ("running", J.Num (float_of_int pv.pv_running));
              ("finished", J.Num (float_of_int pv.pv_finished));
              ( "cache",
                J.Obj
                  [
                    ("hits", J.Num (float_of_int pv.pv_cache_hits));
                    ("misses", J.Num (float_of_int pv.pv_cache_misses));
                    ("size", J.Num (float_of_int pv.pv_cache_size));
                  ] );
            ] );
      ]
  in
  let layout_fields =
    match layout with None -> [] | Some lv -> [ ("layout", layout_json lv) ]
  in
  J.to_string
    (J.Obj
       ([
          ("v", J.Str version);
          ("uptime_s", J.Num (Build_info.uptime ()));
          ("version", J.Str Build_info.version);
        ]
       @ pool_fields @ layout_fields
       @ [ ("jobs", J.Arr (List.map job_json jobs)) ]))
  ^ "\n"

(* A light validator for tests and the shell gate: the document must
   parse, carry the right version tag, and have a numeric uptime and a
   jobs array whose elements each carry id/strategy/elapsed. *)
let validate text =
  let ( let* ) = Result.bind in
  let* j = J.parse (String.trim text) in
  let* v = J.get_string "v" j in
  if v <> version then
    Error (Printf.sprintf "statusz version %S, wanted %S" v version)
  else
    let* _up = J.get_num "uptime_s" j in
    let* () =
      match J.member "layout" j with
      | None -> Ok ()
      | Some lay ->
        let* _ = J.get_string "device" lay in
        let* _ = J.get_num "occupancy" lay in
        let* _ = J.get_num "fragmentation" lay in
        Ok ()
    in
    let* jobs = J.get_arr "jobs" j in
    let check_job job =
      let* _ = J.get_string "id" job in
      let* _ = J.get_string "strategy" job in
      let* _ = J.get_num "elapsed_s" job in
      Ok ()
    in
    let rec check i = function
      | [] -> Ok ()
      | job :: rest -> (
        match check_job job with
        | Ok () -> check (i + 1) rest
        | Error e -> Error (Printf.sprintf "job %d: %s" (i + 1) e))
    in
    check 0 jobs
