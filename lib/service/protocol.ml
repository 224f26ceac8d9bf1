module J = Rfloor_json
module Solver = Rfloor.Solver
module Rect = Device.Rect

let version = "rfloor-service/1"

(* ---------------- requests ---------------- *)

type source_ref = Builtin of string | Inline of string

type solve_req = {
  sq_id : string;
  sq_device : source_ref;
  sq_design : source_ref;
  sq_strategy : Solver.Strategy.t option;
  sq_objective : [ `Lex | `Feasibility ];
  sq_time : float option;
  sq_priority : int;
  sq_deadline : float option;
  sq_progress : float option;  (* requested interval_s, unclamped *)
}

type online_req =
  | Ol_layout of source_ref option
      (* with a device: establish (or reset) the session layout;
         without: report the current one *)
  | Ol_add of {
      oa_name : string;
      oa_demand : Device.Resource.demand;
      oa_defrag : bool;
      oa_max_moves : int option;  (* unclamped; the session clamps (RF706) *)
    }
  | Ol_remove of string
  | Ol_defrag of int option  (* max_moves, unclamped *)

type request =
  | Solve of solve_req
  | Cancel of string
  | Stats
  | Shutdown
  | Online of online_req

let ( let* ) = Result.bind

let opt_string key json =
  match J.member key json with
  | None -> Ok None
  | Some (J.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" key)

let opt_num key json =
  match J.member key json with
  | None | Some J.Null -> Ok None
  | Some (J.Num n) -> Ok (Some n)
  | Some _ -> Error (Printf.sprintf "field %S must be a number" key)

let opt_int_opt key json =
  let* n = opt_num key json in
  match Option.map J.int_of_num n with
  | None -> Ok None
  | Some (Some i) -> Ok (Some i)
  | Some None ->
    Error (Printf.sprintf "field %S must be an integer in the int range" key)

let opt_int ~default key json =
  Result.map (Option.value ~default) (opt_int_opt key json)

let source ~name_key ~text_key json =
  let* name = opt_string name_key json in
  let* text = opt_string text_key json in
  match (name, text) with
  | Some n, None -> Ok (Builtin n)
  | None, Some t -> Ok (Inline t)
  | Some _, Some _ ->
    Error (Printf.sprintf "give %S or %S, not both" name_key text_key)
  | None, None ->
    Error (Printf.sprintf "missing %S or %S" name_key text_key)

let parse_solve json =
  let* sq_id = J.get_string "id" json in
  let* sq_device = source ~name_key:"device" ~text_key:"device_text" json in
  let* sq_design = source ~name_key:"design" ~text_key:"design_text" json in
  let* strategy = opt_string "strategy" json in
  let* sq_strategy =
    match strategy with
    | None -> Ok None
    | Some str -> (
      match Solver.Strategy.of_string str with
      | Ok st -> Ok (Some st)
      | Error d -> Error (Rfloor_diag.Diagnostic.location_to_string d.Rfloor_diag.Diagnostic.location ^ ": " ^ d.Rfloor_diag.Diagnostic.message))
  in
  (* the old spelling of a strategy: refused, not ignored, so such a
     frame does not quietly run plain milp *)
  let* () =
    match List.find_opt (fun k -> J.member k json <> None) [ "engine"; "workers" ] with
    | Some k ->
      Error (Printf.sprintf "field %S is gone: name the solver in \"strategy\" (e.g. \"milp-ho:2\")" k)
    | None -> Ok ()
  in
  let* objective = opt_string "objective" json in
  let* sq_objective =
    match objective with
    | None | Some "lex" -> Ok `Lex
    | Some ("feasibility" | "feas") -> Ok `Feasibility
    | Some o -> Error (Printf.sprintf "unknown objective %S (lex | feasibility)" o)
  in
  let* sq_time = opt_num "time" json in
  let* sq_priority = opt_int ~default:0 "priority" json in
  let* sq_deadline = opt_num "deadline" json in
  let* sq_progress =
    match J.member "progress" json with
    | None | Some J.Null -> Ok None
    | Some (J.Obj _ as p) -> (
      match J.member "interval_s" p with
      | Some (J.Num n) -> Ok (Some n)
      | Some _ -> Error "field \"progress.interval_s\" must be a number"
      | None -> Error "field \"progress\" needs an \"interval_s\" member")
    | Some _ -> Error "field \"progress\" must be an object"
  in
  Ok
    (Solve
       {
         sq_id;
         sq_device;
         sq_design;
         sq_strategy;
         sq_objective;
         sq_time;
         sq_priority;
         sq_deadline;
         sq_progress;
       })

(* demand objects use lowercase kind names; IO columns are not
   requestable by regions (Resource.kind doc), so "io" is rejected *)
let kind_of_key = function
  | "clb" -> Some Device.Resource.Clb
  | "bram" -> Some Device.Resource.Bram
  | "dsp" -> Some Device.Resource.Dsp
  | _ -> None

let parse_demand json =
  match J.member "demand" json with
  | None -> Error "missing \"demand\" object"
  | Some (J.Obj fields) ->
    let rec go acc = function
      | [] ->
        if acc = [] then Error "field \"demand\" must request at least one tile"
        else Ok (List.rev acc)
      | (key, v) :: rest -> (
        match kind_of_key (String.lowercase_ascii key) with
        | None ->
          Error (Printf.sprintf "unknown demand kind %S (clb | bram | dsp)" key)
        | Some k -> (
          match (match v with J.Num f -> J.int_of_num f | _ -> None) with
          | Some n when n > 0 -> go ((k, n) :: acc) rest
          | _ ->
            Error
              (Printf.sprintf "demand %S must be a positive integer" key)))
    in
    go [] fields
  | Some _ -> Error "field \"demand\" must be an object"

let opt_bool ~default key json =
  match J.member key json with
  | None -> Ok default
  | Some (J.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" key)

let opt_source ~name_key ~text_key json =
  let* name = opt_string name_key json in
  let* text = opt_string text_key json in
  match (name, text) with
  | Some n, None -> Ok (Some (Builtin n))
  | None, Some t -> Ok (Some (Inline t))
  | Some _, Some _ ->
    Error (Printf.sprintf "give %S or %S, not both" name_key text_key)
  | None, None -> Ok None

let parse_request line =
  let* json = J.parse line in
  let* op = J.get_string "op" json in
  match op with
  | "solve" -> parse_solve json
  | "cancel" ->
    let* id = J.get_string "id" json in
    Ok (Cancel id)
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | "layout" ->
    let* src = opt_source ~name_key:"device" ~text_key:"device_text" json in
    Ok (Online (Ol_layout src))
  | "add" ->
    let* oa_name = J.get_string "name" json in
    let* oa_demand = parse_demand json in
    let* oa_defrag = opt_bool ~default:true "defrag" json in
    let* oa_max_moves = opt_int_opt "max_moves" json in
    Ok (Online (Ol_add { oa_name; oa_demand; oa_defrag; oa_max_moves }))
  | "remove" ->
    let* name = J.get_string "name" json in
    Ok (Online (Ol_remove name))
  | "defrag" ->
    let* max_moves = opt_int_opt "max_moves" json in
    Ok (Online (Ol_defrag max_moves))
  | op ->
    Error
      (Printf.sprintf
         "unknown op %S (solve | cancel | stats | shutdown | layout | add | \
          remove | defrag)"
         op)

let request_id line =
  match J.parse line with
  | Ok json -> Result.to_option (J.get_string "id" json)
  | Error _ -> None

(* ---------------- responses ---------------- *)

let num f = if Float.is_finite f then J.Num f else J.Null
let opt_field k v = match v with None -> [] | Some j -> [ (k, j) ]

let status_str = function
  | Solver.Optimal -> "optimal"
  | Solver.Feasible -> "feasible"
  | Solver.Infeasible -> "infeasible"
  | Solver.Unknown -> "unknown"

let source_str = function
  | Pool.Solved -> "solved"
  | Pool.Cache_hit -> "cache"
  | Pool.Warm_start -> "warm"

let plan_json (p : Device.Floorplan.t) =
  let rect (r : Rect.t) =
    [
      ("x", J.Num (float_of_int r.Rect.x));
      ("y", J.Num (float_of_int r.Rect.y));
      ("w", J.Num (float_of_int r.Rect.w));
      ("h", J.Num (float_of_int r.Rect.h));
    ]
  in
  J.Arr
    (List.map
       (fun pl ->
         J.Obj (("region", J.Str pl.Device.Floorplan.p_region) :: rect pl.Device.Floorplan.p_rect))
       p.Device.Floorplan.placements
    @ List.map
        (fun fa ->
          J.Obj
            (("region", J.Str fa.Device.Floorplan.fc_region)
            :: ("copy", J.Num (float_of_int fa.Device.Floorplan.fc_index))
            :: rect fa.Device.Floorplan.fc_rect))
        p.Device.Floorplan.fc_areas)

let solved_fields (s : Pool.solved) =
  let o = s.Pool.outcome in
  [
    ("source", J.Str (source_str s.Pool.source));
    ("status", J.Str (status_str o.Solver.status));
    ("fc", J.Num (float_of_int o.Solver.fc_identified));
    ("nodes", J.Num (float_of_int o.Solver.nodes));
    ("iterations", J.Num (float_of_int o.Solver.simplex_iterations));
    ("elapsed", num o.Solver.elapsed);
    ("waited", num s.Pool.waited);
    ("key", J.Str s.Pool.key);
  ]
  @ opt_field "wasted" (Option.map (fun w -> J.Num (float_of_int w)) o.Solver.wasted)
  @ opt_field "wirelength" (Option.map num o.Solver.wirelength)
  @ opt_field "objective" (Option.map num o.Solver.objective_value)
  @ opt_field "stop"
      (match o.Solver.stop with
      | Some Solver.Budget -> Some (J.Str "budget")
      | Some Solver.Cancelled -> Some (J.Str "cancel")
      | None -> None)
  @ opt_field "plan" (Option.map plan_json o.Solver.plan)

let frame fields = J.to_string (J.Obj (("v", J.Str version) :: fields))

let result_frame ~id result =
  frame
    (("type", J.Str "result")
    :: ("id", J.Str id)
    ::
    (match result with
    | Pool.Completed s -> ("outcome", J.Str "completed") :: solved_fields s
    | Pool.Stopped (s, reason) ->
      ("outcome", J.Str "stopped") :: ("reason", J.Str reason) :: solved_fields s
    | Pool.Failed msg -> [ ("outcome", J.Str "failed"); ("error", J.Str msg) ]))

let progress_frame ~id (s : Rfloor_obsv.Progress.snapshot) =
  let module P = Rfloor_obsv.Progress in
  frame
    ([
       ("type", J.Str "progress");
       ("id", J.Str id);
       ("elapsed", num s.P.p_elapsed);
       ("nodes", J.Num (float_of_int s.P.p_nodes));
       ("lp_iterations", J.Num (float_of_int s.P.p_lp_iterations));
     ]
    @ opt_field "incumbent" (Option.map num s.P.p_incumbent)
    @ opt_field "bound" (Option.map num s.P.p_bound)
    @ opt_field "gap" (Option.map num s.P.p_gap)
    @
    match s.P.p_members with
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

let ack_frame ~op ~id ~ok =
  frame
    [ ("type", J.Str "ack"); ("op", J.Str op); ("id", J.Str id); ("ok", J.Bool ok) ]

let stats_frame (s : Pool.stats) =
  let i n = J.Num (float_of_int n) in
  frame
    [
      ("type", J.Str "stats");
      ("workers", i s.Pool.s_workers);
      ("queued", i s.Pool.s_queued);
      ("running", i s.Pool.s_running);
      ("finished", i s.Pool.s_finished);
      ("cache_entries", i s.Pool.s_cache_entries);
      ("cache_capacity", i s.Pool.s_cache_capacity);
      ("cache_hits", i s.Pool.s_cache_hits);
      ("cache_misses", i s.Pool.s_cache_misses);
      ("warm_starts", i s.Pool.s_warm_starts);
    ]

let error_frame ?id msg =
  frame
    (("type", J.Str "error")
    :: (opt_field "id" (Option.map (fun s -> J.Str s) id)
       @ [ ("message", J.Str msg) ]))

(* ---------------- online frames ---------------- *)

let rect_json (r : Rect.t) =
  J.Obj
    [
      ("x", J.Num (float_of_int r.Rect.x));
      ("y", J.Num (float_of_int r.Rect.y));
      ("w", J.Num (float_of_int r.Rect.w));
      ("h", J.Num (float_of_int r.Rect.h));
    ]

let online_frame ~op ~outcome ?name ?code ?message ?rect ?(moves = []) ?layout
    () =
  frame
    ([ ("type", J.Str "online"); ("op", J.Str op); ("outcome", J.Str outcome) ]
    @ opt_field "name" (Option.map (fun s -> J.Str s) name)
    @ opt_field "code" (Option.map (fun s -> J.Str s) code)
    @ opt_field "message" (Option.map (fun s -> J.Str s) message)
    @ opt_field "rect" (Option.map rect_json rect)
    @ (match moves with
      | [] -> []
      | _ ->
        [
          ( "moves",
            J.Arr
              (List.map
                 (fun (mname, src, dst) ->
                   J.Obj
                     [
                       ("module", J.Str mname);
                       ("src", rect_json src);
                       ("dst", rect_json dst);
                     ])
                 moves) );
        ])
    @ opt_field "layout" (Option.map Rfloor_obsv.Statusz.layout_json layout))
