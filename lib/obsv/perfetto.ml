(* Chrome/Perfetto trace-event export.

   The JSONL trace schema (one Rfloor_trace event per line) maps onto
   the trace-event JSON object format that chrome://tracing and
   ui.perfetto.dev load directly:

     Span_start/Span_end  -> ph "B"/"E" duration slices
     Node_explored        -> ph "C" per-worker cumulative node counter
     Incumbent            -> ph "C" objective counter + an instant
     everything else      -> ph "i" thread-scoped instants with args

   Workers become threads of one "rfloor" process; portfolio members
   (on the worker-id stripes of Rfloor_trace.member) get their member
   label as the thread name, so each member is its own track.
   Timestamps are microseconds, the format's native unit. *)

module T = Rfloor_trace
module J = Rfloor_json

let us at = Float.round (at *. 1e6)

(* ------------------------------------------------------------------ *)
(* export *)

let member_labels events =
  List.fold_left
    (fun acc e ->
      match T.member_marker e with
      | Some (slot, label) when not (List.mem_assoc slot acc) ->
        (slot, label) :: acc
      | _ -> acc)
    [] events

let thread_name labels tid =
  let slot, local = T.member_of_worker tid in
  if slot = 0 then Printf.sprintf "worker %d" tid
  else
    let base =
      match List.assoc_opt slot labels with
      | Some l -> l
      | None -> Printf.sprintf "member %d" slot
    in
    if local = 0 then base else Printf.sprintf "%s/w%d" base local

let base_fields ?(pid = 1) ~tid ~ph ~name at =
  [
    ("name", J.Str name);
    ("ph", J.Str ph);
    ("pid", J.Num (float_of_int pid));
    ("tid", J.Num (float_of_int tid));
    ("ts", J.Num (us at));
  ]

let meta_event ~tid key value =
  J.Obj
    [
      ("name", J.Str key);
      ("ph", J.Str "M");
      ("pid", J.Num 1.);
      ("tid", J.Num (float_of_int tid));
      ("args", J.Obj [ ("name", J.Str value) ]);
    ]

let instant ~tid ~name ?(args = []) at =
  J.Obj
    (base_fields ~tid ~ph:"i" ~name at
    @ [ ("s", J.Str "t") ]
    @ (if args = [] then [] else [ ("args", J.Obj args) ]))

let counter ~tid ~name ~series value at =
  J.Obj
    (base_fields ~tid ~ph:"C" ~name at
    @ [ ("args", J.Obj [ (series, J.Num value) ]) ])

let event_json nodes_per_worker (e : T.Event.t) =
  let tid = e.T.Event.worker in
  let at = e.T.Event.at in
  match e.T.Event.payload with
  | T.Event.Span_start ph ->
    Some (J.Obj (base_fields ~tid ~ph:"B" ~name:(T.Event.phase_name ph) at))
  | T.Event.Span_end ph ->
    Some (J.Obj (base_fields ~tid ~ph:"E" ~name:(T.Event.phase_name ph) at))
  | T.Event.Node_explored { depth; _ } ->
    let count =
      match Hashtbl.find_opt nodes_per_worker tid with
      | Some r ->
        incr r;
        !r
      | None ->
        Hashtbl.add nodes_per_worker tid (ref 1);
        1
    in
    ignore depth;
    Some
      (counter ~tid
         ~name:(Printf.sprintf "nodes(w%d)" tid)
         ~series:"nodes" (float_of_int count) at)
  | T.Event.Incumbent { objective; node } ->
    Some
      (instant ~tid ~name:"incumbent"
         ~args:
           [ ("objective", J.Num objective); ("node", J.Num (float_of_int node)) ]
         at)
  | T.Event.Steal { tasks } ->
    Some
      (instant ~tid ~name:"steal"
         ~args:[ ("tasks", J.Num (float_of_int tasks)) ]
         at)
  | T.Event.Worker_idle -> Some (instant ~tid ~name:"idle" at)
  | T.Event.Restart { stage } ->
    Some (instant ~tid ~name:"restart" ~args:[ ("stage", J.Str stage) ] at)
  | T.Event.Stopped { reason } ->
    Some (instant ~tid ~name:"stopped" ~args:[ ("reason", J.Str reason) ] at)
  | T.Event.Lp_refactor { reason } ->
    Some (instant ~tid ~name:"lp_refactor" ~args:[ ("reason", J.Str reason) ] at)
  | T.Event.Lp_warm { result } ->
    Some (instant ~tid ~name:"lp_warm" ~args:[ ("result", J.Str result) ] at)
  | T.Event.Move { module_name; src; dst } ->
    Some
      (instant ~tid ~name:"move"
         ~args:
           [ ("module", J.Str module_name); ("src", J.Str src);
             ("dst", J.Str dst) ]
         at)
  | T.Event.Warning msg ->
    Some (instant ~tid ~name:"warning" ~args:[ ("text", J.Str msg) ] at)
  | T.Event.Message msg ->
    Some (instant ~tid ~name:"message" ~args:[ ("text", J.Str msg) ] at)

let of_events events =
  let labels = member_labels events in
  let tids =
    List.sort_uniq compare (List.map (fun (e : T.Event.t) -> e.T.Event.worker) events)
  in
  let meta =
    meta_event ~tid:0 "process_name" "rfloor"
    :: List.map (fun tid -> meta_event ~tid "thread_name" (thread_name labels tid)) tids
  in
  let nodes_per_worker = Hashtbl.create 8 in
  let body = List.filter_map (event_json nodes_per_worker) events in
  J.to_string
    (J.Obj
       [
         ("traceEvents", J.Arr (meta @ body));
         ("displayTimeUnit", J.Str "ms");
       ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* validation: loads in Perfetto = parses as JSON, has a traceEvents
   array, every event has a known ph with the fields that ph needs, and
   B/E slices nest properly per thread (the rule RF431 enforces on the
   JSONL side). *)

let validate text =
  let ( let* ) = Result.bind in
  let* j = J.parse (String.trim text) in
  let* events = J.get_arr "traceEvents" j in
  let stacks : (float * float, string list) Hashtbl.t = Hashtbl.create 8 in
  let key ev =
    let* pid = J.get_num "pid" ev in
    let* tid = J.get_num "tid" ev in
    Ok (pid, tid)
  in
  let check_ts ev =
    let* ts = J.get_num "ts" ev in
    if ts < 0. || not (Float.is_finite ts) then
      Error (Printf.sprintf "bad ts %g" ts)
    else Ok ()
  in
  let rec go i = function
    | [] -> Ok ()
    | ev :: rest -> (
      let here = Printf.sprintf "traceEvents[%d]" i in
      let r =
        let* ph = J.get_string "ph" ev in
        match ph with
        | "M" ->
          let* _ = J.get_string "name" ev in
          Ok ()
        | "B" ->
          let* name = J.get_string "name" ev in
          let* k = key ev in
          let* () = check_ts ev in
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks k) in
          Hashtbl.replace stacks k (name :: stack);
          Ok ()
        | "E" ->
          let* name = J.get_string "name" ev in
          let* k = key ev in
          let* () = check_ts ev in
          (match Hashtbl.find_opt stacks k with
          | Some (top :: stack) ->
            if top = name then begin
              Hashtbl.replace stacks k stack;
              Ok ()
            end
            else Error (Printf.sprintf "E %S closes open slice %S" name top)
          | _ -> Error (Printf.sprintf "E %S with no open slice" name))
        | "i" | "C" ->
          let* _ = J.get_string "name" ev in
          let* _ = key ev in
          check_ts ev
        | other -> Error (Printf.sprintf "unknown ph %S" other)
      in
      match r with
      | Ok () -> go (i + 1) rest
      | Error e -> Error (Printf.sprintf "%s: %s" here e))
  in
  let* () = go 0 events in
  Hashtbl.fold
    (fun (_, tid) stack acc ->
      match (acc, stack) with
      | Error _, _ | _, [] -> acc
      | Ok (), top :: _ ->
        Error (Printf.sprintf "thread %g ends with slice %S still open" tid top))
    stacks (Ok ())

(* ------------------------------------------------------------------ *)
(* phase dominance and the critical path *)

type span = {
  sp_phase : T.Event.phase;
  sp_start : float;
  sp_end : float;
  sp_children : span list;
}

let inclusive s = s.sp_end -. s.sp_start

let self s =
  inclusive s -. List.fold_left (fun acc c -> acc +. inclusive c) 0. s.sp_children

(* Each worker's span forest, from the span walker: a closed span
   becomes a child of its enclosing span (tagged by the index of its
   start event) or a root.  Spans left open (a truncated trace) close at
   the last timestamp seen; a mismatched end is skipped. *)
let forests events =
  let walker = T.Spans.create () in
  let kids : (int, span list) Hashtbl.t = Hashtbl.create 16 in
  let roots : (int, span list) Hashtbl.t = Hashtbl.create 8 in
  let push tbl k sp =
    Hashtbl.replace tbl k (sp :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let close (c : int T.Spans.span) =
    let sp =
      { sp_phase = c.T.Spans.phase; sp_start = c.T.Spans.start;
        sp_end = c.T.Spans.stop;
        sp_children =
          List.rev (Option.value ~default:[] (Hashtbl.find_opt kids c.T.Spans.tag)) }
    in
    Hashtbl.remove kids c.T.Spans.tag;
    match c.T.Spans.parent with
    | Some p -> push kids p sp
    | None -> push roots c.T.Spans.worker sp
  in
  let last_ts = ref 0. in
  List.iteri
    (fun i (e : T.Event.t) ->
      if e.T.Event.at > !last_ts then last_ts := e.T.Event.at;
      match T.Spans.step walker i e with
      | T.Spans.Closed c -> close c
      | T.Spans.Quiet | T.Spans.Unmatched _ -> ())
    events;
  List.iter close (T.Spans.drain walker ~at:!last_ts);
  Hashtbl.fold (fun w r acc -> (w, List.rev r) :: acc) roots []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let report ?(critical_path = false) events =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let fs = forests events in
  if fs = [] then out "no spans in trace\n"
  else begin
    (* phase dominance: inclusive and self seconds per phase, summed
       over every span of that phase across all workers *)
    let tally : (string, float * float) Hashtbl.t = Hashtbl.create 16 in
    let rec walk sp =
      let name = T.Event.phase_name sp.sp_phase in
      let i0, s0 =
        Option.value ~default:(0., 0.) (Hashtbl.find_opt tally name)
      in
      Hashtbl.replace tally name (i0 +. inclusive sp, s0 +. self sp);
      List.iter walk sp.sp_children
    in
    List.iter (fun (_, roots) -> List.iter walk roots) fs;
    let rows =
      Hashtbl.fold (fun name (i, s) acc -> (name, i, s) :: acc) tally []
      |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    in
    out "phase dominance (self-time order):\n";
    out "  %-14s %12s %12s\n" "phase" "self (s)" "incl (s)";
    List.iter (fun (name, i, s) -> out "  %-14s %12.4f %12.4f\n" name s i) rows;
    if critical_path then begin
      (* the worker whose root spans cover the most time, then a greedy
         descent into the biggest child at each level *)
      let total roots = List.fold_left (fun a sp -> a +. inclusive sp) 0. roots in
      let w, roots =
        List.fold_left
          (fun ((_, br) as best) ((_, r) as cand) ->
            if total r > total br then cand else best)
          (List.hd fs) (List.tl fs)
      in
      out "critical path (worker %d, %.4fs):\n" w (total roots);
      let biggest = function
        | [] -> None
        | sp :: rest ->
          Some
            (List.fold_left
               (fun best c -> if inclusive c > inclusive best then c else best)
               sp rest)
      in
      let rec descend depth = function
        | None -> ()
        | Some sp ->
          out "  %s%s  %.4fs (self %.4fs)\n"
            (String.make (2 * depth) ' ')
            (T.Event.phase_name sp.sp_phase)
            (inclusive sp) (self sp);
          descend (depth + 1) (biggest sp.sp_children)
      in
      descend 0 (biggest roots)
    end
  end;
  Buffer.contents buf
