module P = Protocol
module Sync = Rfloor_sync
module Solver = Rfloor.Solver
module Progress = Rfloor_obsv.Progress
module Statusz = Rfloor_obsv.Statusz
module Ol = Rfloor_online
module Diag = Rfloor_diag.Diagnostic

(* The response queue decouples reading from answering: the reader
   thread parses and submits without ever blocking on a solve, so a
   [cancel] frame can reach a job that is still queued or mid-solve.
   The responder domain prints one frame per item strictly in
   submission order — [Job] items block on the pool — which makes a
   scripted session's output deterministic (the serve-smoke gate
   depends on exactly that).

   Progress frames are the one exception to responder-only output: the
   shared ticker domain writes them directly, so every write goes
   through one output mutex.  A job's entry is marked dead under that
   same mutex immediately before its result frame is printed, so no
   progress frame for a job can follow its result frame. *)

type progress_ctx = {
  pc_entry : Progress.entry;
  pc_sub : (Progress.Ticker.t * int) option;
}

type item =
  | Job of string * int * progress_ctx option  (* request id, pool ticket *)
  | Ready of string  (* pre-rendered frame *)
  | Stats_item  (* rendered at dequeue time, i.e. after prior jobs *)
  | Quit

type queue = {
  mu : Sync.Mutex.t;
  cond : Sync.Condition.t;
  q : item Queue.t;
}

let push qu item =
  Sync.Mutex.lock qu.mu;
  Queue.add item qu.q;
  Sync.Condition.signal qu.cond;
  Sync.Mutex.unlock qu.mu

let pop qu =
  Sync.Mutex.lock qu.mu;
  while Queue.is_empty qu.q do
    Sync.Condition.wait qu.cond qu.mu
  done;
  let item = Queue.pop qu.q in
  Sync.Mutex.unlock qu.mu;
  item

let diag_str d = Format.asprintf "%a" Rfloor_diag.Diagnostic.pp d

let resolve_grid ~devices = function
  | P.Builtin name -> (
    match devices name with
    | Some g -> Ok g
    | None -> Error (Printf.sprintf "unknown device %S" name))
  | P.Inline text -> (
    match Device.Io.parse_grid text with
    | Ok g -> Ok g
    | Error d -> Error (diag_str d))

let resolve_spec ~designs = function
  | P.Builtin name -> (
    match designs name with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown design %S" name))
  | P.Inline text -> (
    match Device.Io.parse_spec text with
    | Ok s -> Ok s
    | Error d -> Error (diag_str d))

let ( let* ) = Result.bind

(* a frame without "strategy" runs milp *)
let strategy_of_req (sq : P.solve_req) =
  Option.value sq.P.sq_strategy ~default:(Solver.Strategy.milp ())

let submit_solve pool ~metrics ?trace ~devices ~designs (sq : P.solve_req) =
  let* grid = resolve_grid ~devices sq.P.sq_device in
  let* spec = resolve_spec ~designs sq.P.sq_design in
  let* part =
    match Device.Partition.columnar grid with
    | Ok p -> Ok p
    | Error d -> Error (diag_str d)
  in
  let options =
    Solver.Options.make ~strategy:(strategy_of_req sq)
      ~objective_mode:
        (match sq.P.sq_objective with
        | `Lex -> Solver.Lexicographic
        | `Feasibility -> Solver.Feasibility_only)
      ?time_limit:sq.P.sq_time ?trace ~metrics ()
  in
  Ok
    (Pool.submit pool ~priority:sq.P.sq_priority ?deadline:sq.P.sq_deadline
       ~options part spec)

let pool_view pool =
  let st = Pool.stats pool in
  {
    Statusz.pv_workers = Pool.worker_states pool;
    pv_queued = st.Pool.s_queued;
    pv_running = st.Pool.s_running;
    pv_finished = st.Pool.s_finished;
    pv_cache_hits = st.Pool.s_cache_hits;
    pv_cache_misses = st.Pool.s_cache_misses;
    pv_cache_size = st.Pool.s_cache_entries;
  }

(* ---------------- per-session online layout ---------------- *)

(* All online ops run synchronously in the reader thread (their Ready
   frames keep submission order with solve results); the statusz thunk
   reads the ref from the HTTP domain, but the stored state is
   immutable, so the worst case is a one-request-old snapshot. *)

let layout_view (dev, (st : Ol.Workload.state)) =
  let l = st.Ol.Workload.st_layout in
  {
    Statusz.lv_device = dev;
    lv_modules = Ol.Layout.modules l;
    lv_occupancy = Ol.Layout.occupancy l;
    lv_fragmentation = Ol.Layout.fragmentation l;
    lv_free_rects = List.length (Ol.Layout.free_rects l);
  }

let move_triple (m : Ol.Defrag.move) = (m.Ol.Defrag.mv_name, m.Ol.Defrag.mv_src, m.Ol.Defrag.mv_dst)

let diag_frame ~op ?name (d : Diag.t) =
  P.online_frame ~op ~outcome:"error" ?name ~code:d.Diag.code
    ~message:(Format.asprintf "%a" Diag.pp d) ()

type online_ctx = {
  oc_state : (string * Ol.Workload.state) option ref;
  oc_warn : Diag.t -> unit;
  oc_on_move : Ol.Defrag.move -> unit;
  oc_metrics : Rfloor_metrics.Registry.t;
}

let online_counter ctx name help =
  Rfloor_metrics.Registry.counter ctx.oc_metrics ~help name

let count ctx name help =
  Rfloor_metrics.Registry.Counter.incr (online_counter ctx name help)

(* a planned schedule, a fallback or an explicit compaction *)
let count_episode ctx =
  count ctx "rfloor_online_defrags_total"
    "Defragmentation episodes (planner or explicit compaction)"

let count_moves ctx schedule =
  Rfloor_metrics.Registry.Counter.add
    (online_counter ctx "rfloor_online_moves_executed_total"
       "Relocations executed through the bitstream filter")
    (List.length schedule)

let set_state ctx dev (st : Ol.Workload.state) =
  ctx.oc_state := Some (dev, st);
  let l = st.Ol.Workload.st_layout in
  let module R = Rfloor_metrics.Registry in
  R.Gauge.set
    (R.gauge ctx.oc_metrics
       ~help:"Occupied fraction of the online layout's usable tiles"
       "rfloor_online_occupancy")
    (Ol.Layout.occupancy l);
  R.Gauge.set
    (R.gauge ctx.oc_metrics
       ~help:"1 - largest free rectangle / total free area of the online layout"
       "rfloor_online_fragmentation")
    (Ol.Layout.fragmentation l)

let rf703 op =
  Diag.diagf ~code:"RF703" Diag.Error (Diag.Layout op)
    "online %S before a layout device was established (send \
     {\"op\":\"layout\",\"device\":...} first)"
    op

(* max_moves outside [0, 8] is clamped with an RF706 warning (8 is
   already far beyond what the BFS explores in bounded time) *)
let clamp_max_moves ctx ~op = function
  | None -> 3
  | Some n when n >= 0 && n <= 8 -> n
  | Some n ->
    let clamped = max 0 (min 8 n) in
    ctx.oc_warn
      (Diag.diagf ~code:"RF706" Diag.Warning (Diag.Layout op)
         "max_moves %d out of range [0, 8]; clamped to %d" n clamped);
    clamped

(* An arrival or departure goes through the shared Workload step; the
   new state is kept whatever the outcome, since a rejection or a skip
   changes the turned-away names. *)
let apply_event ctx ~op ~name ~defrag ~max_moves (dev, st) ev =
  let st, outcome =
    Ol.Workload.step ~defrag ~max_moves ~fallback:true ~on_move:ctx.oc_on_move
      st ev
  in
  set_state ctx dev st;
  let frame ?code ?message ?rect ?moves outcome =
    P.online_frame ~op ~outcome ~name ?code ?message ?rect ?moves
      ~layout:(layout_view (dev, st)) ()
  in
  let placed () = count ctx "rfloor_online_adds_total" "Online arrivals placed" in
  match outcome with
  | Ol.Workload.Admitted rect ->
    count ctx "rfloor_online_admission_hits_total"
      "Arrivals admitted into an existing free rectangle";
    placed ();
    frame ~rect "admitted"
  | Defragged (schedule, rect) ->
    count_episode ctx;
    count_moves ctx schedule;
    placed ();
    frame ~rect ~moves:(List.map move_triple schedule) "defrag"
  | Fallback rect ->
    ctx.oc_warn
      (Diag.diagf ~code:"RF704" Diag.Warning (Diag.Layout name)
         "defragmentation fell back to a full re-placement solve; the \
          no-break guarantee is waived for this arrival");
    count_episode ctx;
    placed ();
    frame ~code:"RF704" ~rect "fallback"
  | Rejected d ->
    count ctx "rfloor_online_rejects_total" "Arrivals turned away";
    frame ~code:d.Diag.code ~message:(Format.asprintf "%a" Diag.pp d)
      "rejected"
  | Departed ->
    count ctx "rfloor_online_removes_total" "Online departures executed";
    frame "removed"
  | Skipped -> frame "skipped"
  | Failed d -> diag_frame ~op ~name d

let handle_online ctx ~resolve_grid (req : P.online_req) =
  let frame = P.online_frame in
  let summary () = Option.map layout_view !(ctx.oc_state) in
  match req with
  | P.Ol_layout src -> (
    match src with
    | None -> (
      match !(ctx.oc_state) with
      | None -> diag_frame ~op:"layout" (rf703 "layout")
      | Some st -> frame ~op:"layout" ~outcome:"ok" ~layout:(layout_view st) ())
    | Some src -> (
      match resolve_grid src with
      | Error msg -> frame ~op:"layout" ~outcome:"error" ~message:msg ()
      | Ok grid -> (
        match Device.Partition.columnar grid with
        | Error d -> diag_frame ~op:"layout" d
        | Ok part ->
          set_state ctx (Device.Grid.name grid) (Ol.Workload.start part);
          frame ~op:"layout" ~outcome:"established"
            ?layout:(summary ()) ())))
  | P.Ol_remove name -> (
    match !(ctx.oc_state) with
    | None -> diag_frame ~op:"remove" ~name (rf703 "remove")
    | Some cur ->
      (* the policy bounds apply to arrivals only *)
      apply_event ctx ~op:"remove" ~name ~defrag:true ~max_moves:3 cur
        (Ol.Workload.Depart { d_name = name }))
  | P.Ol_defrag max_moves -> (
    match !(ctx.oc_state) with
    | None -> diag_frame ~op:"defrag" (rf703 "defrag")
    | Some (dev, st) -> (
      let max_moves = clamp_max_moves ctx ~op:"defrag" max_moves in
      let l = st.Ol.Workload.st_layout in
      let schedule = Ol.Defrag.compact ~max_moves l in
      match Ol.Defrag.execute ~on_move:ctx.oc_on_move l schedule with
      | Error d -> diag_frame ~op:"defrag" d
      | Ok l' ->
        set_state ctx dev { st with Ol.Workload.st_layout = l' };
        count_episode ctx;
        count_moves ctx schedule;
        frame ~op:"defrag" ~outcome:"compacted"
          ~moves:(List.map move_triple schedule)
          ?layout:(summary ()) ()))
  | P.Ol_add { oa_name; oa_demand; oa_defrag; oa_max_moves } -> (
    match !(ctx.oc_state) with
    | None -> diag_frame ~op:"add" ~name:oa_name (rf703 "add")
    | Some cur ->
      let max_moves = clamp_max_moves ctx ~op:"add" oa_max_moves in
      apply_event ctx ~op:"add" ~name:oa_name ~defrag:oa_defrag ~max_moves cur
        (Ol.Workload.Arrive { a_name = oa_name; a_demand = oa_demand }))

let run ?(workers = 1) ?(cache_capacity = 128)
    ?(metrics = Rfloor_metrics.Registry.null) ?(trace = Rfloor_trace.disabled)
    ?(warn = fun (_ : Rfloor_diag.Diagnostic.t) -> ()) ?on_status ~devices
    ~designs ic oc =
  let pool = Pool.create ~workers ~cache_capacity ~metrics ~trace () in
  let board = Progress.create_board () in
  (* entries are folded for every job when a statusz consumer exists
     (so /statusz can list in-flight work), otherwise only for jobs
     that opted into progress frames *)
  let statusz_on = on_status <> None in
  (* per-session online layout: mutated only by the reader thread; the
     statusz thunk below reads the immutable snapshot *)
  let online_state = ref None in
  let online_ctx =
    {
      oc_state = online_state;
      oc_warn = warn;
      oc_on_move =
        (fun (m : Ol.Defrag.move) ->
          Rfloor_trace.move trace ~module_name:m.Ol.Defrag.mv_name
            ~src:(Device.Rect.to_string m.Ol.Defrag.mv_src)
            ~dst:(Device.Rect.to_string m.Ol.Defrag.mv_dst)
            ());
      oc_metrics = metrics;
    }
  in
  (match on_status with
  | Some f ->
    f (fun () ->
        Statusz.render ~pool:(pool_view pool)
          ?layout:(Option.map layout_view !online_state)
          ~jobs:(Progress.active board) ())
  | None -> ());
  let out_mu = Sync.Mutex.create ~name:"session.out.mu" () in
  let write_frame frame =
    output_string oc frame;
    output_char oc '\n';
    flush oc
  in
  let print_frame frame = Sync.Mutex.protect out_mu (fun () -> write_frame frame) in
  let responses =
    { mu = Sync.Mutex.create ~name:"session.responses.mu" ();
      cond = Sync.Condition.create ~name:"session.responses.cond" ();
      q = Queue.create () }
  in
  let responder =
    Sync.Domain.spawn ~name:"session.responder" (fun () ->
        let rec loop () =
          match pop responses with
          | Quit -> ()
          | Ready frame ->
            print_frame frame;
            loop ()
          | Stats_item ->
            print_frame (P.stats_frame (Pool.stats pool));
            loop ()
          | Job (id, ticket, prog) ->
            let result = Pool.await pool ticket in
            (match prog with
            | None -> print_frame (P.result_frame ~id result)
            | Some pc ->
              (* kill the entry and print the result under one lock
                 hold: afterwards no progress frame for this id can
                 appear *)
              Sync.Mutex.protect out_mu (fun () ->
                  Progress.finish pc.pc_entry;
                  write_frame (P.result_frame ~id result));
              Progress.remove board pc.pc_entry;
              Option.iter
                (fun (tk, sid) -> Progress.Ticker.unsubscribe tk sid)
                pc.pc_sub);
            loop ()
        in
        loop ())
  in
  (* one ticker domain for the whole session, spawned only if some job
     actually asks for progress frames (reader thread only) *)
  let ticker = ref None in
  let get_ticker () =
    match !ticker with
    | Some tk -> tk
    | None ->
      let tk = Progress.Ticker.create () in
      ticker := Some tk;
      tk
  in
  let instrument (sq : P.solve_req) =
    if statusz_on || sq.P.sq_progress <> None then
      Some
        (Progress.register board ~id:sq.P.sq_id
           ~strategy:(Solver.Strategy.to_string (strategy_of_req sq)))
    else None
  in
  let subscribe_progress (sq : P.solve_req) entry =
    match sq.P.sq_progress with
    | None -> None
    | Some requested ->
      let interval, diags = Progress.clamp_interval ~id:sq.P.sq_id requested in
      List.iter warn diags;
      let tk = get_ticker () in
      let id = sq.P.sq_id in
      let sid =
        Progress.Ticker.subscribe tk ~interval (fun () ->
            Sync.Mutex.protect out_mu (fun () ->
                if Progress.live entry then
                  write_frame (P.progress_frame ~id (Progress.snapshot entry))))
      in
      Some (tk, sid)
  in
  let tickets : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rec read_loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line when String.trim line = "" -> read_loop ()
    | line -> (
      match P.parse_request line with
      | Error msg ->
        push responses (Ready (P.error_frame ?id:(P.request_id line) msg));
        read_loop ()
      | Ok P.Shutdown -> ()
      | Ok P.Stats ->
        push responses Stats_item;
        read_loop ()
      | Ok (P.Cancel id) ->
        let ok =
          match Hashtbl.find_opt tickets id with
          | Some ticket -> Pool.cancel pool ticket
          | None -> false
        in
        push responses (Ready (P.ack_frame ~op:"cancel" ~id ~ok));
        read_loop ()
      | Ok (P.Online oreq) ->
        push responses
          (Ready
             (handle_online online_ctx
                ~resolve_grid:(resolve_grid ~devices)
                oreq));
        read_loop ()
      | Ok (P.Solve sq) ->
        (if Hashtbl.mem tickets sq.P.sq_id then
           push responses
             (Ready
                (P.error_frame ~id:sq.P.sq_id
                   (Printf.sprintf "duplicate job id %S" sq.P.sq_id)))
         else
           let entry = instrument sq in
           let trace = Option.map Progress.sink entry in
           match submit_solve pool ~metrics ?trace ~devices ~designs sq with
           | Ok ticket ->
             Hashtbl.add tickets sq.P.sq_id ticket;
             let prog =
               Option.map
                 (fun e ->
                   { pc_entry = e; pc_sub = subscribe_progress sq e })
                 entry
             in
             push responses (Job (sq.P.sq_id, ticket, prog))
           | Error msg ->
             Option.iter (Progress.remove board) entry;
             push responses (Ready (P.error_frame ~id:sq.P.sq_id msg)));
        read_loop ())
  in
  read_loop ();
  push responses Quit;
  Sync.Domain.join responder;
  (match !ticker with Some tk -> Progress.Ticker.stop tk | None -> ());
  Pool.shutdown pool
