(* Streamed solve progress: per-job entries folded from Rfloor_trace
   events, one shared ticker domain firing rate-limited callbacks.

   An entry is written by the solver domains (through the trace sink)
   and read by the ticker and telemetry domains, so every field lives
   behind the entry mutex.  The fold keeps the *reported* series
   monotone on purpose: the incumbent only improves (min), the bound
   only tightens for reporting purposes (min over finite relaxation
   bounds — converging on the root bound, a valid global dual bound for
   the minimization), and the gap is clamped to never regress, so a
   consumer plotting the stream never sees it bounce. *)

module Sync = Rfloor_sync
module T = Rfloor_trace
module D = Rfloor_diag.Diagnostic

(* ------------------------------------------------------------------ *)
(* interval clamping (RF603) *)

let min_interval = 0.05
let max_interval = 600.
let default_interval = 1.0

let clamp_interval ~id v =
  let diag fmt =
    D.diagf ~code:"RF603" D.Warning (D.Http ("job " ^ id)) fmt
  in
  if Float.is_nan v then
    ( default_interval,
      [ diag "progress interval is not a number; using %gs" default_interval ] )
  else if v <= 0. then
    ( default_interval,
      [ diag "progress interval %g is not positive; using %gs" v default_interval ]
    )
  else if v < min_interval then
    ( min_interval,
      [ diag "progress interval %g below the %gs floor; clamped" v min_interval ]
    )
  else if v > max_interval then
    ( max_interval,
      [ diag "progress interval %g above the %gs ceiling; clamped" v max_interval ]
    )
  else (v, [])

(* ------------------------------------------------------------------ *)
(* entries *)

type entry = {
  e_id : string;
  e_strategy : string;
  e_started : float;  (* Rfloor_trace.clock at registration *)
  e_m : Sync.Mutex.t;
  (* all below under [e_m] *)
  e_live : bool Sync.Shared.t;
  e_nodes : int Sync.Shared.t;
  e_incumbent : float option Sync.Shared.t;
  e_bound : float option Sync.Shared.t;
  e_gap : float Sync.Shared.t;  (* last reported gap; starts [infinity] *)
  e_iters : (int * int) list Sync.Shared.t;  (* worker -> cumulative LP iters *)
  e_members : (int * string) list Sync.Shared.t;  (* slot -> label *)
  e_member_nodes : (int * int) list Sync.Shared.t;  (* slot -> nodes *)
}

type snapshot = {
  p_id : string;
  p_strategy : string;
  p_elapsed : float;
  p_nodes : int;
  p_lp_iterations : int;
  p_incumbent : float option;
  p_bound : float option;
  p_gap : float option;
  p_members : (string * int) list;  (* member label, nodes attributed to it *)
}

let bump assoc k d =
  match List.assoc_opt k assoc with
  | Some _ -> List.map (fun (k', v') -> if k' = k then (k', v' + d) else (k', v')) assoc
  | None -> (k, d) :: assoc

let observe e (ev : T.Event.t) =
  Sync.Mutex.protect e.e_m (fun () ->
      match ev.T.Event.payload with
      | T.Event.Node_explored { bound; iters; _ } ->
        Sync.Shared.set e.e_nodes (Sync.Shared.get e.e_nodes + 1);
        Sync.Shared.set e.e_member_nodes
          (bump (Sync.Shared.get e.e_member_nodes)
             (fst (T.member_of_worker ev.T.Event.worker)) 1);
        if Float.is_finite bound then
          Sync.Shared.set e.e_bound
            (match Sync.Shared.get e.e_bound with
            | Some b -> Some (Float.min b bound)
            | None -> Some bound);
        if iters > 0 then begin
          let per = Sync.Shared.get e.e_iters in
          let w = ev.T.Event.worker in
          let cur = Option.value ~default:0 (List.assoc_opt w per) in
          if iters > cur then
            Sync.Shared.set e.e_iters (bump per w (iters - cur))
        end
      | T.Event.Incumbent { objective; _ } ->
        if Float.is_finite objective then
          Sync.Shared.set e.e_incumbent
            (match Sync.Shared.get e.e_incumbent with
            | Some o -> Some (Float.min o objective)
            | None -> Some objective)
      | T.Event.Restart _ -> (
        match T.member_marker ev with
        | Some (slot, label) ->
          let members = Sync.Shared.get e.e_members in
          if not (List.mem_assoc slot members) then
            Sync.Shared.set e.e_members ((slot, label) :: members)
        | None ->
          (* a stage restart re-optimizes under a new objective
             (e.g. lexicographic stage 2): the old incumbent and bounds
             are not comparable to the new ones, so the folds start
             over (the reported gap stays clamped non-increasing) *)
          Sync.Shared.set e.e_incumbent None;
          Sync.Shared.set e.e_bound None)
      | _ -> ())

let sink e = T.Sink.of_fn (observe e)

let live e = Sync.Mutex.protect e.e_m (fun () -> Sync.Shared.get e.e_live)

let finish e =
  Sync.Mutex.protect e.e_m (fun () -> Sync.Shared.set e.e_live false)

let snapshot e =
  Sync.Mutex.protect e.e_m (fun () ->
      let incumbent = Sync.Shared.get e.e_incumbent in
      let bound = Sync.Shared.get e.e_bound in
      let gap =
        match (incumbent, bound) with
        | Some inc, Some b ->
          let raw = Float.max 0. ((inc -. b) /. Float.max 1. (Float.abs inc)) in
          let g = Float.min raw (Sync.Shared.get e.e_gap) in
          Sync.Shared.set e.e_gap g;
          Some g
        | _ -> None
      in
      let members =
        List.rev_map
          (fun (slot, label) ->
            ( label,
              Option.value ~default:0
                (List.assoc_opt slot (Sync.Shared.get e.e_member_nodes)) ))
          (Sync.Shared.get e.e_members)
      in
      {
        p_id = e.e_id;
        p_strategy = e.e_strategy;
        p_elapsed = Rfloor_trace.clock () -. e.e_started;
        p_nodes = Sync.Shared.get e.e_nodes;
        p_lp_iterations =
          List.fold_left (fun acc (_, i) -> acc + i) 0 (Sync.Shared.get e.e_iters);
        p_incumbent = incumbent;
        p_bound = bound;
        p_gap = gap;
        p_members = members;
      })

(* ------------------------------------------------------------------ *)
(* the board: active entries, for /statusz *)

type board = {
  b_m : Sync.Mutex.t;
  b_entries : entry list Sync.Shared.t;
}

let create_board () =
  {
    b_m = Sync.Mutex.create ~name:"obsv.board" ();
    b_entries = Sync.Shared.make ~name:"obsv.board.entries" [];
  }

let register board ~id ~strategy =
  let e =
    {
      e_id = id;
      e_strategy = strategy;
      e_started = Rfloor_trace.clock ();
      e_m = Sync.Mutex.create ~name:"obsv.entry" ();
      e_live = Sync.Shared.make ~name:"obsv.entry.live" true;
      e_nodes = Sync.Shared.make ~name:"obsv.entry.nodes" 0;
      e_incumbent = Sync.Shared.make ~name:"obsv.entry.incumbent" None;
      e_bound = Sync.Shared.make ~name:"obsv.entry.bound" None;
      e_gap = Sync.Shared.make ~name:"obsv.entry.gap" infinity;
      e_iters = Sync.Shared.make ~name:"obsv.entry.iters" [];
      e_members = Sync.Shared.make ~name:"obsv.entry.members" [];
      e_member_nodes = Sync.Shared.make ~name:"obsv.entry.member_nodes" [];
    }
  in
  Sync.Mutex.protect board.b_m (fun () ->
      Sync.Shared.set board.b_entries (e :: Sync.Shared.get board.b_entries));
  e

let remove board e =
  finish e;
  Sync.Mutex.protect board.b_m (fun () ->
      Sync.Shared.set board.b_entries
        (List.filter (fun e' -> e' != e) (Sync.Shared.get board.b_entries)))

let active board =
  let entries =
    Sync.Mutex.protect board.b_m (fun () -> Sync.Shared.get board.b_entries)
  in
  List.rev_map snapshot (List.filter live entries)

(* ------------------------------------------------------------------ *)
(* the shared ticker *)

module Ticker = struct
  type sub = {
    s_id : int;
    s_interval : float;
    s_due : float Sync.Shared.t;  (* under the ticker mutex *)
    s_fn : unit -> unit;
  }

  type t = {
    tk_m : Sync.Mutex.t;
    tk_stop : bool Sync.Atomic.t;
    tk_subs : sub list Sync.Shared.t;  (* under [tk_m] *)
    tk_next : int Sync.Shared.t;  (* under [tk_m] *)
    tk_domain : unit Stdlib.Domain.t;
  }

  (* OCaml's stdlib Condition has no timed wait, so the ticker is a
     polling loop on one domain: sleep a small quantum, fire whatever
     came due.  The quantum bounds both firing jitter and shutdown
     latency; callbacks run outside the lock so a slow writer never
     blocks subscription changes. *)
  let quantum = 0.05

  let create () =
    let tk_m = Sync.Mutex.create ~name:"obsv.ticker" () in
    let tk_stop = Sync.Atomic.make ~name:"obsv.ticker.stop" false in
    let tk_subs = Sync.Shared.make ~name:"obsv.ticker.subs" [] in
    let tk_next = Sync.Shared.make ~name:"obsv.ticker.next" 0 in
    let tk_domain =
      Sync.Domain.spawn ~name:"obsv.ticker" (fun () ->
          while not (Sync.Atomic.get tk_stop) do
            Unix.sleepf quantum;
            let now = Rfloor_trace.clock () in
            let due =
              Sync.Mutex.protect tk_m (fun () ->
                  List.filter
                    (fun s ->
                      if Sync.Shared.get s.s_due <= now then begin
                        Sync.Shared.set s.s_due (now +. s.s_interval);
                        true
                      end
                      else false)
                    (Sync.Shared.get tk_subs))
            in
            List.iter (fun s -> try s.s_fn () with _ -> ()) (List.rev due)
          done)
    in
    { tk_m; tk_stop; tk_subs; tk_next; tk_domain }

  let subscribe t ~interval fn =
    Sync.Mutex.protect t.tk_m (fun () ->
        let id = Sync.Shared.get t.tk_next in
        Sync.Shared.set t.tk_next (id + 1);
        let sub =
          {
            s_id = id;
            s_interval = interval;
            s_due =
              Sync.Shared.make ~name:"obsv.ticker.due"
                (Rfloor_trace.clock () +. interval);
            s_fn = fn;
          }
        in
        Sync.Shared.set t.tk_subs (sub :: Sync.Shared.get t.tk_subs);
        id)

  let unsubscribe t id =
    Sync.Mutex.protect t.tk_m (fun () ->
        Sync.Shared.set t.tk_subs
          (List.filter (fun s -> s.s_id <> id) (Sync.Shared.get t.tk_subs)))

  let stop t =
    Sync.Atomic.set t.tk_stop true;
    Sync.Domain.join t.tk_domain
end
