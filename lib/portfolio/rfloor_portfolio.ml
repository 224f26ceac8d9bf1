module Sync = Rfloor_sync

type 'a board = (float * 'a) option Sync.Atomic.t

let board ?(name = "portfolio.board") () = Sync.Atomic.make ~name None

let rec publish b key v =
  let cur = Sync.Atomic.get b in
  let better = match cur with None -> true | Some (k, _) -> key < k in
  if not better then false
  else if Sync.Atomic.compare_and_set b cur (Some (key, v)) then true
  else publish b key v

let best = Sync.Atomic.get

let best_key b =
  match Sync.Atomic.get b with None -> infinity | Some (k, _) -> k

type 'r member = {
  m_label : string;
  m_run : cancelled:(unit -> bool) -> 'r;
}

type 'r completion = {
  c_label : string;
  c_index : int;
  c_result : ('r, exn) result;
  c_winner : bool;
}

let race ?(cancel = fun () -> false) ~conclusive members =
  match members with
  | [] -> ([], None)
  | _ ->
    let n = List.length members in
    let stop = Sync.Atomic.make ~name:"portfolio.stop" false in
    let winner = Sync.Atomic.make ~name:"portfolio.winner" None in
    let cancelled () = cancel () || Sync.Atomic.get stop in
    (* Each slot is written once by its own domain before it exits;
       the joins below are the happens-before edges that make the
       plain array safe. *)
    let slots = Array.make n None in
    let run i m () =
      let result = try Ok (m.m_run ~cancelled) with e -> Error e in
      let won =
        match result with
        | Ok r when conclusive r ->
          if Sync.Atomic.compare_and_set winner None (Some i) then begin
            Sync.Atomic.set stop true;
            true
          end
          else false
        | Ok _ | Error _ -> false
      in
      slots.(i) <-
        Some
          {
            c_label = m.m_label;
            c_index = i;
            c_result = result;
            c_winner = won;
          }
    in
    let domains =
      List.mapi
        (fun i m ->
          Sync.Domain.spawn ~name:("portfolio." ^ m.m_label) (run i m))
        members
    in
    List.iter Sync.Domain.join domains;
    let completions =
      Array.to_list slots
      |> List.map (function
           | Some c -> c
           | None -> invalid_arg "Rfloor_portfolio.race: missing slot")
    in
    (completions, Sync.Atomic.get winner)
