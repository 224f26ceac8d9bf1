(* Instrumented synchronization layer.  See rfloor_sync.mli for the
   cost model.  This module is the one place in the repo allowed to
   touch the raw standard-library primitives; everything else goes
   through these wrappers so that a single global recorder can capture
   every synchronization operation in execution order. *)

module Sys_mutex = Stdlib.Mutex
module Sys_condition = Stdlib.Condition
module Sys_atomic = Stdlib.Atomic
module Sys_domain = Stdlib.Domain

module Event = struct
  type op =
    | Lock_acquire
    | Lock_release
    | Cond_wait_begin
    | Cond_wait_end
    | Cond_signal
    | Cond_broadcast
    | Atomic_read
    | Atomic_write
    | Atomic_cas of bool
    | Plain_read
    | Plain_write
    | Spawn
    | Child_run
    | Join

  type t = {
    seq : int;
    domain : int;
    op : op;
    obj : int;
    name : string;
    aux : int;
  }

  let op_name = function
    | Lock_acquire -> "lock"
    | Lock_release -> "unlock"
    | Cond_wait_begin -> "wait_begin"
    | Cond_wait_end -> "wait_end"
    | Cond_signal -> "signal"
    | Cond_broadcast -> "broadcast"
    | Atomic_read -> "atomic_read"
    | Atomic_write -> "atomic_write"
    | Atomic_cas true -> "cas_ok"
    | Atomic_cas false -> "cas_fail"
    | Plain_read -> "read"
    | Plain_write -> "write"
    | Spawn -> "spawn"
    | Child_run -> "child_run"
    | Join -> "join"

  let pp ppf e =
    Format.fprintf ppf "#%d d%d %s %s(%d)%s" e.seq e.domain (op_name e.op)
      e.name e.obj
      (if e.aux >= 0 then Printf.sprintf " aux=%d" e.aux else "")
end

(* ------------------------------------------------------------------ *)
(* The global recorder *)

type recorder = {
  rm : Sys_mutex.t;
  mutable events : Event.t list; (* newest first *)
  mutable count : int;
}

let current : recorder option Sys_atomic.t = Sys_atomic.make None

let next_id = Sys_atomic.make 0
let fresh_id () = Sys_atomic.fetch_and_add next_id 1

let self_int () = (Sys_domain.self () :> int)

let append r op obj name aux =
  r.events <-
    { Event.seq = r.count; domain = self_int (); op; obj; name; aux }
    :: r.events;
  r.count <- r.count + 1

(* Record an event for an operation that already happened (or is about
   to): used around blocking calls, which must never hold the recorder
   lock while blocked. *)
let note op obj name aux =
  match Sys_atomic.get current with
  | None -> ()
  | Some r ->
    Sys_mutex.lock r.rm;
    append r op obj name aux;
    Sys_mutex.unlock r.rm

(* Run a non-blocking operation and record it atomically, so the log
   order of recorded events is exactly the real execution order. *)
let recorded r op obj name aux f =
  Sys_mutex.lock r.rm;
  match f () with
  | v ->
    append r op obj name aux;
    Sys_mutex.unlock r.rm;
    v
  | exception e ->
    Sys_mutex.unlock r.rm;
    raise e

module Recorder = struct
  let start () =
    Sys_atomic.set current
      (Some { rm = Sys_mutex.create (); events = []; count = 0 })

  let stop () =
    match Sys_atomic.exchange current None with
    | None -> []
    | Some r ->
      Sys_mutex.lock r.rm;
      let es = List.rev r.events in
      Sys_mutex.unlock r.rm;
      es

  let recording () = Sys_atomic.get current <> None
end

let auto_name prefix id name =
  match name with Some n -> n | None -> Printf.sprintf "%s#%d" prefix id

(* ------------------------------------------------------------------ *)
(* Wrappers *)

module Mutex = struct
  type t = { m : Sys_mutex.t; id : int; name : string }

  let create ?name () =
    let id = fresh_id () in
    { m = Sys_mutex.create (); id; name = auto_name "mutex" id name }

  (* Acquire is recorded after the raw lock and release before the raw
     unlock, so in the log a release always precedes the next acquire
     of the same mutex — the order the vector-clock pass relies on. *)
  let lock t =
    Sys_mutex.lock t.m;
    note Event.Lock_acquire t.id t.name (-1)

  let unlock t =
    note Event.Lock_release t.id t.name (-1);
    Sys_mutex.unlock t.m

  let protect t f =
    lock t;
    Fun.protect ~finally:(fun () -> unlock t) f
end

module Condition = struct
  type t = { c : Sys_condition.t; id : int; name : string }

  let create ?name () =
    let id = fresh_id () in
    { c = Sys_condition.create (); id; name = auto_name "cond" id name }

  let wait t (mu : Mutex.t) =
    note Event.Cond_wait_begin t.id t.name mu.Mutex.id;
    Sys_condition.wait t.c mu.Mutex.m;
    note Event.Cond_wait_end t.id t.name mu.Mutex.id

  let signal t =
    note Event.Cond_signal t.id t.name (-1);
    Sys_condition.signal t.c

  let broadcast t =
    note Event.Cond_broadcast t.id t.name (-1);
    Sys_condition.broadcast t.c
end

module Atomic = struct
  type 'a t = { a : 'a Sys_atomic.t; id : int; name : string }

  let make ?name v =
    let id = fresh_id () in
    { a = Sys_atomic.make v; id; name = auto_name "atomic" id name }

  let get t =
    match Sys_atomic.get current with
    | None -> Sys_atomic.get t.a
    | Some r ->
      recorded r Event.Atomic_read t.id t.name (-1) (fun () ->
          Sys_atomic.get t.a)

  let set t v =
    match Sys_atomic.get current with
    | None -> Sys_atomic.set t.a v
    | Some r ->
      recorded r Event.Atomic_write t.id t.name (-1) (fun () ->
          Sys_atomic.set t.a v)

  let compare_and_set t old_ new_ =
    match Sys_atomic.get current with
    | None -> Sys_atomic.compare_and_set t.a old_ new_
    | Some r ->
      (* the success flag must come from inside the recorder's
         critical section, so record it in a second pass *)
      Sys_mutex.lock r.rm;
      let ok = Sys_atomic.compare_and_set t.a old_ new_ in
      append r (Event.Atomic_cas ok) t.id t.name (-1);
      Sys_mutex.unlock r.rm;
      ok

  let fetch_and_add t n =
    match Sys_atomic.get current with
    | None -> Sys_atomic.fetch_and_add t.a n
    | Some r ->
      recorded r Event.Atomic_write t.id t.name (-1) (fun () ->
          Sys_atomic.fetch_and_add t.a n)

  let incr t = ignore (fetch_and_add t 1)
  let decr t = ignore (fetch_and_add t (-1))
end

module Shared = struct
  type 'a t = { mutable v : 'a; id : int; name : string }

  let make ?name v =
    let id = fresh_id () in
    { v; id; name = auto_name "shared" id name }

  let get t =
    match Sys_atomic.get current with
    | None -> t.v
    | Some r -> recorded r Event.Plain_read t.id t.name (-1) (fun () -> t.v)

  let set t v =
    match Sys_atomic.get current with
    | None -> t.v <- v
    | Some r ->
      recorded r Event.Plain_write t.id t.name (-1) (fun () -> t.v <- v)
end

module Domain = struct
  let spawn ?name f =
    match Sys_atomic.get current with
    | None -> Sys_domain.spawn f
    | Some _ ->
      (* The token pairs the parent's Spawn with the child's first
         event, giving the detector the fork happens-before edge.  The
         parent records Spawn before the raw spawn so the child's
         Child_run can only appear after it in the log. *)
      let token = fresh_id () in
      let name = auto_name "domain" token name in
      note Event.Spawn token name (-1);
      Sys_domain.spawn (fun () ->
          note Event.Child_run token name (-1);
          f ())

  let join d =
    let child = (Sys_domain.get_id d :> int) in
    let r = Sys_domain.join d in
    (* recorded after the join returns: every event of the child is
       already in the log, so joining the child's final clock is sound *)
    note Event.Join child "join" (-1);
    r
end
