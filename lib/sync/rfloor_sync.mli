(** Instrumented synchronization layer.

    Every concurrent structure in the repo builds its mutexes,
    condition variables and atomics from this module instead of the
    raw standard-library primitives (the RF401..RF403 source lint
    enforces exactly that).  The wrappers behave identically to the
    primitives they wrap, except that an optional global {!Recorder}
    can capture every operation — acquire/release, atomic
    read/write/CAS, plain shared-cell accesses, domain spawn/join —
    tagged with the executing domain id and a global logical clock.
    The concurrency analyzers in [Rfloor_concheck] (vector-clock race
    detector, lockset screen) consume those logs.

    Cost model: when no recorder is installed every operation pays one
    atomic load and one branch on top of the raw primitive — the same
    trick as the null metrics registry — and allocates nothing.  When
    a recorder is installed, every non-blocking operation executes
    under the recorder's own lock so that the log order of events is
    exactly the real execution order (blocking operations — mutex
    lock, condition wait — record just after/before the raw call so
    they can never hold the recorder lock while blocked).  Recording
    therefore serializes instrumented code; it is meant for analysis
    runs, not production. *)

module Event : sig
  type op =
    | Lock_acquire
    | Lock_release
    | Cond_wait_begin  (** releases the paired mutex ([aux]) *)
    | Cond_wait_end  (** re-acquires the paired mutex ([aux]) *)
    | Cond_signal
    | Cond_broadcast
    | Atomic_read
    | Atomic_write  (** also read-modify-write: fetch_and_add *)
    | Atomic_cas of bool  (** success flag *)
    | Plain_read  (** {!Shared} cell read *)
    | Plain_write  (** {!Shared} cell write *)
    | Spawn  (** parent side; [obj] is a fresh spawn token *)
    | Child_run  (** first action of the child; [obj] is the token *)
    | Join  (** parent side, after the join; [obj] is the child domain id *)

  type t = {
    seq : int;  (** global logical clock: position in the recorded log *)
    domain : int;  (** executing domain ([Domain.self] as an int) *)
    op : op;
    obj : int;  (** unique id of the touched object *)
    name : string;  (** the object's registration name *)
    aux : int;  (** paired mutex id for condition ops, [-1] otherwise *)
  }

  val pp : Format.formatter -> t -> unit
end

module Recorder : sig
  val start : unit -> unit
  (** Install a fresh global recorder (discarding any previous log).
      Start it before the concurrent section of interest; operations
      by any domain are captured from this point on. *)

  val stop : unit -> Event.t list
  (** Uninstall the recorder and return the captured events in log
      (= execution) order.  Call it after joining the workers whose
      operations you want; events raced against [stop] by still-live
      domains may be dropped.  Returns [[]] if no recorder was
      installed. *)

  val recording : unit -> bool
end

module Mutex : sig
  type t

  val create : ?name:string -> unit -> t
  val lock : t -> unit
  val unlock : t -> unit

  val protect : t -> (unit -> 'a) -> 'a
  (** [protect m f] runs [f ()] with [m] held, releasing it on the way
      out even if [f] raises. *)
end

module Condition : sig
  type t

  val create : ?name:string -> unit -> t

  val wait : t -> Mutex.t -> unit
  (** Atomically releases the mutex and waits; the mutex is held again
      when [wait] returns.  As with the raw primitive, wakeups may be
      spurious — always re-check the predicate in a loop. *)

  val signal : t -> unit
  val broadcast : t -> unit
end

module Atomic : sig
  type 'a t

  val make : ?name:string -> 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit
end

module Shared : sig
  (** A plain (non-atomic) mutable cell meant to be protected by a
      lock.  Functionally identical to a [ref]; under a recorder its
      accesses become [Plain_read]/[Plain_write] events — the accesses
      the race detector actually checks (mutex/atomic events only
      build happens-before edges). *)

  type 'a t

  val make : ?name:string -> 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
end

module Domain : sig
  (** Spawn/join wrappers that record the fork and join
      happens-before edges the race detector needs (an uninstrumented
      spawn would make everything the child touches look racy against
      the parent's setup writes). *)

  val spawn : ?name:string -> (unit -> 'a) -> 'a Stdlib.Domain.t
  val join : 'a Stdlib.Domain.t -> 'a
end
