(** The concurrency scenarios this repo worries about, as
    {!Explorer.scenario}s, plus self-tests that prove the analyzers
    still catch seeded bugs.

    Scenarios mirror real structures at the granularity where their
    interleavings differ: the incumbent CAS loop of [Branch_bound], its
    work deque, the service LRU cache (exercised directly, not
    modeled) and the pool's cooperative cancel-vs-drain handoff. *)

val incumbent_cas : blind:bool -> int list -> Explorer.scenario
(** Concurrent minimization of a shared incumbent.  [blind:true]
    replaces the CAS with a write-after-stale-read — the lost-update
    bug the explorer must be able to find. *)

val deque_steal_vs_pop : int list -> Explorer.scenario
(** One producer, two claiming consumers over a shared deque;
    every task must be consumed exactly once. *)

val lru_hit_vs_evict : unit -> Explorer.scenario
(** Writer inserting three entries into a capacity-2
    {!Rfloor_service.Cache} races a reader hitting the first two keys;
    size bound, key uniqueness and hit coherence must hold under every
    schedule. *)

val cancel_vs_drain : steps:int -> Explorer.scenario
(** A worker polling a cancel flag between unit steps races the
    canceller; the job finishes exactly once and "stopped" implies the
    flag was set. *)

val all : seed:int -> Explorer.scenario list
(** The correct-by-construction suite, with scenario data varied
    deterministically by [seed]. *)

val run_all :
  ?max_replays:int ->
  seed:int ->
  unit ->
  Explorer.outcome list * Rfloor_diag.Diagnostic.t list
(** Explores {!all} plus the deliberately broken incumbent variant.
    Diagnostics are empty iff every correct scenario exhausted its
    schedules violation-free {e and} the broken variant was caught. *)

type self_test = {
  st_name : string;
  st_expected : string;
  st_pass : bool;
  st_detail : string;
}

val detector_self_test :
  unit -> self_test list * Rfloor_diag.Diagnostic.t list
(** Runs real two-domain workloads under the {!Rfloor_sync.Recorder}
    and checks the race detector both ways: unsynchronized writes must
    race, mutex-protected writes must not, and CAS-spinlock-protected
    writes must draw exactly the empty-lockset warning.  Installs and
    removes the global recorder. *)
