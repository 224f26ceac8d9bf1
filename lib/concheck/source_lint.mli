(** Static source lint for raw synchronization primitives
    ([RF401]..[RF403]).

    Flags [Mutex.]/[Condition.]/[Atomic.] module-path uses that
    resolve to the standard library — unqualified, or rooted at
    [Stdlib] — anywhere outside [lib/sync], the one module allowed to
    touch the raw primitives.  Qualified uses ([Rfloor_sync.Mutex.t],
    [Sync.Atomic.get]) pass.  Comments and string literals are
    stripped (line numbers preserved) before scanning. *)

val scan_text : path:string -> string -> Rfloor_diag.Diagnostic.t list
(** Scan one source text; [path] is used for locations only. *)

val scan_roots : string list -> Rfloor_diag.Diagnostic.t list
(** Scan every [.ml]/[.mli] under the given directories (files are
    accepted too), skipping [_build], [.git] and any directory named
    [sync].  Missing roots are ignored. *)
