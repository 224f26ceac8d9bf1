(** Pass 1: lint a device partition and a design spec before any model
    is built (codes RF001-RF009).

    Checks the Section III invariants of the columnar partition
    (Properties .3/.4, forbidden areas inside the device), region
    demands against the device's usable resources (the collective sum
    [RF005] counts every hard relocation copy as one more instance of
    its region's demand), that every region
    admits at least one satisfying rectangle, and that each relocation
    request can count enough type-sequence-compatible columnar windows
    (a cheap sweep over {!Device.Compat} — a necessary condition, so an
    [RF006] error proves the MILP infeasible without solving it). *)

val run : Device.Partition.t -> Device.Spec.t -> Rfloor_diag.Diagnostic.t list
(** All findings of the pass, unordered. *)

val partition_only : Device.Partition.t -> Rfloor_diag.Diagnostic.t list
(** Just the partition invariants (RF001-RF003), without a design. *)

val compatible_windows :
  Device.Partition.t -> Device.Resource.demand -> int * int
(** [(sites, disjoint)] over all rectangle classes satisfying the
    demand: the largest number of compatible windows of any single
    class, and a greedy lower bound on how many of them are pairwise
    disjoint.  Both are [0] when no rectangle satisfies the demand. *)
