(** Candidate rectangle enumeration for the combinatorial placer.

    For a region with a given tile demand on a columnar device, every
    rectangle that covers the demand and avoids forbidden areas is a
    candidate.  Candidates are produced sorted by increasing wasted
    frames, then by [(x, y, w, h)], which lets the branch-and-bound
    search find cheap incumbents first and prune by waste bounds. *)

type candidate = { rect : Device.Rect.t; waste : int }

val enumerate : Device.Partition.t -> Device.Resource.demand -> candidate list
(** All candidate rectangles for the demand, waste-ascending.  Empty if
    the region cannot be placed at all. *)

val min_waste : Device.Partition.t -> Device.Resource.demand -> int option
(** Waste of the cheapest candidate, [None] if unplaceable. *)

(** {1 Flat form, for the search kernel} *)

val stride : int
(** Ints per candidate in a {!table}: 5. *)

val table : Device.Partition.t -> Device.Resource.demand -> int array
(** {!enumerate} as one flat array: candidate [i] is
    [x, y, w, h, waste] at [stride * i], in the same order. *)

val kind_index : Device.Resource.kind -> int
(** CLB 0, BRAM 1, DSP 2, IO 3. *)

val prefix_counts : Device.Partition.t -> int array
(** Per-kind column prefix counts: [(prefix_counts p).(kind_index k *
    (width + 1) + x)] is the number of columns of kind [k] among
    columns [1..x]. *)
