(** Candidate rectangle enumeration for the combinatorial placer.

    For a region with a given tile demand on a columnar device, every
    rectangle that covers the demand and avoids forbidden areas is a
    candidate.  Candidates are produced sorted by increasing wasted
    frames, then by [(x, y, w, h)], which lets the branch-and-bound
    search find cheap incumbents first and prune by waste bounds. *)

type candidate = { rect : Device.Rect.t; waste : int }

val enumerate : Device.Partition.t -> Device.Resource.demand -> candidate list
(** All candidate rectangles for the demand, waste-ascending: a
    {!generator} read to its end.  Empty if the region cannot be placed
    at all. *)

val min_waste : Device.Partition.t -> Device.Resource.demand -> int option
(** Waste of the cheapest candidate, [None] if unplaceable: the first
    non-empty level of a {!generator}. *)

(** {1 The level generator, for the search kernel}

    A generator ranks the demand's shapes [(x, w, h)] by waste once,
    then writes the candidates one waste level at a time, on demand.
    After any number of {!write_level}s the candidates written are a
    prefix of {!enumerate}'s order that ends at a change of waste (or at
    its end), in a flat array. *)

type generator

val generator : Device.Partition.t -> Device.Resource.demand -> generator
(** Ranks the shapes; writes no candidate. *)

val stride : int
(** Ints per candidate in {!data}: 5. *)

val written : generator -> int
(** Candidates written so far. *)

val data : generator -> int array
(** The candidates written: candidate [i < written g] is
    [x, y, w, h, waste] at [stride * i].  The array may be longer, and a
    write that outgrows it moves the candidates to a new one: read it
    again after each write. *)

val exhausted : generator -> bool
(** Every level is written. *)

val next_waste : generator -> int
(** The waste of the next level to write; only when not {!exhausted}. *)

val write_level : generator -> unit
(** Writes the next level's candidates (maybe none: a shape may have no
    position clear of the forbidden areas); only when not
    {!exhausted}. *)

val write_first : generator -> unit
(** Writes levels until one candidate is written or none is left. *)

val least_coverage : generator -> int array
(** Per kind ({!kind_index} order), the fewest tiles of that kind a
    candidate covers; all 0 when there is no candidate.  Known before
    any write: coverage depends on [(x, w, h)] alone, and a window's
    shortest shape has a position whenever a taller one does. *)

val kind_index : Device.Resource.kind -> int
(** CLB 0, BRAM 1, DSP 2, IO 3. *)

val prefix_counts : Device.Partition.t -> int array
(** Per-kind column prefix counts: [(prefix_counts p).(kind_index k *
    (width + 1) + x)] is the number of columns of kind [k] among
    columns [1..x]. *)
