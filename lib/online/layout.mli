(** A persistent online layout: the placed modules of a long-lived
    device, their synthesized partial bitstreams, and the maximal free
    rectangles ({!Free_space}) maintained incrementally across
    arrivals, departures and relocations.

    All operations are functional — the previous layout stays valid —
    which is what lets the defragmentation planner ({!Defrag}) search
    over move sequences without copying device state.

    Every relocation goes through the {!Bitstream.Relocate} filter:
    the stored image is address-rewritten to the destination, payload
    untouched, so a defragmentation provably never breaks the modules
    it does not move. *)

type entry = {
  e_name : string;
  e_rect : Device.Rect.t;
  e_demand : Device.Resource.demand;
  e_image : Bitstream.Image.t;
}

type t

val create : Device.Partition.t -> t
(** An empty layout; the free space is the whole device minus the
    forbidden areas. *)

val partition : t -> Device.Partition.t
val entries : t -> entry list
(** Arrival order. *)

val find : t -> string -> entry option
val modules : t -> int
val occupied : t -> Device.Rect.t list
val free_rects : t -> Device.Rect.t list
(** The maximal free rectangles, sorted. *)

val usable_area : t -> int
(** Tiles not under a forbidden area. *)

val occupancy : t -> float
(** Occupied fraction of the usable tiles, in [0, 1]. *)

val fragmentation : t -> float
(** [1 - largest_free_rect_area / total_free_area] (0 when the device
    is full or empty): 0 means all free space is one rectangle, values
    near 1 mean the free area is shattered. *)

val admission_rect_in :
  Device.Partition.t ->
  mers:Device.Rect.t list ->
  Device.Resource.demand ->
  Device.Rect.t option
(** Best placement of a demand inside an existing free rectangle:
    minimal {!Device.Compat.wasted_frames}, ties broken by smaller
    area, then leftmost, then topmost; of several equal keys the first
    found wins.  [None] when no free rectangle can host the demand —
    the trigger for defragmentation.  Entries with a count [<= 0] are
    ignored; [None] when none is left.

    The scan visits [mers] in order and, in each, every column range
    [x1..x2] (x1 ascending, then x2 ascending) at the rectangle's top
    row.  The column kinds are read once per call; per-kind column
    counts grow with [x2], the minimal height is the largest
    [ceil (d / count k)] over the entries [(k, d)], and the waste is
    [sum_k frames k * max 0 (count k * h - demand_get demand k)], all
    in ints. *)

val admission_rect : t -> Device.Resource.demand -> Device.Rect.t option

val place :
  ?seed:int -> t -> string -> Device.Resource.demand ->
  (t * Device.Rect.t, Rfloor_diag.Diagnostic.t) result
(** Admission path: place an arriving module into the best existing
    free rectangle and synthesize its bitstream ([seed] defaults to a
    hash of the name).  Errors: RF702 (duplicate name), RF701 (no
    admissible rectangle). *)

val place_at :
  ?seed:int -> t -> string -> Device.Resource.demand -> Device.Rect.t ->
  (t, Rfloor_diag.Diagnostic.t) result
(** Place at an explicit rectangle (the fallback re-placement path).
    The rectangle must be inside the device, off the forbidden areas,
    disjoint from every module, and cover the demand. *)

val remove : t -> string -> (t, Rfloor_diag.Diagnostic.t) result
(** Departure.  RF702 when the module is unknown. *)

val move :
  t -> string -> Device.Rect.t -> (t, Rfloor_diag.Diagnostic.t) result
(** Relocate one module to a free compatible rectangle, rewriting its
    bitstream through the relocation filter.  Errors: RF702 (unknown
    module), RF705 (destination not free-compatible, or the filter
    refused the image). *)

val check_free_rects : t -> bool
(** Differential audit: the incrementally-maintained free-rectangle
    set equals a from-scratch {!Free_space.recompute}. *)

val render : t -> string
(** ASCII picture of the device with modules marked 'A', 'B', ... in
    arrival order. *)
