(** Columnar FPGA partitioning (Section III.B of the paper).

    Partitions the device into {e columnar portions} — maximal
    full-height rectangles of a single tile type — after replacing the
    tiles under forbidden areas with same-column substitutes (step 1 of
    the procedure).  Fails when the device is not columnar-partitionable
    (step 4), exactly as the paper's procedure does. *)

type portion = {
  index : int;  (** 1-based, ordered left to right (Property .4) *)
  x1 : int;  (** leftmost column *)
  x2 : int;  (** rightmost column *)
  tile : Resource.tile_type;
  tid : int;  (** tile-type id in [1 .. n_types] *)
}

val portion_width : portion -> int

type t = {
  grid : Grid.t;
  portions : portion array;  (** left-to-right *)
  forbidden : Rect.t list;
  n_types : int;
  types : Resource.tile_type array;  (** [types.(tid - 1)] is the type *)
}

val columnar : Grid.t -> (t, Rfloor_diag.Diagnostic.t) result
(** Runs the revised partitioning procedure.  [Error] — an [RF010]
    diagnostic — when some column mixes tile types outside forbidden
    areas (the portion cannot be extended to the bottom of the FPGA),
    or when an entire column is forbidden (step 1 has no replacement
    tile). *)

val columnar_exn : Grid.t -> t

val column_type : t -> int -> Resource.tile_type
(** Effective (post step 1) type of a column, 1-based. *)

val column_tid : t -> int -> int

val width : t -> int
val height : t -> int

val frames_of_demand : t -> Resource.demand -> int

val type_sequence : t -> (int * int) list
(** [(canonical_tid, width)] per portion, left to right, with tile ids
    renumbered by order of first appearance.  Two columnar partitions
    have equal sequences iff their portion structures are identical up
    to a renaming of tile types that preserves the left-to-right
    sequence (the equivalence behind Properties .3/.4 — the basis of
    {!Rfloor_service} instance canonicalization). *)

val check_adjacent_types_differ : t -> bool
(** Property .3: adjacent columnar portions have different types. *)

val check_ordered : t -> bool
(** Property .4: portions are indexed [1..n] left to right, contiguous,
    starting at column 1 and ending at the device width. *)

val check_cover_disjoint : t -> bool
(** Portions tile the device: every column in exactly one portion. *)

val pp : Format.formatter -> t -> unit
