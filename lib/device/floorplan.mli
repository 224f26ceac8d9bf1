(** Floorplan solutions: region placements plus identified
    free-compatible areas, their validation, and the paper's metrics
    (wasted frames, wire length). *)

type placement = { p_region : string; p_rect : Rect.t }

type fc_area = {
  fc_region : string;  (** region this area is free-compatible with *)
  fc_index : int;  (** 1-based copy number, for display ("Signal Decoder 2") *)
  fc_rect : Rect.t;
}

type t = { placements : placement list; fc_areas : fc_area list }

val empty : t
val make : placement list -> fc_area list -> t

val rect_of : t -> string -> Rect.t option
val all_rects : t -> Rect.t list
(** Region rectangles followed by free-compatible areas. *)

val fc_count : t -> int
val fc_for : t -> string -> fc_area list

val validate : Partition.t -> Spec.t -> t -> (unit, string list) result
(** Full check of a solution:
    - every region of the spec is placed exactly once, inside the device;
    - no two rectangles (regions or free-compatible areas) overlap;
    - no rectangle overlaps a forbidden area;
    - each region's rectangle covers its tile demand;
    - each free-compatible area is compatible (Definition .1) with its
      region's placement;
    - hard relocation requests are satisfied in number.
    Returns all violations, not just the first. *)

val is_valid : Partition.t -> Spec.t -> t -> bool

val wasted_frames : Partition.t -> Spec.t -> t -> int
(** Frames covered by region rectangles beyond their demands.  Frames
    under free-compatible areas are {e not} counted (Section VI: those
    areas only reserve free space). *)

val wirelength : Spec.t -> t -> float
(** Sum over nets of weight x Manhattan distance between the centers of
    the two regions' rectangles.  @raise Invalid_argument if a net's
    region is unplaced. *)

val render : Partition.t -> t -> string
(** ASCII floorplan in the style of Figures 4-5: regions as digits or
    letters, free-compatible areas as the lowercase initial of their
    region, forbidden tiles as ['#']. *)

val pp : Format.formatter -> t -> unit
