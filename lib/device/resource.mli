(** FPGA resource and tile-type model.

    Following the paper's device model, the basic block is a {e tile}
    (one column of one clock region).  Two tiles are of the same
    {e type} (Definition .1) iff they hold the same resources {e and}
    the same configuration-data layout; the latter is modelled by a
    [variant] tag so that tests can distinguish resource-identical but
    configuration-different tiles. *)

type kind =
  | Clb
  | Bram
  | Dsp
  | Io  (** I/O column tiles (not requestable by regions) *)

val all_kinds : kind list

val kind_to_string : kind -> string
val kind_of_char : char -> kind option
val kind_to_char : kind -> char
val equal_kind : kind -> kind -> bool

type tile_type = { kind : kind; variant : int }
(** Definition .1 tile type: resources plus configuration-data identity. *)

val tile_type : ?variant:int -> kind -> tile_type
val equal_tile_type : tile_type -> tile_type -> bool
val pp_tile_type : Format.formatter -> tile_type -> unit

val default_frames : kind -> int
(** Configuration frames per tile on Virtex-5: CLB 36, BRAM 30, DSP 28
    (Section VI); IO counted as CLB-sized. *)

type demand = (kind * int) list
(** Resource requirement of a region, in tiles per kind. *)

val demand_tiles : demand -> int
val demand_get : demand -> kind -> int
val demand_frames : frames:(kind -> int) -> demand -> int
(** Least number of configuration frames covering the demand (the
    "# Frames" column of Table I). *)

val pp_demand : Format.formatter -> demand -> unit
