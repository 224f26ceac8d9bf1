(** Floorplanning problem specification: reconfigurable regions with
    their tile demands, the nets connecting them (for wire length), and
    the relocation requirements of Sections IV-V. *)

type region = { r_name : string; demand : Resource.demand }

type net = { src : string; dst : string; weight : float }
(** A connection between two regions; [weight] is the bus width. *)

type reloc_mode =
  | Hard  (** relocation as a constraint (Section IV) *)
  | Soft of float  (** relocation as a metric with weight [cw] (Section V) *)

type reloc_req = { target : string; copies : int; mode : reloc_mode }
(** Request [copies] free-compatible areas for region [target]. *)

type t = {
  s_name : string;
  regions : region list;
  nets : net list;
  relocs : reloc_req list;
}

val make :
  ?nets:net list -> ?relocs:reloc_req list -> name:string -> region list -> t
(** @raise Invalid_argument on duplicate region names, nets or
    relocation requests naming unknown regions, non-positive
    demands/copies, or a net or soft-relocation weight that is negative,
    NaN or infinite. *)

val region : t -> string -> region
(** @raise Not_found *)

val find_region : t -> string -> region option
val region_names : t -> string list
val total_demand : t -> Resource.demand
val total_fc_copies : t -> int

val chain_nets : ?weight:float -> string list -> net list
(** Connect the given regions in sequential order (the SDR design's
    64-bit bus chain). *)

val with_relocs : t -> reloc_req list -> t
(** Same design, different relocation requirements (SDR vs SDR2/SDR3). *)

val pp : Format.formatter -> t -> unit
