(** Instance canonicalization: a stable content key for a floorplanning
    problem (device as partitioned, specification, answer-defining
    solver options), the basis of the {!Cache}.

    Two instances get the same key whenever one maps onto the other by

    - relabeling the regions (the canonical region order comes from a
      Weisfeiler-Lehman-style refinement over demands, relocation
      requests and the net graph, not from names), and/or
    - renaming tile types / kinds while preserving the left-to-right
      columnar portion sequence and the per-kind frame counts — the
      tile-type-sequence equivalence behind Properties .3/.4
      ({!Device.Partition.type_sequence}).

    The mapping is one-directional by construction: equal canonical
    {e text} implies isomorphic instances (the text fully determines
    the instance up to the renaming), while symmetric designs may
    canonicalize to different texts under relabeling — a missed cache
    hit, never a false one.  Keys are 32-hex-character two-lane FNV-1a
    hashes of the text; cache layers must compare the stored text on a
    key match to rule out hash collisions. *)

type t = {
  instance_key : string;  (** 32 hex chars over [instance_text] *)
  instance_text : string;  (** full canonical serialization *)
  order : string array;  (** canonical region index -> region name *)
  index_of : (string, int) Hashtbl.t;  (** inverse of [order] *)
}

val of_instance : Device.Partition.t -> Device.Spec.t -> t

val region_index : t -> string -> int
(** @raise Invalid_argument on a name foreign to the instance. *)

(** {1 Canonical floorplans}

    Plans are cached in canonical form — region {e indices}, not names —
    so a hit on a relabeled instance rebinds to that instance's names. *)

type plan = {
  placements : (int * Device.Rect.t) list;  (** (canonical region index, rect) *)
  fc_areas : (int * int * Device.Rect.t) list;
      (** (canonical region index, copy index, rect) *)
}

val encode_plan : t -> Device.Floorplan.t -> plan
val decode_plan : t -> plan -> Device.Floorplan.t

(** {1 Option keys} *)

val options_key : t -> Rfloor.Solver.options -> string * string
(** [(key, text)] over the answer-defining options only: engine (with a
    canonicalized HO seed if one is supplied), objective mode and
    [paper_literal_l].  Budgets ([time_limit], [node_limit]), [workers],
    [warm_start] and observability options are deliberately excluded:
    the cache serves exact hits only from [Optimal] entries, and an
    optimal answer does not depend on them. *)
