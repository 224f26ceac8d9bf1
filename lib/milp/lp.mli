(** Linear / mixed-integer program builder.

    An [Lp.t] is a mutable problem under construction: variables with
    bounds and kinds, linear constraints, and a linear objective.  The
    representation is solver-agnostic; {!Simplex} and {!Branch_bound}
    consume it, {!Lp_format} and {!Mps} serialize it. *)

type var = int
(** Variable handle: index in creation order, dense from 0. *)

type var_kind =
  | Continuous
  | Integer
  | Binary  (** integer restricted to [{0,1}] *)

type dir = Minimize | Maximize

type sense = Le | Ge | Eq

type term = float * var
(** A linear term [coeff * variable]. *)

type t

val create : ?name:string -> unit -> t

val name : t -> string

val add_var :
  t -> ?name:string -> ?lb:float -> ?ub:float -> ?kind:var_kind -> unit -> var
(** Fresh variable.  Defaults: [lb = 0.], [ub = infinity],
    [kind = Continuous].  [Binary] forces bounds into [[0, 1]].
    Lower bounds may be [neg_infinity]. *)

val add_constr : t -> ?name:string -> term list -> sense -> float -> unit
(** [add_constr t terms sense rhs] adds the row [terms sense rhs].
    Terms are normalized: duplicates summed, zero coefficients dropped.
    @raise Invalid_argument on an out-of-range variable. *)

val set_objective : t -> dir -> ?constant:float -> term list -> unit
(** Replaces the objective.  [constant] is added to reported values. *)

val num_vars : t -> int
val num_constrs : t -> int
val num_integer_vars : t -> int

val var_name : t -> var -> string
val var_lb : t -> var -> float
val var_ub : t -> var -> float
val var_kind : t -> var -> var_kind
val set_bounds : t -> var -> lb:float -> ub:float -> unit
val set_kind : t -> var -> var_kind -> unit

val objective_dir : t -> dir
val objective_constant : t -> float
val objective_terms : t -> term list
val objective_coeff : t -> var -> float

val constr_name : t -> int -> string

val iter_constrs : t -> (int -> term list -> sense -> float -> unit) -> unit

val fold_constrs :
  t -> init:'a -> ('a -> int -> term list -> sense -> float -> 'a) -> 'a
(** [fold_constrs t ~init f] folds [f] over the rows in index order —
    the iteration primitive for analysis passes, so they need no index
    loops over the rows. *)

val integer_vars : t -> var list
(** Variables of kind [Integer] or [Binary], ascending. *)

val relax : t -> t
(** Copy with every variable made [Continuous] (LP relaxation). *)

val copy : t -> t

val constr_violation : t -> float array -> float
(** Maximum violation of any row under assignment [x]; [0.] if feasible. *)

val bounds_violation : t -> float array -> float

val objective_value : t -> float array -> float

val validate : ?eps:float -> t -> float array -> (unit, string) result
(** Feasibility check (rows, bounds, integrality) with diagnostics. *)
