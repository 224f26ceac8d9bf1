(** Pass 2: lint a generated MILP model before solving it
    (codes RF101-RF107).

    Structural checks over any {!Milp.Lp.t}: empty, duplicate and
    dominated rows; variables fixed by their bounds; integer variables
    with infinite bounds; rows that no point inside the variable bounds
    can satisfy (an [RF106] error proves the model infeasible); and a
    numerical-conditioning report of the coefficient magnitude spread
    per constraint family — big-M hygiene. *)

val run : ?spread_threshold:float -> Milp.Lp.t -> Rfloor_diag.Diagnostic.t list
(** All findings.  [spread_threshold] (default [1e8]) is the
    max/min coefficient magnitude ratio above which a constraint
    family is reported as ill-conditioned (RF107). *)

val family_of_name : string -> string
(** Constraint-family stem of a row name: the part after the first
    ['.'] when present (["Filter.res.clb"] -> ["res.clb"]), with digit
    runs removed so auto-generated names (["c17"]) collapse. *)

val row_keys : (float * int) list -> Milp.Lp.sense -> float -> string * string
(** [row_keys terms sense rhs] is the pair of keys that finds duplicate
    rows (terms, sense and rhs) and rows with the same terms and sense
    (dominated or conflicting): the terms sorted by variable as
    [v:c] joined by [','], then [|sense], then for the first key
    [|rhs].  Every number reads as [Printf]'s [%.12g] prints it. *)
