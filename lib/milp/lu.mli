(** Sparse LU factorization of a simplex basis, with a product-form
    update file.

    [factor] computes a left-looking (Gilbert–Peierls style) sparse LU
    of the basis matrix [B] whose column [j] is the constraint column
    of the variable basic in position [j]: [L·U = P·B·Q] for a row
    permutation [P] and a column permutation [Q].  [Q] is fill-reducing:
    basis positions by ascending nonzero count (stable, ties by
    position), so unit slack and artificial columns pivot first on
    their own rows.  [P] is threshold partial pivoting with [u = 0.1]:
    among the rows whose remaining entry is at least [u] times the
    column's largest, the one with the fewest basis nonzeros, which
    bounds every [L] multiplier by [1/u = 10].  Each column is
    eliminated only against the earlier pivot steps it actually
    reaches, taken in ascending step order from a min-heap.  After a
    pivot the factorization is extended with a product-form eta
    instead of being recomputed ({!update}); {!needs_refactor} reports
    when the eta file has grown past its cap, accumulated fill, or
    absorbed a pivot too small to be trusted — the caller then
    refactorizes from scratch.

    Storage is flat: [L], [U] and the eta file are each one
    compressed-sparse-column (CSC) triple of a per-column start offset
    into a shared [int array] of indices and an unboxed [float array]
    of values, grown in place by doubling.  A {!t} is the storage of
    one factorization: {!factor} overwrites it in place and keeps every
    capacity its arrays have reached, the eta file's included.  So a
    refactorization does not double its storage up from the initial
    sizes again, and once the arrays have reached their working sizes
    it allocates nothing.  A caller that must keep its factorization
    when a new one fails factors into a second [t] and swaps the two
    on success.  The solves are plain loops over
    those arrays and allocate nothing.  The order of the entries
    inside a column fixes the order of btran's accumulations and is
    kept stable: [L] in reverse order of first touch, [U] by descending
    step, etas by ascending position.

    Vector index conventions (dimension [m] throughout):
    - {!ftran} solves [B·w = b]: input scattered by original row,
      result indexed by basis position.
    - {!btran} solves [Bᵀ·y = c]: input indexed by basis position,
      result indexed by original row. *)

type t

exception Singular
(** Raised by {!factor} when the basis matrix is numerically singular
    (no acceptable pivot in some column). *)

val create : int -> t
(** [create m] is storage for a factorization of an [m]×[m] basis.  It
    holds no factorization until {!factor} succeeds on it. *)

val factor : t -> (int -> (int -> float -> unit) -> unit) -> int array -> unit
(** [factor t col_iter basis] factorizes into [t] the basis whose
    position-[j] column is the column of variable [basis.(j)];
    [col_iter v f] must call [f row coef] for every structural nonzero
    of variable [v]'s column.  It replaces [t]'s factorization and
    empties its eta file.  Raises {!Singular}; [t] then holds no
    factorization until the next [factor] on it succeeds, and every
    other [t] is untouched. *)

val size : t -> int
(** Dimension [m]. *)

val ftran : t -> ((int -> float -> unit) -> unit) -> float array -> unit
(** [ftran t rhs w] writes into [w] (length [m], basis-position
    indexed, all [m] entries) the solution of [B·w = b].  [rhs set]
    describes [b] by calling [set i b_i] for rows [i]: each call stores
    [b_i] straight into the solve's step-space vector at row [i]'s
    pivot step, a later call for the same row replacing an earlier
    one, and every row it does not set is [+0.].  [rhs] may read [w]:
    the solve writes [w] only after [rhs] returns. *)

val btran : t -> float array -> unit
(** [btran t c] overwrites [c] (length [m], basis-position indexed)
    with the solution of [Bᵀ·y = c], original-row indexed. *)

val btran_unit : t -> int -> float array -> int array -> int
(** [btran_unit t r rho nz] writes into [rho] (length [m], all [m]
    entries, original-row indexed) row [r] of [B⁻¹], the simplex pivot
    row: the solution of [Bᵀ·y = e_r].  It lists [rho]'s nonzero rows
    in ascending order in [nz.(0 .. n-1)] (length at least [m]) and
    returns [n].  Every entry has the bits {!btran} gives for [e_r].
    The transposed etas of [e_r] write only their own positions, so the
    vector has at most one nonzero per eta applied so far besides [r];
    an eta whose positions meet none of them skips its dot product and
    only divides its own entry by its pivot.  The [Uᵀ] and [Lᵀ] sweeps
    are {!btran}'s; the result is gathered through the inverse row
    permutation, so the nonzero rows are listed in the same pass. *)

val update : t -> int -> float array -> int array -> int -> unit
(** [update t r w nz n] records that the basic column in position [r]
    was replaced by a column whose ftran image is [w] (basis-position
    indexed, as written by {!ftran}); [nz.(0 .. n-1)] lists, in
    ascending order, positions of [w] that include every nonzero one,
    and only those are read.  [w]'s entries are copied.  The spike
    pivot [w.(r)] must be nonzero — a tiny value is accepted but flags
    the factorization as {!needs_refactor}. *)

val eta_count : t -> int
(** Number of product-form updates since the last fresh factorization. *)

val fill : t -> int
(** Nonzeros stored in [L] and [U], the diagonal included (excluding
    the eta file). *)

val unstable : t -> bool
(** True once some eta pivot was small enough to endanger accuracy. *)

val needs_refactor : ?cap:int -> t -> bool
(** True when the update file is no longer trustworthy or economical:
    [eta_count >= cap] (default 64), eta fill has outgrown the factor
    fill, or some eta pivot was dangerously small. *)

(** {2 Test accessors}

    Dense reconstructions for the property-test suite; O(m²). *)

val perm : t -> int array
(** [perm t].(k) is the original row chosen as pivot at step [k]. *)

val col_perm : t -> int array
(** [col_perm t].(k) is the basis position factored at step [k]. *)

val dense_l : t -> float array array
(** Unit-lower-triangular [L] in pivot-step coordinates. *)

val dense_u : t -> float array array
(** Upper-triangular [U] in pivot-step coordinates. *)
