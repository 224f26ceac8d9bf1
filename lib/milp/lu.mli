(** Sparse LU factorization of a simplex basis, with a product-form
    update file.

    [factor] computes a left-looking (Gilbert–Peierls style) sparse LU
    with partial pivoting of the basis matrix [B] whose column [j] is
    the constraint column of the variable basic in position [j]:
    [L·U = P·B] for a row permutation [P].  Each column is eliminated
    only against the earlier pivot steps it actually reaches, taken in
    ascending step order from a min-heap.  After a pivot the
    factorization is extended with a product-form eta instead of being
    recomputed ({!update}); {!needs_refactor} reports when the eta file
    has grown past its cap, accumulated fill, or absorbed a pivot too
    small to be trusted — the caller then refactorizes from scratch.

    Storage is flat: [L], [U] and the eta file are each one
    compressed-sparse-column (CSC) triple of a per-column start offset
    into a shared [int array] of indices and an unboxed [float array]
    of values, grown in place by doubling.  The solves are plain loops
    over those arrays and allocate nothing.  The order of the entries
    inside a column fixes the order of btran's accumulations and is
    kept stable: [L] in reverse order of first touch, [U] by descending
    step, etas by ascending position.

    Vector index conventions (dimension [m] throughout):
    - {!ftran} solves [B·w = b]: input indexed by original row, result
      indexed by basis position.
    - {!btran} solves [Bᵀ·y = c]: input indexed by basis position,
      result indexed by original row. *)

type t

exception Singular
(** Raised by {!factor} when the basis matrix is numerically singular
    (no acceptable pivot in some column). *)

val factor : m:int -> (int -> (int -> float -> unit) -> unit) -> int array -> t
(** [factor ~m col_iter basis] factorizes the [m]×[m] basis whose
    position-[j] column is the column of variable [basis.(j)];
    [col_iter v f] must call [f row coef] for every structural nonzero
    of variable [v]'s column.  Raises {!Singular}. *)

val size : t -> int
(** Dimension [m]. *)

val ftran : t -> float array -> unit
(** [ftran t b] overwrites [b] (length [m], original-row indexed) with
    the solution of [B·w = b], basis-position indexed. *)

val btran : t -> float array -> unit
(** [btran t c] overwrites [c] (length [m], basis-position indexed)
    with the solution of [Bᵀ·y = c], original-row indexed. *)

val update : t -> int -> float array -> unit
(** [update t r w] records that the basic column in position [r] was
    replaced by a column whose ftran image is [w] (basis-position
    indexed, as returned by {!ftran}); [w] is copied.  The spike pivot
    [w.(r)] must be nonzero — a tiny value is accepted but flags the
    factorization as {!needs_refactor}. *)

val eta_count : t -> int
(** Number of product-form updates since the last fresh factorization. *)

val fill : t -> int
(** Nonzeros stored in [L] and [U] (excluding the eta file). *)

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

val dense_l : t -> float array array
(** Unit-lower-triangular [L] in pivot-step coordinates. *)

val dense_u : t -> float array array
(** Upper-triangular [U] in pivot-step coordinates. *)
