(** Sparse real matrices with a fixed stamp pattern and sparse LU.

    The sparse counterpart of {!Mat} for modified-nodal-analysis systems
    beyond a few tens of unknowns.  A matrix is created once from the
    union of every index pair its stamps can touch (the compile phase of
    the compile-once/restamp-many hot path); {!add_to} then hits a
    precompiled CSR slot by binary search, and {!clear} resets the values
    without touching the pattern.

    The factorization is a right-looking row-major LU with partial
    pivoting that performs the {e same pivot choices and the same
    per-entry update sequence} as {!Mat.factor_in_place}, merely skipping
    the structurally-zero work — so factors and solves are
    bit-identical to the dense path on any pattern.  That is the
    contract that lets the dense and sparse backends produce identical
    detect verdicts and session bytes; it is pinned by the QCheck parity
    suite.

    {!refactor} rides on the factorization: numeric-only
    refactorization reusing the row pattern, fill and pivot order held
    from a previous {!factor_in_place}, through a replay schedule
    compiled once per matrix pattern.  A max-pivot guard verifies the
    held pivot sequence is still what a fresh factorization would
    choose, so a successful refactor is bit-identical to a fresh factor
    (and therefore history-independent); a guard miss returns [false]
    and the caller pays the full symbolic+numeric pass.  The natural MNA
    ordering is kept throughout: a fill-reducing reordering would change
    the pivot sequence and break cross-backend bit-identity. *)

type t
(** A square sparse matrix: fixed CSR pattern, mutable values. *)

val create : int -> (int * int) list -> t
(** [create n entries] is the [n*n] zero matrix whose pattern is the
    given index pairs (duplicates ignored).
    @raise Invalid_argument on a negative size or out-of-range pair. *)

val of_dense : Mat.t -> t
(** Pattern = nonzero entries plus the full diagonal; values copied.
    @raise Invalid_argument if the matrix is not square. *)

val size : t -> int

val nnz : t -> int
(** Number of pattern slots (stored entries, zero or not). *)

val clear : t -> unit
(** Zero all values; the pattern is untouched. *)

val values : t -> float array
(** The values themselves, one per pattern slot in CSR order, shared
    (not copied). *)

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] increments slot [(i,j)] — the MNA stamp primitive.
    @raise Invalid_argument if [(i,j)] is outside the pattern. *)

val set : t -> int -> int -> float -> unit
(** @raise Invalid_argument if [(i,j)] is outside the pattern. *)

val get : t -> int -> int -> float
(** [0.] for an in-range index pair outside the pattern. *)

val mul_vec : t -> Vec.t -> Vec.t

val to_dense : t -> Mat.t

type lu
(** A sparse LU workspace: packed row-major L\U factor with its pivot
    permutation, plus the held pattern, fill and L column view that
    {!refactor} replays. *)

val lu_workspace : int -> lu
(** Preallocates an (unfactored, pattern-less) workspace.  Row storage
    grows on first factorization and is reused afterwards, so the
    restamp-many loop settles into zero allocation. *)

val lu_pivots : lu -> int array
(** The pivot permutation (copied) — same convention as
    {!Mat.lu_pivots}.  @raise Invalid_argument if unfactored. *)

val factor_in_place : t -> lu -> unit
(** Full symbolic + numeric factorization: discovers fill, chooses
    pivots by the dense partial-pivoting rule, and leaves the pattern
    held for {!refactor}.  Pivot choices, [Singular] payloads and every
    float of the factor are bit-identical to {!Mat.factor_in_place} on
    the dense expansion of the matrix.  After a raise the workspace is
    left unfactored and pattern-less.
    @raise Mat.Singular if the matrix is numerically singular.
    @raise Invalid_argument on a size mismatch. *)

val refactor : t -> lu -> bool
(** [refactor a ws] redoes the numeric factorization on the pattern,
    fill and pivot order held from a previous {!factor_in_place} —
    the restamp-many fast path, skipping symbolic analysis and all fill
    bookkeeping.  The guard re-runs the pivot scan at every step: if the
    held pivot row is still the one fresh partial pivoting would select
    — the strict maximum of its column, since a tie is broken by a row
    order the held pattern does not track — the replay is bit-identical
    to {!factor_in_place}; otherwise (or on
    a numerically singular column, when no pattern is held, or when [a]
    has an entry outside the held factor's pattern) it returns [false]
    without raising, and the caller must fall back to
    {!factor_in_place}.  Either way the result observable through the
    solve API is exactly the fresh factorization's — refactorization is
    a pure optimization, invisible to results.  The replay schedule is
    compiled against [a]'s pattern on the first refactor of a matrix
    other than the one last compiled for, so any matrix with a
    compatible pattern replays through the same arithmetic. *)

val solve_into : lu -> Vec.t -> Vec.t -> unit
(** Bit-identical to {!Mat.solve_into} against the dense factorization
    of the same matrix.
    @raise Invalid_argument on dimension mismatch, aliasing, or an
    unfactored workspace. *)

type stats = {
  full_factorizations : int;  (** symbolic+numeric passes *)
  pattern_reuses : int;  (** successful {!refactor} replays *)
  factor_nnz : int;  (** stored entries of the held L\U factor *)
}

val stats : lu -> stats
(** Lifetime counters and current fill of a workspace. *)
