(** Dense real matrices with LU decomposition.

    Row-major storage.  Sized for modified-nodal-analysis systems of a few
    tens of unknowns, where dense partial-pivoting LU is both simplest and
    fastest. *)

type t

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val identity : int -> t

val of_rows : float array array -> t
(** Builds from an array of equal-length rows (copied). *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] increments element [(i,j)] by [x] — the MNA "stamp"
    primitive. *)

val data : t -> float array
(** The row-major storage itself, shared (not copied): element [(i, j)]
    is [data m.(i * cols m + j)].  Lets a stamping kernel accumulate
    into the matrix without a cross-module call per entry. *)

val copy : t -> t
val fill : t -> float -> unit

val mul_vec : t -> Vec.t -> Vec.t
(** Matrix-vector product. *)

val mul : t -> t -> t
(** Matrix-matrix product. *)

val transpose : t -> t

exception Singular of int
(** Raised by factorization when a pivot column is numerically zero; the
    payload is the offending elimination step. *)

type lu
(** A packed LU factorization with its pivot permutation. *)

val lu_factor : t -> lu
(** Factor a square matrix.  The input is not modified.
    @raise Singular if the matrix is numerically singular.
    @raise Invalid_argument if the matrix is not square. *)

val lu_solve : lu -> Vec.t -> Vec.t
(** Solve [A x = b] using a previous factorization of [A]. *)

val lu_workspace : int -> lu
(** [lu_workspace n] preallocates a factorization workspace for [n*n]
    systems.  The hot-path pattern is one workspace per analysis,
    refactored in place on every Newton iteration.  The workspace starts
    unfactored; {!solve_into} and {!lu_pivots} reject it until
    {!factor_in_place} succeeds. *)

val factor_in_place : t -> lu -> unit
(** [factor_in_place a ws] factors [a] into [ws] without allocating.
    The input matrix is not modified.  Arithmetic, pivot order and
    {!Singular} payloads are bit-identical to {!lu_factor}.  After a
    {!Singular} raise the workspace is left unfactored.
    @raise Singular if the matrix is numerically singular.
    @raise Invalid_argument on a non-square matrix or size mismatch. *)

val solve_into : lu -> Vec.t -> Vec.t -> unit
(** [solve_into ws b x] solves [A x = b] writing into caller-owned [x]
    ([b] is untouched; [b] and [x] must not alias).  Bit-identical to
    {!lu_solve}.
    @raise Invalid_argument on dimension mismatch, aliasing, or an
    unfactored workspace. *)

val solve_transpose_into : lu -> Vec.t -> Vec.t -> unit
(** [solve_transpose_into ws b x] solves [A^T x = b] against the same
    held factorization that {!solve_into} uses for [A x = b] — the
    adjoint-sensitivity primitive: one extra pair of triangular sweeps
    per gradient instead of one full re-simulation per parameter.  With
    [P A = L U] the transpose system factors as
    [U^T (L^T (P x)) = b]; the routine forward-substitutes through
    [U^T], back-substitutes through the unit-diagonal [L^T], and undoes
    the row permutation.  [b] is untouched; allocates one scratch
    vector (the adjoint path is once-per-gradient, not once-per-Newton).
    @raise Invalid_argument on dimension mismatch, aliasing, or an
    unfactored workspace. *)

val lu_size : lu -> int

val lu_pivots : lu -> int array
(** The pivot permutation of a factorization (copied) — row [i] of the
    permuted system came from row [lu_pivots.(i)] of the input. *)

val solve : t -> Vec.t -> Vec.t
(** [solve a b] factors and solves in one step. *)

val det : t -> float
(** Determinant via LU; [0.] for singular matrices. *)

val norm_inf : t -> float
(** Maximum absolute row sum. *)

val pp : Format.formatter -> t -> unit
