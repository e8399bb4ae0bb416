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
(** Factor a square matrix into a fresh {!lu_workspace} with
    {!factor_in_place}.  The input is not modified.
    @raise Singular if the matrix is numerically singular.
    @raise Invalid_argument if the matrix is not square. *)

val lu_solve : lu -> Vec.t -> Vec.t
(** Solve [A x = b] using a previous factorization of [A], into a fresh
    vector ({!solve_into}).
    @raise Invalid_argument on a dimension mismatch or an unfactored
    workspace. *)

val lu_workspace : int -> lu
(** [lu_workspace n] preallocates a factorization workspace for [n*n]
    systems.  The hot-path pattern is one workspace per analysis,
    refactored in place on every Newton iteration.  The workspace starts
    unfactored; {!solve_into} and {!lu_pivots} reject it until
    {!factor_in_place} succeeds. *)

val factor_in_place : t -> lu -> unit
(** [factor_in_place a ws] factors [a] into [ws] without allocating:
    partial-pivoting Crout elimination, the first row of largest
    magnitude in the column as pivot.  The input matrix is not modified.
    The kernel indexes unchecked inside bounds its entry checks
    establish; its arithmetic, operation order, pivots and {!Singular}
    payloads are pinned bit for bit against a checked reference
    implementation by the test suite.  After a {!Singular} raise the
    workspace is left unfactored.
    @raise Singular if the matrix is numerically singular.
    @raise Invalid_argument on a non-square matrix or size mismatch. *)

val solve_into : lu -> Vec.t -> Vec.t -> unit
(** [solve_into ws b x] solves [A x = b] writing into caller-owned [x]
    ([b] is untouched; [b] and [x] must not alias).
    @raise Invalid_argument on dimension mismatch, aliasing, or an
    unfactored workspace. *)

val lu_pivots : lu -> int array
(** The pivot permutation of a factorization (copied) — row [i] of the
    permuted system came from row [lu_pivots.(i)] of the input. *)

val lu_sign : lu -> int
(** The sign of the pivot permutation, [1] or [-1]. *)

val lu_factors : lu -> float array
(** The packed factors (copied), row-major: the unit lower triangle's
    multipliers below the diagonal, the upper triangle on and above it.
    With {!lu_pivots} and {!lu_sign}, what the kernel tests compare bit
    for bit.  All three raise [Invalid_argument] on an unfactored
    workspace. *)

val solve : t -> Vec.t -> Vec.t
(** [solve a b] factors and solves in one step. *)

val det : t -> float
(** Determinant via LU; [0.] for singular matrices. *)
