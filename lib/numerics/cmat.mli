(** Dense complex matrices with LU decomposition, for small-signal AC
    analysis.  Mirrors the {!Mat} API for [Complex.t] elements. *)

type t

val create : int -> int -> t
(** Zero matrix. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit

val add_to : t -> int -> int -> Complex.t -> unit
(** Stamp primitive: increment element [(i,j)]. *)

val fill : t -> Complex.t -> unit
(** Overwrite every element — [fill m Complex.zero] resets a reused
    small-signal workspace before restamping. *)

val mul_vec : t -> Complex.t array -> Complex.t array

val transpose : t -> t
(** Plain transpose (no conjugation) — used by adjoint noise analysis. *)

exception Singular of int

val solve : t -> Complex.t array -> Complex.t array
(** Solve [A x = b] by partial-pivoting LU (pivot on modulus).
    @raise Singular when a pivot vanishes. *)
