(** Dense vectors of floats.

    Thin, allocation-explicit helpers over [float array] used by the
    linear-algebra and optimization code.  All binary operations require
    equal lengths and raise [Invalid_argument] otherwise. *)

type t = float array

val create : int -> float -> t
(** [create n x] is a vector of [n] copies of [x]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [| f 0; ...; f (n-1) |]. *)

val copy : t -> t

val dim : t -> int

val add : t -> t -> t
(** Element-wise sum. *)

val sub : t -> t -> t
(** Element-wise difference. *)

val scale : float -> t -> t
(** [scale a v] multiplies every component by [a]. *)

val axpy : float -> t -> t -> t
(** [axpy a x y] is [a*x + y], freshly allocated. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
(** Maximum absolute component; [0.] for the empty vector. *)

val dist_inf : t -> t -> float
(** [dist_inf x y = norm_inf (sub x y)]. *)

val dist_inf_prefix : len:int -> t -> t -> float
(** [dist_inf_prefix ~len x y] is the largest [|x.(i) -. y.(i)|] over
    [i < len]: {!dist_inf} of the first [len] components.  These
    maxima give the bits a fold of [Float.max] over [Float.abs] gives, a
    NaN component included, without its calls into the C runtime.
    @raise Invalid_argument if either vector is shorter than [len]. *)

val map2 : (float -> float -> float) -> t -> t -> t

val clamp : lower:t -> upper:t -> t -> t
(** Component-wise clamp of a point into a box. *)

val pp : Format.formatter -> t -> unit
(** Prints as [[v0; v1; ...]] with short float formatting. *)
