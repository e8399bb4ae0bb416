(** Tolerance-box estimation ("box functions").

    A fault can only be detected when the faulty return value leaves the
    window that "safely boxes in expectable response values based on
    known variations on process parameters" plus "the accuracy
    specifications of test equipment" (paper §2.2).

    Following §3.3 ("for each test configuration a function is available
    estimating the tolerance box value(s) for any parameter value set"),
    the box is {e calibrated once} per configuration: the deviation of
    every process corner from the nominal response is measured on a
    lattice of parameter values, enveloped, inflated by a guardband, and
    afterwards interpolated multilinearly for arbitrary parameter values.
    The tester accuracy floor bounds the box from below. *)

type t

val calibrate :
  ?profile:Execute.profile ->
  ?grid:int ->
  Test_config.t ->
  nominal:Execute.target ->
  corners:Execute.target list ->
  unit ->
  t
(** [grid] (default 3) is the number of lattice points per parameter
    axis.  Each lattice point's box is 1.25 (the guardband) times the
    largest absolute deviation of a corner from the nominal response.
    Corners that fail to simulate at some lattice point are skipped at
    that point (a corner so extreme it breaks the solver would be
    screened out at production test anyway).
    @raise Invalid_argument if [grid < 2] or [corners] is empty.
    @raise Execute.Execution_failure if the {e nominal} circuit fails. *)

val box : t -> Numerics.Vec.t -> float array
(** Tolerance-box half-widths (one per return value) at a parameter
    value set, clamped below by the configuration's accuracy floor.
    Values outside the lattice are clamped onto it. *)

val config : t -> Test_config.t

val lattice_points : t -> Numerics.Vec.t list
(** The calibration lattice (diagnostics and tests). *)

val floor_only :
  Test_config.t -> t
(** A degenerate model whose box is just the tester accuracy floor —
    useful for unit tests and for idealized what-if studies. *)
