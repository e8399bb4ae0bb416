(** The test-parameter sensitivity cost function (paper §3.1).

    For a single return value,
    [S_f(T) = 1 - |delta r(T)| / box(T)]:
    positive where the fault model is classified undetectable, negative
    where detection will occur, and exactly 1 at zero deviation — the
    paper's "insensitivity has cost value 1".  For [p] return values the
    minimum of the individual sensitivities is taken, so any single
    return value leaving its box means detection. *)

val of_deviation : deviation:float -> box:float -> float
(** [1 - |deviation| / box].  @raise Invalid_argument if [box <= 0]. *)

val combine : float array -> float
(** Minimum over per-return-value sensitivities (the paper's extension
    to p return values).  @raise Invalid_argument on an empty array. *)

val compute :
  Test_config.t ->
  box:float array ->
  nominal:float array ->
  faulty:float array ->
  float
(** Full pipeline: deviations per return value, each scaled by its box,
    combined with {!combine}. *)

val detects : float -> bool
(** [s < 0.] — the faulty response is guaranteed outside the tolerance
    box. *)
