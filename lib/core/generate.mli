(** Fault-specific test generation — the paper's Fig. 6 scheme.

    For one dictionary fault:

    + for every test configuration, optimize the test parameters against
      a {e weakened} (soft-region) version of the fault — Brent's method
      for single-parameter configurations, Powell's method otherwise;
    + evaluate all optimized candidate tests at the dictionary impact and
      converge the impact: {e relax} it while more than one candidate
      detects, {e intensify} it while none does, until a unique surviving
      test remains.  That survivor is the optimal test; the impact at
      which every other candidate has already failed is the fault's
      {e critical impact level}.

    Faults that stay undetected even at the strongest impact are
    reported as undetectable together with their most sensitive test. *)

type options = {
  soft_factor : float;
      (** weakening factor applied to the dictionary impact before
          optimization (default 3) *)
  optimizer_tol : float;  (** Brent/Powell tolerance (default 1e-3) *)
  powell_max_iter : int;  (** outer Powell sweeps (default 6) *)
  bracket_points : int;  (** coarse pre-scan for Brent (default 8) *)
  impact_span : float;
      (** impact search range around the dictionary value (default 1e3):
          resistances in [R/span, R*span] *)
  max_impact_steps : int;  (** impact walk/bisection budget (default 48) *)
}

val default_options : options

type candidate = {
  cand_config_id : int;
  cand_params : Numerics.Vec.t;
  low_impact_sensitivity : float;
      (** optimized cost against the generation model (the weakened fault;
          the dictionary-impact fault for configurations whose weakened
          cost surface showed no detection signal) *)
  optimizer_evaluations : int;
}

type outcome =
  | Unique of {
      config_id : int;
      params : Numerics.Vec.t;
      critical_impact : float;
          (** model resistance at the detection boundary of the winning
              test *)
      dictionary_sensitivity : float;
          (** sensitivity of the winning test at the dictionary impact *)
    }
  | Undetectable of {
      most_sensitive_config : int;
      params : Numerics.Vec.t;
      best_sensitivity : float;
      strongest_impact : float;
    }

type trace_step = {
  impact : float;
  detecting : int list;  (** configuration ids whose candidate detects *)
}

type result = {
  fault_id : string;
  dictionary_fault : Faults.Fault.t;
  candidates : candidate list;
  outcome : outcome;
  trace : trace_step list;  (** impact-convergence history, in order *)
}

val critical_resolution : float
(** The ratio (1.1) at which the bisection for a winner's critical
    impact stops: two runs whose critical impacts differ by less are
    indistinguishable at the resolution the search resolves. *)

val best_config_id : result -> int
(** Winning configuration id regardless of outcome flavour. *)

val best_params : result -> Numerics.Vec.t

val optimize_candidate :
  ?options:options -> Evaluator.t -> Faults.Fault.t -> candidate
(** Step 1 only: the optimized candidate of one configuration for the
    (already weakened) fault model. *)

val generate :
  ?options:options ->
  evaluators:Evaluator.t list ->
  Faults.Dictionary.entry ->
  result
(** The full Fig. 6 flow.  @raise Invalid_argument on an empty evaluator
    list. *)
