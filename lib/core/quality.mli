(** Production quality estimation for a test set.

    The tolerance-box construction (paper §2.2) trades two production
    risks: {e overkill} (a fault-free die outside the guardbanded box
    fails the test) and {e test escape} (a defective die whose response
    stays inside every box ships).  This module estimates both for a
    concrete test set: overkill by Monte-Carlo over fault-free process
    samples, escape from the dictionary detection results, optionally
    defect-likelihood weighted. *)

type estimate = {
  overkill_rate : float;
      (** fraction of fault-free samples failing at least one test *)
  escape_rate : float;
      (** (weighted) fraction of dictionary faults passing every test *)
  fault_free_samples : int;
  worst_sample_margin : float;
      (** max over samples and tests of |deviation|/box — how close the
          healthiest process corner comes to failing (1 = at the limit) *)
}

val estimate :
  evaluators:Evaluator.t list ->
  tests:Coverage.test list ->
  fault_free:Execute.target list ->
  dictionary:Faults.Dictionary.t ->
  ?weights:(string * float) list ->
  unit ->
  estimate
(** [fault_free] are targets built at Monte-Carlo process points;
    [weights] default to uniform over the dictionary.
    @raise Invalid_argument on an empty test or sample list.
    @raise Not_found if a test references a configuration no evaluator
    has. *)

val report : estimate -> string
(** Short human-readable summary. *)
