(** Fault-coverage evaluation of a concrete test set. *)

type test = {
  test_label : string;  (** e.g. ["tc3-g1"] or a fault id *)
  test_config_id : int;
  test_params : Numerics.Vec.t;
}

type detection = {
  det_fault_id : string;
  detected_by : string list;  (** labels of detecting tests *)
  best_sensitivity : float;  (** most negative sensitivity over the set *)
}

type report = {
  tests : test list;
  detections : detection list;
  covered : int;
  total : int;
}

val percent : report -> float

val missed : report -> string list
(** Fault ids not detected by any test of the set. *)

val evaluate :
  evaluators:Evaluator.t list ->
  Faults.Dictionary.t ->
  test list ->
  report
(** Score every dictionary fault (at its dictionary impact) against
    every test.
    @raise Not_found if a test references a configuration no evaluator
    has. *)

val essential_tests : report -> string list
(** Labels of tests that uniquely detect at least one fault (dropping
    them would lose coverage). *)
