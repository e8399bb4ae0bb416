type test = {
  test_label : string;
  test_config_id : int;
  test_params : Numerics.Vec.t;
}

type detection = {
  det_fault_id : string;
  detected_by : string list;
  best_sensitivity : float;
}

type report = {
  tests : test list;
  detections : detection list;
  covered : int;
  total : int;
}

let percent r =
  if r.total = 0 then 100.
  else 100. *. float_of_int r.covered /. float_of_int r.total

let missed r =
  List.filter_map
    (fun d -> if d.detected_by = [] then Some d.det_fault_id else None)
    r.detections

let evaluate ~evaluators dictionary tests =
  (* fault-major, tests in order; one evaluator lookup per test *)
  let tests_ev =
    List.map
      (fun test -> (test, Evaluator.find evaluators test.test_config_id))
      tests
  in
  let detections =
    List.map
      (fun entry ->
        let hits = ref [] and best = ref infinity in
        List.iter
          (fun (test, ev) ->
            let s =
              Evaluator.sensitivity ev entry.Faults.Dictionary.fault
                test.test_params
            in
            if Sensitivity.detects s then hits := test.test_label :: !hits;
            best := Float.min !best s)
          tests_ev;
        {
          det_fault_id = entry.Faults.Dictionary.fault_id;
          detected_by = List.rev !hits;
          best_sensitivity = !best;
        })
      (Faults.Dictionary.entries dictionary)
  in
  let covered =
    List.length (List.filter (fun d -> d.detected_by <> []) detections)
  in
  {
    tests;
    detections;
    covered;
    total = Faults.Dictionary.size dictionary;
  }

let essential_tests r =
  List.filter_map
    (fun d ->
      match d.detected_by with [ only ] -> Some only | [] | _ :: _ :: _ -> None)
    r.detections
  |> List.sort_uniq String.compare
