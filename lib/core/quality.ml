type estimate = {
  overkill_rate : float;
  escape_rate : float;
  fault_free_samples : int;
  worst_sample_margin : float;
}

let estimate ~evaluators ~tests ~fault_free ~dictionary ?weights () =
  if tests = [] then invalid_arg "Quality.estimate: no tests";
  if fault_free = [] then invalid_arg "Quality.estimate: no samples";
  (* overkill: a fault-free sample fails if any test flags it *)
  let failures = ref 0 in
  let worst = ref 0. in
  List.iter
    (fun target ->
      (* one topology per sample, shared by every test's configuration *)
      let topo = Execute.topology target in
      let fails =
        List.exists
          (fun (t : Coverage.test) ->
            let ev = Evaluator.find evaluators t.Coverage.test_config_id in
            let s = Evaluator.sensitivity_at ev topo t.Coverage.test_params in
            (* margin |dev|/box = 1 - S *)
            worst := Float.max !worst (1. -. s);
            Sensitivity.detects s)
          tests
      in
      if fails then incr failures)
    fault_free;
  (* escape: dictionary faults no test detects, weighted *)
  let detections = Coverage.evaluate ~evaluators dictionary tests in
  let weight_of =
    match weights with
    | None -> fun _ -> 1.
    | Some ws -> fun fid -> Option.value ~default:0. (List.assoc_opt fid ws)
  in
  let total_w = ref 0. and escaped_w = ref 0. in
  List.iter
    (fun (d : Coverage.detection) ->
      let w = weight_of d.Coverage.det_fault_id in
      total_w := !total_w +. w;
      if d.Coverage.detected_by = [] then escaped_w := !escaped_w +. w)
    detections.Coverage.detections;
  {
    overkill_rate =
      float_of_int !failures /. float_of_int (List.length fault_free);
    escape_rate = (if !total_w <= 0. then 0. else !escaped_w /. !total_w);
    fault_free_samples = List.length fault_free;
    worst_sample_margin = !worst;
  }

let report e =
  Printf.sprintf
    "quality estimate over %d fault-free process samples:\n\
    \  overkill (good die failing):   %.2f%%\n\
    \  test escape (defect shipping): %.2f%% of modelled-defect likelihood\n\
    \  worst fault-free margin:       %.2f of the box (1.0 = at the limit)\n"
    e.fault_free_samples
    (100. *. e.overkill_rate)
    (100. *. e.escape_rate)
    e.worst_sample_margin
