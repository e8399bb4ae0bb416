type fault_comparison = {
  cmp_fault_id : string;
  seed_detects : bool;
  seed_best_sensitivity : float;
  seed_critical_impact : float option;
  optimized_critical_impact : float option;
}

type summary = {
  comparisons : fault_comparison list;
  seed_covered : int;
  optimized_covered : int;
  total : int;
  median_impact_gain : float;
}

let seed_tests configs =
  List.map
    (fun (c : Test_config.t) ->
      {
        Coverage.test_label = Printf.sprintf "seed-tc%d" c.Test_config.config_id;
        test_config_id = c.Test_config.config_id;
        test_params = Test_config.param_values_of_seed c;
      })
    configs

(* The fault's sensitivity under every seed test, in test order.  Every
   test is evaluated, even after one detects: the detect verdict and the
   best sensitivity are order-free reductions over all of them. *)
let test_sensitivities ~evaluators ~tests fault =
  Array.map
    (fun (t : Coverage.test) ->
      Evaluator.sensitivity
        (Evaluator.find evaluators t.Coverage.test_config_id)
        fault t.Coverage.test_params)
    (Array.of_list tests)

let set_detects ~evaluators ~tests fault =
  Array.exists Sensitivity.detects (test_sensitivities ~evaluators ~tests fault)

let best_sensitivity ~evaluators ~tests fault =
  Array.fold_left Float.min infinity
    (test_sensitivities ~evaluators ~tests fault)

let critical_impact_of_tests ~evaluators ~tests fault ?(span = 1e3)
    ?(steps = 40) () =
  let r_dict = Faults.Fault.impact_resistance fault in
  let r_min = r_dict /. span and r_max = r_dict *. span in
  let detects r =
    set_detects ~evaluators ~tests (Faults.Fault.with_impact fault r)
  in
  let budget = ref steps in
  let spend () = decr budget; !budget >= 0 in
  (* find a detecting impact *)
  let rec find_detect r =
    if detects r then Some r
    else if r <= r_min || not (spend ()) then None
    else find_detect (r /. 2.)
  in
  match find_detect r_dict with
  | None -> None
  | Some r_detect ->
      (* walk up while still detecting *)
      let rec walk_up r =
        if r >= r_max || not (spend ()) then (r, None)
        else begin
          let r' = r *. 2. in
          if detects r' then walk_up r' else (r, Some r')
        end
      in
      let r_lo, r_hi = walk_up r_detect in
      (match r_hi with
      | None -> Some r_lo  (* detects across the whole range *)
      | Some hi ->
          let lo = ref r_lo and hi = ref hi in
          while !hi /. !lo > 1.1 && spend () do
            let mid = sqrt (!lo *. !hi) in
            if detects mid then lo := mid else hi := mid
          done;
          Some (sqrt (!lo *. !hi)))

let compare ~evaluators dictionary run =
  let configs = List.map Evaluator.config evaluators in
  let tests = seed_tests configs in
  let opt_by_fault =
    List.map
      (fun r ->
        ( r.Generate.fault_id,
          match r.Generate.outcome with
          | Generate.Unique { critical_impact; _ } -> Some critical_impact
          | Generate.Undetectable _ -> None ))
      run.Engine.results
  in
  let comparisons =
    List.map
      (fun entry ->
        let fault = entry.Faults.Dictionary.fault in
        let fid = entry.Faults.Dictionary.fault_id in
        {
          cmp_fault_id = fid;
          seed_detects = set_detects ~evaluators ~tests fault;
          seed_best_sensitivity = best_sensitivity ~evaluators ~tests fault;
          seed_critical_impact =
            critical_impact_of_tests ~evaluators ~tests fault ();
          optimized_critical_impact =
            Option.join (List.assoc_opt fid opt_by_fault);
        })
      (Faults.Dictionary.entries dictionary)
  in
  let seed_covered =
    List.length (List.filter (fun c -> c.seed_detects) comparisons)
  in
  let optimized_covered =
    List.length
      (List.filter
         (fun c -> Option.is_some c.optimized_critical_impact)
         comparisons)
  in
  let gains =
    List.filter_map
      (fun c ->
        match (c.optimized_critical_impact, c.seed_critical_impact) with
        | Some o, Some s when s > 0. -> Some (o /. s)
        | Some _, None -> None  (* infinite gain; excluded from the median *)
        | None, _ -> None
        | Some _, Some _ -> None)
      comparisons
  in
  let median_impact_gain =
    match gains with
    | [] -> 1.
    | _ -> Numerics.Stats.median (Array.of_list gains)
  in
  {
    comparisons;
    seed_covered;
    optimized_covered;
    total = Faults.Dictionary.size dictionary;
    median_impact_gain;
  }
