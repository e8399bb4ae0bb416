type compact_test = {
  ct_label : string;
  ct_config_id : int;
  ct_params : Numerics.Vec.t;
  ct_fault_ids : string list;
}

type result = {
  compact_tests : compact_test list;
  groups : Collapse.group list;
  stats : Collapse.stats;
  original_test_count : int;
  coverage : Coverage.report;
}

let members_of_run run ~config_id =
  (* one evaluator lookup per call, not one per result row *)
  let ev = lazy (Evaluator.find run.Engine.evaluators config_id) in
  Engine.results_for_config run ~config_id
  |> List.map (fun r ->
         match r.Generate.outcome with
         | Generate.Unique
             { params; critical_impact; dictionary_sensitivity = _; _ } ->
             let ev = Lazy.force ev in
             let fault_at_critical =
               Faults.Fault.with_impact r.Generate.dictionary_fault
                 critical_impact
             in
             (* the optimal sensitivity at the critical impact: evaluated
                once here so the collapse screen compares like for like *)
             let s_opt = Evaluator.sensitivity ev fault_at_critical params in
             {
               Collapse.member_fault_id = r.Generate.fault_id;
               member_fault = fault_at_critical;
               member_params = params;
               member_opt_sensitivity = s_opt;
             }
         | Generate.Undetectable
             { params; best_sensitivity; strongest_impact; _ } ->
             {
               Collapse.member_fault_id = r.Generate.fault_id;
               member_fault =
                 Faults.Fault.with_impact r.Generate.dictionary_fault
                   strongest_impact;
               member_params = params;
               member_opt_sensitivity = best_sensitivity;
             })

let compact ?(delta = 0.1) ?threshold ~evaluators dictionary run =
  let zero = { Collapse.proposals = 0; accepted = 0; splits = 0 } in
  let groups, stats =
    List.fold_left
      (fun (groups, stats) ev ->
        let config_id = Evaluator.config_id ev in
        let members = members_of_run run ~config_id in
        if members = [] then (groups, stats)
        else begin
          let g, s = Collapse.collapse_config ev ~delta ?threshold members in
          ( groups @ g,
            {
              Collapse.proposals = stats.Collapse.proposals + s.Collapse.proposals;
              accepted = stats.Collapse.accepted + s.Collapse.accepted;
              splits = stats.Collapse.splits + s.Collapse.splits;
            } )
        end)
      ([], zero) evaluators
  in
  let counter = Hashtbl.create 8 in
  let compact_tests =
    List.map
      (fun (g : Collapse.group) ->
        let n =
          1 + Option.value ~default:0 (Hashtbl.find_opt counter g.Collapse.group_config_id)
        in
        Hashtbl.replace counter g.Collapse.group_config_id n;
        {
          ct_label = Printf.sprintf "tc%d-g%d" g.Collapse.group_config_id n;
          ct_config_id = g.Collapse.group_config_id;
          ct_params = g.Collapse.group_params;
          ct_fault_ids =
            List.map (fun m -> m.Collapse.member_fault_id) g.Collapse.members;
        })
      groups
  in
  let coverage =
    Coverage.evaluate ~evaluators dictionary
      (List.map
         (fun ct ->
           {
             Coverage.test_label = ct.ct_label;
             test_config_id = ct.ct_config_id;
             test_params = ct.ct_params;
           })
         compact_tests)
  in
  {
    compact_tests;
    groups;
    stats;
    original_test_count = List.length run.Engine.results;
    coverage;
  }

let compaction_ratio r =
  if r.compact_tests = [] then 1.
  else
    float_of_int r.original_test_count
    /. float_of_int (List.length r.compact_tests)
