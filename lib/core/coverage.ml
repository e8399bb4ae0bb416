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
  (* index evaluators by configuration once — first binding wins, like
     the List.find_opt walk this replaces *)
  let index = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let cid = Evaluator.config_id ev in
      if not (Hashtbl.mem index cid) then Hashtbl.add index cid ev)
    evaluators;
  let evaluator_for cid =
    match Hashtbl.find_opt index cid with
    | Some ev -> ev
    | None ->
        invalid_arg
          (Printf.sprintf "Coverage.evaluate: no evaluator for config #%d" cid)
  in
  let entries = Array.of_list (Faults.Dictionary.entries dictionary) in
  let faults = Array.map (fun e -> e.Faults.Dictionary.fault) entries in
  let test_arr = Array.of_list tests in
  (* One sweep per distinct configuration, created in first-occurrence
     order, covers every (fault, test) pair of that configuration:
     [column.(ti)] is test [ti]'s point in its configuration's sweep.  A
     batched sweep is filled as it is created; a declined one evaluates
     each pair when the fold below reads it, in the fold's order. *)
  let sweeps = Hashtbl.create 16 in
  let column = Array.make (Array.length test_arr) 0 in
  Array.iter
    (fun test ->
      let cid = test.test_config_id in
      if not (Hashtbl.mem sweeps cid) then begin
        let cols = ref [] in
        Array.iteri
          (fun ti t -> if t.test_config_id = cid then cols := ti :: !cols)
          test_arr;
        let cols = Array.of_list (List.rev !cols) in
        Array.iteri (fun pi ti -> column.(ti) <- pi) cols;
        let points = Array.map (fun ti -> test_arr.(ti).test_params) cols in
        Hashtbl.add sweeps cid
          (Evaluator.sweep (evaluator_for cid) ~faults ~points)
      end)
    test_arr;
  let detections =
    Array.to_list
      (Array.mapi
         (fun fi entry ->
           let hits = ref [] and best = ref infinity in
           Array.iteri
             (fun ti test ->
               let s =
                 fst
                   (Evaluator.cell
                      (Hashtbl.find sweeps test.test_config_id)
                      fi column.(ti))
               in
               if Sensitivity.detects s then hits := test.test_label :: !hits;
               best := Float.min !best s)
             test_arr;
           {
             det_fault_id = entry.Faults.Dictionary.fault_id;
             detected_by = List.rev !hits;
             best_sensitivity = !best;
           })
         entries)
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
