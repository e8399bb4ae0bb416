open Numerics

type member = {
  member_fault_id : string;
  member_fault : Faults.Fault.t;
  member_params : Vec.t;
  member_opt_sensitivity : float;
}

type group = {
  group_config_id : int;
  members : member list;
  group_params : Vec.t;
  screened_sensitivities : (string * float) list;
}

type stats = { proposals : int; accepted : int; splits : int }

let acceptance_bound ~delta s_opt = s_opt +. (delta *. (1. -. s_opt))

(* Members are evaluated in order, and the walk stops at the first
   that violates its bound: the members after it are never evaluated. *)
let screen evaluator ~delta members candidate =
  let rec walk acc = function
    | [] -> Some (List.rev acc)
    | m :: rest ->
        let s = Evaluator.sensitivity evaluator m.member_fault candidate in
        if s <= acceptance_bound ~delta m.member_opt_sensitivity then
          walk ((m.member_fault_id, s) :: acc) rest
        else None
  in
  walk [] members

let collapse_config evaluator ~delta ?threshold members =
  if delta < 0. || delta > 1. then
    invalid_arg "Collapse.collapse_config: delta outside [0, 1]";
  let config = Evaluator.config evaluator in
  let params = config.Test_config.params in
  let items =
    List.map
      (fun m -> { Cluster.item_id = m.member_fault_id; location = m.member_params })
      members
  in
  let by_id =
    List.map (fun m -> (m.member_fault_id, m)) members
  in
  let member_of (it : Cluster.item) = List.assoc it.Cluster.item_id by_id in
  let clusters = Cluster.group ~params ?threshold items in
  let proposals = ref 0 and accepted = ref 0 and splits = ref 0 in
  let rec settle cluster =
    let cluster_members = List.map member_of cluster in
    let candidate = Cluster.centroid cluster in
    incr proposals;
    match screen evaluator ~delta cluster_members candidate with
    | Some sens ->
        incr accepted;
        [
          {
            group_config_id = Evaluator.config_id evaluator;
            members = cluster_members;
            group_params = candidate;
            screened_sensitivities = sens;
          };
        ]
    | None -> begin
        match cluster with
        | [] | [ _ ] ->
            (* a singleton can only fail if the evaluation is noisy or the
               centroid clamping moved the point; fall back to the
               member's own optimized parameters, which pass by
               construction *)
            let m = List.map member_of cluster in
            List.map
              (fun mm ->
                {
                  group_config_id = Evaluator.config_id evaluator;
                  members = [ mm ];
                  group_params = mm.member_params;
                  screened_sensitivities =
                    [ (mm.member_fault_id, mm.member_opt_sensitivity) ];
                })
              m
        | _ :: _ :: _ ->
            incr splits;
            let a, b = Cluster.split cluster in
            settle a @ settle b
      end
  in
  let groups = List.concat_map settle clusters in
  (groups, { proposals = !proposals; accepted = !accepted; splits = !splits })
