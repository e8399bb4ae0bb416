open Testgen

type topology =
  | Rc_ladder of int
  | Ota
  | Sallen_key
  | Sk_chain of int
  | Ota_cascade of int

type spec = {
  topology : topology;
  fault_count : int;
  bridge_weight : int;
  config_count : int;
  params : int;
  levels : int;
  floor_exp : int;
  value_seed : int;
}

let minimal =
  {
    topology = Rc_ladder 1;
    fault_count = 1;
    bridge_weight = 100;
    config_count = 1;
    params = 1;
    levels = 1;
    floor_exp = 2;
    value_seed = 0;
  }

let topology_to_string = function
  | Rc_ladder n -> Printf.sprintf "rc%d" n
  | Ota -> "ota"
  | Sallen_key -> "sk"
  | Sk_chain n -> Printf.sprintf "skc%d" n
  | Ota_cascade n -> Printf.sprintf "otac%d" n

let to_string s =
  Printf.sprintf "%s/f%d/bw%d/c%d/p%d/l%d/e%d/v%d"
    (topology_to_string s.topology)
    s.fault_count s.bridge_weight s.config_count s.params s.levels
    s.floor_exp s.value_seed

(* The spec's contribution to scenario cost, used to order shrink
   candidates and guarantee shrink termination (every candidate is
   strictly smaller). *)
let size s =
  let topo =
    match s.topology with
    | Rc_ladder n -> n
    | Ota -> 10
    | Sallen_key -> 14
    | Sk_chain n -> 16 + (4 * n)
    | Ota_cascade n -> 16 + (2 * n)
  in
  topo + (4 * s.fault_count) + s.config_count + s.params + s.levels
  + s.floor_exp
  + (if s.bridge_weight < 100 then 2 else 0)
  + if s.value_seed <> 0 then 1 else 0

let macro_of_topology = function
  | Rc_ladder n -> Macros.Rc_ladder.macro ~sections:n
  | Ota -> Macros.Ota.macro
  | Sallen_key -> Macros.Sallen_key.macro
  | Sk_chain n -> Macros.Filter_chain.sk_chain ~stages:n
  | Ota_cascade n -> Macros.Filter_chain.ota_cascade ~stages:n

(* Stimulus range the macro accepts at its control node (input
   common-mode range for the active macros; the linear chains pass DC
   straight through, so any range works). *)
let stimulus_range = function
  | Rc_ladder _ | Sk_chain _ | Ota_cascade _ -> (1.0, 4.0)
  | Ota -> (1.2, 3.8)
  | Sallen_key -> (1.5, 3.5)

(* -- deterministic build ------------------------------------------------ *)

(* Everything below is a pure function of the spec: value draws come from
   Rng streams keyed by the spec's own value_seed, never by the campaign
   seed, so a shrunk spec reproduces its scenario exactly. *)

let value_rng s key = Numerics.Rng.of_key ~seed:(Int64.of_int s.value_seed) ~key

let configs_of_spec s macro =
  let lo, hi = stimulus_range s.topology in
  let control_node = match s.topology with Ota -> "inp" | _ -> "in" in
  List.init s.config_count (fun j ->
      let rng = value_rng s (Printf.sprintf "config.%d" j) in
      (* a sub-range of the stimulus window, wide enough for Brent *)
      let a = Numerics.Rng.uniform rng ~lo ~hi in
      let b = Numerics.Rng.uniform rng ~lo ~hi in
      let plo = Float.min a b and phi = Float.max a b in
      let plo, phi =
        if phi -. plo < 0.5 *. (hi -. lo) then
          let mid = 0.5 *. (plo +. phi) in
          let half = 0.25 *. (hi -. lo) in
          (Float.max lo (mid -. half), Float.min hi (mid +. half))
        else (plo, phi)
      in
      let seed_v = 0.5 *. (plo +. phi) in
      let step = (phi -. plo) /. float_of_int (s.levels + 1) in
      let floor_v = 10. ** float_of_int (-s.floor_exp) in
      (* with two parameters the level spacing is the second one, so the
         optimizer takes its multi-parameter arm (lattice sweep, then
         Powell) *)
      let start =
        Test_param.create ~name:"v" ~units:"V" ~lower:plo ~upper:phi
          ~seed:seed_v
      in
      let params, spacing =
        if s.params = 1 then ([ start ], fun _ -> step)
        else
          ( [
              start;
              Test_param.create ~name:"dv" ~units:"V" ~lower:(0.5 *. step)
                ~upper:(2. *. step) ~seed:step;
            ],
            fun v -> v.(1) )
      in
      Test_config.create ~id:(900 + j)
        ~name:(Printf.sprintf "Fuzz DC sweep %d" j)
        ~macro_type:macro.Macros.Macro.macro_type
        ~control_node ~params
        ~analysis:
          (Test_config.Dc_levels
             (fun v ->
               List.init s.levels (fun k ->
                   let lvl =
                     Float.min phi (v.(0) +. (float_of_int k *. spacing v))
                   in
                   Circuit.Waveform.Dc lvl)))
        ~returns:Test_config.Per_component
        ~return_names:(List.init s.levels (Printf.sprintf "V(out)@%d"))
        ~accuracy_floor:(List.init s.levels (fun _ -> floor_v))
        ~summary:"fuzzed dc levels at the control node")

let dictionary_of_spec s macro =
  let universe = Macros.Macro.fault_universe macro in
  let bridges, pinholes =
    List.partition
      (fun f -> Faults.Fault.kind f = `Bridge)
      universe
  in
  let rng = value_rng s "faults" in
  let pick pool =
    match !pool with
    | [] -> None
    | l ->
        let i = Numerics.Rng.int rng ~bound:(List.length l) in
        let f = List.nth l i in
        pool := List.filteri (fun j _ -> j <> i) l;
        Some f
  in
  let bridges = ref bridges and pinholes = ref pinholes in
  let rec draw acc n =
    if n = 0 then List.rev acc
    else
      let want_bridge = Numerics.Rng.int rng ~bound:100 < s.bridge_weight in
      let first, second =
        if want_bridge then (bridges, pinholes) else (pinholes, bridges)
      in
      match pick first with
      | Some f -> draw (f :: acc) (n - 1)
      | None -> (
          match pick second with
          | Some f -> draw (f :: acc) (n - 1)
          | None -> List.rev acc)
  in
  (* dictionary order is universe order, not draw order, so the engine's
     fault ordering stays stable under shrinking *)
  let chosen = draw [] s.fault_count in
  let in_chosen f = List.exists (Faults.Fault.equal_site f) chosen in
  Faults.Dictionary.of_faults (List.filter in_chosen universe)

type built = {
  spec : spec;
  macro : Macros.Macro.t;
  configs : Test_config.t list;
  dictionary : Faults.Dictionary.t;
  evaluators : Evaluator.t list;
}

let build ?backend s =
  let macro = macro_of_topology s.topology in
  let configs = configs_of_spec s macro in
  let dictionary = dictionary_of_spec s macro in
  let nominal =
    Experiments.Setup.target_of_macro macro Macros.Process.nominal
  in
  let evaluators =
    Evaluator.create_all ~profile:Execute.fast_profile ?backend
      ~nominal
      (List.map (fun config -> (config, Tolerance.floor_only config)) configs)
  in
  { spec = s; macro; configs; dictionary; evaluators }

(* Reduced optimizer budgets: fuzz campaigns trade optimality for
   scenario throughput — the invariants under test do not depend on how
   tight the optimum is. *)
let generate_options =
  {
    Generate.default_options with
    Generate.bracket_points = 4;
    optimizer_tol = 1e-2;
    powell_max_iter = 2;
    max_impact_steps = 16;
  }

(* -- generation --------------------------------------------------------- *)

let gen rng =
  let topology =
    (* RC ladders dominate: they solve fast, so campaigns spend most of
       their budget on scenario diversity rather than Newton iterations.
       The filter chains reach 64+ node netlists (Sk_chain 16 is a
       49-node/66-unknown system, Ota_cascade 32 a 65-node one). *)
    let d = Numerics.Rng.int rng ~bound:12 in
    if d < 7 then Rc_ladder (1 + Numerics.Rng.int rng ~bound:4)
    else if d < 8 then Sk_chain (1 + Numerics.Rng.int rng ~bound:16)
    else if d < 9 then Ota_cascade (1 + Numerics.Rng.int rng ~bound:32)
    else if d < 11 then Ota
    else Sallen_key
  in
  let spec =
    {
      topology;
      fault_count = 1 + Numerics.Rng.int rng ~bound:4;
      bridge_weight = 25 * Numerics.Rng.int rng ~bound:5;
      config_count = 1 + Numerics.Rng.int rng ~bound:2;
      params = 1;
      levels = 1 + Numerics.Rng.int rng ~bound:2;
      floor_exp = 2 + Numerics.Rng.int rng ~bound:3;
      value_seed = Numerics.Rng.int rng ~bound:10_000;
    }
  in
  (* drawn after the record, whose field expressions OCaml evaluates in
     an unspecified order, so no other field's draw depends on it *)
  { spec with params = 1 + Numerics.Rng.int rng ~bound:2 }

(* -- shrinking ---------------------------------------------------------- *)

let shrink s =
  let candidates =
    (match s.topology with
    | Sallen_key -> [ { s with topology = Ota }; { s with topology = Rc_ladder 1 } ]
    | Ota -> [ { s with topology = Rc_ladder 1 } ]
    | Sk_chain n | Ota_cascade n ->
        { s with topology = Rc_ladder 1 }
        ::
        (if n > 1 then
           let smaller k =
             match s.topology with
             | Sk_chain _ -> Sk_chain k
             | _ -> Ota_cascade k
           in
           [
             { s with topology = smaller 1 };
             { s with topology = smaller (n / 2) };
             { s with topology = smaller (n - 1) };
           ]
         else [])
    | Rc_ladder n when n > 1 ->
        [ { s with topology = Rc_ladder 1 }; { s with topology = Rc_ladder (n - 1) } ]
    | Rc_ladder _ -> [])
    @ (if s.fault_count > 1 then
         [
           { s with fault_count = 1 };
           { s with fault_count = s.fault_count / 2 };
           { s with fault_count = s.fault_count - 1 };
         ]
       else [])
    @ (if s.bridge_weight < 100 then [ { s with bridge_weight = 100 } ] else [])
    @ (if s.config_count > 1 then [ { s with config_count = 1 } ] else [])
    @ (if s.params > 1 then [ { s with params = 1 } ] else [])
    @ (if s.levels > 1 then [ { s with levels = 1 } ] else [])
    @ (if s.floor_exp > 2 then [ { s with floor_exp = 2 } ] else [])
    @ if s.value_seed <> 0 then [ { s with value_seed = 0 } ] else []
  in
  (* strictly decreasing size, deduplicated, smallest first *)
  List.sort_uniq compare candidates
  |> List.filter (fun c -> size c < size s)
  |> List.sort (fun a b -> compare (size a) (size b))
