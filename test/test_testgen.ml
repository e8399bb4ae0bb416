(* Tests for the core test-generation library (parameters, configurations,
   execution, tolerance boxes, sensitivity, tps-graphs, generation). *)

open Testgen

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs b)

let check_float ?eps msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%.9g vs %.9g)" msg a b) true
    (feq ?eps a b)

(* ------------------------------------------------------------- Test_param *)

let test_param_create () =
  let p = Test_param.create ~name:"lev" ~units:"A" ~lower:(-1.) ~upper:1. ~seed:0.5 in
  check_float "normalize mid" 0.75 (Test_param.normalize p 0.5);
  check_float "denormalize" 0.5 (Test_param.denormalize p 0.75);
  check_float "clamp high" 1. (Test_param.clamp p 7.);
  check_float "clamp low" (-1.) (Test_param.clamp p (-7.));
  check_float "normalize clamps" 1. (Test_param.normalize p 99.)

let test_param_validation () =
  (try
     ignore (Test_param.create ~name:"x" ~units:"" ~lower:1. ~upper:0. ~seed:0.5);
     Alcotest.fail "inverted bounds accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Test_param.create ~name:"x" ~units:"" ~lower:0. ~upper:1. ~seed:2.);
     Alcotest.fail "out-of-bounds seed accepted"
   with Invalid_argument _ -> ())

let test_param_bounds_of () =
  let ps =
    [
      Test_param.create ~name:"a" ~units:"" ~lower:0. ~upper:1. ~seed:0.1;
      Test_param.create ~name:"b" ~units:"" ~lower:(-2.) ~upper:2. ~seed:1.;
    ]
  in
  let lower, upper = Test_param.bounds_of ps in
  Alcotest.(check (array (float 1e-12))) "lower" [| 0.; -2. |] lower;
  Alcotest.(check (array (float 1e-12))) "upper" [| 1.; 2. |] upper;
  Alcotest.(check (array (float 1e-12))) "seeds" [| 0.1; 1. |]
    (Test_param.seeds_of ps)

(* ------------------------------------------------------------ Test_config *)

let test_config_validation () =
  let p = Test_param.create ~name:"x" ~units:"" ~lower:0. ~upper:1. ~seed:0.5 in
  let dc = Test_config.Dc_levels (fun v -> [ Circuit.Waveform.Dc v.(0) ]) in
  (try
     ignore
       (Test_config.create ~id:1 ~name:"n" ~macro_type:"m" ~control_node:"c"
          ~params:[] ~analysis:dc ~returns:Test_config.Per_component
          ~return_names:[ "r" ] ~accuracy_floor:[ 1. ] ~summary:"");
     Alcotest.fail "no params accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Test_config.create ~id:1 ~name:"n" ~macro_type:"m" ~control_node:"c"
          ~params:[ p ] ~analysis:dc ~returns:Test_config.Per_component
          ~return_names:[ "r" ] ~accuracy_floor:[ 1.; 2. ] ~summary:"");
     Alcotest.fail "floor mismatch accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Test_config.create ~id:1 ~name:"n" ~macro_type:"m" ~control_node:"c"
          ~params:[ p ] ~analysis:dc ~returns:Test_config.Per_component
          ~return_names:[ "r" ] ~accuracy_floor:[ -1. ] ~summary:"");
     Alcotest.fail "negative floor accepted"
   with Invalid_argument _ -> ())

let test_config_describe () =
  let d = Test_config.describe Experiments.Iv_configs.config5 in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "macro type" true (contains d "IV-converter");
  Alcotest.(check bool) "sample rate" true (contains d "100Meg");
  Alcotest.(check bool) "parameters listed" true (contains d "elev")

(* ---------------------------------------------------------------- Execute *)

let iv_target =
  Experiments.Setup.target_of_macro Macros.Iv_converter.macro
    Macros.Process.nominal

(* one measurement through a freshly compiled plan *)
let observables ?profile config target values =
  Execute.compiled_observables ?profile (Execute.topology target) config values

let test_with_stimulus () =
  let nl =
    Execute.with_stimulus iv_target.Execute.netlist ~source:"iin_src"
      (Circuit.Waveform.Dc 1e-6)
  in
  (match Circuit.Netlist.find nl "iin_src" with
  | Some (Circuit.Device.Isource { wave = Circuit.Waveform.Dc v; _ }) ->
      check_float "waveform replaced" 1e-6 v
  | Some _ | None -> Alcotest.fail "stimulus not replaced");
  (try
     ignore
       (Execute.with_stimulus iv_target.Execute.netlist ~source:"rf"
          (Circuit.Waveform.Dc 0.));
     Alcotest.fail "non-source accepted"
   with Invalid_argument _ -> ())

let test_observables_dc () =
  let obs =
    observables Experiments.Iv_configs.config1 iv_target [| 10e-6 |]
  in
  Alcotest.(check int) "one value" 1 (Array.length obs);
  check_float ~eps:1e-2 "vout = 2.5 - 0.2" 2.3 obs.(0)

let test_observables_dc_pair () =
  let obs =
    observables Experiments.Iv_configs.config2 iv_target
      [| 0.; 20e-6 |]
  in
  Alcotest.(check int) "two values" 2 (Array.length obs);
  check_float ~eps:1e-2 "base" 2.5 obs.(0);
  check_float ~eps:1e-2 "elevated" 2.1 obs.(1)

let test_observables_thd () =
  let obs =
    observables ~profile:Execute.fast_profile
      Experiments.Iv_configs.config3 iv_target [| 20e-6; 10e3 |]
  in
  Alcotest.(check int) "one THD value" 1 (Array.length obs);
  Alcotest.(check bool)
    (Printf.sprintf "nominal THD %.5f%% is tiny" obs.(0))
    true
    (obs.(0) >= 0. && obs.(0) < 0.01)

let test_observables_step_train () =
  let obs =
    observables Experiments.Iv_configs.config4 iv_target [| 25e-6 |]
  in
  (* 7.5 us at 100 MHz -> 750 steps + the initial sample *)
  Alcotest.(check int) "sample count" 751 (Array.length obs);
  check_float ~eps:1e-2 "starts at the nominal level" 2.5 obs.(0)

let test_observables_param_mismatch () =
  (try
     ignore (observables Experiments.Iv_configs.config1 iv_target [| 0.; 0. |]);
     Alcotest.fail "wrong arity accepted"
   with Invalid_argument _ -> ())

let test_deviations_modes () =
  let dc = Experiments.Iv_configs.config2 in
  Alcotest.(check (array (float 1e-12)))
    "per-component"
    [| 0.5; -1. |]
    (Execute.deviations dc ~nominal:[| 1.; 3. |] ~faulty:[| 1.5; 2. |]);
  let maxd = Experiments.Iv_configs.config4 in
  Alcotest.(check (array (float 1e-12)))
    "max abs delta" [| 2. |]
    (Execute.deviations maxd ~nominal:[| 0.; 1.; 0. |] ~faulty:[| 1.; 3.; 0. |]);
  let sumd = Experiments.Iv_configs.config5 in
  Alcotest.(check (array (float 1e-12)))
    "sum abs delta" [| 3. |]
    (Execute.deviations sumd ~nominal:[| 0.; 1.; 0. |] ~faulty:[| 1.; 3.; 0. |])

let test_return_values () =
  let maxd = Experiments.Iv_configs.config4 in
  Alcotest.(check (array (float 1e-12)))
    "delta mode returns metric" [| 2. |]
    (Execute.return_values maxd ~nominal:[| 0.; 1. |] ~observed:[| 1.; 3. |]);
  let dc = Experiments.Iv_configs.config1 in
  Alcotest.(check (array (float 1e-12)))
    "per-component returns observable" [| 7. |]
    (Execute.return_values dc ~nominal:[| 1. |] ~observed:[| 7. |])

(* ------------------------------------------------------------ Sensitivity *)

let test_sensitivity_algebra () =
  check_float "no deviation" 1. (Sensitivity.of_deviation ~deviation:0. ~box:2.);
  check_float "at the box edge" 0. (Sensitivity.of_deviation ~deviation:2. ~box:2.);
  check_float "outside" (-1.) (Sensitivity.of_deviation ~deviation:4. ~box:2.);
  check_float "sign-insensitive" (-1.)
    (Sensitivity.of_deviation ~deviation:(-4.) ~box:2.);
  check_float "combine = min" (-3.) (Sensitivity.combine [| 0.5; -3.; 1. |]);
  Alcotest.(check bool) "detects" true (Sensitivity.detects (-0.01));
  Alcotest.(check bool) "no detect at 0" false (Sensitivity.detects 0.);
  (try
     ignore (Sensitivity.of_deviation ~deviation:1. ~box:0.);
     Alcotest.fail "zero box accepted"
   with Invalid_argument _ -> ())

let test_sensitivity_compute () =
  let config = Experiments.Iv_configs.config2 in
  let s =
    Sensitivity.compute config ~box:[| 0.1; 0.1 |] ~nominal:[| 1.; 1. |]
      ~faulty:[| 1.05; 1.4 |]
  in
  (* components: 1 - 0.5 = 0.5 and 1 - 4 = -3; min is -3 *)
  check_float "min over returns" (-3.) s

(* -------------------------------------------------------------- Tolerance *)

let test_floor_only_box () =
  let model = Tolerance.floor_only Experiments.Iv_configs.config1 in
  let b = Tolerance.box model [| 0. |] in
  Alcotest.(check (array (float 1e-12))) "floor" [| 1e-3 |] b

let corner_targets =
  List.map
    (Experiments.Setup.target_of_macro Macros.Iv_converter.macro)
    [
      { Macros.Process.nominal with Macros.Process.label = "res+"; dres = 0.15 };
      { Macros.Process.nominal with Macros.Process.label = "res-"; dres = -0.15 };
      { Macros.Process.nominal with Macros.Process.label = "vt+"; dvt_n = 0.05 };
    ]

let calibrated_config1 =
  lazy
    (Tolerance.calibrate Experiments.Iv_configs.config1 ~nominal:iv_target
       ~corners:corner_targets ~grid:3 ~guardband:1.25 ())

let test_calibrate_respects_floor () =
  let model = Lazy.force calibrated_config1 in
  (* at lev = 0 the response barely depends on R tolerance: floor rules *)
  let b = Tolerance.box model [| 0. |] in
  Alcotest.(check bool) "box >= floor" true (b.(0) >= 1e-3)

let test_calibrate_scales_with_level () =
  let model = Lazy.force calibrated_config1 in
  let b_small = (Tolerance.box model [| 5e-6 |]).(0) in
  let b_large = (Tolerance.box model [| 45e-6 |]).(0) in
  (* Rf tolerance makes the box grow with |Iin| *)
  Alcotest.(check bool)
    (Printf.sprintf "box grows with level (%.4g < %.4g)" b_small b_large)
    true (b_small < b_large)

let test_calibrate_interpolation_between_lattice () =
  let model = Lazy.force calibrated_config1 in
  let b_mid = (Tolerance.box model [| 12.5e-6 |]).(0) in
  let b_lo = (Tolerance.box model [| 0e-6 |]).(0) in
  let b_hi = (Tolerance.box model [| 25e-6 |]).(0) in
  Alcotest.(check bool) "between neighbours" true
    (b_mid >= Float.min b_lo b_hi -. 1e-12
    && b_mid <= Float.max b_lo b_hi +. 1e-12)

let test_calibrate_clamps_outside () =
  let model = Lazy.force calibrated_config1 in
  let inside = (Tolerance.box model [| 50e-6 |]).(0) in
  let outside = (Tolerance.box model [| 500e-6 |]).(0) in
  check_float "clamped to hull" inside outside

let test_lattice_points () =
  let model = Lazy.force calibrated_config1 in
  Alcotest.(check int) "3 lattice points" 3
    (List.length (Tolerance.lattice_points model))

let test_calibrate_validation () =
  (try
     ignore
       (Tolerance.calibrate Experiments.Iv_configs.config1 ~nominal:iv_target
          ~corners:[] ());
     Alcotest.fail "no corners accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Tolerance.calibrate Experiments.Iv_configs.config1 ~nominal:iv_target
          ~corners:corner_targets ~grid:1 ());
     Alcotest.fail "grid 1 accepted"
   with Invalid_argument _ -> ())

(* -------------------------------------------------------------- Evaluator *)

let evaluator_config1 =
  lazy
    (Evaluator.create Experiments.Iv_configs.config1 ~nominal:iv_target
       ~box_model:(Lazy.force calibrated_config1))

let test_evaluator_memoization () =
  let ev = Lazy.force evaluator_config1 in
  let v = [| 10e-6 |] in
  let a = Evaluator.nominal_observables ev v in
  let b = Evaluator.nominal_observables ev v in
  Alcotest.(check bool) "same cached array" true (a == b)

let test_evaluator_detects_strong_fault () =
  let ev = Lazy.force evaluator_config1 in
  let fault = Faults.Fault.bridge "n1" "vout" ~resistance:10e3 in
  let s = Evaluator.sensitivity ev fault [| 10e-6 |] in
  Alcotest.(check bool) (Printf.sprintf "S = %.2f < 0" s) true
    (Sensitivity.detects s)

let test_evaluator_ignores_weak_fault () =
  let ev = Lazy.force evaluator_config1 in
  let fault = Faults.Fault.bridge "n1" "vout" ~resistance:1e9 in
  let s = Evaluator.sensitivity ev fault [| 10e-6 |] in
  Alcotest.(check bool) (Printf.sprintf "S = %.2f > 0" s) true (s > 0.)

let test_evaluator_counts () =
  let ev =
    Evaluator.create Experiments.Iv_configs.config1 ~nominal:iv_target
      ~box_model:(Tolerance.floor_only Experiments.Iv_configs.config1)
  in
  let before = Evaluator.evaluation_count ev in
  ignore
    (Evaluator.sensitivity ev
       (Faults.Fault.bridge "n1" "vout" ~resistance:10e3)
       [| 10e-6 |]);
  Alcotest.(check int) "one faulty simulation" (before + 1)
    (Evaluator.evaluation_count ev)

let test_evaluator_deviation_report () =
  let ev = Lazy.force evaluator_config1 in
  let fault = Faults.Fault.bridge "n1" "vout" ~resistance:10e3 in
  let s, dev = Evaluator.sensitivity_and_deviation ev fault [| 10e-6 |] in
  Alcotest.(check int) "deviation per return value" 1 (Array.length dev);
  Alcotest.(check bool) "consistent sign" true (s < 0. && Float.abs dev.(0) > 0.)

(* -------------------------------------------------------------------- Tps *)

let test_tps_sweep_1d () =
  let ev = Lazy.force evaluator_config1 in
  let fault = Faults.Fault.bridge "ntail" "vout" ~resistance:10e3 in
  let g = Tps.sweep ev fault ~grid:7 () in
  Alcotest.(check int) "7 samples" 7 (Array.length g.Tps.values);
  let arg, s = Tps.argmin g in
  Alcotest.(check int) "1-d argmin" 1 (Array.length arg);
  Alcotest.(check bool) "argmin is the minimum" true
    (Array.for_all (fun v -> v >= s) g.Tps.values);
  let frac = Tps.detection_fraction g in
  Alcotest.(check bool) "fraction in [0,1]" true (frac >= 0. && frac <= 1.)

let test_tps_value_at () =
  let ev = Lazy.force evaluator_config1 in
  let fault = Faults.Fault.bridge "ntail" "vout" ~resistance:10e3 in
  let g = Tps.sweep ev fault ~grid:5 () in
  check_float "value_at matches array" g.Tps.values.(2) (Tps.value_at g [| 2 |]);
  (try
     ignore (Tps.value_at g [| 9 |]);
     Alcotest.fail "range error accepted"
   with Invalid_argument _ -> ())

let test_tps_classify_soft () =
  (* DC response to a bridge scales smoothly with impact: argmin stable *)
  let ev = Lazy.force evaluator_config1 in
  let fault = Faults.Fault.bridge "n2" "vout" ~resistance:10e3 in
  let c = Tps.classify_region ev fault ~grid:7 () in
  Alcotest.(check bool) "classified soft" true (c.Tps.region = `Soft);
  Alcotest.(check int) "two shifts" 2 (Array.length c.Tps.shifts)

(* --------------------------------------------------------------- Generate *)

let dc_evaluators =
  lazy
    (let mk config =
       Evaluator.create config ~nominal:iv_target
         ~box_model:
           (Tolerance.calibrate config ~nominal:iv_target
              ~corners:corner_targets ~grid:2 ())
     in
     [ mk Experiments.Iv_configs.config1; mk Experiments.Iv_configs.config2 ])

let test_generate_strong_fault () =
  let evaluators = Lazy.force dc_evaluators in
  let entry =
    {
      Faults.Dictionary.fault_id = "bridge:n1-vout";
      fault = Faults.Fault.bridge "n1" "vout" ~resistance:10e3;
    }
  in
  let r = Generate.generate ~evaluators entry in
  Alcotest.(check int) "two candidates" 2 (List.length r.Generate.candidates);
  Alcotest.(check bool) "trace recorded" true (r.Generate.trace <> []);
  match r.Generate.outcome with
  | Generate.Unique { critical_impact; dictionary_sensitivity; config_id; _ } ->
      Alcotest.(check bool) "winner among configs" true
        (List.mem config_id [ 1; 2 ]);
      Alcotest.(check bool) "detected at dictionary impact" true
        (dictionary_sensitivity < 0.);
      Alcotest.(check bool)
        (Printf.sprintf "critical impact %.0f weaker than dictionary"
           critical_impact)
        true
        (critical_impact > 10e3)
  | Generate.Undetectable _ -> Alcotest.fail "strong fault must be detectable"

let test_generate_invisible_fault () =
  (* bridging the two terminals of the ideal supply source is invisible at
     10 kOhm; the algorithm must intensify the impact *)
  let evaluators = Lazy.force dc_evaluators in
  let entry =
    {
      Faults.Dictionary.fault_id = "bridge:0-vdd";
      fault = Faults.Fault.bridge "0" "vdd" ~resistance:10e3;
    }
  in
  let r = Generate.generate ~evaluators entry in
  (match r.Generate.outcome with
  | Generate.Unique { critical_impact; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "critical impact %.0f stronger than dictionary"
           critical_impact)
        true
        (critical_impact < 10e3)
  | Generate.Undetectable _ -> ());
  (* either way the trace must show intensification below 10k *)
  Alcotest.(check bool) "impact was intensified" true
    (List.exists (fun s -> s.Generate.impact < 10e3) r.Generate.trace)

let test_generate_optimizes_better_than_seed () =
  (* the optimized candidate must be at least as sensitive as the seed *)
  let evaluators = Lazy.force dc_evaluators in
  let ev = List.hd evaluators in
  let fault =
    Faults.Fault.weaken
      (Faults.Fault.bridge "iin" "vout" ~resistance:10e3)
      ~factor:3.
  in
  let cand = Generate.optimize_candidate ev fault in
  let seed_s =
    Evaluator.sensitivity ev fault
      (Test_config.param_values_of_seed (Evaluator.config ev))
  in
  Alcotest.(check bool)
    (Printf.sprintf "optimized %.3f <= seed %.3f"
       cand.Generate.low_impact_sensitivity seed_s)
    true
    (cand.Generate.low_impact_sensitivity <= seed_s +. 1e-9)

(* Impact-walk edge cases.  Generation is deterministic, so these pin the
   exact arms of the walk: budget exhaustion mid-walk, the
   survives-at-r_max short-circuit, and both exits of
   [bisect_for_unique]. *)

let bridge_entry id (a, b) =
  { Faults.Dictionary.fault_id = id; fault = Faults.Fault.bridge a b ~resistance:10e3 }

let unique_exn (r : Generate.result) =
  match r.Generate.outcome with
  | Generate.Unique { config_id; critical_impact; _ } ->
      (config_id, critical_impact)
  | Generate.Undetectable _ -> Alcotest.fail "expected a unique outcome"

let test_generate_budget_exhausted_mid_walk () =
  (* bridge 0-nmir detects on both configs far past 40 kOhm; a budget of 2
     runs out inside walk_up, forcing tie_break at the last probed level.
     With the budget gone, [death] cannot move, so the critical impact is
     exactly the tie-break resistance. *)
  let evaluators = Lazy.force dc_evaluators in
  let r =
    Generate.generate
      ~options:{ Generate.default_options with Generate.max_impact_steps = 2 }
      ~evaluators
      (bridge_entry "bridge:0-nmir" ("0", "nmir"))
  in
  let _, critical = unique_exn r in
  Alcotest.(check (float 0.)) "critical pinned at last probe" 20e3 critical;
  Alcotest.(check int) "exactly budget-many probes" 2
    (List.length r.Generate.trace);
  Alcotest.(check bool) "both configs still detecting when budget died" true
    (List.for_all
       (fun s -> s.Generate.detecting = [ 1; 2 ])
       r.Generate.trace)

let test_generate_survivor_at_r_max () =
  (* With one evaluator the dictionary probe is immediately unique, and a
     span of 2 puts r_max at 20 kOhm.  The survivor still detects there,
     so the "survives even at the weakest impact tried" arm fires and the
     critical impact is exactly r_max — no refinement. *)
  let target = iv_target in
  let ev =
    Evaluator.create Experiments.Iv_configs.config1 ~nominal:target
      ~box_model:
        (Tolerance.calibrate Experiments.Iv_configs.config1 ~nominal:target
           ~corners:corner_targets ~grid:2 ())
  in
  let r =
    Generate.generate
      ~options:{ Generate.default_options with Generate.impact_span = 2. }
      ~evaluators:[ ev ]
      (bridge_entry "bridge:0-nmir" ("0", "nmir"))
  in
  let config_id, critical = unique_exn r in
  Alcotest.(check int) "sole evaluator wins" 1 config_id;
  Alcotest.(check (float 0.)) "critical is exactly r_max" 20e3 critical

let test_generate_bisect_finds_singleton () =
  (* bridge n1-n2: both configs detect through 20k, neither at 40k, and
     the log-space bisection lands on a point where only config 1 still
     sees the fault — the Some exit of bisect_for_unique. *)
  let evaluators = Lazy.force dc_evaluators in
  let r =
    Generate.generate ~evaluators (bridge_entry "bridge:n1-n2" ("n1", "n2"))
  in
  let config_id, critical = unique_exn r in
  Alcotest.(check int) "bisect winner" 1 config_id;
  Alcotest.(check bool)
    (Printf.sprintf "critical %.1f refined past the singleton" critical)
    true
    (critical > 33e3 && critical < 40e3);
  Alcotest.(check bool) "trace holds a singleton bisection step" true
    (List.exists (fun s -> s.Generate.detecting = [ 1 ]) r.Generate.trace)

let test_generate_bisect_exhausted_tie_break () =
  (* bridge n2-vdd with budget 3: probes at 10k/20k/40k consume the whole
     budget, bisect_for_unique returns None immediately, and tie_break
     settles on the most sensitive config at the last all-detecting
     level — critical exactly 20 kOhm. *)
  let evaluators = Lazy.force dc_evaluators in
  let r =
    Generate.generate
      ~options:{ Generate.default_options with Generate.max_impact_steps = 3 }
      ~evaluators
      (bridge_entry "bridge:n2-vdd" ("n2", "vdd"))
  in
  let config_id, critical = unique_exn r in
  Alcotest.(check int) "tie-break winner" 1 config_id;
  Alcotest.(check (float 0.)) "critical pinned by exhausted bisect" 20e3
    critical;
  Alcotest.(check int) "three probes then stop" 3 (List.length r.Generate.trace)

let test_generate_empty_evaluators () =
  (try
     ignore
       (Generate.generate ~evaluators:[]
          {
            Faults.Dictionary.fault_id = "x";
            fault = Faults.Fault.bridge "a" "b" ~resistance:1.;
          });
     Alcotest.fail "empty evaluators accepted"
   with Invalid_argument _ -> ())

let () =
  Alcotest.run "testgen"
    [
      ( "test_param",
        [
          Alcotest.test_case "create/normalize" `Quick test_param_create;
          Alcotest.test_case "validation" `Quick test_param_validation;
          Alcotest.test_case "bounds_of" `Quick test_param_bounds_of;
        ] );
      ( "test_config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "describe" `Quick test_config_describe;
        ] );
      ( "execute",
        [
          Alcotest.test_case "with_stimulus" `Quick test_with_stimulus;
          Alcotest.test_case "dc observables" `Quick test_observables_dc;
          Alcotest.test_case "dc pair observables" `Quick test_observables_dc_pair;
          Alcotest.test_case "thd observable" `Quick test_observables_thd;
          Alcotest.test_case "step sample train" `Quick test_observables_step_train;
          Alcotest.test_case "arity check" `Quick test_observables_param_mismatch;
          Alcotest.test_case "deviation modes" `Quick test_deviations_modes;
          Alcotest.test_case "return values" `Quick test_return_values;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "algebra" `Quick test_sensitivity_algebra;
          Alcotest.test_case "compute" `Quick test_sensitivity_compute;
        ] );
      ( "tolerance",
        [
          Alcotest.test_case "floor only" `Quick test_floor_only_box;
          Alcotest.test_case "respects floor" `Quick test_calibrate_respects_floor;
          Alcotest.test_case "scales with level" `Quick test_calibrate_scales_with_level;
          Alcotest.test_case "interpolates" `Quick test_calibrate_interpolation_between_lattice;
          Alcotest.test_case "clamps outside" `Quick test_calibrate_clamps_outside;
          Alcotest.test_case "lattice" `Quick test_lattice_points;
          Alcotest.test_case "validation" `Quick test_calibrate_validation;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "memoization" `Quick test_evaluator_memoization;
          Alcotest.test_case "detects strong fault" `Quick test_evaluator_detects_strong_fault;
          Alcotest.test_case "ignores weak fault" `Quick test_evaluator_ignores_weak_fault;
          Alcotest.test_case "counts simulations" `Quick test_evaluator_counts;
          Alcotest.test_case "deviation report" `Quick test_evaluator_deviation_report;
        ] );
      ( "tps",
        [
          Alcotest.test_case "1-d sweep" `Quick test_tps_sweep_1d;
          Alcotest.test_case "value_at" `Quick test_tps_value_at;
          Alcotest.test_case "soft region" `Quick test_tps_classify_soft;
        ] );
      ( "generate",
        [
          Alcotest.test_case "strong fault" `Quick test_generate_strong_fault;
          Alcotest.test_case "invisible fault intensified" `Quick test_generate_invisible_fault;
          Alcotest.test_case "beats the seed" `Quick test_generate_optimizes_better_than_seed;
          Alcotest.test_case "budget exhausted mid-walk" `Quick test_generate_budget_exhausted_mid_walk;
          Alcotest.test_case "survivor at r_max" `Quick test_generate_survivor_at_r_max;
          Alcotest.test_case "bisect finds singleton" `Quick test_generate_bisect_finds_singleton;
          Alcotest.test_case "bisect exhausted tie-break" `Quick test_generate_bisect_exhausted_tie_break;
          Alcotest.test_case "needs evaluators" `Quick test_generate_empty_evaluators;
        ] );
    ]
