(* Tests for the extension features: IFA weighting, scheduling, fault
   equivalence, Monte-Carlo box calibration, the AC configuration kind
   and the Sallen-Key macro. *)

open Testgen

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs b)

let check_float ?eps msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%.9g vs %.9g)" msg a b) true
    (feq ?eps a b)

(* -------------------------------------------------------------------- IFA *)

let iv_netlist = Macros.Macro.nominal_netlist Macros.Iv_converter.macro

let test_ifa_shared_devices () =
  (* iin and vout share the feedback resistor rf *)
  Alcotest.(check bool) "iin-vout share rf" true
    (Faults.Ifa.shared_device_count iv_netlist "iin" "vout" >= 1);
  (* bias node and the input node share nothing *)
  Alcotest.(check int) "iin-nbias share none" 0
    (Faults.Ifa.shared_device_count iv_netlist "iin" "nbias")

let test_ifa_bridge_weights () =
  let adjacent = Faults.Ifa.bridge_weight iv_netlist "iin" "vout" in
  let distant = Faults.Ifa.bridge_weight iv_netlist "iin" "nbias" in
  Alcotest.(check bool) "adjacent nodes likelier" true (adjacent > distant);
  check_float "background weight" 1. distant

let test_ifa_pinhole_weights () =
  (* m6 (100u x 1u) has a larger gate than m5 (20u x 2u = 40 um^2) *)
  let w6 = Faults.Ifa.pinhole_weight iv_netlist "m6" in
  let w5 = Faults.Ifa.pinhole_weight iv_netlist "m5" in
  check_float "m6 area" 100. w6;
  check_float "m5 area" 40. w5;
  (try
     ignore (Faults.Ifa.pinhole_weight iv_netlist "rf");
     Alcotest.fail "non-mosfet accepted"
   with Invalid_argument _ -> ())

let test_ifa_weigh_normalizes () =
  let dict = Macros.Macro.dictionary Macros.Iv_converter.macro in
  let weighted = Faults.Ifa.weigh iv_netlist dict in
  Alcotest.(check int) "all entries" 55 (List.length weighted);
  let total =
    List.fold_left (fun acc w -> acc +. w.Faults.Ifa.weight) 0. weighted
  in
  check_float ~eps:1e-9 "weights sum to 1" 1. total;
  List.iter
    (fun w -> Alcotest.(check bool) "positive" true (w.Faults.Ifa.weight > 0.))
    weighted

let test_ifa_weighted_coverage () =
  let dict =
    Faults.Dictionary.of_faults
      [
        Faults.Fault.bridge "iin" "vout" ~resistance:10e3;
        Faults.Fault.bridge "iin" "nbias" ~resistance:10e3;
      ]
  in
  let weighted = Faults.Ifa.weigh iv_netlist dict in
  (* detecting only the heavier (adjacent) fault yields > 50 % weighted *)
  let cov =
    Faults.Ifa.weighted_coverage weighted ~detected:(fun fid ->
        String.equal fid "bridge:iin-vout")
  in
  Alcotest.(check bool) (Printf.sprintf "weighted cov %.1f > 50" cov) true
    (cov > 50.);
  check_float "all detected" 100.
    (Faults.Ifa.weighted_coverage weighted ~detected:(fun _ -> true));
  check_float "none detected" 0.
    (Faults.Ifa.weighted_coverage weighted ~detected:(fun _ -> false))

let test_ifa_sort () =
  let dict = Macros.Macro.dictionary Macros.Iv_converter.macro in
  let sorted = Faults.Ifa.sort_by_weight (Faults.Ifa.weigh iv_netlist dict) in
  let rec non_increasing = function
    | a :: (b :: _ as rest) ->
        a.Faults.Ifa.weight >= b.Faults.Ifa.weight && non_increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted heaviest first" true (non_increasing sorted)

(* --------------------------------------------------------------- Schedule *)

let sched_configs = Experiments.Iv_configs.all

let test_test_cost () =
  let model = Schedule.default_cost_model in
  let cost id = Schedule.test_cost model (Experiments.Iv_configs.by_id id) in
  (* config 2 measures two DC points, config 1 one *)
  check_float "dc pair costs double" (2. *. model.Schedule.dc_point_cost) (cost 2);
  check_float "dc single" model.Schedule.dc_point_cost (cost 1);
  check_float "thd flat cost" model.Schedule.thd_cost (cost 3);
  (* step configs: 750 samples at 100 MHz *)
  check_float "step cost" (750. *. 1e-8 *. 1e6 *. 1e-6) (cost 4)

let mk_test label cid = { Coverage.test_label = label; test_config_id = cid;
                          test_params = [| 0. |] }

let test_schedule_greedy_order () =
  (* t_cheap covers the heavy fault cheaply; t_dear covers a light fault *)
  let tests = [ mk_test "t_dear" 3; mk_test "t_cheap" 1 ] in
  let weights = [ ("f_heavy", 0.9); ("f_light", 0.1) ] in
  let detections = [ ("f_heavy", [ "t_cheap" ]); ("f_light", [ "t_dear" ]) ] in
  let s =
    Schedule.order ~cost_model:Schedule.default_cost_model
      ~configs:sched_configs ~weights ~detections tests
  in
  (match s.Schedule.order with
  | first :: _ ->
      Alcotest.(check string) "cheap high-yield test first" "t_cheap"
        first.Coverage.test_label
  | [] -> Alcotest.fail "empty schedule");
  (* coverage is monotone and ends at 100 % of the detectable weight *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone coverage" true
    (monotone s.Schedule.cumulative_coverage);
  check_float ~eps:1e-6 "full weighted coverage" 100.
    (List.fold_left Float.max 0. s.Schedule.cumulative_coverage)

let test_schedule_expected_cost () =
  let tests = [ mk_test "t1" 1; mk_test "t2" 1 ] in
  let weights = [ ("fa", 0.5); ("fb", 0.5) ] in
  let detections = [ ("fa", [ "t1" ]); ("fb", [ "t2" ]) ] in
  let s =
    Schedule.order ~cost_model:Schedule.default_cost_model
      ~configs:sched_configs ~weights ~detections tests
  in
  (* both tests cost 1 ms: E[cost] = 0.5*1ms + 0.5*2ms = 1.5 ms *)
  check_float ~eps:1e-6 "expected detection cost" 1.5e-3
    s.Schedule.expected_detection_cost

let test_schedule_unknown_config () =
  (try
     ignore
       (Schedule.order ~cost_model:Schedule.default_cost_model
          ~configs:sched_configs ~weights:[] ~detections:[]
          [ mk_test "t" 42 ]);
     Alcotest.fail "unknown config accepted"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------ Equivalence *)

let fake_result fid cid params critical =
  {
    Generate.fault_id = fid;
    dictionary_fault = Faults.Fault.bridge "a" "b" ~resistance:10e3;
    candidates = [];
    outcome =
      Generate.Unique
        {
          config_id = cid;
          params;
          critical_impact = critical;
          dictionary_sensitivity = -1.;
        };
    trace = [];
  }

let test_equivalence_classes () =
  let results =
    [
      fake_result "f1" 1 [| 10e-6 |] 100e3;
      fake_result "f2" 1 [| 10.1e-6 |] 110e3;  (* same class as f1 *)
      fake_result "f3" 1 [| 40e-6 |] 100e3;    (* far in parameter space *)
      fake_result "f4" 2 [| 10e-6; 20e-6 |] 100e3;  (* other config *)
    ]
  in
  let classes =
    Equivalence.classes ~configs:Experiments.Iv_configs.all results
  in
  Alcotest.(check int) "three classes" 3 (List.length classes);
  let c1 =
    List.find
      (fun c -> List.mem "f1" c.Equivalence.members)
      classes
  in
  Alcotest.(check (list string)) "f1+f2 together" [ "f1"; "f2" ]
    (List.sort compare c1.Equivalence.members);
  (* representative: the weakest-detectable-impact member, f2 at 110k *)
  Alcotest.(check string) "representative" "f2" c1.Equivalence.representative;
  check_float "collapse ratio" (4. /. 3.) (Equivalence.collapse_ratio classes)

let test_equivalence_impact_gate () =
  let results =
    [
      fake_result "f1" 1 [| 10e-6 |] 1e3;
      fake_result "f2" 1 [| 10e-6 |] 1e6;  (* same point, impacts 1000x apart *)
    ]
  in
  let classes =
    Equivalence.classes ~configs:Experiments.Iv_configs.all results
  in
  Alcotest.(check int) "impact ratio separates" 2 (List.length classes)

(* ----------------------------------------------- Monte-Carlo calibration *)

let iv_target =
  Experiments.Setup.target_of_macro Macros.Iv_converter.macro
    Macros.Process.nominal

(* one measurement through a freshly compiled plan *)
let observables ?profile config target values =
  Execute.compiled_observables ?profile (Execute.topology target) config values

let test_mc_calibration () =
  let rng = Numerics.Rng.create 5L in
  let samples =
    List.map
      (Experiments.Setup.target_of_macro Macros.Iv_converter.macro)
      (Macros.Process.monte_carlo rng ~n:30)
  in
  let model =
    Tolerance.calibrate_monte_carlo Experiments.Iv_configs.config1
      ~nominal:iv_target ~samples ~grid:2 ()
  in
  let b = Tolerance.box model [| 25e-6 |] in
  Alcotest.(check bool) "box above floor" true (b.(0) >= 1e-3);
  (* a sub-max quantile produces a box no wider than the max envelope *)
  let model90 =
    Tolerance.calibrate_monte_carlo Experiments.Iv_configs.config1
      ~nominal:iv_target ~samples ~grid:2 ~quantile:90. ()
  in
  let b90 = Tolerance.box model90 [| 25e-6 |] in
  Alcotest.(check bool)
    (Printf.sprintf "quantile tightens the box (%.4g <= %.4g)" b90.(0) b.(0))
    true
    (b90.(0) <= b.(0) +. 1e-12)

let test_mc_calibration_validation () =
  (try
     ignore
       (Tolerance.calibrate_monte_carlo Experiments.Iv_configs.config1
          ~nominal:iv_target ~samples:[] ());
     Alcotest.fail "no samples accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Tolerance.calibrate_monte_carlo Experiments.Iv_configs.config1
          ~nominal:iv_target ~samples:[ iv_target ] ~quantile:0. ());
     Alcotest.fail "zero quantile accepted"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------- AC configuration *)

let test_ac_config_validation () =
  let p =
    Test_param.create ~name:"f" ~units:"Hz" ~lower:1e3 ~upper:1e6 ~seed:1e4
  in
  let analysis =
    Test_config.Ac_gain
      { bias = (fun _ -> Circuit.Waveform.Dc 0.); freq = (fun v -> v.(0)) }
  in
  (try
     ignore
       (Test_config.create ~id:1 ~name:"x" ~macro_type:"m" ~control_node:"c"
          ~params:[ p ] ~analysis ~returns:Test_config.Per_component
          ~return_names:[ "gain" ] ~accuracy_floor:[ 0.1 ] ~summary:"");
     Alcotest.fail "single return accepted for AC"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Test_config.create ~id:1 ~name:"x" ~macro_type:"m" ~control_node:"c"
          ~params:[ p ] ~analysis ~returns:Test_config.Max_abs_delta
          ~return_names:[ "gain" ] ~accuracy_floor:[ 0.1 ] ~summary:"");
     Alcotest.fail "delta returns accepted for AC"
   with Invalid_argument _ -> ())

let test_ac_observables () =
  let obs =
    observables Experiments.Extensions.config6_ac iv_target
      [| 0.; 1e5 |]
  in
  Alcotest.(check int) "gain and phase" 2 (Array.length obs);
  (* closed-loop transimpedance 20k = 86 dB(Ohm) in the passband *)
  Alcotest.(check bool)
    (Printf.sprintf "gain %.1f dB near 86" obs.(0))
    true
    (Float.abs (obs.(0) -. 86.) < 2.)

let test_ac_detects_follower_bridge () =
  let config = Experiments.Extensions.config6_ac in
  let ev =
    Evaluator.create config ~nominal:iv_target
      ~box_model:(Tolerance.floor_only config)
  in
  (* at a well-chosen bias/frequency the n2-vout bridge moves the loop
     response measurably *)
  let s =
    Evaluator.sensitivity ev
      (Faults.Fault.bridge "n2" "vout" ~resistance:10e3)
      [| 30e-6; 2.5e6 |]
  in
  Alcotest.(check bool) (Printf.sprintf "AC sees n2-vout (S=%.2f)" s) true
    (s < 0.)

(* -------------------------------------------------------------------- IMD *)

let test_multi_sine_waveform () =
  let w =
    Circuit.Waveform.Multi_sine
      { offset = 1.; tones = [ (0.5, 1e3); (0.25, 2e3) ] }
  in
  check_float "at 0" 1. (Circuit.Waveform.value w 0.);
  (* quarter period of the 1 kHz tone: sin = 1; 2 kHz tone: sin(pi) = 0 *)
  check_float ~eps:1e-9 "quarter period" 1.5 (Circuit.Waveform.value w 0.25e-3);
  check_float "dc is offset" 1. (Circuit.Waveform.dc_value w);
  Alcotest.(check bool) "validates" true
    (Result.is_ok (Circuit.Waveform.validate w));
  Alcotest.(check bool) "empty tones rejected" true
    (Result.is_error
       (Circuit.Waveform.validate
          (Circuit.Waveform.Multi_sine { offset = 0.; tones = [] })))

let test_imd_analysis_known () =
  (* synthesize tones at bins 5 and 6 plus a known IMD3 product at bin 4 *)
  let n = 1024 in
  let s =
    Array.init n (fun i ->
        let ph k = 2. *. Float.pi *. float_of_int (k * i) /. float_of_int n in
        sin (ph 5) +. sin (ph 6) +. (0.02 *. sin (ph 4)))
  in
  let a =
    Sigproc.Imd.analyze ~samples:s ~sample_rate:(float_of_int n) ~base_freq:1.
      ~k1:5 ~k2:6 ()
  in
  check_float ~eps:1e-6 "tone1" 1. a.Sigproc.Imd.tone1;
  check_float ~eps:1e-6 "tone2" 1. a.Sigproc.Imd.tone2;
  check_float ~eps:1e-6 "imd3 low" 0.02 a.Sigproc.Imd.imd3_low;
  check_float ~eps:1e-6 "imd3 percent" 2. a.Sigproc.Imd.imd3_percent

let test_imd_validation () =
  let s = Array.make 64 0. in
  (try
     ignore
       (Sigproc.Imd.analyze ~samples:s ~sample_rate:64. ~base_freq:1. ~k1:6
          ~k2:5 ());
     Alcotest.fail "k2 < k1 accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Sigproc.Imd.analyze ~samples:s ~sample_rate:64. ~base_freq:1. ~k1:2
          ~k2:5 ());
     Alcotest.fail "product below DC accepted"
   with Invalid_argument _ -> ())

let test_imd_config_observable () =
  let config = Experiments.Extensions.config7_imd in
  let obs =
    observables ~profile:Execute.fast_profile config iv_target
      (Test_config.param_values_of_seed config)
  in
  Alcotest.(check int) "one return" 1 (Array.length obs);
  Alcotest.(check bool)
    (Printf.sprintf "nominal IMD3 small (%.4f%%)" obs.(0))
    true (obs.(0) < 0.05)

let test_imd_detects_hard_fault () =
  let config = Experiments.Extensions.config7_imd in
  let ev =
    Evaluator.create ~profile:Execute.fast_profile config ~nominal:iv_target
      ~box_model:(Tolerance.floor_only config)
  in
  let s =
    Evaluator.sensitivity ev
      (Faults.Fault.bridge "n1" "vout" ~resistance:10e3)
      (Test_config.param_values_of_seed config)
  in
  Alcotest.(check bool) (Printf.sprintf "detects (S=%.1f)" s) true (s < 0.)

let test_multisine_parser () =
  let deck = "t\nVv1 a 0 multisine(1m, 2m:1k, 3m:2k)\nRr a 0 1k\n" in
  match Circuit.Spice_parser.parse deck with
  | Error e -> Alcotest.fail e.Circuit.Spice_parser.message
  | Ok nl -> begin
      match Circuit.Netlist.find nl "v1" with
      | Some
          (Circuit.Device.Vsource
             { wave = Circuit.Waveform.Multi_sine { offset; tones }; _ }) ->
          check_float "offset" 1e-3 offset;
          Alcotest.(check int) "two tones" 2 (List.length tones)
      | Some _ | None -> Alcotest.fail "v1 not a multisine source"
    end

(* ------------------------------------------------------------ Noise config *)

let test_noise_config_observable () =
  let config = Experiments.Extensions.config8_noise in
  let obs =
    observables config iv_target
      (Test_config.param_values_of_seed config)
  in
  Alcotest.(check int) "one value" 1 (Array.length obs);
  Alcotest.(check bool)
    (Printf.sprintf "plausible density %.1f nV/rtHz" obs.(0))
    true
    (obs.(0) > 5. && obs.(0) < 500.)

let test_noise_config_detects_resistive_fault () =
  (* bridging the feedback node to ground adds a big resistive noise path
     and reshapes the loop: the noise signature moves *)
  let config = Experiments.Extensions.config8_noise in
  let ev =
    Evaluator.create config ~nominal:iv_target
      ~box_model:(Tolerance.floor_only config)
  in
  let s =
    Evaluator.sensitivity ev
      (Faults.Fault.bridge "n1" "vout" ~resistance:10e3)
      (Test_config.param_values_of_seed config)
  in
  Alcotest.(check bool) (Printf.sprintf "noise signature shifts (S=%.2f)" s)
    true (s < 0.)

let test_noise_config_validation () =
  let p =
    Test_param.create ~name:"f" ~units:"Hz" ~lower:1e3 ~upper:1e6 ~seed:1e4
  in
  (try
     ignore
       (Test_config.create ~id:92 ~name:"x" ~macro_type:"m" ~control_node:"c"
          ~params:[ p ]
          ~analysis:
            (Test_config.Noise_psd
               { bias = (fun _ -> Circuit.Waveform.Dc 0.);
                 freq = (fun v -> v.(0)) })
          ~returns:Test_config.Max_abs_delta ~return_names:[ "n" ]
          ~accuracy_floor:[ 1. ] ~summary:"");
     Alcotest.fail "delta returns accepted for noise"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------- Sallen-Key *)

let test_sk_validates () =
  match Macros.Macro.validate Macros.Sallen_key.macro with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_sk_response () =
  let nl = Macros.Macro.nominal_netlist Macros.Sallen_key.macro in
  let sys = Circuit.Mna.build nl in
  let op = Circuit.Dc.operating_point sys ~time:`Dc in
  (* DC passes through to the buffered output *)
  Alcotest.(check bool) "dc follows" true
    (Float.abs (Circuit.Mna.voltage sys op "out" -. 2.5) < 0.05);
  let fc = Macros.Sallen_key.cutoff_hz in
  let gain f =
    match
      Circuit.Ac.sweep sys ~op ~source:"vin_src" ~freqs:[| f |] ~observe:"out"
    with
    | [ p ] -> Circuit.Ac.gain_db p.Circuit.Ac.value
    | _ -> Alcotest.fail "sweep"
  in
  Alcotest.(check bool) "flat passband" true (Float.abs (gain (fc /. 20.)) < 0.5);
  Alcotest.(check bool) "-3dB at fc" true (Float.abs (gain fc +. 3.) < 1.);
  Alcotest.(check bool) "-40dB/decade" true (gain (fc *. 10.) < -35.)

let test_sk_fault_universe () =
  let d = Macros.Macro.dictionary Macros.Sallen_key.macro in
  let b, p = Faults.Dictionary.count_by_kind d in
  (* 9 fault nodes -> 36 bridges; 6 MOSFETs -> 6 pinholes *)
  Alcotest.(check (pair int int)) "counts" (36, 6) (b, p)

let () =
  Alcotest.run "extensions"
    [
      ( "ifa",
        [
          Alcotest.test_case "shared devices" `Quick test_ifa_shared_devices;
          Alcotest.test_case "bridge weights" `Quick test_ifa_bridge_weights;
          Alcotest.test_case "pinhole weights" `Quick test_ifa_pinhole_weights;
          Alcotest.test_case "normalization" `Quick test_ifa_weigh_normalizes;
          Alcotest.test_case "weighted coverage" `Quick test_ifa_weighted_coverage;
          Alcotest.test_case "sort" `Quick test_ifa_sort;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "test cost" `Quick test_test_cost;
          Alcotest.test_case "greedy order" `Quick test_schedule_greedy_order;
          Alcotest.test_case "expected cost" `Quick test_schedule_expected_cost;
          Alcotest.test_case "unknown config" `Quick test_schedule_unknown_config;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "classes" `Quick test_equivalence_classes;
          Alcotest.test_case "impact gate" `Quick test_equivalence_impact_gate;
        ] );
      ( "tolerance-mc",
        [
          Alcotest.test_case "calibrates" `Quick test_mc_calibration;
          Alcotest.test_case "validation" `Quick test_mc_calibration_validation;
        ] );
      ( "ac-config",
        [
          Alcotest.test_case "validation" `Quick test_ac_config_validation;
          Alcotest.test_case "observables" `Quick test_ac_observables;
          Alcotest.test_case "detects follower bridge" `Quick
            test_ac_detects_follower_bridge;
        ] );
      ( "imd",
        [
          Alcotest.test_case "multi-sine waveform" `Quick test_multi_sine_waveform;
          Alcotest.test_case "known analysis" `Quick test_imd_analysis_known;
          Alcotest.test_case "validation" `Quick test_imd_validation;
          Alcotest.test_case "config observable" `Quick test_imd_config_observable;
          Alcotest.test_case "detects hard fault" `Quick test_imd_detects_hard_fault;
          Alcotest.test_case "parser support" `Quick test_multisine_parser;
        ] );
      ( "noise-config",
        [
          Alcotest.test_case "observable" `Quick test_noise_config_observable;
          Alcotest.test_case "detects resistive fault" `Quick
            test_noise_config_detects_resistive_fault;
          Alcotest.test_case "validation" `Quick test_noise_config_validation;
        ] );
      ( "sallen-key",
        [
          Alcotest.test_case "validates" `Quick test_sk_validates;
          Alcotest.test_case "frequency response" `Quick test_sk_response;
          Alcotest.test_case "fault universe" `Quick test_sk_fault_universe;
        ] );
    ]
