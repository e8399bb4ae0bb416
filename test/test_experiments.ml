(* Tests for the experiment wiring: the Table-1 configurations, context
   setup, and the cheap report generators. *)

open Testgen

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------- Iv_configs *)

let test_config_inventory () =
  Alcotest.(check int) "five configurations" 5
    (List.length Experiments.Iv_configs.all);
  let one_param, two_param =
    List.partition
      (fun c -> Test_config.n_params c = 1)
      Experiments.Iv_configs.all
  in
  (* the paper: "Two test configurations have only one attached parameter,
     the other three configurations have two parameters." *)
  Alcotest.(check int) "two single-parameter configs" 2 (List.length one_param);
  Alcotest.(check int) "three two-parameter configs" 3 (List.length two_param)

let test_config_ids () =
  List.iteri
    (fun i c ->
      Alcotest.(check int) "sequential ids" (i + 1) c.Test_config.config_id)
    Experiments.Iv_configs.all;
  Alcotest.(check string) "by_id" "THD"
    (Experiments.Iv_configs.by_id 3).Test_config.config_name;
  (try
     ignore (Experiments.Iv_configs.by_id 9);
     Alcotest.fail "bad id accepted"
   with Not_found -> ())

let test_config_macro_type () =
  List.iter
    (fun c ->
      Alcotest.(check string) "IV-converter type" "IV-converter"
        c.Test_config.macro_type)
    Experiments.Iv_configs.all

let test_step_configs_sampling () =
  (* paper: configurations #4 and #5 sample Vout at 100 MHz during 7.5 us *)
  List.iter
    (fun id ->
      match (Experiments.Iv_configs.by_id id).Test_config.analysis with
      | Test_config.Tran_samples { sample_rate; test_time; _ } ->
          Alcotest.(check (float 1.)) "100 MHz" 100e6 sample_rate;
          Alcotest.(check (float 1e-12)) "7.5 us" 7.5e-6 test_time
      | Test_config.Dc_levels _ | Test_config.Tran_thd _
      | Test_config.Ac_gain _ | Test_config.Tran_imd _
      | Test_config.Noise_psd _ ->
          Alcotest.fail "step configuration must be Tran_samples")
    [ 4; 5 ]

let test_thd_config_stimulus () =
  match (Experiments.Iv_configs.by_id 3).Test_config.analysis with
  | Test_config.Tran_thd { stimulus; fundamental } ->
      let w = stimulus [| 20e-6; 10e3 |] in
      (match w with
      | Circuit.Waveform.Sine { offset; ampl; freq; _ } ->
          Alcotest.(check (float 1e-12)) "offset is Iin_dc" 20e-6 offset;
          Alcotest.(check (float 1e-12)) "fixed 10uA amplitude"
            Experiments.Iv_configs.sine_amplitude ampl;
          Alcotest.(check (float 1e-6)) "freq param" 10e3 freq
      | _ -> Alcotest.fail "expected a sine");
      Alcotest.(check (float 1e-6)) "fundamental = freq" 10e3
        (fundamental [| 20e-6; 10e3 |])
  | _ -> Alcotest.fail "config 3 must be Tran_thd"

(* ------------------------------------------------------------------ Setup *)

let tiny_ctx =
  lazy
    (Experiments.Setup.create ~profile:Execute.fast_profile ~grid:2
       ~corners:
         [
           { Macros.Process.nominal with Macros.Process.label = "res+"; dres = 0.15 };
           { Macros.Process.nominal with Macros.Process.label = "res-"; dres = -0.15 };
         ]
       ~macro:Macros.Iv_converter.macro
       ~configs:[ Experiments.Iv_configs.config1; Experiments.Iv_configs.config2 ]
       ())

let test_setup_evaluators () =
  let ctx = Lazy.force tiny_ctx in
  Alcotest.(check int) "one evaluator per config" 2
    (List.length ctx.Experiments.Setup.evaluators);
  Alcotest.(check int) "dictionary is the macro's" 55
    (Faults.Dictionary.size ctx.Experiments.Setup.dictionary);
  let ev = Evaluator.find ctx.Experiments.Setup.evaluators 2 in
  Alcotest.(check int) "lookup by id" 2 (Evaluator.config_id ev);
  (try
     ignore (Evaluator.find ctx.Experiments.Setup.evaluators 9);
     Alcotest.fail "bad id accepted"
   with Not_found -> ())

let test_setup_reduced () =
  let ctx = Lazy.force tiny_ctx in
  let small = Experiments.Setup.reduced ctx ~n_faults:7 in
  Alcotest.(check int) "truncated" 7
    (Faults.Dictionary.size small.Experiments.Setup.dictionary)

(* ------------------------------------------------------------------- Runs *)

let test_fig1_report () =
  let s = Experiments.Runs.fig1 () in
  Alcotest.(check bool) "names the macro type" true (contains s "IV-converter");
  Alcotest.(check bool) "shows the configuration" true
    (contains s "Step response")

let test_tab1_report () =
  let s = Experiments.Runs.tab1 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains s needle))
    [ "DC level"; "DC pair"; "THD"; "Step response"; "return value" ]

let test_fig7_report () =
  let s = Experiments.Runs.fig7 () in
  Alcotest.(check bool) "shows the split segments" true
    (contains s "m6_drainseg" && contains s "m6_srcseg");
  Alcotest.(check bool) "shows the shunt" true (contains s "m6_pinhole");
  (* drain segment is a quarter of L = 1u *)
  Alcotest.(check bool) "L/4" true (contains s "L=250n");
  Alcotest.(check bool) "3L/4" true (contains s "L=750n")

let test_fig5_report () =
  let ctx = Lazy.force tiny_ctx in
  let s = Experiments.Runs.fig5 ctx in
  Alcotest.(check bool) "mentions the box" true (contains s "tolerance box");
  Alcotest.(check bool) "shows both responses" true
    (contains s "R(T)_1" && contains s "R(T)_2");
  Alcotest.(check bool) "classifies detection" true
    (contains s "leaves the box")

let test_tps_fault_well_formed () =
  Alcotest.(check string) "bridge n1-vout" "bridge:n1-vout"
    (Faults.Fault.id Experiments.Runs.tps_fault)

let () =
  Alcotest.run "experiments"
    [
      ( "iv_configs",
        [
          Alcotest.test_case "inventory" `Quick test_config_inventory;
          Alcotest.test_case "ids" `Quick test_config_ids;
          Alcotest.test_case "macro type" `Quick test_config_macro_type;
          Alcotest.test_case "step sampling spec" `Quick test_step_configs_sampling;
          Alcotest.test_case "thd stimulus" `Quick test_thd_config_stimulus;
        ] );
      ( "setup",
        [
          Alcotest.test_case "evaluators" `Quick test_setup_evaluators;
          Alcotest.test_case "reduced" `Quick test_setup_reduced;
        ] );
      ( "runs",
        [
          Alcotest.test_case "fig1" `Quick test_fig1_report;
          Alcotest.test_case "tab1" `Quick test_tab1_report;
          Alcotest.test_case "fig7" `Quick test_fig7_report;
          Alcotest.test_case "fig5" `Quick test_fig5_report;
          Alcotest.test_case "tps fault" `Quick test_tps_fault_well_formed;
        ] );
    ]
