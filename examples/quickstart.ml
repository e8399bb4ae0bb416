(* Quickstart: simulate the IV-converter macro, inject one fault, and ask
   whether a test configuration detects it.

   Run with:  dune exec examples/quickstart.exe *)

open Testgen

let () =
  (* 1. The macro under test: the paper's CMOS IV-converter. *)
  let macro = Macros.Iv_converter.macro in
  print_endline macro.Macros.Macro.description;
  print_newline ();

  (* 2. Its nominal operating point, straight from the DC solver. *)
  let nl = Macros.Macro.nominal_netlist macro in
  let sys = Circuit.Mna.build nl in
  let op = Circuit.Dc.operating_point sys ~time:`Dc in
  Printf.printf "nominal operating point: Vout = %.4f V (Iin node at %.4f V)\n"
    (Circuit.Mna.voltage sys op "vout")
    (Circuit.Mna.voltage sys op "iin");

  (* 3. A test: configuration #1 (DC level) at 25 uA. *)
  let config = Experiments.Iv_configs.config1 in
  let params = [| 25e-6 |] in
  let target =
    Experiments.Setup.target_of_macro macro Macros.Process.nominal
  in
  (* compile the target once; each measurement restamps the stimulus *)
  let measure target =
    Execute.compiled_observables (Execute.topology target) config params
  in
  let nominal_obs = measure target in
  Printf.printf "test: %s at lev = 25uA -> nominal V(Vout) = %.4f V\n"
    config.Test_config.config_name nominal_obs.(0);

  (* 4. Inject a bridging fault and measure again. *)
  let fault = Faults.Fault.bridge "n1" "vout" ~resistance:10e3 in
  Printf.printf "\ninjecting: %s\n" (Faults.Fault.describe fault);
  let faulty_target =
    { target with Execute.netlist = Faults.Inject.apply nl fault }
  in
  let faulty_obs = measure faulty_target in
  Printf.printf "faulty V(Vout) = %.4f V (deviation %.4f V)\n" faulty_obs.(0)
    (faulty_obs.(0) -. nominal_obs.(0));

  (* 5. Score it: a fault is detected when the response leaves the
     tolerance box (process spread + tester accuracy). *)
  let box_model =
    Tolerance.calibrate config ~nominal:target
      ~corners:
        (List.map
           (Experiments.Setup.target_of_macro macro)
           (Macros.Process.corners ()))
      ()
  in
  let evaluator = Evaluator.create config ~nominal:target ~box_model in
  let s = Evaluator.sensitivity evaluator fault params in
  Printf.printf "box half-width at this test: %.4f V\n"
    (Evaluator.box evaluator params).(0);
  Printf.printf "sensitivity S_f(T) = %.2f -> %s\n" s
    (if Sensitivity.detects s then "DETECTED" else "not detected");

  (* 6. And the same question for a much weaker version of the defect. *)
  let weak = Faults.Fault.with_impact fault 10e6 in
  let s_weak = Evaluator.sensitivity evaluator weak params in
  Printf.printf "weakened to %s: S = %.3f -> %s\n"
    (Circuit.Units.format_eng ~unit_symbol:"Ohm" 10e6)
    s_weak
    (if Sensitivity.detects s_weak then "DETECTED" else "not detected")
