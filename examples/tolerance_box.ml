(* Tolerance boxes under the microscope (paper Fig. 5 and sec. 2.2):
   calibrate the p = 2 box of configuration #2, then verify by Monte-Carlo
   that fault-free process samples stay inside it -- the "safely boxes in
   expectable response values" property.

   Run with:  dune exec examples/tolerance_box.exe *)

open Testgen

let () =
  let macro = Macros.Iv_converter.macro in
  let config = Experiments.Iv_configs.config2 in
  let nominal = Experiments.Setup.target_of_macro macro Macros.Process.nominal in
  let corners =
    List.map (Experiments.Setup.target_of_macro macro) (Macros.Process.corners ())
  in
  prerr_endline "calibrating...";
  let box_model = Tolerance.calibrate config ~nominal ~corners () in
  let seeds = Test_config.param_values_of_seed config in
  let box = Tolerance.box box_model seeds in
  let measure target =
    Execute.compiled_observables (Execute.topology target) config seeds
  in
  let nominal_obs = measure nominal in
  Printf.printf "configuration #2 at seed parameters (base=0, elev=20uA):\n";
  Printf.printf "  nominal return values: r1 = %.4f V, r2 = %.4f V\n"
    nominal_obs.(0) nominal_obs.(1);
  Printf.printf "  tolerance box: +/- %.4f V and +/- %.4f V\n" box.(0) box.(1);

  (* Monte-Carlo verification: fault-free samples must stay inside *)
  let rng = Numerics.Rng.create 2001L in
  let n = 200 in
  let escaped = ref 0 in
  let worst = ref 0. in
  List.iter
    (fun point ->
      let target = Experiments.Setup.target_of_macro macro point in
      match measure target with
      | obs ->
          let dev = Execute.deviations config ~nominal:nominal_obs ~faulty:obs in
          let inside =
            Array.for_all2 (fun d b -> Float.abs d <= b) dev box
          in
          Array.iteri
            (fun i d -> worst := Float.max !worst (Float.abs d /. box.(i)))
            dev;
          if not inside then incr escaped
      | exception Execute.Execution_failure _ -> ())
    (Macros.Process.monte_carlo rng ~n);
  Printf.printf
    "\nMonte-Carlo check (%d fault-free 3-sigma process samples):\n\
    \  escaped the box: %d (each would be overkill: a good die failing test)\n\
    \  worst |deviation| / box: %.2f -- the guardband trades this residual\n\
    \  overkill risk against test escape risk\n"
    n !escaped !worst;

  (* contrast: a genuinely faulty circuit leaves the box *)
  let fault = Faults.Fault.bridge "nmir" "vout" ~resistance:10e3 in
  let target =
    { nominal with Execute.netlist = Faults.Inject.apply nominal.Execute.netlist fault }
  in
  let obs = measure target in
  let dev = Execute.deviations config ~nominal:nominal_obs ~faulty:obs in
  Printf.printf
    "\nfaulty circuit (%s):\n  deviations %.4f V / %.4f V -> %s\n"
    (Faults.Fault.describe fault) dev.(0) dev.(1)
    (if Array.exists2 (fun d b -> Float.abs d > b) dev box then
       "outside the box: only a faulty macro can produce this response"
     else "inside the box");
  Printf.printf "  sensitivity: %.2f\n"
    (Sensitivity.compute config ~box ~nominal:nominal_obs ~faulty:obs)
