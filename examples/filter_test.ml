(* Frequency-domain testing of the Sallen-Key macro with the AC
   test-configuration family (an extension of the paper's Table 1): author
   two AC configurations, generate optimal tests for passive and active
   faults, and show where in the frequency axis each defect is easiest to
   see.

   Run with:  dune exec examples/filter_test.exe *)

open Testgen

let fc = Macros.Sallen_key.cutoff_hz

(* configuration A: gain/phase at a parameterized frequency *)
let sk_ac_config =
  Test_config.create ~id:201 ~name:"Filter gain/phase" ~macro_type:"SK-lowpass"
    ~control_node:"in"
    ~params:
      [
        Test_param.create ~name:"freq" ~units:"Hz" ~lower:(fc /. 30.)
          ~upper:(fc *. 30.) ~seed:fc;
      ]
    ~analysis:
      (Test_config.Ac_gain
         {
           bias = (fun _ -> Circuit.Waveform.Dc 2.5);
           freq = (fun v -> v.(0));
         })
    ~returns:Test_config.Per_component
    ~return_names:[ "gain [dB]"; "phase [deg]" ]
    ~accuracy_floor:[ 0.1; 1.0 ]
    ~summary:"network-analyzer gain/phase at freq, input biased at mid-rail"

(* configuration B: DC level through the filter (catches bias faults) *)
let sk_dc_config =
  Test_config.create ~id:202 ~name:"Filter DC transfer" ~macro_type:"SK-lowpass"
    ~control_node:"in"
    ~params:
      [
        Test_param.create ~name:"vin" ~units:"V" ~lower:1.5 ~upper:3.5
          ~seed:2.5;
      ]
    ~analysis:(Test_config.Dc_levels (fun v -> [ Circuit.Waveform.Dc v.(0) ]))
    ~returns:Test_config.Per_component
    ~return_names:[ "V(out)" ]
    ~accuracy_floor:[ 1e-3 ]
    ~summary:"V(in) = vin (dc voltage value)"

let () =
  Printf.printf "%s\nnominal cutoff: %.1f Hz\n\n"
    Macros.Sallen_key.macro.Macros.Macro.description fc;
  prerr_endline "calibrating tolerance boxes...";
  let ctx =
    Experiments.Setup.create ~macro:Macros.Sallen_key.macro
      ~configs:[ sk_ac_config; sk_dc_config ]
      ()
  in
  Format.printf "fault universe: %a@." Faults.Dictionary.pp_summary
    ctx.Experiments.Setup.dictionary;
  print_newline ();

  let interesting =
    [
      ("bridge:a-b", "shorts R2: shifts the cutoff upward");
      ("bridge:b-out", "shorts the C1 feedback loop");
      ("bridge:0-ntail", "kills the buffer tail current");
      ("pinhole:m1", "buffer input device defect");
      ("bridge:a-out", "shorts C1: turns the biquad into a first-order RC");
    ]
  in
  List.iter
    (fun (fid, what) ->
      match Faults.Dictionary.find ctx.Experiments.Setup.dictionary fid with
      | None -> Printf.printf "  %-16s (not in universe)\n" fid
      | Some entry ->
          let r =
            Generate.generate ~evaluators:ctx.Experiments.Setup.evaluators
              entry
          in
          (match r.Generate.outcome with
          | Generate.Unique { config_id; params; critical_impact; _ } ->
              Printf.printf "  %-16s %-52s -> #%d at [%s], critical %s\n" fid
                what config_id
                (String.concat "; "
                   (Array.to_list (Array.map Circuit.Units.format_eng params)))
                (Circuit.Units.format_eng ~unit_symbol:"Ohm" critical_impact)
          | Generate.Undetectable { best_sensitivity; _ } ->
              Printf.printf "  %-16s %-52s -> undetectable (best S=%.2f)\n"
                fid what best_sensitivity))
    interesting;

  (* where on the frequency axis is the a-b bridge easiest to see? *)
  print_newline ();
  let ev = Evaluator.find ctx.Experiments.Setup.evaluators 201 in
  let fault = Faults.Fault.bridge "a" "b" ~resistance:10e3 in
  let g = Tps.sweep ev fault ~grid:13 () in
  (match g.Tps.axes with
  | [ (xn, xs) ] ->
      Printf.printf "tps of bridge:a-b over the frequency axis:\n";
      print_string
        (Report.Heatmap.render_1d ~x_axis:(xn, xs) ~values:g.Tps.values
           ~height:10)
  | _ -> ());
  let arg, s = Tps.argmin g in
  Printf.printf "most sensitive frequency: %s (S = %.1f)\n"
    (Circuit.Units.format_eng ~unit_symbol:"Hz" arg.(0))
    s
