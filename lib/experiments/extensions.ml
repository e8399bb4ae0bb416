open Testgen

let ua = 1e-6

let config6_ac =
  Test_config.create ~id:6 ~name:"AC closed-loop gain" ~macro_type:"IV-converter"
    ~control_node:"Iin"
    ~params:
      [
        Test_param.create ~name:"Iin_dc" ~units:"A" ~lower:(-40. *. ua)
          ~upper:(40. *. ua) ~seed:0.;
        Test_param.create ~name:"freq" ~units:"Hz" ~lower:10e3 ~upper:10e6
          ~seed:1e6;
      ]
    ~analysis:
      (Test_config.Ac_gain
         {
           bias = (fun v -> Circuit.Waveform.Dc v.(0));
           freq = (fun v -> v.(1));
         })
    ~returns:Test_config.Per_component
    ~return_names:[ "gain(Vout/Iin) [dB]"; "phase [deg]" ]
    ~accuracy_floor:[ 0.1; 1.0 ]
    ~summary:"I(Iin) = Iin_dc + small-signal; network-analyzer gain/phase at freq"

let config7_imd =
  Test_config.create ~id:7 ~name:"Two-tone IMD" ~macro_type:"IV-converter"
    ~control_node:"Iin"
    ~params:
      [
        Test_param.create ~name:"Iin_dc" ~units:"A" ~lower:0.
          ~upper:(40. *. ua) ~seed:(20. *. ua);
        Test_param.create ~name:"f0" ~units:"Hz" ~lower:1e3 ~upper:10e3
          ~seed:2e3;
      ]
    ~analysis:
      (Test_config.Tran_imd
         {
           stimulus =
             (fun v ->
               Circuit.Waveform.Multi_sine
                 {
                   offset = v.(0);
                   tones = [ (15. *. ua, 5. *. v.(1)); (15. *. ua, 6. *. v.(1)) ];
                 });
           base_freq = (fun v -> v.(1));
           k1 = 5;
           k2 = 6;
         })
    ~returns:Test_config.Per_component
    ~return_names:[ "IMD3(Vout) [%]" ]
    ~accuracy_floor:[ 0.05 ]
    ~summary:"I(Iin) = Iin_dc + 15uA@5f0 + 15uA@6f0; IMD3 measurement"

let config8_noise =
  Test_config.create ~id:8 ~name:"Output noise density"
    ~macro_type:"IV-converter" ~control_node:"Iin"
    ~params:
      [
        Test_param.create ~name:"Iin_dc" ~units:"A" ~lower:(-40. *. ua)
          ~upper:(40. *. ua) ~seed:0.;
        Test_param.create ~name:"freq" ~units:"Hz" ~lower:1e3 ~upper:10e6
          ~seed:100e3;
      ]
    ~analysis:
      (Test_config.Noise_psd
         {
           bias = (fun v -> Circuit.Waveform.Dc v.(0));
           freq = (fun v -> v.(1));
         })
    ~returns:Test_config.Per_component
    ~return_names:[ "sqrt-PSD(Vout) [nV/rtHz]" ]
    ~accuracy_floor:[ 1.0 ]
    ~summary:"I(Iin) = Iin_dc; output noise density at freq"

let iv_with_ac ?profile ?grid () =
  Setup.create ?profile ?grid ~macro:Macros.Iv_converter.macro
    ~configs:(Iv_configs.all @ [ config6_ac ])
    ()

let xac_report ctx =
  let ev6 = Evaluator.find ctx.Setup.evaluators 6 in
  let seeds = Test_config.param_values_of_seed config6_ac in
  let blind_spots = [ "bridge:n2-vout"; "pinhole:m9"; "bridge:n1-n2" ] in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "XAC -- extension: an AC (network-analyzer) configuration for the\n\
     faults the paper's five configurations see barely or not at all.\n\
     The feedback loop regulates Vout straight through a degraded output\n\
     follower, so bridges and pinholes around it are nearly invisible at\n\
     DC -- but they move the loop dynamics, which the gain/phase\n\
     measurement exposes once its parameters are optimized.\n\n";
  Buffer.add_string b (Test_config.describe config6_ac);
  Buffer.add_string b "\nper-fault view at the seed parameters:\n";
  List.iter
    (fun fid ->
      match Faults.Dictionary.find ctx.Setup.dictionary fid with
      | None -> ()
      | Some entry ->
          let fault = entry.Faults.Dictionary.fault in
          let s6, dev = Evaluator.sensitivity_and_deviation ev6 fault seeds in
          (* how do the paper's five configurations do at their seeds? *)
          let best5 =
            List.fold_left
              (fun best ev ->
                if Evaluator.config_id ev = 6 then best
                else
                  let s =
                    Evaluator.sensitivity ev fault
                      (Test_config.param_values_of_seed (Evaluator.config ev))
                  in
                  Float.min best s)
              infinity ctx.Setup.evaluators
          in
          Buffer.add_string b
            (Printf.sprintf
               "  %-18s best S over #1..#5 seeds: %8.3f   S of #6: %9.3f%s\n"
               fid best5 s6
               (if Array.length dev = 2 then
                  Printf.sprintf "  (dGain=%.2fdB dPhase=%.1fdeg)" dev.(0)
                    dev.(1)
                else ""))
    )
    blind_spots;
  (* generate the optimal #6 test for each blind-spot fault: the paper's
     point exactly — fixed tests miss what tailored optimization finds *)
  Buffer.add_string b "\noptimized #6 tests:\n";
  List.iter
    (fun fid ->
      match Faults.Dictionary.find ctx.Setup.dictionary fid with
      | None -> ()
      | Some entry ->
          let r = Generate.generate ~evaluators:[ ev6 ] entry in
          (match r.Generate.outcome with
          | Generate.Unique { params; critical_impact; _ } ->
              Buffer.add_string b
                (Printf.sprintf
                   "  %-18s [%s] detects down to %s\n" fid
                   (String.concat "; "
                      (Array.to_list
                         (Array.map Circuit.Units.format_eng params)))
                   (Circuit.Units.format_eng ~unit_symbol:"Ohm" critical_impact))
          | Generate.Undetectable { best_sensitivity; strongest_impact; _ } ->
              Buffer.add_string b
                (Printf.sprintf
                   "  %-18s stays undetectable for #6 too (best S=%.3f at %s)\n"
                   fid best_sensitivity
                   (Circuit.Units.format_eng ~unit_symbol:"Ohm" strongest_impact))))
    blind_spots;
  Buffer.contents b

let xifa_report ctx run (compaction : Compactor.result) =
  let nl =
    Macros.Macro.nominal_netlist ctx.Setup.macro
  in
  let weighted = Faults.Ifa.weigh nl ctx.Setup.dictionary in
  let detections =
    List.map
      (fun (d : Coverage.detection) ->
        (d.Coverage.det_fault_id, d.Coverage.detected_by))
      compaction.Compactor.coverage.Coverage.detections
  in
  let detected fid =
    match List.assoc_opt fid detections with
    | Some (_ :: _) -> true
    | Some [] | None -> false
  in
  let weighted_cov = Faults.Ifa.weighted_coverage weighted ~detected in
  let plain_cov = Coverage.percent compaction.Compactor.coverage in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "XIFA -- extension: IFA-style structural fault weights (cf. the paper's\n\
     sec. 1: dictionaries 'can be generated by IFA').  Bridges between nodes\n\
     sharing devices and pinholes in large-gate transistors are likelier.\n\n";
  Buffer.add_string b "heaviest faults:\n";
  List.iteri
    (fun i { Faults.Ifa.entry; weight } ->
      if i < 8 then
        Buffer.add_string b
          (Printf.sprintf "  %-22s weight %.3f  %s\n"
             entry.Faults.Dictionary.fault_id weight
             (if detected entry.Faults.Dictionary.fault_id then "covered"
              else "MISSED")))
    (Faults.Ifa.sort_by_weight weighted);
  Buffer.add_string b
    (Printf.sprintf
       "\ncompact-set coverage: %.1f%% unweighted, %.1f%% defect-likelihood \
        weighted\n"
       plain_cov weighted_cov);
  (* cost-aware production schedule of the compact set *)
  let weights =
    List.map
      (fun { Faults.Ifa.entry; weight } ->
        (entry.Faults.Dictionary.fault_id, weight))
      weighted
  in
  let tests = compaction.Compactor.coverage.Coverage.tests in
  let configs = List.map Evaluator.config ctx.Setup.evaluators in
  let schedule =
    Schedule.order ~cost_model:Schedule.default_cost_model ~configs ~weights
      ~detections tests
  in
  Buffer.add_string b
    "\ngreedy production schedule (likelihood caught per tester-second):\n";
  List.iteri
    (fun i (t : Coverage.test) ->
      let cov = List.nth schedule.Schedule.cumulative_coverage i in
      let cost = List.nth schedule.Schedule.cumulative_cost i in
      Buffer.add_string b
        (Printf.sprintf
           "  %2d. %-10s cumulative weighted coverage %6.2f%%  cost %s s\n"
           (i + 1) t.Coverage.test_label cov
           (Printf.sprintf "%.4f" cost)))
    schedule.Schedule.order;
  Buffer.add_string b
    (Printf.sprintf
       "expected tester time to first fail on a defective part: %.4f s\n"
       schedule.Schedule.expected_detection_cost);
  ignore run;
  Buffer.contents b

let xq_report ?(samples = 60) ?(seed = 424242L) ctx
    (compaction : Compactor.result) =
  let rng = Numerics.Rng.create seed in
  let fault_free =
    List.map
      (Setup.target_of_macro ctx.Setup.macro)
      (Macros.Process.monte_carlo rng ~n:samples)
  in
  let weights =
    Faults.Ifa.weigh
      (Macros.Macro.nominal_netlist ctx.Setup.macro)
      ctx.Setup.dictionary
    |> List.map (fun w ->
           (w.Faults.Ifa.entry.Faults.Dictionary.fault_id, w.Faults.Ifa.weight))
  in
  let e =
    Quality.estimate ~evaluators:ctx.Setup.evaluators
      ~tests:compaction.Compactor.coverage.Coverage.tests ~fault_free
      ~dictionary:ctx.Setup.dictionary ~weights ()
  in
  "XQ -- extension: production-quality estimate of the compact test set\n\
   (the overkill/escape trade-off the tolerance-box guardband controls,\n\
   cf. sec. 2.2's tester-accuracy discussion).\n\n"
  ^ Quality.report e

let ximd_report ctx =
  let nominal = Setup.target_of_macro ctx.Setup.macro Macros.Process.nominal in
  let config = config7_imd in
  let ev =
    Evaluator.create ~profile:ctx.Setup.profile config ~nominal
      ~box_model:(Tolerance.floor_only config)
  in
  let seeds = Test_config.param_values_of_seed config in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "XIMD -- extension: two-tone intermodulation configuration #7.\n\
     IMD3 exposes odd-order nonlinearity that a clipping-free THD sweep\n\
     can understate; the framework absorbs the new family unchanged.\n\n";
  Buffer.add_string b (Test_config.describe config);
  let nominal_obs = Evaluator.nominal_observables ev seeds in
  Buffer.add_string b
    (Printf.sprintf "\nnominal IMD3 at seed parameters: %.5f %%\n"
       nominal_obs.(0));
  Buffer.add_string b "\nseed-parameter sensitivities:\n";
  List.iter
    (fun fid ->
      match Faults.Dictionary.find ctx.Setup.dictionary fid with
      | None -> ()
      | Some entry ->
          let s = Evaluator.sensitivity ev entry.Faults.Dictionary.fault seeds in
          Buffer.add_string b (Printf.sprintf "  %-18s S = %10.3f\n" fid s))
    [ "bridge:n1-vout"; "bridge:iin-vref"; "bridge:n2-vout" ];
  (* optimize the IMD test for the virtual-ground bridge *)
  (match Faults.Dictionary.find ctx.Setup.dictionary "bridge:iin-vref" with
  | None -> ()
  | Some entry ->
      let r = Generate.generate ~evaluators:[ ev ] entry in
      (match r.Generate.outcome with
      | Generate.Unique { params; critical_impact; _ } ->
          Buffer.add_string b
            (Printf.sprintf
               "\noptimized #7 test for bridge:iin-vref: [%s], detects down \
                to %s\n"
               (String.concat "; "
                  (Array.to_list (Array.map Circuit.Units.format_eng params)))
               (Circuit.Units.format_eng ~unit_symbol:"Ohm" critical_impact))
      | Generate.Undetectable { best_sensitivity; strongest_impact; _ } ->
          Buffer.add_string b
            (Printf.sprintf
               "\nbridge:iin-vref needs impact %s before #7 sees it (best \
                S=%.3f)\n"
               (Circuit.Units.format_eng ~unit_symbol:"Ohm" strongest_impact)
               best_sensitivity)));
  Buffer.contents b

let xeq_report ctx run =
  let configs = List.map Evaluator.config ctx.Setup.evaluators in
  let classes = Equivalence.classes ~configs run.Engine.results in
  let multi = List.filter (fun c -> List.length c.Equivalence.members > 1) classes in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "XEQ -- extension: fault equivalence ('this enables collapsing of\n\
     dictionaries', sec. 2.2): faults whose optimal tests coincide are\n\
     indistinguishable to the tester and share one representative.\n\n";
  Buffer.add_string b
    (Printf.sprintf "%d faults fall into %d equivalence classes (%.2fx)\n\n"
       (List.length run.Engine.results)
       (List.length classes)
       (Equivalence.collapse_ratio classes));
  Buffer.add_string b "multi-member classes:\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "  tc%d [%s]  rep %s <- {%s}\n"
           c.Equivalence.class_config_id
           (String.concat "; "
              (Array.to_list
                 (Array.map Circuit.Units.format_eng c.Equivalence.class_params)))
           c.Equivalence.representative
           (String.concat ", " c.Equivalence.members)))
    multi;
  Buffer.contents b
