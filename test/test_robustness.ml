(* Robustness tests: graceful failure modes, tight budgets, hostile
   inputs. *)

open Testgen

(* ------------------------------------------------------ parser resilience *)

let prop_parser_never_raises =
  QCheck.Test.make ~name:"parser returns Ok/Error on arbitrary input, never raises"
    ~count:300
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun junk ->
      match Circuit.Spice_parser.parse junk with
      | Ok _ | Error _ -> true)

let prop_parser_structured_junk =
  QCheck.Test.make
    ~name:"parser survives structured junk cards" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 1)) in
      let pick l = List.nth l (Numerics.Rng.int rng ~bound:(List.length l)) in
      let card () =
        String.concat " "
          (List.init
             (1 + Numerics.Rng.int rng ~bound:5)
             (fun _ ->
               pick [ "Rx"; "a"; "0"; "10k"; "sine(1,"; ")"; "W=";
                      "=1"; "M1"; ".model"; "+"; "nan"; "-"; "1e999" ]))
      in
      let deck =
        "title\n" ^ String.concat "\n" (List.init 6 (fun _ -> card ()))
      in
      match Circuit.Spice_parser.parse deck with
      | Ok _ | Error _ -> true)

(* --------------------------------------------------------- AC error paths *)

let iv_target =
  Experiments.Setup.target_of_macro Macros.Iv_converter.macro
    Macros.Process.nominal

(* one measurement through a freshly compiled plan *)
let observables ?profile config target values =
  Execute.compiled_observables ?profile (Execute.topology target) config values

let test_ac_nonpositive_frequency () =
  let config =
    Test_config.create ~id:90 ~name:"bad-ac" ~macro_type:"IV-converter"
      ~control_node:"Iin"
      ~params:
        [ Test_param.create ~name:"x" ~units:"" ~lower:0. ~upper:1. ~seed:0.5 ]
      ~analysis:
        (Test_config.Ac_gain
           { bias = (fun _ -> Circuit.Waveform.Dc 0.); freq = (fun _ -> 0.) })
      ~returns:Test_config.Per_component
      ~return_names:[ "g"; "p" ]
      ~accuracy_floor:[ 0.1; 1. ]
      ~summary:""
  in
  (try
     ignore (observables config iv_target [| 0.5 |]);
     Alcotest.fail "zero frequency accepted"
   with Execute.Execution_failure _ -> ())

let test_imd_nyquist_guard () =
  (* products above Nyquist for the chosen profile must fail loudly *)
  let config =
    Test_config.create ~id:91 ~name:"bad-imd" ~macro_type:"IV-converter"
      ~control_node:"Iin"
      ~params:
        [ Test_param.create ~name:"f0" ~units:"Hz" ~lower:1e3 ~upper:1e4 ~seed:2e3 ]
      ~analysis:
        (Test_config.Tran_imd
           {
             stimulus =
               (fun v ->
                 Circuit.Waveform.Multi_sine
                   { offset = 0.; tones = [ (1e-6, 40. *. v.(0)); (1e-6, 41. *. v.(0)) ] });
             base_freq = (fun v -> v.(0));
             k1 = 40;
             k2 = 41;
           })
      ~returns:Test_config.Per_component
      ~return_names:[ "imd" ]
      ~accuracy_floor:[ 0.05 ]
      ~summary:""
  in
  (* fast profile: 64 samples per base period -> Nyquist bin 32 < 42 *)
  (try
     ignore
       (observables ~profile:Execute.fast_profile config iv_target
          [| 2e3 |]);
     Alcotest.fail "above-Nyquist products accepted"
   with Execute.Execution_failure _ -> ())

(* ----------------------------------------------------- generation budgets *)

let dc_evaluator =
  lazy
    (let config = Experiments.Iv_configs.config1 in
     Evaluator.create config ~nominal:iv_target
       ~box_model:(Tolerance.floor_only config))

let test_generate_tiny_budget () =
  (* an exhausted impact budget must still return a well-formed outcome *)
  let options =
    { Generate.default_options with Generate.max_impact_steps = 2 }
  in
  let entry =
    {
      Faults.Dictionary.fault_id = "bridge:n1-vout";
      fault = Faults.Fault.bridge "n1" "vout" ~resistance:10e3;
    }
  in
  let r =
    Generate.generate ~options ~evaluators:[ Lazy.force dc_evaluator ] entry
  in
  (match r.Generate.outcome with
  | Generate.Unique { critical_impact; _ } ->
      Alcotest.(check bool) "impact positive" true (critical_impact > 0.)
  | Generate.Undetectable _ -> ());
  Alcotest.(check bool) "trace bounded" true
    (List.length r.Generate.trace <= 8)

let test_generate_narrow_span () =
  (* an impact span of ~1 pins the search at the dictionary value *)
  let options = { Generate.default_options with Generate.impact_span = 1.01 } in
  let entry =
    {
      Faults.Dictionary.fault_id = "bridge:0-vdd";
      fault = Faults.Fault.bridge "0" "vdd" ~resistance:10e3;
    }
  in
  let r =
    Generate.generate ~options ~evaluators:[ Lazy.force dc_evaluator ] entry
  in
  match r.Generate.outcome with
  | Generate.Undetectable { strongest_impact; _ } ->
      Alcotest.(check bool) "stayed near the dictionary impact" true
        (strongest_impact > 10e3 /. 2.)
  | Generate.Unique _ -> Alcotest.fail "supply bridge cannot be seen at ~10k"

(* -------------------------------------------------------- noise edge cases *)

let test_noise_unknown_node () =
  let nl = Macros.Macro.nominal_netlist Macros.Iv_converter.macro in
  let sys = Circuit.Mna.build nl in
  let op = Circuit.Dc.operating_point sys ~time:`Dc in
  (try
     ignore
       (Circuit.Noise.output_noise sys ~op ~observe:"nonexistent"
          ~freqs:[| 1e3 |]);
     Alcotest.fail "unknown node accepted"
   with Not_found -> ())

let test_noise_iv_converter_scale () =
  (* sanity scale: a transimpedance amp with 20k/50k/100k resistors sits in
     the tens of nV/rtHz at the output in the flat band *)
  let nl = Macros.Macro.nominal_netlist Macros.Iv_converter.macro in
  let sys = Circuit.Mna.build nl in
  let op = Circuit.Dc.operating_point sys ~time:`Dc in
  match Circuit.Noise.output_noise sys ~op ~observe:"vout" ~freqs:[| 1e3 |] with
  | [ p ] ->
      let nv = 1e9 *. sqrt p.Circuit.Noise.total_psd in
      Alcotest.(check bool)
        (Printf.sprintf "%.1f nV/rtHz plausible" nv)
        true
        (nv > 5. && nv < 500.)
  | _ -> Alcotest.fail "one point"

(* ------------------------------------------------------ failure injection *)

module Fp = Numerics.Failpoint

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

let test_failpoint_determinism () =
  let pattern seed =
    Fp.with_config ~seed
      [ { Fp.point = "p"; probability = 0.5; max_triggers = None } ]
      (fun () -> List.init 64 (fun _ -> Fp.should_fail "p"))
  in
  Alcotest.(check bool) "same seed, same pattern" true (pattern 7L = pattern 7L);
  Alcotest.(check bool) "seed changes the pattern" true (pattern 7L <> pattern 8L);
  Alcotest.(check bool) "unconfigured afterwards" false (Fp.should_fail "p")

let test_failpoint_trigger_cap () =
  Fp.with_config [ Fp.fail_always ~max_triggers:3 "q" ] (fun () ->
      let fired = List.init 10 (fun _ -> Fp.should_fail "q") in
      Alcotest.(check (list bool)) "first three queries fire"
        [ true; true; true; false; false; false; false; false; false; false ]
        fired;
      Alcotest.(check int) "queries counted" 10 (Fp.query_count "q");
      Alcotest.(check int) "triggers counted" 3 (Fp.trigger_count "q"))

let iv_system () =
  Circuit.Mna.build (Macros.Macro.nominal_netlist Macros.Iv_converter.macro)

let test_dc_nan_guard () =
  let sys = iv_system () in
  (* every iterate corrupted: the finiteness guard must reject the run as
     non-convergence rather than accept NaN node voltages *)
  Fp.with_config [ Fp.fail_always "dc.nan_solution" ] (fun () ->
      try
        ignore (Circuit.Dc.solve sys ~time:`Dc);
        Alcotest.fail "NaN iterate accepted as an operating point"
      with Circuit.Dc.No_convergence _ -> ());
  (* a single corrupted iterate: the homotopy ladder recovers and the
     accepted solution is finite *)
  Fp.with_config [ Fp.fail_always ~max_triggers:1 "dc.nan_solution" ]
    (fun () ->
      let r = Circuit.Dc.solve sys ~time:`Dc in
      Alcotest.(check bool) "finite solution" true
        (Array.for_all Float.is_finite r.Circuit.Dc.solution))

let test_dc_singular_recovery () =
  let sys = iv_system () in
  let clean = Circuit.Dc.solve sys ~time:`Dc in
  Fp.with_config [ Fp.fail_always ~max_triggers:1 "dc.singular" ] (fun () ->
      let r = Circuit.Dc.solve sys ~time:`Dc in
      Alcotest.(check bool) "homotopy engaged" true
        (r.Circuit.Dc.gmin_steps > 0 || r.Circuit.Dc.source_steps > 0);
      Array.iteri
        (fun i v ->
          Alcotest.(check bool) "same operating point" true
            (Float.abs (v -. clean.Circuit.Dc.solution.(i)) < 1e-6))
        r.Circuit.Dc.solution)

(* Two singular attempts — the direct attempt and the first gmin rung —
   break the gmin chain, so the solve must land on the source-stepping
   ladder: all 8 gmin stages counted as spent, all 9 source stages
   walked. *)
let test_dc_source_step_ladder () =
  let sys = iv_system () in
  let clean = Circuit.Dc.solve sys ~time:`Dc in
  Fp.with_config [ Fp.fail_always ~max_triggers:2 "dc.singular" ] (fun () ->
      let r = Circuit.Dc.solve sys ~time:`Dc in
      Alcotest.(check int) "gmin stages" 8 r.Circuit.Dc.gmin_steps;
      Alcotest.(check int) "source stages" 9 r.Circuit.Dc.source_steps;
      Array.iteri
        (fun i v ->
          Alcotest.(check bool) "same operating point" true
            (Float.abs (v -. clean.Circuit.Dc.solution.(i)) < 1e-6))
        r.Circuit.Dc.solution)

(* A seeded share of failed step solves must be absorbed by local step
   halving: the waveform keeps its grid and stays finite, and the
   halvings counter shows the refinement ran. *)
let test_tran_step_halving () =
  let sys = iv_system () in
  let clean = Circuit.Tran.simulate sys ~tstop:2e-6 ~dt:1e-7 ~observe:"vout" in
  Obs.enable ();
  let v =
    Fun.protect ~finally:Obs.shutdown (fun () ->
        let r =
          Fp.with_config ~seed:3L
            [ { Fp.point = "dc.no_convergence"; probability = 0.2; max_triggers = None } ]
            (fun () ->
              Circuit.Tran.simulate sys ~tstop:2e-6 ~dt:1e-7 ~observe:"vout")
        in
        let halvings =
          Option.value ~default:0
            (List.assoc_opt "solver.tran.halvings" (Obs.counters ()))
        in
        Alcotest.(check bool)
          (Printf.sprintf "steps were split (%d halvings)" halvings)
          true (halvings > 0);
        r)
  in
  Alcotest.(check int) "same grid as clean" (Array.length clean)
    (Array.length v);
  Alcotest.(check bool) "finite" true (Array.for_all Float.is_finite v)

let test_tran_step_failure_injection () =
  let sys = iv_system () in
  Fp.with_config [ Fp.fail_always ~max_triggers:1 "tran.step_failure" ]
    (fun () ->
      try
        ignore
          (Circuit.Tran.simulate sys ~tstop:1e-6 ~dt:1e-7 ~observe:"vout");
        Alcotest.fail "injected step failure not raised"
      with Circuit.Tran.Step_failure _ -> ())

(* --------------------------------------------------- retry ladder (unit) *)

let rung_labels policy =
  Resilience.baseline_label
  :: List.map (fun r -> r.Resilience.rung_label) policy.Resilience.ladder

let test_protect_ladder_walk () =
  let seen = ref [] in
  let outcome =
    Resilience.protect ~policy:Resilience.default_policy ~fault_id:"f"
      (fun rung ->
        let label =
          match rung with
          | None -> Resilience.baseline_label
          | Some r -> r.Resilience.rung_label
        in
        seen := label :: !seen;
        if List.length !seen < 3 then
          raise (Circuit.Dc.No_convergence "synthetic");
        42)
  in
  Alcotest.(check (list string)) "walked in ladder order"
    [ "baseline"; "more-newton"; "raise-gmin" ]
    (List.rev !seen);
  (match outcome with
  | Resilience.Recovered (v, attempts) ->
      Alcotest.(check int) "value" 42 v;
      Alcotest.(check int) "three attempts" 3 (List.length attempts)
  | _ -> Alcotest.fail "expected a recovery");
  Alcotest.(check (option string)) "winning rung" (Some "raise-gmin")
    (Resilience.recovery_rung outcome)

let test_protect_quarantine_attempts () =
  match
    Resilience.protect ~policy:Resilience.default_policy ~fault_id:"f"
      (fun _ -> raise (Circuit.Dc.No_convergence "synthetic"))
  with
  | Resilience.Failed d ->
      Alcotest.(check (list string)) "baseline plus every rung attempted"
        (rung_labels Resilience.default_policy)
        (List.map
           (fun (a : Resilience.attempt) -> a.Resilience.attempt_rung)
           d.Resilience.diag_attempts)
  | _ -> Alcotest.fail "expected a quarantine"

let test_protect_unrecoverable_propagates () =
  try
    ignore
      (Resilience.protect ~policy:Resilience.default_policy ~fault_id:"f"
         (fun _ -> failwith "programming error"));
    Alcotest.fail "programming error swallowed by the retry ladder"
  with Failure m -> Alcotest.(check string) "propagated" "programming error" m

(* ------------------------------------------------ engine under injection *)

let fresh_dc_evaluator () =
  let config = Experiments.Iv_configs.config1 in
  Evaluator.create config ~nominal:iv_target
    ~box_model:(Tolerance.floor_only config)

let resilience_dictionary =
  Faults.Dictionary.of_faults
    [
      Faults.Fault.bridge "n1" "vout" ~resistance:10e3;
      Faults.Fault.bridge "n2" "vout" ~resistance:10e3;
      Faults.Fault.bridge "iin" "n1" ~resistance:10e3;
      Faults.Fault.bridge "0" "vdd" ~resistance:10e3;
      Faults.Fault.pinhole "m6" ~r_shunt:2e3;
    ]

let dict_size = Faults.Dictionary.size resilience_dictionary

(* clean reference run shared by the checkpoint tests *)
let resilience_run =
  lazy (Engine.run ~evaluators:[ fresh_dc_evaluator () ] resilience_dictionary)

let test_engine_recovers_injected_failures () =
  (* the engine scopes injection per fault, so the trigger cap is a
     per-fault budget: each fault's first three attempts absorb three
     injected DC failures and the fourth rung completes it — every fault
     recovers on the same rung, whatever the execution order *)
  Fp.with_config [ Fp.fail_always ~max_triggers:3 "dc.no_convergence" ]
    (fun () ->
      let run =
        Engine.run ~evaluators:[ fresh_dc_evaluator () ] resilience_dictionary
      in
      Alcotest.(check int) "every fault reported" dict_size
        (List.length run.Engine.reports);
      Alcotest.(check int) "nothing quarantined" 0
        (List.length run.Engine.failed_faults);
      Alcotest.(check int) "every fault produced a result" dict_size
        (List.length run.Engine.results);
      Alcotest.(check int) "every fault needed the ladder" dict_size
        run.Engine.recovered_count;
      Alcotest.(check int) "all recovered on the third rung" dict_size
        (List.assoc "relax-reltol" run.Engine.rung_stats))

let test_engine_quarantines_unrecoverable_faults () =
  (* unlimited injection: every attempt of every fault fails, yet the run
     completes with a diagnosis per fault instead of aborting *)
  Fp.with_config [ Fp.fail_always "dc.no_convergence" ] (fun () ->
      let run =
        Engine.run ~evaluators:[ fresh_dc_evaluator () ] resilience_dictionary
      in
      Alcotest.(check int) "every fault reported" dict_size
        (List.length run.Engine.reports);
      Alcotest.(check int) "every fault quarantined" dict_size
        (List.length run.Engine.failed_faults);
      Alcotest.(check int) "no results" 0 (List.length run.Engine.results);
      List.iter
        (fun (d : Resilience.diagnosis) ->
          Alcotest.(check (list string)) "baseline plus every rung attempted"
            (rung_labels Resilience.default_policy)
            (List.map
               (fun (a : Resilience.attempt) -> a.Resilience.attempt_rung)
               d.Resilience.diag_attempts);
          Alcotest.(check bool) "diagnosis names the injection" true
            (contains d.Resilience.diag_error "injected"))
        run.Engine.failed_faults)

let test_engine_fail_fast () =
  Fp.with_config [ Fp.fail_always "dc.no_convergence" ] (fun () ->
      let policy =
        { Resilience.default_policy with Resilience.fail_fast = true }
      in
      try
        ignore
          (Engine.run ~policy
             ~evaluators:[ fresh_dc_evaluator () ]
             resilience_dictionary);
        Alcotest.fail "fail-fast policy did not abort"
      with Engine.Fault_failure d ->
        Alcotest.(check string) "aborted on the first fault" "bridge:n1-vout"
          d.Resilience.diag_fault_id)

let test_engine_deterministic_under_seed () =
  (* probabilistic injection under a fixed seed: two runs from fresh
     evaluators are indistinguishable, ladder walks included *)
  let run_once () =
    Fp.with_config ~seed:11L
      [ { Fp.point = "dc.no_convergence"; probability = 0.2; max_triggers = Some 6 } ]
      (fun () ->
        Engine.run ~evaluators:[ fresh_dc_evaluator () ] resilience_dictionary)
  in
  let a = run_once () in
  let b = run_once () in
  Alcotest.(check string) "identical surviving results"
    (Session.to_string a.Engine.results)
    (Session.to_string b.Engine.results);
  Alcotest.(check (list (pair string int))) "identical rung statistics"
    a.Engine.rung_stats b.Engine.rung_stats;
  Alcotest.(check int) "identical recovery count" a.Engine.recovered_count
    b.Engine.recovered_count;
  Alcotest.(check (list string)) "identical quarantine list"
    (List.map (fun d -> d.Resilience.diag_fault_id) a.Engine.failed_faults)
    (List.map (fun d -> d.Resilience.diag_fault_id) b.Engine.failed_faults)

let test_attempt_budget_quarantines () =
  (* a 1-evaluation budget cannot finish any attempt: every rung fails with
     Budget_exhausted and the fault is quarantined rather than spinning *)
  let policy =
    { Resilience.default_policy with Resilience.attempt_budget = Some 1 }
  in
  let dict = Faults.Dictionary.take resilience_dictionary 1 in
  let run = Engine.run ~policy ~evaluators:[ fresh_dc_evaluator () ] dict in
  match run.Engine.failed_faults with
  | [ d ] ->
      Alcotest.(check bool) "diagnosis names the budget" true
        (contains d.Resilience.diag_error "budget")
  | _ -> Alcotest.fail "expected exactly one quarantined fault"

(* ---------------------------------------------------- checkpoint / resume *)

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let test_checkpoint_resume_bit_for_bit () =
  let reference = Lazy.force resilience_run in
  let expected = Session.to_string reference.Engine.results in
  let path = Filename.temp_file "atpg-resume" ".session" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* phase 1: a run killed after two faults, mid-write of the third *)
      (match Session.checkpoint_create ~path with
      | Error m -> Alcotest.fail m
      | Ok ck ->
          List.iteri
            (fun i r -> if i < 2 then Session.checkpoint_append ck r)
            reference.Engine.results;
          Session.checkpoint_close ck);
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "result bridge:torn\nfault bridge a b 1000\n";
      close_out oc;
      (* phase 2: resume salvages the two complete blocks, drops the torn
         one, and finishes the dictionary *)
      match Session.checkpoint_resume ~path with
      | Error m -> Alcotest.fail m
      | Ok (ck, prior) ->
          Alcotest.(check int) "torn tail dropped" 2 (List.length prior);
          let run =
            Fun.protect
              ~finally:(fun () -> Session.checkpoint_close ck)
              (fun () ->
                Engine.run ~resume:prior
                  ~checkpoint:(Session.checkpoint_append ck)
                  ~evaluators:[ fresh_dc_evaluator () ]
                  resilience_dictionary)
          in
          Alcotest.(check int) "two faults resumed" 2 run.Engine.resumed_count;
          Alcotest.(check int) "every fault reported" dict_size
            (List.length run.Engine.reports);
          Alcotest.(check string) "results match the uninterrupted run"
            expected
            (Session.to_string run.Engine.results);
          Alcotest.(check string) "checkpoint file is byte-identical"
            (Session.to_checkpoint_string reference.Engine.results)
            (read_file path))

let test_load_partial_salvages_prefix () =
  let results = (Lazy.force resilience_run).Engine.results in
  let n = List.length results in
  let prefix =
    Session.to_string (List.filteri (fun i _ -> i < n - 1) results)
  in
  (* a mid-write kill: a block torn in the middle of a candidate line *)
  let torn =
    prefix ^ "result bridge:torn\nfault bridge a b 1000\ncandidate 1 0.5"
  in
  let path = Filename.temp_file "atpg-partial" ".session" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc torn;
      close_out oc;
      (match Session.load ~path with
      | Ok _ -> Alcotest.fail "strict load accepted a torn session"
      | Error _ -> ());
      match Session.load_partial ~path with
      | Error m -> Alcotest.fail m
      | Ok partial ->
          Alcotest.(check int) "only the torn block dropped" (n - 1)
            (List.length partial))

(* -------------------------------------------------- session hostile input *)

let prop_session_never_raises =
  QCheck.Test.make
    ~name:"session parser returns Ok/Error on arbitrary input" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 300))
    (fun junk ->
      match Session.of_string ("atpg-session 1\n" ^ junk) with
      | Ok _ | Error _ -> true)

let () =
  Alcotest.run "robustness"
    [
      ( "parser",
        [
          QCheck_alcotest.to_alcotest prop_parser_never_raises;
          QCheck_alcotest.to_alcotest prop_parser_structured_junk;
        ] );
      ( "execute",
        [
          Alcotest.test_case "ac zero frequency" `Quick test_ac_nonpositive_frequency;
          Alcotest.test_case "imd nyquist guard" `Quick test_imd_nyquist_guard;
        ] );
      ( "generate",
        [
          Alcotest.test_case "tiny impact budget" `Quick test_generate_tiny_budget;
          Alcotest.test_case "narrow impact span" `Quick test_generate_narrow_span;
        ] );
      ( "noise",
        [
          Alcotest.test_case "unknown node" `Quick test_noise_unknown_node;
          Alcotest.test_case "output scale" `Quick test_noise_iv_converter_scale;
        ] );
      ( "session",
        [ QCheck_alcotest.to_alcotest prop_session_never_raises ] );
      ( "failpoint",
        [
          Alcotest.test_case "seeded determinism" `Quick
            test_failpoint_determinism;
          Alcotest.test_case "trigger cap" `Quick test_failpoint_trigger_cap;
          Alcotest.test_case "dc NaN guard" `Quick test_dc_nan_guard;
          Alcotest.test_case "dc singular recovery" `Quick
            test_dc_singular_recovery;
          Alcotest.test_case "dc source-step ladder" `Quick
            test_dc_source_step_ladder;
          Alcotest.test_case "tran step failure" `Quick
            test_tran_step_failure_injection;
          Alcotest.test_case "tran step halving" `Quick test_tran_step_halving;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "ladder walk" `Quick test_protect_ladder_walk;
          Alcotest.test_case "quarantine attempts" `Quick
            test_protect_quarantine_attempts;
          Alcotest.test_case "unrecoverable propagates" `Quick
            test_protect_unrecoverable_propagates;
        ] );
      ( "engine",
        [
          Alcotest.test_case "recovers injected failures" `Slow
            test_engine_recovers_injected_failures;
          Alcotest.test_case "quarantines unrecoverable faults" `Quick
            test_engine_quarantines_unrecoverable_faults;
          Alcotest.test_case "fail fast" `Quick test_engine_fail_fast;
          Alcotest.test_case "deterministic under seed" `Slow
            test_engine_deterministic_under_seed;
          Alcotest.test_case "attempt budget quarantines" `Quick
            test_attempt_budget_quarantines;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume bit-for-bit" `Slow
            test_checkpoint_resume_bit_for_bit;
          Alcotest.test_case "partial load salvage" `Quick
            test_load_partial_salvages_prefix;
        ] );
    ]
