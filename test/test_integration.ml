(* End-to-end integration tests: the full ATPG flow (generation -> impact
   convergence -> compaction -> coverage -> baseline) on a reduced
   dictionary, plus cross-cutting invariants from the paper. *)

open Testgen

(* shared reduced context: DC configurations only (fast), two real process
   corners, 2-point calibration lattice *)
let ctx =
  lazy
    (Experiments.Setup.create ~profile:Execute.fast_profile ~grid:2
       ~corners:
         [
           { Macros.Process.nominal with Macros.Process.label = "res+"; dres = 0.15 };
           { Macros.Process.nominal with Macros.Process.label = "res-"; dres = -0.15 };
           { Macros.Process.nominal with Macros.Process.label = "vt+"; dvt_n = 0.05; dvt_p = 0.05 };
           { Macros.Process.nominal with Macros.Process.label = "kp-"; dkp_n = -0.1; dkp_p = -0.1 };
         ]
       ~macro:Macros.Iv_converter.macro
       ~configs:[ Experiments.Iv_configs.config1; Experiments.Iv_configs.config2 ]
       ())

let fault_ids =
  [
    "bridge:n1-vout";
    "bridge:n2-vout";
    "bridge:iin-n1";
    "bridge:ntail-vout";
    "bridge:0-iin";
    "bridge:nbias-ntail";
    "pinhole:m1";
    "pinhole:m6";
  ]

let dictionary =
  lazy
    (let full = (Lazy.force ctx).Experiments.Setup.dictionary in
     Faults.Dictionary.of_faults
       (List.map
          (fun fid ->
            match Faults.Dictionary.find full fid with
            | Some e -> e.Faults.Dictionary.fault
            | None -> Alcotest.fail ("missing fault " ^ fid))
          fault_ids))

let engine_run =
  lazy
    (let c = Lazy.force ctx in
     Engine.run ~evaluators:c.Experiments.Setup.evaluators
       (Lazy.force dictionary))

(* ------------------------------------------------------------- generation *)

let test_every_fault_gets_a_result () =
  let run = Lazy.force engine_run in
  Alcotest.(check int) "all faults processed" (List.length fault_ids)
    (List.length run.Engine.results);
  List.iter2
    (fun fid r -> Alcotest.(check string) "order kept" fid r.Generate.fault_id)
    fault_ids run.Engine.results

let test_catastrophic_faults_detected () =
  let run = Lazy.force engine_run in
  List.iter
    (fun fid ->
      let r =
        List.find (fun r -> String.equal r.Generate.fault_id fid)
          run.Engine.results
      in
      match r.Generate.outcome with
      | Generate.Unique { dictionary_sensitivity; _ } ->
          Alcotest.(check bool)
            (fid ^ " detected at dictionary impact")
            true
            (dictionary_sensitivity < 0.)
      | Generate.Undetectable _ ->
          Alcotest.fail (fid ^ " must be detectable"))
    (* n2-vout is deliberately absent: the feedback loop regulates Vout
       straight through that bridge (the second stage drives the output
       via the bridge when the follower degrades), so it is genuinely
       invisible to DC configurations at any impact *)
    [ "bridge:n1-vout"; "pinhole:m6"; "pinhole:m1" ]

let test_critical_impact_ordering () =
  (* the critical impact of a unique outcome is the boundary where the
     winning test stops detecting: by construction it is weaker (larger R)
     than any impact at which all candidates still detected *)
  let run = Lazy.force engine_run in
  List.iter
    (fun r ->
      match r.Generate.outcome with
      | Generate.Unique { critical_impact; _ } ->
          let detecting_all =
            List.filter
              (fun s -> List.length s.Generate.detecting > 1)
              r.Generate.trace
          in
          List.iter
            (fun s ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: critical %.3g >= multi-detect %.3g"
                   r.Generate.fault_id critical_impact s.Generate.impact)
                true
                (critical_impact >= s.Generate.impact *. 0.999))
            detecting_all
      | Generate.Undetectable _ -> ())
    run.Engine.results

let test_distribution_consistency () =
  let run = Lazy.force engine_run in
  let dist = Engine.distribution run in
  let total =
    List.fold_left
      (fun n (d : Engine.distribution_row) ->
        n + d.Engine.bridge_count + d.Engine.pinhole_count)
      0 dist
  in
  Alcotest.(check int) "every fault assigned to a config" (List.length fault_ids)
    total

(* -------------------------------------------------------------- compaction *)

let compaction =
  lazy
    (let c = Lazy.force ctx in
     Compactor.compact ~delta:0.15 ~evaluators:c.Experiments.Setup.evaluators
       (Lazy.force dictionary) (Lazy.force engine_run))

let test_compaction_reduces_tests () =
  let result = Lazy.force compaction in
  let n_compact = List.length result.Compactor.compact_tests in
  Alcotest.(check bool)
    (Printf.sprintf "%d compact <= %d original" n_compact
       result.Compactor.original_test_count)
    true
    (n_compact <= result.Compactor.original_test_count);
  Alcotest.(check bool) "ratio >= 1" true (Compactor.compaction_ratio result >= 1.)

let test_compaction_keeps_coverage () =
  (* the collapse screen guarantees every member fault stays detected by
     its group's collapsed test at the critical impact; at the (stronger)
     dictionary impact coverage must therefore be complete for all faults
     that were detectable in the first place *)
  let run = Lazy.force engine_run in
  let detectable =
    List.filter
      (fun r ->
        match r.Generate.outcome with
        | Generate.Unique { dictionary_sensitivity; _ } ->
            dictionary_sensitivity < 0.
        | Generate.Undetectable _ -> false)
      run.Engine.results
    |> List.map (fun r -> r.Generate.fault_id)
  in
  let result = Lazy.force compaction in
  let missed = Coverage.missed result.Compactor.coverage in
  List.iter
    (fun fid ->
      Alcotest.(check bool) (fid ^ " still covered after collapse") false
        (List.mem fid missed))
    detectable

let test_compaction_groups_partition_faults () =
  let result = Lazy.force compaction in
  let collapsed_ids =
    List.concat_map (fun ct -> ct.Compactor.ct_fault_ids)
      result.Compactor.compact_tests
    |> List.sort String.compare
  in
  (* every dictionary fault's test appears in exactly one group *)
  Alcotest.(check int) "partition" (List.length fault_ids)
    (List.length collapsed_ids);
  Alcotest.(check int) "original count covers all faults"
    (List.length fault_ids) result.Compactor.original_test_count;
  Alcotest.(check int) "no duplicates"
    (List.length collapsed_ids)
    (List.length (List.sort_uniq String.compare collapsed_ids))

(* ---------------------------------------------------------------- baseline *)

let test_baseline_never_beats_optimized () =
  let c = Lazy.force ctx in
  let summary =
    Baseline.compare ~evaluators:c.Experiments.Setup.evaluators
      (Lazy.force dictionary) (Lazy.force engine_run)
  in
  Alcotest.(check bool) "optimized coverage >= seed coverage" true
    (summary.Baseline.optimized_covered >= summary.Baseline.seed_covered);
  (* per-fault: the optimized critical impact is at least the seed one
     (modulo bisection resolution) *)
  List.iter
    (fun cmp ->
      match
        (cmp.Baseline.optimized_critical_impact, cmp.Baseline.seed_critical_impact)
      with
      | Some o, Some s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: optimized %.3g ~>= seed %.3g"
               cmp.Baseline.cmp_fault_id o s)
            true
            (o >= s *. 0.5)
      | (Some _ | None), _ -> ())
    summary.Baseline.comparisons

(* ------------------------------------------------------- soft-region claim *)

let test_soft_region_argmin_stability () =
  (* sec. 3.2: once the impact is weakened into the soft-fault region the
     tps landscape shape -- and the argmin -- stabilizes.  We start from an
     already-weakened model (the dictionary impact itself may sit in the
     hard region, exactly as the paper's Fig. 2 vs Figs. 3-4 shows). *)
  let c = Lazy.force ctx in
  let ev = Evaluator.find c.Experiments.Setup.evaluators 1 in
  let fault = Faults.Fault.bridge "0" "iin" ~resistance:40e3 in
  let r = Tps.classify_region ev fault ~grid:9 ~factors:[| 2.; 4. |] () in
  Alcotest.(check bool) "soft region" true (r.Tps.region = `Soft)

(* ----------------------------------------------------- THD pipeline sanity *)

let test_thd_pipeline_detects_dynamics_fault () =
  (* the iin-vref bridge is invisible to DC tests (virtual short) but the
     THD configuration sees it -- the paper's motivating example for
     having several configuration families *)
  let nominal =
    Experiments.Setup.target_of_macro Macros.Iv_converter.macro
      Macros.Process.nominal
  in
  let config = Experiments.Iv_configs.config3 in
  let ev =
    Evaluator.create ~profile:Execute.fast_profile config ~nominal
      ~box_model:(Tolerance.floor_only config)
  in
  let fault = Faults.Fault.bridge "iin" "vref" ~resistance:1e3 in
  let s_thd = Evaluator.sensitivity ev fault [| 20e-6; 50e3 |] in
  Alcotest.(check bool)
    (Printf.sprintf "THD detects iin-vref bridge (S=%.2f)" s_thd)
    true (s_thd < 0.);
  (* while the DC configuration stays blind *)
  let dc = Experiments.Iv_configs.config1 in
  let ev_dc =
    Evaluator.create dc ~nominal ~box_model:(Tolerance.floor_only dc)
  in
  let s_dc = Evaluator.sensitivity ev_dc fault [| 10e-6 |] in
  Alcotest.(check bool)
    (Printf.sprintf "DC misses iin-vref bridge (S=%.2f)" s_dc)
    true (s_dc > 0.)

let () =
  Alcotest.run "integration"
    [
      ( "generation",
        [
          Alcotest.test_case "all faults processed" `Slow test_every_fault_gets_a_result;
          Alcotest.test_case "catastrophic detected" `Slow test_catastrophic_faults_detected;
          Alcotest.test_case "critical impact ordering" `Slow test_critical_impact_ordering;
          Alcotest.test_case "distribution consistent" `Slow test_distribution_consistency;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "reduces tests" `Slow test_compaction_reduces_tests;
          Alcotest.test_case "keeps coverage" `Slow test_compaction_keeps_coverage;
          Alcotest.test_case "partitions faults" `Slow test_compaction_groups_partition_faults;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "optimized wins" `Slow test_baseline_never_beats_optimized;
        ] );
      ( "paper claims",
        [
          Alcotest.test_case "soft-region stability" `Slow test_soft_region_argmin_stability;
          Alcotest.test_case "THD catches dynamics fault" `Slow test_thd_pipeline_detects_dynamics_fault;
        ] );
    ]
