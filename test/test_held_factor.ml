(* Held-factorization parity.

   A linear plan's workspace keeps its factorization from solve to
   solve (Circuit.Dc.solve), so a warm evaluator answers from whatever
   the previous pair left behind.  Each check below runs warm on the
   backend under test and compares with the dense backend: cold where
   it can be — every pair on a fresh fork of the evaluator, whose
   compiled sites and workspaces start empty — and otherwise on a fresh
   context. *)

let bits = Int64.bits_of_float

let vec_bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if bits x <> bits b.(i) then ok := false) a;
      !ok)

let chain = Macros.Filter_chain.sk_chain ~stages:2
let ladder = Macros.Rc_ladder.macro ~sections:4
let ctx ?backend macro = Experiments.Setup.probe ?backend ~macro ()
let cold ev = List.hd (Testgen.Evaluator.fork [ ev ])

(* Two fault sites of a four-stage chain, several impacts at one of
   them, three points of three DC levels, evaluated fault-major on one
   evaluator. *)
let test_cross_product_parity backend () =
  let macro = Macros.Filter_chain.sk_chain ~stages:4 in
  let n_levels = 3 in
  let config =
    Testgen.Test_config.create ~id:951 ~name:"Held-factorization parity"
      ~macro_type:macro.Macros.Macro.macro_type ~control_node:"in"
      ~params:
        [
          Testgen.Test_param.create ~name:"v" ~units:"V" ~lower:1.0 ~upper:4.0
            ~seed:2.0;
        ]
      ~analysis:
        (Testgen.Test_config.Dc_levels
           (fun v ->
             List.init n_levels (fun k ->
                 Circuit.Waveform.Dc (v.(0) +. (0.5 *. float_of_int k)))))
      ~returns:Testgen.Test_config.Per_component
      ~return_names:(List.init n_levels (Printf.sprintf "V(out)@%d"))
      ~accuracy_floor:(List.init n_levels (fun _ -> 1e-3))
      ~summary:"dc levels for the held-factorization parity test"
  in
  let evaluator backend =
    Testgen.Evaluator.create ~backend config
      ~nominal:(Experiments.Setup.target_of_macro macro Macros.Process.nominal)
      ~box_model:(Testgen.Tolerance.floor_only config)
  in
  let ev = evaluator backend and reference = evaluator Circuit.Mna.Dense in
  let base = Faults.Fault.bridge "in" "s2o" ~resistance:10e3 in
  let other_site = Faults.Fault.bridge "in" "s1o" ~resistance:10e3 in
  let faults =
    other_site
    :: List.map (Faults.Fault.with_impact base) [ 10e3; 1e3; 200.; 47e3 ]
  in
  let points = [ [| 2.0 |]; [| 1.25 |]; [| 3.5 |] ] in
  List.iter
    (fun f ->
      List.iteri
        (fun p values ->
          let s_warm, dev_warm =
            Testgen.Evaluator.sensitivity_and_deviation ev f values
          in
          let s_cold, dev_cold =
            Testgen.Evaluator.sensitivity_and_deviation (cold reference) f
              values
          in
          let label what =
            Printf.sprintf "%s at %g ohm, point %d: %s" (Faults.Fault.id f)
              (Faults.Fault.impact_resistance f) p what
          in
          Alcotest.(check bool) (label "sensitivity bit-identical") true
            (vec_bits_equal [| s_warm |] [| s_cold |]);
          Alcotest.(check bool) (label "deviations bit-identical") true
            (vec_bits_equal dev_warm dev_cold))
        points)
    faults;
  Alcotest.(check int) "one evaluation per pair"
    (List.length faults * List.length points)
    (Testgen.Evaluator.evaluation_count ev)

let seed_tests (c : Experiments.Setup.t) =
  List.map
    (fun (config : Testgen.Test_config.t) ->
      {
        Testgen.Coverage.test_label =
          Printf.sprintf "tc%d" config.Testgen.Test_config.config_id;
        test_config_id = config.Testgen.Test_config.config_id;
        test_params = Testgen.Test_config.param_values_of_seed config;
      })
    c.configs

let coverage_fingerprint (r : Testgen.Coverage.report) =
  List.map
    (fun (d : Testgen.Coverage.detection) ->
      ( d.Testgen.Coverage.det_fault_id,
        d.Testgen.Coverage.detected_by,
        bits d.Testgen.Coverage.best_sensitivity ))
    r.Testgen.Coverage.detections

(* A coverage pass against its definition: each (fault, test) pair on a
   cold dense evaluator. *)
let test_coverage_parity backend () =
  let c = ctx ~backend chain and dense = ctx chain in
  let dictionary = Faults.Dictionary.take c.dictionary 12 in
  let tests = seed_tests c in
  let report =
    Testgen.Coverage.evaluate ~evaluators:c.evaluators dictionary tests
  in
  let want =
    List.map
      (fun e ->
        let sens =
          List.map
            (fun (t : Testgen.Coverage.test) ->
              ( t.Testgen.Coverage.test_label,
                Testgen.Evaluator.sensitivity
                  (cold
                     (Testgen.Evaluator.find dense.evaluators
                        t.Testgen.Coverage.test_config_id))
                  e.Faults.Dictionary.fault t.Testgen.Coverage.test_params ))
            tests
        in
        ( e.Faults.Dictionary.fault_id,
          List.filter_map
            (fun (l, s) -> if Testgen.Sensitivity.detects s then Some l else None)
            sens,
          bits (List.fold_left (fun b (_, s) -> Float.min b s) infinity sens) ))
      (Faults.Dictionary.entries dictionary)
  in
  Alcotest.(check bool) "coverage report = per-pair definition" true
    (coverage_fingerprint report = want)

(* A two-parameter linear configuration: the optimizer opens with its
   seed + lattice scan. *)
let two_param_config =
  Testgen.Test_config.create ~id:901 ~name:"2-param lattice probe"
    ~macro_type:ladder.Macros.Macro.macro_type
    ~control_node:ladder.Macros.Macro.stimulus_source
    ~params:
      [
        Testgen.Test_param.create ~name:"v0" ~units:"V" ~lower:1.0 ~upper:4.0
          ~seed:2.5;
        Testgen.Test_param.create ~name:"v1" ~units:"V" ~lower:1.0 ~upper:4.0
          ~seed:2.5;
      ]
    ~analysis:
      (Testgen.Test_config.Dc_levels
         (fun v -> [ Circuit.Waveform.Dc v.(0); Circuit.Waveform.Dc v.(1) ]))
    ~returns:Testgen.Test_config.Per_component
    ~return_names:[ "V(out)@0"; "V(out)@1" ]
    ~accuracy_floor:[ 1e-3; 1e-3 ]
    ~summary:"two independent dc levels"

(* The candidate of a warm evaluator — one that already scored the fault
   at another impact and point, so its site holds that factorization —
   against a fresh dense one. *)
let test_lattice_parity backend () =
  let nominal =
    Experiments.Setup.target_of_macro ladder Macros.Process.nominal
  in
  let make backend =
    Testgen.Evaluator.create ~profile:Testgen.Execute.fast_profile ~backend
      two_param_config ~nominal
      ~box_model:(Testgen.Tolerance.floor_only two_param_config)
  in
  let fault =
    (List.hd (Faults.Dictionary.entries (Macros.Macro.dictionary ladder)))
      .Faults.Dictionary.fault
  in
  let candidate ev =
    Testgen.Generate.optimize_candidate ~options:Experiments.Setup.probe_options
      ev fault
  in
  let warm = make backend in
  ignore
    (Testgen.Evaluator.sensitivity warm
       (Faults.Fault.with_impact fault 1e3)
       [| 1.5; 3.0 |]);
  let cw = candidate warm and cd = candidate (make Circuit.Mna.Dense) in
  Alcotest.(check bool) "winning params identical" true
    (vec_bits_equal cw.Testgen.Generate.cand_params cd.Testgen.Generate.cand_params);
  Alcotest.(check bool) "optimized cost identical" true
    (vec_bits_equal
       [| cw.Testgen.Generate.low_impact_sensitivity |]
       [| cd.Testgen.Generate.low_impact_sensitivity |]);
  Alcotest.(check int) "optimizer evaluation accounting identical"
    cd.Testgen.Generate.optimizer_evaluations
    cw.Testgen.Generate.optimizer_evaluations

let run_fingerprint (run : Testgen.Engine.run) =
  ( Testgen.Session.to_string run.Testgen.Engine.results,
    run.Testgen.Engine.rung_stats,
    run.Testgen.Engine.recovered_count,
    run.Testgen.Engine.total_fault_simulations )

(* Generation, compaction and baseline of eight faults on a context that
   first ran four other faults, against a fresh dense context. *)
let test_end_to_end_parity backend () =
  let pipeline (c : Experiments.Setup.t) =
    let run faults =
      Testgen.Engine.run ~options:Experiments.Setup.probe_options ~jobs:1
        ~evaluators:c.evaluators faults
    in
    let dictionary = Faults.Dictionary.take c.dictionary 8 in
    let r = run dictionary in
    let compaction =
      Testgen.Compactor.compact ~evaluators:c.evaluators dictionary r
    in
    let baseline =
      Testgen.Baseline.compare ~evaluators:c.evaluators dictionary r
    in
    ( run_fingerprint r,
      List.map
        (fun t -> (t.Testgen.Compactor.ct_label, t.Testgen.Compactor.ct_fault_ids))
        compaction.Testgen.Compactor.compact_tests,
      coverage_fingerprint compaction.Testgen.Compactor.coverage,
      List.map
        (fun cmp ->
          ( cmp.Testgen.Baseline.cmp_fault_id,
            cmp.Testgen.Baseline.seed_detects,
            bits cmp.Testgen.Baseline.seed_best_sensitivity,
            Option.map bits cmp.Testgen.Baseline.seed_critical_impact ))
        baseline.Testgen.Baseline.comparisons )
  in
  let warm = ctx ~backend chain in
  let others =
    Faults.Dictionary.of_faults
      (List.filteri (fun i _ -> i >= 8 && i < 12)
         (List.map (fun e -> e.Faults.Dictionary.fault)
            (Faults.Dictionary.entries warm.dictionary)))
  in
  ignore
    (Testgen.Engine.run ~options:Experiments.Setup.probe_options ~jobs:1
       ~evaluators:warm.evaluators others);
  Alcotest.(check bool) "generate, compact and baseline identical" true
    (pipeline warm = pipeline (ctx chain))

let () =
  let per_backend name f =
    List.map
      (fun (bname, backend) ->
        Alcotest.test_case (Printf.sprintf "%s (%s)" name bname) `Quick
          (f backend))
      [ ("dense", Circuit.Mna.Dense); ("sparse", Circuit.Mna.Sparse) ]
  in
  Alcotest.run "held-factor"
    [
      ( "parity",
        per_backend "cross-product bitwise parity" test_cross_product_parity );
      ("coverage", per_backend "report parity" test_coverage_parity);
      ("lattice", per_backend "seed-scan parity" test_lattice_parity);
      ( "end-to-end",
        per_backend "generate/compact/baseline parity" test_end_to_end_parity );
    ]
