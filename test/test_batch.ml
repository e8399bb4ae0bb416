(* Config-major batched fault evaluation: bitwise parity with the
   sequential path.

   The contract under test is strict: every (sensitivity, deviation)
   cell of a batched [Evaluator.sweep] must carry the same bits as the
   sequential [Evaluator.sensitivity_and_deviation] call it replaced —
   across dense and sparse backends, through every rewired consumer
   (coverage, collapse screening, lattice seeding, whole engine runs),
   at every pool size, and under failure injection (where batching must
   decline and leave the sequential draw sequence untouched). *)

open Testgen
module Fp = Numerics.Failpoint

let bits = Int64.bits_of_float

let floats_equal a b = bits a = bits b

let dev_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if not (floats_equal x b.(i)) then ok := false) a;
      !ok)

(* Two independent probe contexts over the same macro: the batched one
   under test and a [~batching:false] twin as the sequential reference.
   Separate evaluators mean separate caches and counters, so neither
   path can warm the other. *)
let ladder = Macros.Rc_ladder.macro ~sections:4
let chain = Macros.Filter_chain.sk_chain ~stages:2

let ctx ?batching ?backend macro =
  Experiments.Setup.probe ?batching ?backend ~macro ()

let first_evaluator (c : Experiments.Setup.t) = List.hd c.evaluators

(* Every cell of a sweep, read fault-major. *)
let cells_of sw ~faults ~points =
  Array.mapi
    (fun f _ -> Array.mapi (fun p _ -> Evaluator.cell sw f p) points)
    faults

let some_faults ?(n = 10) (c : Experiments.Setup.t) =
  Faults.Dictionary.entries (Faults.Dictionary.take c.dictionary n)
  |> List.map (fun e -> e.Faults.Dictionary.fault)
  |> Array.of_list

(* Parameter points spread across the first configuration's box. *)
let points_of (c : Experiments.Setup.t) =
  let config = List.hd c.configs in
  match config.Test_config.params with
  | [ p ] ->
      let lo = p.Test_param.lower and hi = p.Test_param.upper in
      [| [| lo |]; [| 0.5 *. (lo +. hi) |]; [| hi |] |]
  | _ -> Alcotest.fail "probe context should have one parameter"

(* ------------------------------------------- cross-product parity *)

let test_cross_product_parity backend () =
  List.iter
    (fun macro ->
      let batched_ctx = ctx ~backend macro in
      let seq_ctx = ctx ~batching:false ~backend macro in
      let ev_b = first_evaluator batched_ctx in
      let ev_s = first_evaluator seq_ctx in
      let faults = some_faults batched_ctx in
      let points = points_of batched_ctx in
      let before = Evaluator.batch_stats () in
      let sw = Evaluator.sweep ev_b ~faults ~points in
      let after = Evaluator.batch_stats () in
      let cells = cells_of sw ~faults ~points in
      Alcotest.(check bool)
        "batch engine actually settled pairs" true
        (after.Evaluator.faults_batched > before.Evaluator.faults_batched);
      Alcotest.(check bool)
        "batch engine solved factorization panels" true
        (after.Evaluator.panels > before.Evaluator.panels);
      Array.iteri
        (fun i fault ->
          Array.iteri
            (fun p values ->
              let s_b, dev_b = cells.(i).(p) in
              let s_s, dev_s =
                Evaluator.sensitivity_and_deviation ev_s fault values
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s sensitivity f%d p%d"
                   macro.Macros.Macro.macro_type i p)
                true (floats_equal s_b s_s);
              Alcotest.(check bool)
                (Printf.sprintf "%s deviations f%d p%d"
                   macro.Macros.Macro.macro_type i p)
                true
                (dev_equal dev_b dev_s))
            points)
        faults;
      (* identical evaluation accounting: one charge per pair *)
      Alcotest.(check int) "charges match the sequential walk"
        (Evaluator.evaluation_count ev_s)
        (Evaluator.evaluation_count ev_b))
    [ ladder; chain ]

(* A 1x1 sweep (compaction's and the baseline's single pairs):
   bit-identical to [sensitivity]. *)
let test_single_pair_parity () =
  let ev_b = first_evaluator (ctx ladder) in
  let ev_s = first_evaluator (ctx ~batching:false ladder) in
  let faults = some_faults (ctx ladder) in
  let points = points_of (ctx ladder) in
  Array.iter
    (fun fault ->
      Array.iter
        (fun values ->
          let sw =
            Evaluator.sweep ev_b ~faults:[| fault |] ~points:[| values |]
          in
          Alcotest.(check bool) "single-pair parity" true
            (floats_equal
               (fst (Evaluator.cell sw 0 0))
               (Evaluator.sensitivity ev_s fault values)))
        points)
    faults

(* ------------------------------------------------- decline gates *)

(* The paper's IV-converter at the fast profile: MOSFETs put every
   plan outside the batchable family. *)
let iv_fast = lazy (Experiments.Setup.iv ~profile:Execute.fast_profile ())

(* A declined sweep evaluates nothing when it is created; its cells
   evaluate on read.  [fallback] is the [evaluator.batch.fallback_seq]
   delta the decline is accounted with. *)
let test_decline_gates () =
  let declines label ~fallback ev ~faults ~points =
    let before = Evaluator.batch_stats () in
    let evals = Evaluator.evaluation_count ev in
    let sw = Evaluator.sweep ev ~faults ~points in
    let after = Evaluator.batch_stats () in
    Alcotest.(check (list int))
      (label ^ ": batched, fallback, panel deltas")
      [ 0; fallback; 0 ]
      [
        after.Evaluator.faults_batched - before.Evaluator.faults_batched;
        after.Evaluator.fallback_seq - before.Evaluator.fallback_seq;
        after.Evaluator.panels - before.Evaluator.panels;
      ];
    Alcotest.(check int) (label ^ ": nothing evaluated at creation") evals
      (Evaluator.evaluation_count ev);
    if Array.length faults > 0 then begin
      ignore (Evaluator.cell sw 0 0);
      Alcotest.(check int) (label ^ ": a read evaluates its pair") (evals + 1)
        (Evaluator.evaluation_count ev)
    end
  in
  let faults = some_faults (ctx ladder) in
  let points = points_of (ctx ladder) in
  let pairs = Array.length faults * Array.length points in
  declines "batching disabled" ~fallback:0
    (first_evaluator (ctx ~batching:false ladder))
    ~faults ~points;
  (* a MOSFET-bearing topology is outside the batchable family *)
  let iv = Lazy.force iv_fast in
  declines "nonlinear topology" ~fallback:1 (first_evaluator iv)
    ~faults:[| Faults.Fault.bridge "n1" "vout" ~resistance:10e3 |]
    ~points:
      [| Test_param.seeds_of (List.hd iv.configs).Test_config.params |];
  (* active failure injection must decline — batching would reorder the
     draw sequence *)
  Fp.with_config ~seed:7L
    [ { Fp.point = "dc.no_convergence"; probability = 0.0; max_triggers = None } ]
    (fun () ->
      declines "failure injection active" ~fallback:pairs
        (first_evaluator (ctx ladder)) ~faults ~points);
  (* an empty sweep declines without accounting *)
  declines "empty sweep" ~fallback:0 (first_evaluator (ctx ladder))
    ~faults:[||] ~points

(* ------------------------------------------------ coverage parity *)

let seed_tests (c : Experiments.Setup.t) =
  List.map
    (fun (config : Test_config.t) ->
      {
        Coverage.test_label =
          Printf.sprintf "tc%d" config.Test_config.config_id;
        test_config_id = config.Test_config.config_id;
        test_params = Test_config.param_values_of_seed config;
      })
    c.configs

let coverage_fingerprint (r : Coverage.report) =
  List.map
    (fun (d : Coverage.detection) ->
      (d.Coverage.det_fault_id, d.Coverage.detected_by,
       bits d.Coverage.best_sensitivity))
    r.Coverage.detections

let test_coverage_parity backend () =
  let batched_ctx = ctx ~backend chain in
  let seq_ctx = ctx ~batching:false ~backend chain in
  let dictionary = Faults.Dictionary.take batched_ctx.dictionary 12 in
  let report_of (c : Experiments.Setup.t) =
    Coverage.evaluate ~evaluators:c.evaluators dictionary (seed_tests c)
  in
  let rb = report_of batched_ctx and rs = report_of seq_ctx in
  Alcotest.(check bool) "coverage reports identical" true
    (coverage_fingerprint rb = coverage_fingerprint rs);
  Alcotest.(check int) "covered counts identical" rs.Coverage.covered
    rb.Coverage.covered

(* ------------------------------------------- collapse-screen parity *)

let test_collapse_screen_parity () =
  let batched_ctx = ctx chain in
  let seq_ctx = ctx ~batching:false chain in
  let ev_b = first_evaluator batched_ctx in
  let ev_s = first_evaluator seq_ctx in
  let faults = some_faults ~n:6 batched_ctx in
  let seed =
    Test_config.param_values_of_seed (List.hd batched_ctx.configs)
  in
  let members ev =
    Array.to_list
      (Array.mapi
         (fun i fault ->
           {
             Collapse.member_fault_id = Faults.Fault.id fault ^ string_of_int i;
             member_fault = fault;
             member_params = seed;
             member_opt_sensitivity = Evaluator.sensitivity ev fault seed;
           })
         faults)
  in
  let screen ev ms delta =
    match Collapse.screen ev ~delta ms seed with
    | None -> None
    | Some sens -> Some (List.map (fun (id, s) -> (id, bits s)) sens)
  in
  (* both a permissive delta (full accepted walk) and a strict one
     (early-exit verdicts) must agree with the sequential screen *)
  List.iter
    (fun delta ->
      Alcotest.(check bool)
        (Printf.sprintf "screen verdicts identical at delta %g" delta)
        true
        (screen ev_b (members ev_b) delta = screen ev_s (members ev_s) delta))
    [ 1.0; 0.1; 0. ]

(* ------------------------------------------- lattice-seeding parity *)

(* A two-parameter linear configuration: the multi-parameter optimizer
   arm opens with a seed + lattice sweep, which is exactly the
   cross-product the batch engine takes over. *)
let two_param_config =
  Test_config.create ~id:901 ~name:"2-param batch probe"
    ~macro_type:ladder.Macros.Macro.macro_type
    ~control_node:ladder.Macros.Macro.stimulus_source
    ~params:
      [
        Test_param.create ~name:"v0" ~units:"V" ~lower:1.0 ~upper:4.0 ~seed:2.5;
        Test_param.create ~name:"v1" ~units:"V" ~lower:1.0 ~upper:4.0 ~seed:2.5;
      ]
    ~analysis:
      (Test_config.Dc_levels
         (fun v -> [ Circuit.Waveform.Dc v.(0); Circuit.Waveform.Dc v.(1) ]))
    ~returns:Test_config.Per_component
    ~return_names:[ "V(out)@0"; "V(out)@1" ]
    ~accuracy_floor:[ 1e-3; 1e-3 ]
    ~summary:"two independent dc levels"

let test_lattice_parity backend () =
  let nominal =
    Experiments.Setup.target_of_macro ladder Macros.Process.nominal
  in
  let make batching =
    Evaluator.create ~profile:Execute.fast_profile ~batching ~backend
      two_param_config ~nominal
      ~box_model:(Tolerance.floor_only two_param_config)
  in
  let fault =
    (List.hd (Faults.Dictionary.entries (Macros.Macro.dictionary ladder)))
      .Faults.Dictionary.fault
  in
  let candidate ev =
    Generate.optimize_candidate ~options:Experiments.Setup.probe_options ev
      fault
  in
  let cb = candidate (make true) and cs = candidate (make false) in
  Alcotest.(check bool) "winning params identical" true
    (dev_equal cb.Generate.cand_params cs.Generate.cand_params);
  Alcotest.(check bool) "optimized cost identical" true
    (floats_equal cb.Generate.low_impact_sensitivity
       cs.Generate.low_impact_sensitivity);
  Alcotest.(check int) "optimizer evaluation accounting identical"
    cs.Generate.optimizer_evaluations cb.Generate.optimizer_evaluations

(* ------------------------------------------------ engine-run parity *)

let fingerprint (run : Engine.run) =
  ( Session.to_string run.Engine.results,
    run.Engine.rung_stats,
    run.Engine.recovered_count,
    run.Engine.total_fault_simulations,
    List.map (fun d -> d.Resilience.diag_fault_id) run.Engine.failed_faults )

let engine_run ?jobs (c : Experiments.Setup.t) n_faults =
  let c = Experiments.Setup.reduced c ~n_faults in
  Engine.run ~options:Experiments.Setup.probe_options ?jobs
    ~evaluators:c.evaluators c.dictionary

(* Generation, compaction and baseline with batching on vs off: the
   session bytes (what checkpoints, --resume and reports consume), the
   compaction verdicts and the baseline comparisons must be identical on
   both backends. *)
let test_end_to_end_parity backend () =
  let run_b = engine_run (ctx ~backend chain) 8 in
  let run_s = engine_run (ctx ~batching:false ~backend chain) 8 in
  Alcotest.(check bool) "engine runs identical" true
    (fingerprint run_b = fingerprint run_s);
  let cb = ctx ~backend chain and cs = ctx ~batching:false ~backend chain in
  let compact (c : Experiments.Setup.t) run =
    let r =
      Compactor.compact ~evaluators:c.evaluators
        (Faults.Dictionary.take c.dictionary 8)
        run
    in
    ( List.map
        (fun t -> (t.Compactor.ct_label, t.Compactor.ct_fault_ids))
        r.Compactor.compact_tests,
      coverage_fingerprint r.Compactor.coverage )
  in
  Alcotest.(check bool) "compaction identical" true
    (compact cb run_b = compact cs run_s);
  let baseline (c : Experiments.Setup.t) run =
    let s =
      Baseline.compare ~evaluators:c.evaluators
        (Faults.Dictionary.take c.dictionary 8)
        run
    in
    List.map
      (fun cmp ->
        ( cmp.Baseline.cmp_fault_id,
          cmp.Baseline.seed_detects,
          bits cmp.Baseline.seed_best_sensitivity,
          Option.map bits cmp.Baseline.seed_critical_impact ))
      s.Baseline.comparisons
  in
  Alcotest.(check bool) "baseline identical" true
    (baseline cb run_b = baseline cs run_s)

(* Pool sizes: the batch engine lives below the evaluator fork/absorb
   seam, so parallel runs must keep producing the sequential bytes. *)
let env_jobs =
  match Sys.getenv_opt "ATPG_TEST_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

let job_counts = List.sort_uniq Int.compare ([ 1; 4 ] @ Option.to_list env_jobs)

let test_jobs_parity () =
  let reference = engine_run (ctx chain) 6 in
  List.iter
    (fun jobs ->
      let pooled = engine_run ~jobs (ctx chain) 6 in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d identical to sequential" jobs)
        true
        (fingerprint pooled = fingerprint reference))
    job_counts

(* Failure injection: batching declines, so the injected draw sequence —
   and with it recovery and quarantine patterns — is the sequential one. *)
let test_injected_parity () =
  let injected batching =
    Fp.with_config ~seed:23L
      [
        {
          Fp.point = "dc.no_convergence";
          probability = 0.35;
          max_triggers = Some 2;
        };
        {
          Fp.point = "execute.observables";
          probability = 0.05;
          max_triggers = None;
        };
      ]
      (fun () -> engine_run (ctx ~batching ladder) 6)
  in
  let run_s = injected false in
  Alcotest.(check bool) "injected runs identical" true
    (fingerprint (injected true) = fingerprint run_s)

(* ------------------------------------------- evaluation-count pins *)

(* Faulty-circuit evaluations that [Runs.compact_run ~delta:0.1] adds on
   top of a probe-options engine run.  Evaluation order and count are
   part of the contract: budgets and injected draws are keyed to them.
   The IV context never batches, so its count pins the
   collapse walk and the coverage fold on the sequential path; rc16
   pins the batched fill, which charges one evaluation per pair as its
   sequential twin does.  On skc4 some collapse screens reject a
   candidate before their last member: the batched sweep has evaluated
   every member by then, while the sequential walk stops at the first
   violation — so a sweep whose declined cells evaluated eagerly would
   raise the second skc4 count. *)
let compaction_evaluations (c : Experiments.Setup.t) =
  let run =
    Experiments.Runs.engine_run ~options:Experiments.Setup.probe_options
      ~jobs:1 c
  in
  let count () =
    List.fold_left (fun n ev -> n + Evaluator.evaluation_count ev) 0
      c.evaluators
  in
  let before = count () in
  ignore (Experiments.Runs.compact_run ~delta:0.1 c run);
  count () - before

let registry_macro name =
  match Macros.Registry.find name with
  | Ok m -> m
  | Error e -> Alcotest.fail e

let test_compaction_evaluation_pins () =
  let pin label expected c =
    Alcotest.(check int) label expected (compaction_evaluations c)
  in
  pin "iv, 4 faults" 16
    (Experiments.Setup.reduced (Lazy.force iv_fast) ~n_faults:4);
  let rc16 = registry_macro "rc16" in
  pin "rc16" 475 (ctx rc16);
  pin "rc16, batching off" 475 (ctx ~batching:false rc16);
  let skc4 batching =
    Experiments.Setup.reduced (ctx ~batching (registry_macro "skc4"))
      ~n_faults:80
  in
  pin "skc4, 80 faults" 162 (skc4 true);
  pin "skc4, 80 faults, batching off" 156 (skc4 false)

let () =
  let backends = [ ("dense", Circuit.Mna.Dense); ("sparse", Circuit.Mna.Sparse) ] in
  let per_backend name f =
    List.map
      (fun (bname, backend) ->
        Alcotest.test_case (Printf.sprintf "%s (%s)" name bname) `Quick
          (f backend))
      backends
  in
  Alcotest.run "batch"
    [
      ( "parity",
        per_backend "cross-product bitwise parity" test_cross_product_parity
        @ [
            Alcotest.test_case "single-pair wrapper" `Quick
              test_single_pair_parity;
          ] );
      ( "gates",
        [ Alcotest.test_case "decline conditions" `Quick test_decline_gates ] );
      ("coverage", per_backend "report parity" test_coverage_parity);
      ( "collapse",
        [
          Alcotest.test_case "screen verdict parity" `Quick
            test_collapse_screen_parity;
        ] );
      ("lattice", per_backend "seed-scan parity" test_lattice_parity);
      ( "end-to-end",
        per_backend "generate/compact/baseline parity" test_end_to_end_parity
        @ [
            Alcotest.test_case "pool-size parity" `Quick test_jobs_parity;
            Alcotest.test_case "under failure injection" `Quick
              test_injected_parity;
          ] );
      ( "counts",
        [
          Alcotest.test_case "compaction evaluations" `Quick
            test_compaction_evaluation_pins;
        ] );
    ]
