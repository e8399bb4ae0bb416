(* Tests for clustering, collapse, coverage, compaction and the baseline. *)

open Testgen

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs b)

let check_float ?eps msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%.9g vs %.9g)" msg a b) true
    (feq ?eps a b)

let params2 =
  [
    Test_param.create ~name:"x" ~units:"" ~lower:0. ~upper:100. ~seed:50.;
    Test_param.create ~name:"y" ~units:"" ~lower:0. ~upper:1. ~seed:0.5;
  ]

let item id x y = { Cluster.item_id = id; location = [| x; y |] }

(* ---------------------------------------------------------------- Cluster *)

let test_cluster_normalize () =
  let n = Cluster.normalize params2 [| 25.; 0.75 |] in
  Alcotest.(check (array (float 1e-12))) "normalized" [| 0.25; 0.75 |] n

let test_cluster_two_blobs () =
  let items =
    [
      item "a1" 10. 0.1; item "a2" 12. 0.12; item "a3" 11. 0.09;
      item "b1" 90. 0.9; item "b2" 88. 0.91;
    ]
  in
  let groups = Cluster.group ~params:params2 ~threshold:0.15 items in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let sizes = List.sort compare (List.map List.length groups) in
  Alcotest.(check (list int)) "sizes" [ 2; 3 ] sizes

let test_cluster_threshold_zero_groups_nothing () =
  let items = [ item "a" 10. 0.1; item "b" 30. 0.5; item "c" 70. 0.9 ] in
  let groups = Cluster.group ~params:params2 ~threshold:0.01 items in
  Alcotest.(check int) "all singletons" 3 (List.length groups)

let test_cluster_threshold_one_groups_everything () =
  let items = [ item "a" 10. 0.1; item "b" 30. 0.5; item "c" 70. 0.9 ] in
  let groups = Cluster.group ~params:params2 ~threshold:1.0 items in
  Alcotest.(check int) "one group" 1 (List.length groups)

let test_cluster_preserves_locations () =
  let items = [ item "a" 25. 0.25 ] in
  match Cluster.group ~params:params2 items with
  | [ [ it ] ] ->
      Alcotest.(check (array (float 1e-9))) "physical units kept" [| 25.; 0.25 |]
        it.Cluster.location
  | _ -> Alcotest.fail "unexpected shape"

let test_centroid () =
  let c = Cluster.centroid [ item "a" 0. 0.; item "b" 10. 1. ] in
  Alcotest.(check (array (float 1e-12))) "mean" [| 5.; 0.5 |] c;
  (try
     ignore (Cluster.centroid []);
     Alcotest.fail "empty centroid accepted"
   with Invalid_argument _ -> ())

let test_split () =
  let a, b =
    Cluster.split [ item "a" 0. 0.; item "b" 1. 0.; item "c" 100. 1. ]
  in
  let names g = List.map (fun it -> it.Cluster.item_id) g |> List.sort compare in
  (* the far point separates from the close pair *)
  let both = List.sort compare [ names a; names b ] in
  Alcotest.(check (list (list string))) "farthest pair split"
    [ [ "a"; "b" ]; [ "c" ] ] both

(* --------------------------------------------------- evaluation fixtures *)

let iv_target =
  Experiments.Setup.target_of_macro Macros.Iv_converter.macro
    Macros.Process.nominal

let mk_evaluator config =
  Evaluator.create config ~nominal:iv_target
    ~box_model:(Tolerance.floor_only config)

let ev1 = lazy (mk_evaluator Experiments.Iv_configs.config1)
let ev2 = lazy (mk_evaluator Experiments.Iv_configs.config2)

(* --------------------------------------------------------------- Collapse *)

let strong_member fid fault params ev =
  let s = Evaluator.sensitivity (Lazy.force ev) fault params in
  {
    Collapse.member_fault_id = fid;
    member_fault = fault;
    member_params = params;
    member_opt_sensitivity = s;
  }

let test_screen_accepts_identical () =
  let ev = Lazy.force ev1 in
  let fault = Faults.Fault.bridge "n1" "vout" ~resistance:10e3 in
  let m = strong_member "f1" fault [| 10e-6 |] ev1 in
  match Collapse.screen ev ~delta:0.05 [ m ] [| 10e-6 |] with
  | Some [ (fid, s) ] ->
      Alcotest.(check string) "fault id" "f1" fid;
      check_float "sensitivity unchanged" m.Collapse.member_opt_sensitivity s
  | Some _ | None -> Alcotest.fail "screen must accept the member's own point"

let test_screen_rejects_bad_point () =
  (* a catastrophic fault detected strongly at lev=40u is much less visible
     at lev ~ 0 where no current flows: delta = 0 must reject the move to a
     clearly worse parameter point *)
  let ev = Lazy.force ev1 in
  let fault = Faults.Fault.bridge "iin" "vout" ~resistance:10e3 in
  let m = strong_member "f1" fault [| 40e-6 |] ev1 in
  match Collapse.screen ev ~delta:0. [ m ] [| 0.2e-6 |] with
  | None -> ()
  | Some _ ->
      (* acceptable only if the sensitivity really is no worse there *)
      let s_c = Evaluator.sensitivity ev fault [| 0.2e-6 |] in
      Alcotest.(check bool) "accepted only when not worse" true
        (s_c <= m.Collapse.member_opt_sensitivity +. 1e-9)

let test_collapse_config_groups () =
  let ev = Lazy.force ev2 in
  let f1 = Faults.Fault.bridge "n1" "vout" ~resistance:10e3 in
  let f2 = Faults.Fault.bridge "n2" "vout" ~resistance:10e3 in
  let members =
    [
      strong_member "bridge:n1-vout" f1 [| 1e-6; 20e-6 |] ev2;
      strong_member "bridge:n2-vout" f2 [| 1.5e-6; 21e-6 |] ev2;
    ]
  in
  let groups, stats = Collapse.collapse_config ev ~delta:0.3 members in
  Alcotest.(check bool) "at least one group" true (List.length groups >= 1);
  Alcotest.(check int) "all members kept"
    2
    (List.fold_left (fun n g -> n + List.length g.Collapse.members) 0 groups);
  Alcotest.(check bool) "proposals counted" true (stats.Collapse.proposals >= 1)

let test_collapse_delta_validation () =
  let ev = Lazy.force ev1 in
  (try
     ignore (Collapse.collapse_config ev ~delta:1.5 []);
     Alcotest.fail "delta > 1 accepted"
   with Invalid_argument _ -> ())

(* --------------------------------------------------------------- Coverage *)

let test_coverage () =
  let dict =
    Faults.Dictionary.of_faults
      [
        Faults.Fault.bridge "n1" "vout" ~resistance:10e3;
        Faults.Fault.bridge "0" "vdd" ~resistance:10e3;  (* invisible *)
      ]
  in
  let tests =
    [
      { Coverage.test_label = "t1"; test_config_id = 1; test_params = [| 10e-6 |] };
    ]
  in
  let report = Coverage.evaluate ~evaluators:[ Lazy.force ev1 ] dict tests in
  Alcotest.(check int) "total" 2 report.Coverage.total;
  Alcotest.(check int) "covered" 1 report.Coverage.covered;
  check_float "percent" 50. (Coverage.percent report);
  Alcotest.(check (list string)) "missed" [ "bridge:0-vdd" ]
    (Coverage.missed report);
  Alcotest.(check (list string)) "essential" [ "t1" ]
    (Coverage.essential_tests report)

let test_coverage_unknown_config () =
  let dict =
    Faults.Dictionary.of_faults [ Faults.Fault.bridge "n1" "vout" ~resistance:10e3 ]
  in
  (try
     ignore
       (Coverage.evaluate ~evaluators:[ Lazy.force ev1 ] dict
          [ { Coverage.test_label = "t"; test_config_id = 9; test_params = [| 0. |] } ]);
     Alcotest.fail "unknown config accepted"
   with Not_found -> ())

(* -------------------------------------------------- Compactor + Baseline *)

let small_dictionary =
  Faults.Dictionary.of_faults
    [
      Faults.Fault.bridge "n1" "vout" ~resistance:10e3;
      Faults.Fault.bridge "n2" "vout" ~resistance:10e3;
      Faults.Fault.bridge "iin" "n1" ~resistance:10e3;
      Faults.Fault.pinhole "m6" ~r_shunt:2e3;
    ]

let small_run =
  lazy
    (Engine.run
       ~evaluators:[ Lazy.force ev1; Lazy.force ev2 ]
       small_dictionary)

let test_engine_run () =
  let run = Lazy.force small_run in
  Alcotest.(check int) "one result per fault" 4 (List.length run.Engine.results);
  let dist = Engine.distribution run in
  let total =
    List.fold_left
      (fun n (d : Engine.distribution_row) ->
        n + d.Engine.bridge_count + d.Engine.pinhole_count)
      0 dist
  in
  Alcotest.(check int) "distribution covers all faults" 4 total;
  Alcotest.(check bool) "simulations counted" true
    (run.Engine.total_fault_simulations > 0)

let test_engine_progress_callback () =
  let calls = ref [] in
  let dict =
    Faults.Dictionary.of_faults
      [
        Faults.Fault.bridge "n1" "vout" ~resistance:10e3;
        Faults.Fault.bridge "n2" "vout" ~resistance:10e3;
      ]
  in
  ignore
    (Engine.run
       ~progress:(fun ~done_ ~total ~fault_id ->
         calls := (done_, total, fault_id) :: !calls)
       ~evaluators:[ Lazy.force ev1 ] dict);
  Alcotest.(check int) "called per fault" 2 (List.length !calls);
  (match List.rev !calls with
  | (1, 2, "bridge:n1-vout") :: _ -> ()
  | _ -> Alcotest.fail "first progress call wrong")

let test_engine_critical_impacts () =
  let run = Lazy.force small_run in
  let impacts = Engine.critical_impacts run in
  List.iter
    (fun (fid, r) ->
      Alcotest.(check bool) (fid ^ " critical impact positive") true (r > 0.))
    impacts

let test_compactor () =
  let run = Lazy.force small_run in
  let evaluators = [ Lazy.force ev1; Lazy.force ev2 ] in
  let result = Compactor.compact ~delta:0.2 ~evaluators small_dictionary run in
  Alcotest.(check bool) "compact set not empty" true
    (result.Compactor.compact_tests <> []);
  Alcotest.(check bool) "no more tests than faults" true
    (List.length result.Compactor.compact_tests <= 4);
  Alcotest.(check bool) "ratio >= 1" true (Compactor.compaction_ratio result >= 1.);
  (* every fault detectable at dictionary impact stays covered *)
  let detectable =
    List.filter_map
      (fun r ->
        match r.Generate.outcome with
        | Generate.Unique { dictionary_sensitivity; _ }
          when dictionary_sensitivity < 0. -> Some r.Generate.fault_id
        | Generate.Unique _ | Generate.Undetectable _ -> None)
      run.Engine.results
  in
  let missed = Coverage.missed result.Compactor.coverage in
  Alcotest.(check bool) "at least one detectable fault in the fixture" true
    (detectable <> []);
  List.iter
    (fun fid ->
      Alcotest.(check bool) (fid ^ " still covered") false (List.mem fid missed))
    detectable

let test_members_of_run_carry_critical_impact () =
  let run = Lazy.force small_run in
  let members = Compactor.members_of_run run ~config_id:1 in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Collapse.member_fault_id ^ " optimal point is sensitive enough")
        true
        (m.Collapse.member_opt_sensitivity < 1.))
    members

let test_baseline () =
  let run = Lazy.force small_run in
  let evaluators = [ Lazy.force ev1; Lazy.force ev2 ] in
  let summary = Baseline.compare ~evaluators small_dictionary run in
  Alcotest.(check int) "total" 4 summary.Baseline.total;
  Alcotest.(check bool) "optimized >= seed coverage" true
    (summary.Baseline.optimized_covered >= summary.Baseline.seed_covered);
  Alcotest.(check int) "one comparison per fault" 4
    (List.length summary.Baseline.comparisons)

let test_baseline_critical_impact () =
  let evaluators = [ Lazy.force ev1 ] in
  let tests = Baseline.seed_tests [ Experiments.Iv_configs.config1 ] in
  let fault = Faults.Fault.bridge "n1" "vout" ~resistance:10e3 in
  match Baseline.critical_impact_of_tests ~evaluators ~tests fault () with
  | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "critical impact %.0f beyond dictionary" r)
        true (r > 10e3)
  | None -> Alcotest.fail "strong fault must have a seed critical impact"

let test_seed_tests () =
  let tests = Baseline.seed_tests Experiments.Iv_configs.all in
  Alcotest.(check int) "one per config" 5 (List.length tests);
  List.iter
    (fun (t : Coverage.test) ->
      Alcotest.(check bool) "params at seed" true
        (Array.length t.Coverage.test_params > 0))
    tests

(* ------------------------------------------------- linear screening *)

let probe_context name =
  match Macros.Registry.find name with
  | Ok macro -> Experiments.Setup.probe ~macro ()
  | Error e -> Alcotest.fail e

(* [Collapse.screen] walks its members in order and stops at the first
   that violates its bound.  Against a walk that scores each member on a
   fresh fork of the evaluator (its own compiled sites, so nothing held
   from the member before): the same verdict and bits, and exactly the
   members up to the first violation evaluated.  The members were
   optimized at the seed and are screened at the box's lower bounds. *)
let test_collapse_screen_verdict_parity () =
  let c = probe_context "skc2" in
  let ev = List.hd c.Experiments.Setup.evaluators in
  let faults =
    List.filteri (fun i _ -> i < 6)
      (List.map (fun e -> e.Faults.Dictionary.fault)
         (Faults.Dictionary.entries c.dictionary))
  in
  let seed = Test_config.param_values_of_seed (Evaluator.config ev) in
  let candidate, _ =
    Test_param.bounds_of (Evaluator.config ev).Test_config.params
  in
  let cold fault point =
    Evaluator.sensitivity (List.hd (Evaluator.fork [ ev ])) fault point
  in
  let members =
    List.mapi
      (fun i fault ->
        {
          Collapse.member_fault_id = Faults.Fault.id fault ^ string_of_int i;
          member_fault = fault;
          member_params = seed;
          member_opt_sensitivity = cold fault seed;
        })
      faults
  in
  let reference delta =
    let rec walk n acc = function
      | [] -> (Some (List.rev acc), n)
      | m :: rest ->
          let s = cold m.Collapse.member_fault candidate in
          let s_opt = m.Collapse.member_opt_sensitivity in
          let scored = (m.Collapse.member_fault_id, Int64.bits_of_float s) in
          if s <= s_opt +. (delta *. (1. -. s_opt)) then
            walk (n + 1) (scored :: acc) rest
          else (None, n + 1)
    in
    walk 0 [] members
  in
  let verdicts = ref [] in
  List.iter
    (fun delta ->
      let before = Evaluator.evaluation_count ev in
      let got =
        Option.map
          (List.map (fun (id, s) -> (id, Int64.bits_of_float s)))
          (Collapse.screen ev ~delta members candidate)
      in
      let want, walked = reference delta in
      verdicts := Option.is_some got :: !verdicts;
      Alcotest.(check bool)
        (Printf.sprintf "screen verdict identical at delta %g" delta)
        true (got = want);
      Alcotest.(check int)
        (Printf.sprintf "members evaluated at delta %g" delta)
        walked
        (Evaluator.evaluation_count ev - before))
    [ 1.0; 0.1; 0. ];
  Alcotest.(check bool) "an accepted and a rejected screen" true
    (List.mem true !verdicts && List.mem false !verdicts)

(* ---------------------------------------------- evaluation-count pins *)

(* Faulty-circuit evaluations that [Runs.compact_run ~delta:0.1] adds on
   top of a probe-options engine run.  Evaluation order and count are
   part of the contract: budgets and injected draws are keyed to them.
   The coverage fold evaluates every (fault, test) pair and the
   baseline every seed test; a collapse screen stops at its first
   violating member, which on skc4 happens before the last member — an
   eager screen would raise its count. *)
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

let test_compaction_evaluation_pins () =
  let pin label expected c =
    Alcotest.(check int) label expected (compaction_evaluations c)
  in
  pin "iv, 4 faults" 16
    (Experiments.Setup.reduced
       (Experiments.Setup.iv ~profile:Execute.fast_profile ())
       ~n_faults:4);
  pin "rc16" 475 (probe_context "rc16");
  pin "skc4, 80 faults" 156
    (Experiments.Setup.reduced (probe_context "skc4") ~n_faults:80)

let () =
  Alcotest.run "compaction"
    [
      ( "cluster",
        [
          Alcotest.test_case "normalize" `Quick test_cluster_normalize;
          Alcotest.test_case "two blobs" `Quick test_cluster_two_blobs;
          Alcotest.test_case "tight threshold" `Quick test_cluster_threshold_zero_groups_nothing;
          Alcotest.test_case "loose threshold" `Quick test_cluster_threshold_one_groups_everything;
          Alcotest.test_case "keeps physical units" `Quick test_cluster_preserves_locations;
          Alcotest.test_case "centroid" `Quick test_centroid;
          Alcotest.test_case "split" `Quick test_split;
        ] );
      ( "collapse",
        [
          Alcotest.test_case "accepts own point" `Quick test_screen_accepts_identical;
          Alcotest.test_case "rejects worse point" `Quick test_screen_rejects_bad_point;
          Alcotest.test_case "collapse groups" `Quick test_collapse_config_groups;
          Alcotest.test_case "delta validation" `Quick test_collapse_delta_validation;
          Alcotest.test_case "screen verdict parity" `Quick
            test_collapse_screen_verdict_parity;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "evaluate" `Quick test_coverage;
          Alcotest.test_case "unknown config" `Quick test_coverage_unknown_config;
        ] );
      ( "counts",
        [
          Alcotest.test_case "compaction evaluations" `Quick
            test_compaction_evaluation_pins;
        ] );
      ( "engine",
        [
          Alcotest.test_case "small run" `Slow test_engine_run;
          Alcotest.test_case "progress callback" `Slow test_engine_progress_callback;
          Alcotest.test_case "critical impacts" `Slow test_engine_critical_impacts;
        ] );
      ( "compactor",
        [
          Alcotest.test_case "compact small run" `Slow test_compactor;
          Alcotest.test_case "members carry impact" `Slow test_members_of_run_carry_critical_impact;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "compare" `Slow test_baseline;
          Alcotest.test_case "critical impact" `Quick test_baseline_critical_impact;
          Alcotest.test_case "seed tests" `Quick test_seed_tests;
        ] );
    ]
