(* Tests for the chaos harness: scenario generation and shrinking, the
   engine invariants, and campaign determinism. *)

module Scenario = Fuzz.Scenario
module Invariants = Fuzz.Invariants
module Campaign = Fuzz.Campaign

(* ---------------------------------------------------------------- specs *)

let spec_in_bounds (s : Scenario.spec) =
  (match s.Scenario.topology with
  | Scenario.Rc_ladder n -> n >= 1 && n <= Macros.Rc_ladder.max_sections
  | Scenario.Ota | Scenario.Sallen_key -> true
  | Scenario.Sk_chain n -> n >= 1 && n <= Macros.Filter_chain.max_stages
  | Scenario.Ota_cascade n ->
      n >= 1 && n <= Macros.Filter_chain.max_ota_stages)
  && s.Scenario.fault_count >= 1
  && s.Scenario.bridge_weight >= 0
  && s.Scenario.bridge_weight <= 100
  && s.Scenario.config_count >= 1
  && (s.Scenario.params = 1 || s.Scenario.params = 2)
  && s.Scenario.levels >= 1
  && s.Scenario.floor_exp >= 1
  && s.Scenario.value_seed >= 0

let prop_gen_in_bounds =
  QCheck.Test.make ~name:"generated specs stay in bounds" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create (Int64.of_int seed) in
      spec_in_bounds (Scenario.gen rng))

let prop_shrink_strictly_smaller =
  QCheck.Test.make ~name:"every shrink candidate is strictly smaller"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create (Int64.of_int seed) in
      let s = Scenario.gen rng in
      List.for_all
        (fun c -> Scenario.size c < Scenario.size s && spec_in_bounds c)
        (Scenario.shrink s))

let test_minimal_is_fixed_point () =
  Alcotest.(check (list string))
    "minimal has no shrink candidates" []
    (List.map Scenario.to_string (Scenario.shrink Scenario.minimal));
  Alcotest.(check string) "minimal prints canonically" "rc1/f1/bw100/c1/p1/l1/e2/v0"
    (Scenario.to_string Scenario.minimal)

let test_build_deterministic () =
  let rng = Numerics.Rng.create 99L in
  for _ = 1 to 5 do
    let spec = Scenario.gen rng in
    let a = Scenario.build spec and b = Scenario.build spec in
    Alcotest.(check (list string))
      (Scenario.to_string spec ^ " draws the same dictionary twice")
      (List.map
         (fun e -> e.Faults.Dictionary.fault_id)
         (Faults.Dictionary.entries a.Scenario.dictionary))
      (List.map
         (fun e -> e.Faults.Dictionary.fault_id)
         (Faults.Dictionary.entries b.Scenario.dictionary));
    Alcotest.(check int)
      (Scenario.to_string spec ^ " config count honoured")
      spec.Scenario.config_count
      (List.length a.Scenario.configs);
    Alcotest.(check bool)
      (Scenario.to_string spec ^ " dictionary within requested size")
      true
      (Faults.Dictionary.size a.Scenario.dictionary
      <= spec.Scenario.fault_count)
  done

(* A second parameter sends a scenario's optimizer through its seed +
   lattice scan, whose two-parameter product includes the box's four
   corners: each must be among the points the evaluator measured the
   nominal at. *)
let test_two_params_reach_the_lattice () =
  let built = Scenario.build { Scenario.minimal with Scenario.params = 2 } in
  let ev = List.hd built.Scenario.evaluators in
  let fault =
    (List.hd (Faults.Dictionary.entries built.Scenario.dictionary))
      .Faults.Dictionary.fault
  in
  ignore
    (Testgen.Generate.optimize_candidate ~options:Scenario.generate_options ev
       fault);
  let lower, upper =
    Testgen.Test_param.bounds_of
      (Testgen.Evaluator.config ev).Testgen.Test_config.params
  in
  Alcotest.(check int) "two parameters" 2 (Array.length lower);
  let keys = Testgen.Evaluator.nominal_keys ev in
  List.iter
    (fun corner ->
      let key =
        String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") corner))
      in
      Alcotest.(check bool) (key ^ " evaluated") true (List.mem key keys))
    [
      [| lower.(0); lower.(1) |];
      [| lower.(0); upper.(1) |];
      [| upper.(0); lower.(1) |];
      [| upper.(0); upper.(1) |];
    ]

(* ----------------------------------------------------------- invariants *)

let minimal_ctx =
  lazy
    (Invariants.make_ctx ~jobs:2 ~inject:Campaign.default_inject
       ~inject_seed:1L Scenario.minimal)

let test_all_invariants_hold_on_minimal () =
  let ctx = Lazy.force minimal_ctx in
  List.iter
    (fun (inv : Invariants.t) ->
      match inv.Invariants.check ctx with
      | Invariants.Pass | Invariants.Skip _ -> ()
      | Invariants.Fail detail ->
          Alcotest.fail (Printf.sprintf "%s: %s" inv.Invariants.name detail))
    Invariants.all

let test_self_test_invariant_plants_violation () =
  let fails spec =
    let ctx =
      Invariants.make_ctx ~jobs:1 ~inject:[] ~inject_seed:0L spec
    in
    match Invariants.self_test_invariant.Invariants.check ctx with
    | Invariants.Fail _ -> true
    | Invariants.Pass | Invariants.Skip _ -> false
  in
  Alcotest.(check bool) "clean at fault_count 1" false (fails Scenario.minimal);
  Alcotest.(check bool) "planted at fault_count 2" true
    (fails { Scenario.minimal with Scenario.fault_count = 2 })

(* ------------------------------------------------------------ campaigns *)

let quick_options =
  {
    Campaign.default_options with
    Campaign.campaigns = 2;
    seed = 5L;
    checks = Some [ "session-roundtrip"; "inject-contract" ];
  }

let run_exn options =
  match Campaign.run options with
  | Ok r -> r
  | Error m -> Alcotest.fail m

let test_campaign_deterministic_across_jobs () =
  let json jobs = Campaign.report_json (run_exn { quick_options with Campaign.jobs }) in
  let reference = json 1 in
  Alcotest.(check string) "jobs 1 repeats byte-identically" reference (json 1);
  Alcotest.(check string) "jobs 2 matches jobs 1" reference (json 2)

let test_campaign_rejects_unknown_check () =
  match
    Campaign.run
      { quick_options with Campaign.checks = Some [ "no-such-invariant" ] }
  with
  | Error m ->
      Alcotest.(check bool) "diagnostic names the invariant" true
        (String.length m > 0)
  | Ok _ -> Alcotest.fail "unknown invariant accepted"

let test_self_test_campaign_finds_and_shrinks () =
  (* seeded so at least one drawn scenario has fault_count >= 2; the
     planted violation must be found and shrunk to the exact minimal
     counterexample *)
  let report =
    run_exn
      {
        quick_options with
        Campaign.campaigns = 8;
        seed = 3L;
        checks = Some [ "session-roundtrip" ];
        self_test = true;
      }
  in
  match
    List.filter
      (fun v -> String.equal v.Campaign.v_invariant "self-test")
      report.Campaign.r_violations
  with
  | [] -> Alcotest.fail "planted violation not found in 8 campaigns"
  | vs ->
      List.iter
        (fun v ->
          Alcotest.(check string) "shrunk to the minimal counterexample"
            "rc1/f2/bw100/c1/p1/l1/e2/v0"
            (Scenario.to_string v.Campaign.v_shrunk);
          Alcotest.(check bool) "shrinking made progress" true
            (v.Campaign.v_shrink_steps >= 1))
        vs

(* A violation detail is free text (an exception message, a fault id):
   a control byte or a UTF-8 character in it must still leave the
   report parseable JSON that hands the detail back unchanged. *)
let test_report_json_parses () =
  let detail = "\001\xc3\xa9" in
  let report =
    {
      Campaign.r_options = quick_options;
      r_scenarios = 1;
      r_build_failures = 0;
      r_checks_run = 1;
      r_checks_passed = 0;
      r_checks_skipped = 0;
      r_tallies =
        [ { Campaign.t_name = "self-test"; t_pass = 0; t_skip = 0; t_fail = 1 } ];
      r_violations =
        [
          {
            Campaign.v_campaign = 0;
            v_invariant = "self-test";
            v_spec = Scenario.minimal;
            v_shrunk = Scenario.minimal;
            v_shrink_steps = 0;
            v_detail = detail;
          };
        ];
    }
  in
  match Serve.Jsonl.of_string (Campaign.report_json report) with
  | Error e -> Alcotest.fail ("report_json is not JSON: " ^ e)
  | Ok json ->
      let details =
        Option.value ~default:[] (Serve.Jsonl.list_member "violations" json)
        |> List.filter_map (Serve.Jsonl.str_member "detail")
      in
      Alcotest.(check (list string)) "detail round-trips" [ detail ] details

let () =
  Alcotest.run "fuzz"
    [
      ( "scenario",
        [
          QCheck_alcotest.to_alcotest prop_gen_in_bounds;
          QCheck_alcotest.to_alcotest prop_shrink_strictly_smaller;
          Alcotest.test_case "minimal fixed point" `Quick
            test_minimal_is_fixed_point;
          Alcotest.test_case "build deterministic" `Quick
            test_build_deterministic;
          Alcotest.test_case "two parameters reach the lattice" `Quick
            test_two_params_reach_the_lattice;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "all hold on minimal" `Quick
            test_all_invariants_hold_on_minimal;
          Alcotest.test_case "self-test plants violation" `Quick
            test_self_test_invariant_plants_violation;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_campaign_deterministic_across_jobs;
          Alcotest.test_case "rejects unknown check" `Quick
            test_campaign_rejects_unknown_check;
          Alcotest.test_case "self-test finds and shrinks" `Quick
            test_self_test_campaign_finds_and_shrinks;
          Alcotest.test_case "report JSON parses" `Quick
            test_report_json_parses;
        ] );
    ]
