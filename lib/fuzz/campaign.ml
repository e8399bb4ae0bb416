type options = {
  campaigns : int;
  seed : int64;
  jobs : int;
  inject : Numerics.Failpoint.spec list;
  checks : string list option;
  self_test : bool;
}

let default_inject =
  [
    { Numerics.Failpoint.point = "dc.no_convergence"; probability = 0.05; max_triggers = Some 4 };
    { Numerics.Failpoint.point = "execute.observables"; probability = 0.02; max_triggers = Some 4 };
  ]

let default_options =
  {
    campaigns = 20;
    seed = 0L;
    jobs = 0;
    inject = default_inject;
    checks = None;
    self_test = false;
  }

type violation = {
  v_campaign : int;
  v_invariant : string;
  v_spec : Scenario.spec;
  v_shrunk : Scenario.spec;
  v_shrink_steps : int;
  v_detail : string;
}

type tally = { t_name : string; t_pass : int; t_skip : int; t_fail : int }

type report = {
  r_options : options;
  r_scenarios : int;
  r_build_failures : int;
  r_checks_run : int;
  r_checks_passed : int;
  r_checks_skipped : int;
  r_tallies : tally list;
  r_violations : violation list;
}

(* The planted self-test invariant rides along whenever [self_test] is
   set, even under a [checks] filter: the filter selects which production
   invariants run, never whether the find-and-shrink pipeline is probed. *)
let invariants_of options =
  let selected =
    match options.checks with
    | None -> Result.Ok Invariants.all
    | Some names -> (
        match
          List.find_opt
            (fun n ->
              not (List.exists (fun i -> i.Invariants.name = n) Invariants.all))
            names
        with
        | Some bad ->
            Result.Error
              (Printf.sprintf "unknown invariant %S (known: %s)" bad
                 (String.concat ", " (List.map (fun i -> i.Invariants.name) Invariants.all)))
        | None ->
            Result.Ok
              (List.filter (fun i -> List.mem i.Invariants.name names) Invariants.all))
  in
  if not options.self_test then selected
  else
    Result.map (fun invs -> invs @ [ Invariants.self_test_invariant ]) selected

let resolve_jobs options =
  if options.jobs > 0 then options.jobs else Testgen.Parallel.default_jobs ()

let spec_of_campaign options i =
  Scenario.gen
    (Numerics.Rng.of_key ~seed:options.seed
       ~key:(Printf.sprintf "fuzz.campaign.%04d" i))

(* Check one invariant against one spec, building the scenario (and its
   base run) from scratch — the replay primitive the shrinker uses.
   Scenario builds are deterministic, so a crash during the build or the
   base run is itself reported as a failure of the invariant under
   test. *)
let check_spec ~jobs ~inject ~inject_seed inv spec =
  match Invariants.make_ctx ~jobs ~inject ~inject_seed spec with
  | ctx -> (
      try inv.Invariants.check ctx
      with e ->
        Invariants.Fail
          (Printf.sprintf "invariant raised %s" (Printexc.to_string e)))
  | exception e ->
      Invariants.Fail
        (Printf.sprintf "scenario build/run raised %s" (Printexc.to_string e))

(* Greedy shrink: walk to the smallest candidate that still fails the
   same invariant, retrying until no candidate fails. *)
let shrink_failure ~jobs ~inject ~inject_seed inv spec detail =
  let rec go spec detail steps =
    let next =
      List.find_map
        (fun c ->
          match check_spec ~jobs ~inject ~inject_seed inv c with
          | Invariants.Fail d -> Some (c, d)
          | Invariants.Pass | Invariants.Skip _ -> None)
        (Scenario.shrink spec)
    in
    match next with
    | Some (c, d) -> go c d (steps + 1)
    | None -> (spec, detail, steps)
  in
  go spec detail 0

let run ?(progress = fun ~campaign:_ ~total:_ -> ()) options =
  match invariants_of options with
  | Result.Error m -> Result.Error m
  | Result.Ok invariants ->
      let jobs = resolve_jobs options in
      let inject = options.inject in
      let tallies =
        List.map
          (fun i ->
            ref { t_name = i.Invariants.name; t_pass = 0; t_skip = 0; t_fail = 0 })
          invariants
      in
      let tally_of name =
        List.find (fun t -> !t.t_name = name) tallies
      in
      let violations = ref [] in
      let build_failures = ref 0 in
      let checks_run = ref 0 and checks_passed = ref 0 and checks_skipped = ref 0 in
      for i = 0 to options.campaigns - 1 do
        progress ~campaign:i ~total:options.campaigns;
        let spec = spec_of_campaign options i in
        let inject_seed = Int64.add options.seed (Int64.of_int i) in
        match Invariants.make_ctx ~jobs ~inject ~inject_seed spec with
        | exception _ -> incr build_failures
        | ctx ->
            List.iter
              (fun inv ->
                incr checks_run;
                let t = tally_of inv.Invariants.name in
                let outcome =
                  try inv.Invariants.check ctx
                  with e ->
                    Invariants.Fail
                      (Printf.sprintf "invariant raised %s"
                         (Printexc.to_string e))
                in
                match outcome with
                | Invariants.Pass ->
                    incr checks_passed;
                    t := { !t with t_pass = !t.t_pass + 1 }
                | Invariants.Skip _ ->
                    incr checks_skipped;
                    t := { !t with t_skip = !t.t_skip + 1 }
                | Invariants.Fail detail ->
                    t := { !t with t_fail = !t.t_fail + 1 };
                    let shrunk, detail, steps =
                      shrink_failure ~jobs ~inject ~inject_seed inv spec detail
                    in
                    violations :=
                      {
                        v_campaign = i;
                        v_invariant = inv.Invariants.name;
                        v_spec = spec;
                        v_shrunk = shrunk;
                        v_shrink_steps = steps;
                        v_detail = detail;
                      }
                      :: !violations)
              invariants
      done;
      Result.Ok
        {
          r_options = options;
          r_scenarios = options.campaigns;
          r_build_failures = !build_failures;
          r_checks_run = !checks_run;
          r_checks_passed = !checks_passed;
          r_checks_skipped = !checks_skipped;
          r_tallies = List.map (fun t -> !t) tallies;
          r_violations = List.rev !violations;
        }

let clean report = report.r_violations = [] && report.r_build_failures = 0

(* Deterministic JSON: a pure function of the report (no timing, no
   hostnames), so two runs with the same options produce identical
   bytes — the property the fuzz tests' determinism case pins. *)
let report_json report =
  let b = Buffer.create 2048 in
  let opts = report.r_options in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"options\": {\"campaigns\": %d, \"seed\": %Ld, \"self_test\": %b, \
        \"inject\": [%s]},\n"
       opts.campaigns opts.seed opts.self_test
       (String.concat ", "
          (List.map
             (fun s ->
               Printf.sprintf "%S" (Numerics.Failpoint.spec_to_string s))
             opts.inject)));
  Buffer.add_string b
    (Printf.sprintf
       "  \"scenarios\": %d,\n  \"build_failures\": %d,\n  \
        \"checks_run\": %d,\n  \"checks_passed\": %d,\n  \
        \"checks_skipped\": %d,\n"
       report.r_scenarios report.r_build_failures report.r_checks_run
       report.r_checks_passed report.r_checks_skipped);
  Buffer.add_string b "  \"invariants\": {\n";
  List.iteri
    (fun i t ->
      Buffer.add_string b
        (Printf.sprintf "    %S: {\"pass\": %d, \"skip\": %d, \"fail\": %d}%s\n"
           t.t_name t.t_pass t.t_skip t.t_fail
           (if i = List.length report.r_tallies - 1 then "" else ",")))
    report.r_tallies;
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"violations\": [";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"campaign\": %d, \"invariant\": %S, \"spec\": %S, \
            \"shrunk\": %S, \"shrink_steps\": %d, \"detail\": %S}"
           v.v_campaign v.v_invariant
           (Scenario.to_string v.v_spec)
           (Scenario.to_string v.v_shrunk)
           v.v_shrink_steps v.v_detail))
    report.r_violations;
  if report.r_violations <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

let pp_report ppf report =
  Format.fprintf ppf
    "fuzz: %d scenario(s), %d check(s): %d passed, %d skipped@."
    report.r_scenarios report.r_checks_run report.r_checks_passed
    report.r_checks_skipped;
  if report.r_build_failures > 0 then
    Format.fprintf ppf "  %d scenario(s) failed to build@."
      report.r_build_failures;
  List.iter
    (fun t ->
      Format.fprintf ppf "  %-20s pass %-4d skip %-4d fail %d@." t.t_name
        t.t_pass t.t_skip t.t_fail)
    report.r_tallies;
  List.iter
    (fun v ->
      Format.fprintf ppf
        "  VIOLATION %s (campaign %d)@.    spec    %s@.    shrunk  %s (%d \
         step(s))@.    detail  %s@."
        v.v_invariant v.v_campaign
        (Scenario.to_string v.v_spec)
        (Scenario.to_string v.v_shrunk)
        v.v_shrink_steps v.v_detail)
    report.r_violations
