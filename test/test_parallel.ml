(* Sequential/parallel parity: Engine.run on a pool of domains must
   reproduce the sequential (jobs = 1) run record bit for bit — same fault ordering,
   same rung statistics, same session-checkpoint bytes — at every job
   count, with and without failure injection, and across a mid-run kill
   plus resume. *)

open Testgen
module Fp = Numerics.Failpoint

let iv_target =
  Experiments.Setup.target_of_macro Macros.Iv_converter.macro
    Macros.Process.nominal

let fresh_dc_evaluator () =
  let config = Experiments.Iv_configs.config1 in
  Evaluator.create config ~nominal:iv_target
    ~box_model:(Tolerance.floor_only config)

(* The paper's full 55-fault IV-converter dictionary; one cheap DC
   configuration keeps the repeated whole-dictionary runs fast. *)
let full_dictionary = Macros.Macro.dictionary Macros.Iv_converter.macro

(* a small dictionary for the expensive many-variation tests *)
let small_faults =
  [
    Faults.Fault.bridge "n1" "vout" ~resistance:10e3;
    Faults.Fault.bridge "n2" "vout" ~resistance:10e3;
    Faults.Fault.bridge "iin" "n1" ~resistance:10e3;
    Faults.Fault.bridge "0" "vdd" ~resistance:10e3;
    Faults.Fault.pinhole "m6" ~r_shunt:2e3;
  ]

let small_dictionary = Faults.Dictionary.of_faults small_faults

(* CI exercises the suite at several pool sizes via ATPG_TEST_JOBS; the
   {1, 2, 4} ladder of the parity contract is always included. *)
let env_jobs =
  match Sys.getenv_opt "ATPG_TEST_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

let job_counts = List.sort_uniq Int.compare ([ 1; 2; 4 ] @ Option.to_list env_jobs)

let outcome_label (o : Generate.result Resilience.outcome) =
  match o with
  | Resilience.Ok _ -> "ok"
  | Resilience.Recovered _ ->
      "recovered:" ^ Option.value ~default:"?" (Resilience.recovery_rung o)
  | Resilience.Failed d -> "failed:" ^ d.Resilience.diag_error

(* everything observable about a run except wall-clock time *)
let fingerprint (run : Engine.run) =
  ( Session.to_string run.Engine.results,
    List.map
      (fun (r : Engine.fault_report) ->
        (r.Engine.report_fault_id, outcome_label r.Engine.report_outcome))
      run.Engine.reports,
    run.Engine.rung_stats,
    run.Engine.recovered_count,
    run.Engine.resumed_count,
    run.Engine.total_fault_simulations,
    List.map (fun d -> d.Resilience.diag_fault_id) run.Engine.failed_faults )

let run_dict ?policy ?resume ?checkpoint dictionary jobs =
  Engine.run ?policy ?resume ?checkpoint ~jobs
    ~evaluators:[ fresh_dc_evaluator () ] dictionary

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let with_temp_file f =
  let path = Filename.temp_file "atpg-parallel" ".session" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let checkpointed_run ?policy ?resume ?prior_file dictionary jobs =
  with_temp_file (fun path ->
      (match prior_file with
      | Some text ->
          let oc = open_out_bin path in
          output_string oc text;
          close_out oc
      | None ->
          (* temp_file leaves an empty file behind; resume wants either a
             valid session or nothing at all *)
          Sys.remove path);
      match Session.checkpoint_resume ~path with
      | Error m -> Alcotest.fail m
      | Ok (ck, salvaged) ->
          let resume =
            match resume with Some r -> r | None -> salvaged
          in
          let run =
            Fun.protect
              ~finally:(fun () -> Session.checkpoint_close ck)
              (fun () ->
                run_dict ?policy ~resume
                  ~checkpoint:(Session.checkpoint_append ck) dictionary jobs)
          in
          (run, read_file path))

(* ------------------------------------------------------------ parity *)

let test_full_dictionary_parity () =
  let reference, ref_bytes = checkpointed_run full_dictionary 1 in
  let ref_fp = fingerprint reference in
  Alcotest.(check int) "whole dictionary simulated"
    (Faults.Dictionary.size full_dictionary)
    (List.length reference.Engine.results);
  List.iter
    (fun jobs ->
      let run, bytes = checkpointed_run full_dictionary jobs in
      Alcotest.(check bool)
        (Printf.sprintf "run record identical at --jobs %d" jobs)
        true
        (fingerprint run = ref_fp);
      Alcotest.(check string)
        (Printf.sprintf "session bytes identical at --jobs %d" jobs)
        ref_bytes bytes)
    job_counts

let test_parity_under_injection () =
  (* probabilistic injection with per-fault trigger caps: the recovery
     ladder engages for some faults and quarantines others, and the
     whole pattern must be identical at every job count *)
  let injected jobs =
    Fp.with_config ~seed:23L
      [
        {
          Fp.point = "dc.no_convergence";
          probability = 0.35;
          max_triggers = Some 2;
        };
        { Fp.point = "execute.observables"; probability = 0.05; max_triggers = None };
      ]
      (fun () -> run_dict small_dictionary jobs)
  in
  let reference = injected 1 in
  let ref_fp = fingerprint reference in
  Alcotest.(check bool) "injection exercised the ladder" true
    (reference.Engine.recovered_count > 0
    || reference.Engine.failed_faults <> []);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "injected run identical at --jobs %d" jobs)
        true
        (fingerprint (injected jobs) = ref_fp))
    job_counts

let test_kill_and_resume_across_job_counts () =
  (* a run killed after k faults (mid-write of fault k+1) and resumed at
     a different job count must refill the checkpoint to the exact bytes
     of an uninterrupted sequential run *)
  let reference, ref_bytes = checkpointed_run full_dictionary 1 in
  let killed_after = 20 in
  let torn_prefix =
    Session.to_string
      (List.filteri (fun i _ -> i < killed_after) reference.Engine.results)
    ^ "result bridge:torn\nfault bridge a b 1000\ncandidate 1 0.5"
  in
  List.iter
    (fun jobs ->
      let run, bytes =
        checkpointed_run ~prior_file:torn_prefix full_dictionary jobs
      in
      Alcotest.(check int)
        (Printf.sprintf "salvaged faults resumed at --jobs %d" jobs)
        killed_after run.Engine.resumed_count;
      Alcotest.(check string)
        (Printf.sprintf "resumed file byte-identical at --jobs %d" jobs)
        ref_bytes bytes;
      Alcotest.(check string)
        (Printf.sprintf "resumed results identical at --jobs %d" jobs)
        (Session.to_string reference.Engine.results)
        (Session.to_string run.Engine.results))
    job_counts

let test_fail_fast_parallel () =
  (* fail-fast under a pool: the funnel aborts on the lowest-index
     unrecoverable fault, outstanding work is cancelled and every domain
     joined before the exception escapes *)
  Fp.with_config [ Fp.fail_always "dc.no_convergence" ] (fun () ->
      let policy =
        { Resilience.default_policy with Resilience.fail_fast = true }
      in
      List.iter
        (fun jobs ->
          try
            ignore (run_dict ~policy small_dictionary jobs);
            Alcotest.fail "fail-fast pool did not abort"
          with Engine.Fault_failure d ->
            Alcotest.(check string)
              (Printf.sprintf "aborted on the first fault at --jobs %d" jobs)
              "bridge:n1-vout" d.Resilience.diag_fault_id)
        job_counts)

(* ------------------------------------- QCheck merge/fan-out properties *)

let prop_fan_out_complete_and_ordered =
  QCheck.Test.make
    ~name:"fan_out emits every index exactly once, in increasing order"
    ~count:100
    QCheck.(pair (int_range 0 64) (int_range 1 8))
    (fun (n, jobs) ->
      let emitted = ref [] in
      Parallel.fan_out ~jobs
        ~make_ctx:(fun () -> ())
        ~f:(fun () i -> i * i)
        ~emit:(fun i v -> emitted := (i, v) :: !emitted)
        n;
      List.rev !emitted = List.init n (fun i -> (i, i * i)))

exception Task_failed of int
exception Emit_failed of int

(* The caller-as-worker fan-out under random task durations and raise
   positions: [emit] sees 0, 1, ... in order up to the first failure;
   the lowest-index task error is the one re-raised; a raise inside
   [emit] returns only once every domain is joined (no task in flight,
   none started afterwards); and tasks run on at most [jobs] distinct
   domains, the caller's included — [jobs - 1] spawned ones. *)
let prop_fan_out_schedules =
  QCheck.Test.make
    ~name:"fan_out: order, lowest error, joined on emit raise, jobs domains"
    ~count:60
    QCheck.(
      quad (int_range 1 4)
        (list_of_size Gen.(int_range 0 24) (int_range 0 400))
        (small_list (int_range 0 31))
        (option (int_range 0 31)))
    (fun (jobs, durations_us, task_raises, emit_raise) ->
      let durations = Array.of_list durations_us in
      let n = Array.length durations in
      let caller = (Domain.self () :> int) in
      let running = Atomic.make 0 and started = Atomic.make 0 in
      let ids_mutex = Mutex.create () and ids = ref [] in
      let f () i =
        Atomic.incr started;
        Atomic.incr running;
        Mutex.lock ids_mutex;
        ids := (Domain.self () :> int) :: !ids;
        Mutex.unlock ids_mutex;
        Unix.sleepf (float_of_int durations.(i) *. 1e-6);
        Atomic.decr running;
        if List.mem i task_raises then raise (Task_failed i) else i
      in
      let emitted = ref [] in
      let emit i v =
        if Some i = emit_raise then raise (Emit_failed i);
        emitted := (i, v) :: !emitted
      in
      let outcome =
        match Parallel.fan_out ~jobs ~make_ctx:ignore ~f ~emit n with
        | () -> `Done
        | exception Task_failed i -> `Task i
        | exception Emit_failed i -> `Emit i
      in
      let in_flight = Atomic.get running in
      let started_at_return = Atomic.get started in
      Unix.sleepf 2e-3;
      let first_task =
        List.fold_left min n (List.filter (fun i -> i < n) task_raises)
      in
      let first_emit =
        match emit_raise with Some e when e < n -> e | _ -> n
      in
      let expected, stop =
        if first_task < n && first_task <= first_emit then
          (`Task first_task, first_task)
        else if first_emit < n then (`Emit first_emit, first_emit)
        else (`Done, n)
      in
      let spawned_ids =
        List.sort_uniq Int.compare (List.filter (( <> ) caller) !ids)
      in
      outcome = expected
      && List.rev !emitted = List.init stop (fun i -> (i, i))
      && in_flight = 0
      && Atomic.get started = started_at_return
      && List.length spawned_ids <= jobs - 1)

(* a placeholder generation result for synthetic reports: rung_stats
   only inspects the outcome shape and rung labels *)
let dummy_result fid =
  {
    Generate.fault_id = fid;
    dictionary_fault = Faults.Fault.bridge "a" "b" ~resistance:1e3;
    candidates = [];
    outcome =
      Generate.Undetectable
        {
          most_sensitive_config = 1;
          params = [| 0. |];
          best_sensitivity = 0.;
          strongest_impact = 1e3;
        };
    trace = [];
  }

let ladder_labels =
  List.map
    (fun (r : Resilience.rung) -> r.Resilience.rung_label)
    Resilience.default_policy.Resilience.ladder

(* code 0 = Ok, 1..|ladder| = recovered on that rung, else quarantined *)
let report_of_code i code =
  let fid = Printf.sprintf "f%d" i in
  let outcome =
    if code = 0 then Resilience.Ok (dummy_result fid)
    else if code <= List.length ladder_labels then
      let winner = List.nth ladder_labels (code - 1) in
      Resilience.Recovered
        ( dummy_result fid,
          [
            {
              Resilience.attempt_rung = Resilience.baseline_label;
              attempt_error = Some "synthetic";
            };
            { Resilience.attempt_rung = winner; attempt_error = None };
          ] )
    else
      Resilience.Failed
        {
          Resilience.diag_fault_id = fid;
          diag_attempts = [];
          diag_error = "synthetic";
        }
  in
  { Engine.report_fault_id = fid; report_outcome = outcome }

let prop_rung_stats_no_double_count =
  QCheck.Test.make
    ~name:
      "rung_stats: every non-quarantined outcome counted exactly once, on \
       its own rung" ~count:200
    QCheck.(list (int_range 0 5))
    (fun codes ->
      let policy = Resilience.default_policy in
      let reports = List.mapi report_of_code codes in
      let stats = Engine.rung_stats_of_reports ~policy reports in
      let count p = List.length (List.filter p codes) in
      List.map fst stats = (Resilience.baseline_label :: ladder_labels)
      && List.fold_left (fun a (_, n) -> a + n) 0 stats
         = count (fun c -> c <= List.length ladder_labels)
      && List.assoc Resilience.baseline_label stats = count (fun c -> c = 0)
      && List.for_all
           (fun (i, label) -> List.assoc label stats = count (fun c -> c = i + 1))
           (List.mapi (fun i l -> (i, l)) ladder_labels))

let prop_engine_subset_parity =
  (* arbitrary fault subsets at arbitrary worker counts reproduce the
     sequential merge: dictionary order kept, no outcome lost *)
  QCheck.Test.make ~name:"engine parity on arbitrary fault subsets" ~count:6
    QCheck.(pair (int_range 1 31) (int_range 2 5))
    (fun (mask, jobs) ->
      let subset =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) small_faults
      in
      let dict = Faults.Dictionary.of_faults subset in
      fingerprint (run_dict dict 1) = fingerprint (run_dict dict jobs))

(* --------------------------------------------- domain-safety regressions *)

let test_rng_streams_never_interleave () =
  (* two domains drawing concurrently from distinct named streams see
     exactly the sequences a single thread would *)
  let draws key n =
    let r = Numerics.Rng.of_key ~seed:99L ~key in
    List.init n (fun _ -> Numerics.Rng.float r)
  in
  let n = 20_000 in
  let expect_a = draws "alpha" n and expect_b = draws "beta" n in
  let da = Domain.spawn (fun () -> draws "alpha" n) in
  let db = Domain.spawn (fun () -> draws "beta" n) in
  let got_a = Domain.join da and got_b = Domain.join db in
  Alcotest.(check bool) "streams are distinct" true (expect_a <> expect_b);
  Alcotest.(check bool) "domain A unperturbed" true (got_a = expect_a);
  Alcotest.(check bool) "domain B unperturbed" true (got_b = expect_b)

let test_failpoint_domains_never_interleave () =
  (* concurrent scoped querying from two domains reproduces each scope's
     single-threaded failure pattern — per-domain site tables, no shared
     counters or streams.  [with_config] is domain-local, so a raw
     spawn carries the configuration across as a snapshot, exactly as
     Parallel.fan_out does for its workers. *)
  Fp.with_config ~seed:5L
    [ { Fp.point = "p"; probability = 0.5; max_triggers = Some 100 } ]
    (fun () ->
      let pattern scope n =
        Fp.with_scope ~key:scope (fun () ->
            let fired = List.init n (fun _ -> Fp.should_fail "p") in
            (fired, Fp.query_count "p", Fp.trigger_count "p"))
      in
      let n = 512 in
      let expect_a = pattern "fault-a" n and expect_b = pattern "fault-b" n in
      let snap = Fp.snapshot () in
      let da =
        Domain.spawn (fun () ->
            Fp.with_snapshot snap (fun () -> pattern "fault-a" n))
      in
      let db =
        Domain.spawn (fun () ->
            Fp.with_snapshot snap (fun () -> pattern "fault-b" n))
      in
      let got_a = Domain.join da and got_b = Domain.join db in
      let fired (f, _, _) = f in
      Alcotest.(check bool) "scopes are distinct" true
        (fired expect_a <> fired expect_b);
      Alcotest.(check bool) "scope A unperturbed by domain B" true
        (got_a = expect_a);
      Alcotest.(check bool) "scope B unperturbed by domain A" true
        (got_b = expect_b);
      let _, queries_a, triggers_a = expect_a in
      Alcotest.(check int) "per-scope queries counted" n queries_a;
      Alcotest.(check int) "per-scope trigger cap honoured" 100 triggers_a)

let test_fan_out_lowest_failure_wins () =
  (* when several tasks raise, the exception that escapes is the one of
     the lowest task index — failure is deterministic under scheduling *)
  match
    Parallel.fan_out ~jobs:4
      ~make_ctx:(fun () -> ())
      ~f:(fun () i -> if i >= 3 then failwith (string_of_int i) else i)
      ~emit:(fun _ _ -> ())
      16
  with
  | () -> Alcotest.fail "expected a failure"
  | exception Failure m -> Alcotest.(check string) "lowest index" "3" m

let test_emit_abort_joins_domains () =
  (* an exception thrown by emit (the engine's fail-fast path) cancels
     outstanding work and joins the pool; remaining emits never happen *)
  let emitted = ref [] in
  (match
     Parallel.fan_out ~jobs:4
       ~make_ctx:(fun () -> ())
       ~f:(fun () i -> i)
       ~emit:(fun i _ ->
         if i = 2 then failwith "stop" else emitted := i :: !emitted)
       64
   with
  | () -> Alcotest.fail "expected the abort to propagate"
  | exception Failure m -> Alcotest.(check string) "abort reason" "stop" m);
  Alcotest.(check (list int)) "prefix emitted in order" [ 0; 1 ]
    (List.rev !emitted)

(* ------------------------------------------------------- retention *)

(* Lookups count per key, hits and misses alike, summed over forks: a
   key two forks looked up once each is kept, a key one fork looked up
   once is not, and counting restarts after each retention. *)
let test_retained_lookups () =
  let ev = fresh_dc_evaluator () in
  let config = Evaluator.config ev in
  let seeds = Test_param.seeds_of config.Test_config.params in
  let lo, hi = Test_param.bounds_of config.Test_config.params in
  let mid = Array.mapi (fun i s -> 0.5 *. (s +. hi.(i))) seeds in
  let lookup ev p = ignore (Evaluator.nominal_observables ev p) in
  let a = List.hd (Evaluator.fork [ ev ]) and b = List.hd (Evaluator.fork [ ev ]) in
  lookup a seeds;
  lookup a seeds;
  lookup a lo;
  lookup b lo;
  lookup b hi;
  lookup ev mid;
  Evaluator.absorb ~into:ev a;
  Evaluator.absorb ~into:ev b;
  Evaluator.retain_reused [ ev ];
  Alcotest.(check int) "kept: looked up twice in one fork, once in each of two" 2
    (Evaluator.cache_stats ev).Evaluator.entries;
  let misses () = (Evaluator.cache_stats ev).Evaluator.misses in
  let before = misses () in
  lookup ev seeds;
  lookup ev lo;
  Alcotest.(check int) "kept keys hit" before (misses ());
  lookup ev hi;
  Alcotest.(check int) "a key looked up once was dropped" (before + 1) (misses ());
  Evaluator.retain_reused [ ev ];
  Alcotest.(check int) "counting restarts: one lookup each is not enough" 0
    (Evaluator.cache_stats ev).Evaluator.entries

(* Two runs on one context, on different faults, give what fresh
   contexts give, and the first run leaves a retained set that does not
   depend on the job count.  The fast-profile context is calibrated once;
   forks of its untouched evaluators are fresh contexts. *)
let test_retention_across_runs () =
  let ctx = Experiments.Setup.iv ~profile:Testgen.Execute.fast_profile () in
  let pristine = ctx.Experiments.Setup.evaluators in
  let fresh () = Evaluator.fork pristine in
  let ids =
    List.map
      (fun e -> e.Faults.Dictionary.fault_id)
      (Faults.Dictionary.entries ctx.Experiments.Setup.dictionary)
  in
  let subset first =
    let mine = List.filteri (fun i _ -> i >= first && i < first + 3) ids in
    Faults.Dictionary.filter ctx.Experiments.Setup.dictionary (fun e ->
        List.mem e.Faults.Dictionary.fault_id mine)
  in
  let s1 = subset 0 and s2 = subset 3 in
  let run ~jobs evs dict =
    Session.to_string (Engine.run ~jobs ~evaluators:evs dict).Engine.results
  in
  let keys evs = List.map Evaluator.nominal_keys evs in
  let sum f evs = List.fold_left (fun acc ev -> acc + f ev) 0 evs in
  let context = fresh () in
  let first = run ~jobs:1 context s1 in
  let retained = keys context in
  (* 3 faults, 5 configurations: 153 of the run's 1,323 distinct points
     are looked up at least twice.  Before retention a context kept all
     1,323 (every point any worker evaluated), and so grew with every
     run. *)
  Alcotest.(check (pair int int)) "retained / distinct points of the run"
    (153, 1323)
    ( sum (fun ev -> (Evaluator.cache_stats ev).Evaluator.entries) context,
      sum (fun ev -> (Evaluator.cache_stats ev).Evaluator.misses) context );
  List.iter
    (fun jobs ->
      let other = fresh () in
      Alcotest.(check string)
        (Printf.sprintf "jobs %d results" jobs)
        first (run ~jobs other s1);
      Alcotest.(check (list (list string)))
        (Printf.sprintf "jobs %d retains the same keys" jobs)
        retained (keys other))
    (List.filter (fun j -> j > 1) job_counts);
  Alcotest.(check string) "second run = the same faults on a fresh context"
    (run ~jobs:1 (fresh ()) s2) (run ~jobs:1 context s2)

(* ------------------------------------------- linear probe contexts *)

(* The Sallen-Key chain and the RC ladder are linear plans, whose
   workspaces keep their factorization from solve to solve; a domain's
   forks compile their own. *)
let chain = Macros.Filter_chain.sk_chain ~stages:2
let ladder = Macros.Rc_ladder.macro ~sections:4

let probe_run ?jobs macro n_faults =
  let c =
    Experiments.Setup.reduced (Experiments.Setup.probe ~macro ()) ~n_faults
  in
  Engine.run ~options:Experiments.Setup.probe_options ?jobs
    ~evaluators:c.evaluators c.dictionary

let test_linear_pool_size_parity () =
  let reference = fingerprint (probe_run chain 6) in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d identical to sequential" jobs)
        true
        (fingerprint (probe_run ~jobs chain 6) = reference))
    job_counts

(* Injection runs the production Newton loop and cache path: a linear
   plan's held factorizations and the nominal cache.  An injected run on
   a context whose caches and workspaces already served the same faults
   uninjected must be the injected run of a fresh context. *)
let check_injected_warm_cold label ?options specs context =
  let generate (c : Experiments.Setup.t) =
    Engine.run ?options ~evaluators:c.evaluators c.dictionary
  in
  let injected c = Fp.with_config ~seed:23L specs (fun () -> generate c) in
  let cold = injected (context ()) in
  let warm =
    let c = context () in
    ignore (generate c);
    injected c
  in
  Alcotest.(check bool) (label ^ ": injection exercised the ladder") true
    (cold.Engine.recovered_count > 0 || cold.Engine.failed_faults <> []);
  Alcotest.(check bool) (label ^ ": warm injected run = cold injected run")
    true
    (fingerprint warm = fingerprint cold)

(* The operating-point memo answers repeats on the IV's nonlinear plans,
   but not while injection is configured: a hit would skip the failpoint
   queries of the solve it replaces.  Every fault starts on a fresh site,
   so warmth alone cannot show a memo that ignores injection; its hit
   counter does. *)
let memo_hits f =
  Obs.enable ();
  Fun.protect ~finally:Obs.shutdown (fun () ->
      ignore (f ());
      Option.value ~default:0
        (List.assoc_opt "solver.dc.op_memo_hits" (Obs.counters ())))

let test_injected_warm_cold () =
  check_injected_warm_cold "rc ladder" ~options:Experiments.Setup.probe_options
    [
      { Fp.point = "dc.no_convergence"; probability = 0.35; max_triggers = Some 2 };
      { Fp.point = "execute.observables"; probability = 0.05; max_triggers = None };
    ]
    (fun () ->
      Experiments.Setup.reduced (Experiments.Setup.probe ~macro:ladder ())
        ~n_faults:6);
  (* one calibration: a fork of a context nothing has run on is a fresh
     context (empty caches, no compiled sites) *)
  let pristine =
    Experiments.Setup.reduced
      (Experiments.Setup.iv ~profile:Execute.fast_profile ())
      ~n_faults:2
  in
  let iv () = { pristine with evaluators = Evaluator.fork pristine.evaluators } in
  let specs =
    [ { Fp.point = "dc.no_convergence"; probability = 0.5; max_triggers = Some 1 } ]
  in
  check_injected_warm_cold "iv --fast" specs iv;
  let generate (c : Experiments.Setup.t) () =
    Engine.run ~evaluators:c.evaluators c.dictionary
  in
  let plain = generate (iv ()) and injected = generate (iv ()) in
  Alcotest.(check bool) "iv --fast: the memo answers an uninjected run" true
    (memo_hits plain > 0);
  Alcotest.(check int) "iv --fast: and nothing under injection" 0
    (memo_hits (fun () -> Fp.with_config ~seed:23L specs injected))

let () =
  Alcotest.run "parallel"
    [
      ( "retention",
        [
          Alcotest.test_case "lookups summed over forks" `Quick
            test_retained_lookups;
          Alcotest.test_case "runs on one context, jobs {1,2,4}" `Slow
            test_retention_across_runs;
        ] );
      ( "parity",
        [
          Alcotest.test_case "full dictionary, jobs {1,2,4}" `Slow
            test_full_dictionary_parity;
          Alcotest.test_case "under failure injection" `Slow
            test_parity_under_injection;
          Alcotest.test_case "kill + resume across job counts" `Slow
            test_kill_and_resume_across_job_counts;
          Alcotest.test_case "fail-fast in a pool" `Quick
            test_fail_fast_parallel;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "pool-size parity" `Quick
            test_linear_pool_size_parity;
          Alcotest.test_case "under failure injection" `Quick
            test_injected_warm_cold;
        ] );
      ( "merge",
        [
          QCheck_alcotest.to_alcotest prop_fan_out_complete_and_ordered;
          QCheck_alcotest.to_alcotest prop_fan_out_schedules;
          QCheck_alcotest.to_alcotest prop_rung_stats_no_double_count;
          QCheck_alcotest.to_alcotest prop_engine_subset_parity;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "rng streams never interleave" `Quick
            test_rng_streams_never_interleave;
          Alcotest.test_case "failpoint scopes never interleave" `Quick
            test_failpoint_domains_never_interleave;
          Alcotest.test_case "lowest failure wins" `Quick
            test_fan_out_lowest_failure_wins;
          Alcotest.test_case "emit abort joins the pool" `Quick
            test_emit_abort_joins_domains;
        ] );
    ]
