(* Every metric the benchmark reports, with its unit and direction.
   BENCHMARK.json declares the same lists; the smoke slice checks that
   they agree. *)

type metric = { name : string; unit_ : string; better : string }

let m name unit_ better = { name; unit_; better }

(* Untraced runs (--trace 0).  Every workload reports each of them; see
   README.md for what each means on each workload. *)
let end_to_end =
  [
    m "setup_s" "s" "lower";
    m "generate_s" "s" "lower";
    m "compact_s" "s" "lower";
    m "coverage_pct" "%" "higher";
    m "compact_tests" "count" "lower";
    m "peak_rss_mb" "MB" "lower";
  ]

(* Traced runs (--trace 1).  A layer a workload does not exercise reads
   0 there. *)
let per_layer =
  [
    m "circuit.tran.steps_per_sim" "count" "lower";
    m "circuit.dc.newton_per_solve" "count" "lower";
    m "circuit.dc.lu_per_newton" "ratio" "lower";
    m "circuit.dc.gmin_steps" "count" "lower";
    m "circuit.dc.source_steps" "count" "lower";
    m "circuit.dc.failures" "count" "lower";
    m "numerics.lu_factorizations" "count" "lower";
    m "numerics.pattern_reuse_ratio" "ratio" "higher";
    m "execute.solve_s.dc_levels" "s" "lower";
    m "execute.solve_s.thd" "s" "lower";
    m "execute.solve_s.step" "s" "lower";
    m "execute.solve_count" "count" "lower";
    m "evaluator.fault_evaluations" "count" "lower";
    m "evaluator.nominal_hit_ratio" "ratio" "higher";
    m "evaluator.plan_hit_ratio" "ratio" "higher";
    m "evaluator.batch_ratio" "ratio" "higher";
    m "generate.optimizer_s" "s" "lower";
    m "generate.impact_s" "s" "lower";
    m "generate.evals_per_fault" "count" "lower";
    m "engine.fault_p50_ms" "ms" "lower";
    m "engine.fault_p95_ms" "ms" "lower";
    m "engine.fault_max_ms" "ms" "lower";
    m "resilience.recovered" "count" "lower";
    m "resilience.quarantined" "count" "lower";
    m "compactor.members_s" "s" "lower";
    m "cluster.group_s" "s" "lower";
    m "collapse.screen_s" "s" "lower";
    m "collapse.accept_ratio" "ratio" "higher";
    m "coverage.evaluate_s" "s" "lower";
    m "serve.accept_ms" "ms" "lower";
    m "serve.accept_n" "count" "higher";
    m "serve.run_ms" "ms" "lower";
    m "serve.accepted" "count" "higher";
    m "serve.rejected" "count" "lower";
    m "serve.req_p50_ms" "ms" "lower";
    m "serve.req_p95_ms" "ms" "lower";
    m "serve.req_per_s" "1/s" "higher";
    m "serve.req_n" "count" "higher";
    m "obs.traced_overhead_pct" "%" "lower";
  ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Layer metrics read off a traced section: its spans and the counters
   accumulated over it.  [kind_of_config] maps a configuration id to its
   analysis kind.
   Metrics that need more than the trace (compaction stage times, serve
   latencies, tracing overhead) are supplied by the workload in [extra]. *)
let of_trace ~(spans : Layers.span list) ~counters ~kind_of_config ~extra =
  let c name = Option.value ~default:0 (List.assoc_opt name counters) in
  let solve kind =
    Layers.sum_self
      (fun s ->
        s.Layers.name = "execute.solve"
        && match s.Layers.key with
           | Some k -> kind_of_config (int_of_string k) = kind
           | None -> false)
      spans
  in
  let faults = List.filter (Layers.named "engine.fault") spans in
  let fault_ms = List.map (fun s -> s.Layers.seconds *. 1000.) faults in
  let q p = if fault_ms = [] then 0. else Measure.quantile p fault_ms in
  let hit h m = ratio (c h) (c h + c m) in
  let from_trace =
    [
      ("circuit.tran.steps_per_sim", ratio (c "solver.tran.steps") (c "solver.tran.simulations"));
      ("circuit.dc.newton_per_solve", ratio (c "solver.dc.newton_iterations") (c "solver.dc.solves"));
      ("circuit.dc.lu_per_newton", ratio (c "solver.dc.lu_factorizations") (c "solver.dc.newton_iterations"));
      ("circuit.dc.gmin_steps", float_of_int (c "solver.dc.gmin_steps"));
      ("circuit.dc.source_steps", float_of_int (c "solver.dc.source_steps"));
      ("circuit.dc.failures", float_of_int (c "solver.dc.failures"));
      ( "numerics.lu_factorizations",
        float_of_int (c "solver.dc.lu_factorizations" + c "evaluator.batch.panels") );
      ("numerics.pattern_reuse_ratio", ratio (c "solver.dc.pattern_reuses") (c "solver.dc.lu_factorizations"));
      ("execute.solve_s.dc_levels", solve "dc_levels");
      ("execute.solve_s.thd", solve "thd");
      ("execute.solve_s.step", solve "step");
      ( "execute.solve_count",
        float_of_int (List.length (List.filter (Layers.named "execute.solve") spans)) );
      ("evaluator.fault_evaluations", float_of_int (c "evaluator.fault_evaluations"));
      ("evaluator.nominal_hit_ratio", hit "evaluator.nominal_cache.hits" "evaluator.nominal_cache.misses");
      ("evaluator.plan_hit_ratio", hit "evaluator.plan_cache.hits" "evaluator.plan_cache.misses");
      ("evaluator.batch_ratio", hit "evaluator.batch.faults_batched" "evaluator.batch.fallback_seq");
      ("generate.optimizer_s", Layers.sum_seconds (Layers.named "generate.optimizer") spans);
      ("generate.impact_s", Layers.sum_seconds (Layers.named "generate.impact") spans);
      ( "generate.evals_per_fault",
        ratio
          (List.fold_left (fun a s -> a + s.Layers.evals) 0 faults)
          (List.length faults) );
      ("engine.fault_p50_ms", q 0.5);
      ("engine.fault_p95_ms", q 0.95);
      ("engine.fault_max_ms", q 1.);
      ("resilience.recovered", float_of_int (c "resilience.recovered"));
      ("resilience.quarantined", float_of_int (c "resilience.quarantined"));
    ]
  in
  List.map
    (fun mt ->
      let v =
        match List.assoc_opt mt.name extra with
        | Some v -> v
        | None -> Option.value ~default:0. (List.assoc_opt mt.name from_trace)
      in
      (mt.name, v))
    per_layer

let kind_of_analysis = function
  | Testgen.Test_config.Dc_levels _ -> "dc_levels"
  | Testgen.Test_config.Tran_thd _ -> "thd"
  | Testgen.Test_config.Tran_samples _ -> "step"
  | _ -> "other"

let kind_of_configs configs id =
  match List.find_opt (fun c -> c.Testgen.Test_config.config_id = id) configs with
  | Some c -> kind_of_analysis c.Testgen.Test_config.analysis
  | None -> "other"

(* The result line: the last line of standard output. *)
let result_json ~correct ~attempted ~failed ~table values =
  let metric (mt : metric) =
    let v = List.assoc mt.name values in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" mt.name
      (if Float.is_finite v then v else 0.)
      mt.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric table))
