(* The two engine workloads: the paper's IV-converter and the RC-ladder
   scale-out case.  Both call the library with its defaults at jobs 1
   (the sequential executor, the CLI default) and pass it nothing but
   the seed's fault sample. *)

open Testgen

type spec = {
  name : string;
  build : unit -> Experiments.Setup.t;
  options : Generate.options option;
  sample_size : int;  (** faults drawn per round *)
  compact_dictionary : bool;
      (** compact the whole dictionary (the sample's live results in place
          of their committed counterparts) rather than the sample alone *)
}

let iv_paper =
  {
    name = "iv-paper";
    build = (fun () -> Experiments.Setup.iv ());
    options = None;
    sample_size = 10;
    (* 10 faults compact to 4-8 tests depending on the seed; the whole
       dictionary gives the paper's Table 4 on every seed *)
    compact_dictionary = true;
  }

let rc_ladder =
  {
    name = "rc-ladder";
    build =
      (fun () ->
        match Macros.Registry.find "rc48" with
        | Ok macro -> Experiments.Setup.probe ~macro ()
        | Error e -> failwith e);
    options = Some Experiments.Setup.probe_options;
    sample_size = 700;
    compact_dictionary = false;
  }

let delta = 0.1

(* The context restricted to the sampled faults (dictionary order). *)
let restrict (setup : Experiments.Setup.t) sample =
  let ids = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace ids r.Reference.fault_id ()) sample;
  {
    setup with
    Experiments.Setup.dictionary =
      Faults.Dictionary.filter setup.Experiments.Setup.dictionary (fun e ->
          Hashtbl.mem ids e.Faults.Dictionary.fault_id);
  }

type round = {
  sample : Reference.row list;
  gen_s : float;  (** Engine.run, normalised *)
  compact_s : float;  (** Compactor.compact, normalised *)
  run : Engine.run;
  compact_tests : int;
  coverage : Coverage.report;
}

(* Engine.run's progress callback fires right after each fault
   completes, in dictionary order, so the gaps between its calls are the
   faults' generation times. *)
let generate ?options setup =
  let fault_s = ref [] and last = ref (Measure.now ()) in
  let progress ~done_:_ ~total:_ ~fault_id =
    let t = Measure.now () in
    fault_s := (fault_id, t -. !last) :: !fault_s;
    last := t
  in
  let run = Experiments.Runs.engine_run ~progress ?options setup in
  (run, List.rev !fault_s)

let compact_run setup run = Experiments.Runs.compact_run ~delta setup run

let covered (c : Coverage.report) =
  List.sort compare
    (List.filter_map
       (fun d ->
         if d.Coverage.detected_by <> [] then Some d.Coverage.det_fault_id else None)
       c.Coverage.detections)

let covered_ids (c : Compactor.result) = covered c.Compactor.coverage

let verdicts (run : Engine.run) =
  List.map
    (fun (r : Engine.fault_report) ->
      (r.Engine.report_fault_id, Reference.verdict r.Engine.report_outcome))
    run.Engine.reports

(* -- references ----------------------------------------------------------- *)

let session_path spec = Filename.concat "atpgbench/ref" (spec.name ^ ".session")

let ok_or_fail = function Ok v -> v | Error e -> failwith e

(* What a round compacts, given its live run over [sample]: that run
   over the sample, or the committed whole-dictionary results with the
   live ones in place of their committed counterparts. *)
let compaction_input spec ~oracle setup sample (run : Engine.run) =
  if spec.compact_dictionary then begin
    let live = Hashtbl.create 16 in
    List.iter (fun r -> Hashtbl.replace live r.Generate.fault_id r) run.Engine.results;
    let results =
      List.map
        (fun r -> Option.value ~default:r (Hashtbl.find_opt live r.Generate.fault_id))
        oracle
    in
    (setup, Engine.of_results ~evaluators:setup.Experiments.Setup.evaluators results)
  end
  else (restrict setup sample, run)

(* The compaction of a sample computed from the committed
   whole-dictionary results instead of a live generation run. *)
let oracle_compaction spec setup ~oracle sample =
  let ids = List.map (fun x -> x.Reference.fault_id) sample in
  let setup', run =
    compaction_input spec ~oracle setup sample
      (Engine.of_results ~evaluators:setup.Experiments.Setup.evaluators
         (List.filter (fun res -> List.mem res.Generate.fault_id ids) oracle))
  in
  compact_run setup' run

(* Seeds whose first-round compaction is committed. *)
let reference_seeds = 100

(* Recompute the committed compactions from the committed table and
   session alone (after a change to compaction only). *)
let write_compactions ?setup spec =
  let setup = match setup with Some s -> s | None -> spec.build () in
  let rows = Reference.load spec.name in
  let oracle = ok_or_fail (Session.load ~path:(session_path spec)) in
  let compaction seed =
    let sample =
      Sample.stratified ~rng:(Sample.rng ~seed ~key:spec.name) ~n:spec.sample_size rows
    in
    let c = oracle_compaction spec setup ~oracle sample in
    (seed, List.length c.Compactor.compact_tests, covered_ids c)
  in
  (* a whole-dictionary compaction does not depend on the seed *)
  Reference.save_compactions spec.name
    (if spec.compact_dictionary then [ compaction 0 ]
     else List.init reference_seeds compaction)

(* The committed compaction for [seed]'s first sample, if any. *)
let committed_compaction spec seed =
  let table = Reference.load_compactions spec.name in
  if spec.compact_dictionary then Option.map snd (List.nth_opt table 0)
  else List.assoc_opt seed table

(* Regenerate the workload's references from [runs] whole-dictionary
   runs, which must agree on every verdict: the per-fault table (each
   fault's fastest seconds over the runs, as the host's speed varies by
   up to 1.6x from one second to the next), the session of the first
   run's results, and the committed compactions.  Each run builds a
   fresh context, as a benchmark run does: warm evaluator caches make
   the IV-converter ~40% faster. *)
let write_reference ?(runs = 3) spec =
  let all =
    List.init runs (fun _ ->
        let setup = spec.build () in
        (setup, generate ?options:spec.options setup))
  in
  let setup, (run, _) = List.hd all in
  let all = List.map snd all in
  List.iter
    (fun (r, _) ->
      if verdicts r <> verdicts run then failwith (spec.name ^ ": verdicts differ between runs"))
    all;
  (* verification would accept a quarantined fault its reference row
     calls failed *)
  if List.exists (fun (_, (status, _)) -> status = "failed") (verdicts run) then
    failwith (spec.name ^ ": a fault was quarantined; no reference written");
  let rows =
    Array.of_list
      (List.map2
         (fun (e : Faults.Dictionary.entry) (r : Engine.fault_report) ->
           let id = e.Faults.Dictionary.fault_id in
           let status, config = Reference.verdict r.Engine.report_outcome in
           {
             Reference.fault_id = id;
             kind = Reference.kind_of_fault e.Faults.Dictionary.fault;
             status;
             config;
             seconds = List.fold_left min infinity (List.map (fun (_, fs) -> List.assoc id fs) all);
           })
         (Faults.Dictionary.entries setup.Experiments.Setup.dictionary)
         run.Engine.reports)
  in
  let wall = List.map (fun (r, _) -> r.Engine.wall_seconds) all in
  Reference.save spec.name
    ~header:
      (Printf.sprintf
         "%s: whole dictionary, jobs 1, generate %s s; seconds are each \
          fault's fastest over the runs; columns: fault_id kind status \
          config seconds"
         spec.name
         (String.concat " / " (List.map (Printf.sprintf "%.1f") wall)))
    rows;
  ok_or_fail (Session.save ~path:(session_path spec) run.Engine.results);
  Printf.printf "%s: %d faults, generate %s s\n" spec.name (Array.length rows)
    (String.concat " / " (List.map (Printf.sprintf "%.2f") wall));
  write_compactions spec ~setup

(* -- one round: generate then compact the seed's sample ------------------- *)

(* Compactor.compact's steps as the separate public calls it makes, each
   in a span of the benchmark's own: members, collapse, and coverage of
   the collapsed tests.  Clustering also runs alone (collapse clusters
   again inside, so the screen's time is collapse minus clustering).
   Only traced runs use it, for the per-layer split; compact_s times
   Compactor.compact itself. *)
let staged_compact (setup : Experiments.Setup.t) run =
  let groups, proposals, accepted =
    List.fold_left
      (fun (groups, p, a) ev ->
        let config_id = Evaluator.config_id ev in
        let members =
          Obs.Span.timed "compactor.members" (fun () ->
              Compactor.members_of_run run ~config_id)
        in
        if members = [] then (groups, p, a)
        else begin
          let params = (Evaluator.config ev).Test_config.params in
          ignore
            (Obs.Span.timed "cluster.group" (fun () ->
                 Cluster.group ~params
                   (List.map
                      (fun m ->
                        {
                          Cluster.item_id = m.Collapse.member_fault_id;
                          location = m.Collapse.member_params;
                        })
                      members)));
          let g, s =
            Obs.Span.timed "collapse.collapse_config" (fun () ->
                Collapse.collapse_config ev ~delta members)
          in
          (groups @ g, p + s.Collapse.proposals, a + s.Collapse.accepted)
        end)
      ([], 0, 0) setup.Experiments.Setup.evaluators
  in
  let tests =
    List.mapi
      (fun i (g : Collapse.group) ->
        {
          Coverage.test_label = Printf.sprintf "t%d" i;
          test_config_id = g.Collapse.group_config_id;
          test_params = g.Collapse.group_params;
        })
      groups
  in
  let coverage =
    Obs.Span.timed "coverage.evaluate" (fun () ->
        Coverage.evaluate ~evaluators:setup.Experiments.Setup.evaluators
          setup.Experiments.Setup.dictionary tests)
  in
  (List.length groups, coverage, Metrics.ratio accepted proposals)

(* Compaction repeated until it has taken a second (a sub-second
   compaction alone is mostly timer noise); its time is the median of
   the normalised repeats. *)
let timed_compaction setup run =
  let rec go times =
    let c, dt = Measure.normalised (fun () -> compact_run setup run) in
    let times = dt :: times in
    if Measure.sum times < 1. && List.length times < 20 then go times
    else (c, Measure.median times)
  in
  go []

let round spec ~oracle setup sample =
  let sub = restrict setup sample in
  let run, gen_s =
    Measure.normalised (fun () -> Experiments.Runs.engine_run ?options:spec.options sub)
  in
  let c_setup, c_run = compaction_input spec ~oracle setup sample run in
  let c, compact_s = timed_compaction c_setup c_run in
  {
    sample;
    gen_s;
    compact_s;
    run;
    compact_tests = List.length c.Compactor.compact_tests;
    coverage = c.Compactor.coverage;
  }

(* Check a round against the references: every fault's verdict against
   the reference table; the compaction's test count and covered set
   against the committed compaction of the seed's first sample, or, for
   later rounds and other seeds, against compacting the committed
   whole-dictionary results restricted to the same sample. *)
let verify tally spec ~rows ~oracle ~committed setup r =
  let row id = List.find (fun x -> x.Reference.fault_id = id) (Array.to_list rows) in
  List.iter
    (fun (id, (status, config)) ->
      let x = row id in
      Tally.check tally
        ~what:
          (Printf.sprintf "%s %s: verdict %s #%d, reference %s #%d" spec.name id
             status config x.Reference.status x.Reference.config)
        (* a quarantined fault fails whatever the reference says *)
        (status <> "failed" && status = x.Reference.status && config = x.Reference.config))
    (verdicts r.run);
  let tests, ref_covered =
    match committed with
    | Some tc -> tc
    | None ->
        let c = oracle_compaction spec setup ~oracle r.sample in
        (List.length c.Compactor.compact_tests, covered_ids c)
  in
  Tally.check tally
    ~what:
      (Printf.sprintf "%s compaction: %d tests covering %d, reference %d covering %d"
         spec.name r.compact_tests
         (List.length (covered r.coverage))
         tests (List.length ref_covered))
    (r.compact_tests = tests && covered r.coverage = ref_covered)

(* -- the untraced run ----------------------------------------------------- *)

(* Build the context at least three times, and while the builds (probes
   included) have taken under a second up to 25 times, keeping the last;
   set-up time is the median of the normalised builds.  A cheap context
   is built 25 times whatever the host's speed, so the run's allocations,
   and its peak memory, do not depend on it. *)
let repeated_setup build =
  let t0 = Measure.now () in
  let rec go acc =
    let setup, dt = Measure.normalised build in
    let acc = dt :: acc in
    let n = List.length acc in
    if n >= 3 && (Measure.now () -. t0 > 1. || n >= 25) then (setup, acc) else go acc
  in
  let setup, times = go [] in
  (setup, Measure.median times)

let sum_ref rows = List.fold_left (fun a r -> a +. r.Reference.seconds) 0. rows

let run spec ~seed ~seconds =
  let tally = Tally.create () in
  let rows = Reference.load spec.name in
  let oracle = ok_or_fail (Session.load ~path:(session_path spec)) in
  let rng = Sample.rng ~seed ~key:spec.name in
  let committed = committed_compaction spec seed in
  let setup, setup_s = repeated_setup spec.build in
  let t0 = Measure.now () in
  (* rounds while the next one is expected to fit in [seconds] *)
  let rec rounds acc =
    let r = round spec ~oracle setup (Sample.stratified ~rng ~n:spec.sample_size rows) in
    verify tally spec ~rows ~oracle
      ~committed:(if acc = [] then committed else None)
      setup r;
    let acc = r :: acc in
    let elapsed = Measure.now () -. t0 in
    let per_round = elapsed /. float_of_int (List.length acc) in
    if elapsed +. per_round > seconds then List.rev acc else rounds acc
  in
  let rs = rounds [] in
  (* A ratio of sums: the rounds' normalised Engine.run seconds over
     their samples' reference seconds is the speed against the
     reference, so seeds that draw cheaper or dearer faults estimate the
     same whole-dictionary time, and a change to any sampled fault moves
     it by that fault's share. *)
  let speed =
    Measure.sum (List.map (fun r -> r.gen_s) rs)
    /. Measure.sum (List.map (fun r -> sum_ref r.sample) rs)
  in
  let generate_s = speed *. sum_ref (Array.to_list rows) in
  List.iter
    (fun r ->
      Printf.printf "%s round: %d faults, generate %.3f s, compact %.3f s, %d compact tests\n"
        spec.name (List.length r.sample) r.gen_s r.compact_s
        r.compact_tests)
    rs;
  let metrics =
    [
      ("setup_s", setup_s);
      ("generate_s", generate_s);
      ("compact_s", Measure.median (List.map (fun r -> r.compact_s) rs));
      ("coverage_pct", Measure.median (List.map (fun r -> Coverage.percent r.coverage) rs));
      ( "compact_tests",
        Measure.median (List.map (fun r -> float_of_int r.compact_tests) rs) );
      ("peak_rss_mb", Measure.peak_rss_mb ());
    ]
  in
  (tally, metrics)

(* -- the traced run ------------------------------------------------------- *)

let trace_path spec = Filename.concat "atpgbench/_run" ("trace-" ^ spec.name ^ ".jsonl")

(* One untraced round on the seed's first sample, then the same round
   under Obs: set-up, Engine.run and the staged compaction each in a
   span of the benchmark's own.  The two must agree exactly. *)
let traced spec ~seed =
  let tally = Tally.create () in
  let rows = Reference.load spec.name in
  let oracle = ok_or_fail (Session.load ~path:(session_path spec)) in
  let rng = Sample.rng ~seed ~key:spec.name in
  let sample = Sample.stratified ~rng ~n:spec.sample_size rows in
  let plain_setup = spec.build () in
  let plain = round spec ~oracle plain_setup sample in
  verify tally spec ~rows ~oracle
    ~committed:(committed_compaction spec seed)
    plain_setup plain;
  let path = trace_path spec in
  Obs.enable ~trace:path ();
  let t0 = Measure.now () in
  let setup = Obs.Span.timed "setup.context" spec.build in
  (* counters cover generation and compaction, not calibration *)
  Obs.reset ();
  (* probed before and after only: timer probes would land in the spans *)
  let run, gen_s =
    Measure.normalised ~sampled:false (fun () ->
        Obs.Span.timed "bench.generate" (fun () ->
            Experiments.Runs.engine_run ?options:spec.options (restrict setup sample)))
  in
  let c_setup, c_run = compaction_input spec ~oracle setup sample run in
  let n_tests, coverage, accept_ratio =
    Obs.Span.timed "bench.compact" (fun () -> staged_compact c_setup c_run)
  in
  let wall = Measure.now () -. t0 in
  let counters = Obs.counters () in
  Obs.shutdown ();
  Tally.check tally
    ~what:(spec.name ^ ": traced verdicts differ from the untraced run")
    (verdicts run = verdicts plain.run);
  Tally.check tally
    ~what:(spec.name ^ ": traced compaction differs from the untraced run")
    (n_tests = plain.compact_tests && covered coverage = covered plain.coverage);
  let spans = Layers.read path in
  let ok = Layers.print_table ~title:spec.name ~wall ~tolerance:0.02 spans in
  Tally.check tally ~what:(spec.name ^ ": layer self times do not sum to the wall clock") ok;
  Layers.print_slowest_faults spans;
  let inclusive n = Layers.sum_seconds (Layers.named n) spans in
  let extra =
    [
      ("compactor.members_s", inclusive "compactor.members");
      ("cluster.group_s", inclusive "cluster.group");
      ( "collapse.screen_s",
        (* a difference of two timings: clamp the noise below zero *)
        Float.max 0. (inclusive "collapse.collapse_config" -. inclusive "cluster.group") );
      ("collapse.accept_ratio", accept_ratio);
      ("coverage.evaluate_s", inclusive "coverage.evaluate");
      ("obs.traced_overhead_pct", 100. *. (gen_s -. plain.gen_s) /. plain.gen_s);
    ]
  in
  let metrics =
    Metrics.of_trace ~spans ~counters
      ~kind_of_config:(Metrics.kind_of_configs setup.Experiments.Setup.configs)
      ~extra
  in
  (tally, metrics)
