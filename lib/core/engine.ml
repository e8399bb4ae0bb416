type fault_report = {
  report_fault_id : string;
  report_outcome : Generate.result Resilience.outcome;
}

exception Fault_failure of Resilience.diagnosis

type run = {
  results : Generate.result list;
  reports : fault_report list;
  failed_faults : Resilience.diagnosis list;
  recovered_count : int;
  resumed_count : int;
  rung_stats : (string * int) list;
  evaluators : Evaluator.t list;
  wall_seconds : float;
  total_fault_simulations : int;
}

(* A worker bundles everything one executing agent (the in-order loop,
   or one domain of a pool) needs to simulate faults without sharing
   mutable state with anyone else: forked evaluators (private caches and
   counters) plus a private table of rung-escalated evaluator sets.
   Escalated sets are built once per rung per worker, so their
   nominal-observable caches amortize the same way the baseline
   evaluators' do.  The forks share one topology table, so the worker
   compiles each fault site once for all its configurations (and the
   escalated sets, views of the same forks, reuse those plans). *)
type worker = {
  w_evaluators : Evaluator.t list;
  w_escalated : (string, Evaluator.t list) Hashtbl.t;
}

let fork_worker evaluators =
  { w_evaluators = Evaluator.fork evaluators; w_escalated = Hashtbl.create 4 }

let c_faults = Obs.Counter.create "engine.faults"

let rung_stats_of_reports ~policy reports =
  let count label =
    List.length
      (List.filter
         (fun r ->
           match r.report_outcome with
           | Resilience.Ok _ -> String.equal label Resilience.baseline_label
           | Resilience.Recovered _ ->
               Resilience.recovery_rung r.report_outcome = Some label
           | Resilience.Failed _ -> false)
         reports)
  in
  let ladder_rungs =
    List.filteri
      (fun i _ -> i < policy.Resilience.max_retries)
      policy.Resilience.ladder
  in
  (Resilience.baseline_label, count Resilience.baseline_label)
  :: List.map
       (fun (r : Resilience.rung) ->
         (r.Resilience.rung_label, count r.Resilience.rung_label))
       ladder_rungs

let run ?options ?(policy = Resilience.default_policy) ?(resume = []) ?checkpoint
    ?progress ?(jobs = 0) ~evaluators dictionary =
  let entries = Array.of_list (Faults.Dictionary.entries dictionary) in
  let total = Array.length entries in
  let started = Unix.gettimeofday () in
  let count_evals () =
    List.fold_left (fun acc ev -> acc + Evaluator.evaluation_count ev) 0
      evaluators
  in
  let before = count_evals () in
  let resumed = Hashtbl.create 16 in
  List.iter
    (fun (r : Generate.result) ->
      Hashtbl.replace resumed r.Generate.fault_id r)
    resume;
  (* The workers compile the sites they evaluate into tables of their
     own, so the caller's compiled sites would sit unused through the
     run: release them, and the process holds one set at a time. *)
  Evaluator.release_sites evaluators;
  (* Every worker gets forked evaluators — even the single one of a
     [jobs = 1] run — so the caller's evaluators are never mutated while
     the workers run (forking reads them concurrently) and every worker
     sees the same starting cache state.  Forks are absorbed back
     afterwards, an order-independent merge, and the nominal cache keeps
     the entries the run looked up at least twice
     ({!Evaluator.retain_reused}), so evaluation counts and cache warmth
     end up exactly as a sequential run would leave them, and a
     long-lived context does not grow with every run. *)
  let workers_mutex = Mutex.create () in
  let workers = ref [] in
  let make_worker () =
    let w = fork_worker evaluators in
    Mutex.lock workers_mutex;
    workers := w :: !workers;
    Mutex.unlock workers_mutex;
    w
  in
  let absorb_workers () =
    List.iter
      (fun w ->
        List.iter2
          (fun orig fork -> Evaluator.absorb ~into:orig fork)
          evaluators w.w_evaluators)
      !workers;
    Evaluator.retain_reused evaluators
  in
  let evaluators_for w = function
    | None -> w.w_evaluators
    | Some (r : Resilience.rung) -> begin
        match Hashtbl.find_opt w.w_escalated r.Resilience.rung_label with
        | Some evs -> evs
        | None ->
            let evs =
              List.map
                (fun ev ->
                  Evaluator.with_profile ev
                    (Resilience.escalate r (Evaluator.profile ev)))
                w.w_evaluators
            in
            Hashtbl.replace w.w_escalated r.Resilience.rung_label evs;
            evs
      end
  in
  let attempt w entry rung =
    let evs = evaluators_for w rung in
    (match policy.Resilience.attempt_budget with
    | Some b ->
        List.iter
          (fun ev ->
            Evaluator.set_budget ev (Some (Evaluator.evaluation_count ev + b)))
          evs
    | None -> ());
    Fun.protect
      ~finally:(fun () -> List.iter (fun ev -> Evaluator.set_budget ev None) evs)
      (fun () -> Generate.generate ?options ~evaluators:evs entry)
  in
  (* Per-fault work is a pure function of the fault entry: evaluator
     caches cannot change results (exact keys, deterministic values), the
     attempt budget is a fixed per-attempt slack, and failure injection is
     bracketed in a per-fault Failpoint scope so its draws depend only on
     (seed, fault id, query index) — never on which worker runs the fault
     or in what order.

     With failure injection active, one extra isolation step is needed:
     a nominal-cache hit skips a simulation and with it that simulation's
     failpoint queries, so cache warmth — which depends on which faults
     ran earlier, i.e. on scheduling — would shift every later draw in
     the fault's scope.  So under injection every task runs on a fresh
     fork of the run-start evaluators (cache state a pure function of the
     fault), absorbed into its worker afterwards.  Injection is a testing
     hook; production runs keep full cross-fault cache amortization.

     Tracing reuses the same isolation step for the same reason: cache
     hit/miss counters (and through them solver counters) depend on cache
     warmth, so isolating each fault on run-start forks makes every
     counter contribution a pure function of the fault — aggregate
     counters then match between sequential and --jobs N runs exactly.
     With tracing off, nothing changes and the engine's bit-identity
     contract is untouched. *)
  let isolate_tasks = Numerics.Failpoint.active () || Obs.active () in
  (* Span events of task i, buffered on the worker and flushed through
     the in-order emit funnel below, so the trace-file event order is
     deterministic under any worker count.  The slot for task i is
     written by the worker before its outcome reaches the funnel (the
     fan-out's slot array orders the two), and read only in [emit i]. *)
  let obs_buffers = Array.make total Obs.Task.none in
  let run_task w i =
    let entry = entries.(i) in
    let fid = entry.Faults.Dictionary.fault_id in
    match Hashtbl.find_opt resumed fid with
    | Some r -> Resilience.Ok r
    | None ->
        let tw = if isolate_tasks then fork_worker evaluators else w in
        let work () =
          Numerics.Failpoint.with_scope ~key:fid (fun () ->
              Resilience.protect ~policy ~fault_id:fid (attempt tw entry))
        in
        let outcome =
          if not (Obs.active ()) then work ()
          else begin
            let outcome_label = ref "ok" in
            (* Task evaluation counts are read off the isolated forks
               (zero at task start under tracing), so the attribute is
               the fault's own spend, independent of scheduling. *)
            let outcome, events =
              Obs.Task.collect (fun () ->
                  Obs.Span.timed ~key:fid
                    ~attrs:(fun () ->
                      [
                        ( "evals",
                          Obs.Int
                            (List.fold_left
                               (fun acc ev ->
                                 acc + Evaluator.evaluation_count ev)
                               0 tw.w_evaluators) );
                        ("outcome", Obs.Str !outcome_label);
                      ])
                    "engine.fault"
                    (fun () ->
                      let o = work () in
                      (outcome_label :=
                         match o with
                         | Resilience.Ok _ -> "ok"
                         | Resilience.Recovered _ -> "recovered"
                         | Resilience.Failed _ -> "quarantined");
                      o))
            in
            obs_buffers.(i) <- events;
            outcome
          end
        in
        (* a dictionary holds one fault per site, so no later task of
           this run evaluates the finished fault's site again: a worker
           keeps one compiled site at a time, not its whole share *)
        Evaluator.release_sites tw.w_evaluators;
        if isolate_tasks then
          List.iter2
            (fun wf tf -> Evaluator.absorb ~into:wf tf)
            w.w_evaluators tw.w_evaluators;
        outcome
  in
  (* The single-writer funnel: Parallel.fan_out emits outcomes with
     strictly increasing task indices (a pool reorders completions before
     emitting), so checkpoint blocks are appended — and progress reported
     — in dictionary order from one thread at every job count. *)
  let report_slots = Array.make total None in
  let emit i outcome =
    if Obs.active () then begin
      (* Flush before the fail-fast raise so the trace keeps the events
         of the fault that terminated the run. *)
      Obs.Task.flush obs_buffers.(i);
      obs_buffers.(i) <- Obs.Task.none;
      Obs.Counter.add c_faults 1
    end;
    (match outcome with
    | Resilience.Failed d when policy.Resilience.fail_fast ->
        raise (Fault_failure d)
    | _ -> ());
    let fid = entries.(i).Faults.Dictionary.fault_id in
    (match (Resilience.succeeded outcome, checkpoint) with
    | Some r, Some ck when not (Hashtbl.mem resumed fid) -> ck r
    | _ -> ());
    report_slots.(i) <- Some { report_fault_id = fid; report_outcome = outcome };
    match progress with
    | Some f -> f ~done_:(i + 1) ~total ~fault_id:fid
    | None -> ()
  in
  (let execute () =
     Fun.protect ~finally:absorb_workers (fun () ->
         Parallel.fan_out ~jobs ~make_ctx:make_worker ~f:run_task ~emit total)
   in
   if not (Obs.active ()) then execute ()
   else
     Obs.Span.timed
       ~attrs:(fun () -> [ ("faults", Obs.Int total) ])
       "engine.run" execute);
  let reports = Array.to_list (Array.map Option.get report_slots) in
  let results =
    List.filter_map (fun r -> Resilience.succeeded r.report_outcome) reports
  in
  let failed_faults =
    List.filter_map
      (fun r ->
        match r.report_outcome with
        | Resilience.Failed d -> Some d
        | Resilience.Ok _ | Resilience.Recovered _ -> None)
      reports
  in
  let recovered_count =
    List.length
      (List.filter
         (fun r ->
           match r.report_outcome with
           | Resilience.Recovered _ -> true
           | Resilience.Ok _ | Resilience.Failed _ -> false)
         reports)
  in
  {
    results;
    reports;
    failed_faults;
    recovered_count;
    resumed_count = Hashtbl.length resumed;
    rung_stats = rung_stats_of_reports ~policy reports;
    evaluators;
    wall_seconds = Unix.gettimeofday () -. started;
    total_fault_simulations = count_evals () - before;
  }

let of_results ~evaluators results =
  {
    results;
    reports =
      List.map
        (fun (r : Generate.result) ->
          {
            report_fault_id = r.Generate.fault_id;
            report_outcome = Resilience.Ok r;
          })
        results;
    failed_faults = [];
    recovered_count = 0;
    resumed_count = List.length results;
    rung_stats = [];
    evaluators;
    wall_seconds = 0.;
    total_fault_simulations = 0;
  }

type distribution_row = {
  dist_config_id : int;
  bridge_count : int;
  pinhole_count : int;
}

let distribution run =
  let config_ids =
    List.map Evaluator.config_id run.evaluators |> List.sort_uniq Int.compare
  in
  List.map
    (fun cid ->
      let mine =
        List.filter (fun r -> Generate.best_config_id r = cid) run.results
      in
      let bridges, pinholes =
        List.fold_left
          (fun (b, p) r ->
            match Faults.Fault.kind r.Generate.dictionary_fault with
            | `Bridge -> (b + 1, p)
            | `Pinhole -> (b, p + 1))
          (0, 0) mine
      in
      { dist_config_id = cid; bridge_count = bridges; pinhole_count = pinholes })
    config_ids

let undetectable_faults run =
  List.filter
    (fun r ->
      match r.Generate.outcome with
      | Generate.Undetectable _ -> true
      | Generate.Unique _ -> false)
    run.results

let results_for_config run ~config_id =
  List.filter (fun r -> Generate.best_config_id r = config_id) run.results

let critical_impacts run =
  List.filter_map
    (fun r ->
      match r.Generate.outcome with
      | Generate.Unique { critical_impact; _ } ->
          Some (r.Generate.fault_id, critical_impact)
      | Generate.Undetectable _ -> None)
    run.results

(* Process exit codes the CLI (and CI) gate on: 0 clean, 1 is left to
   usage/IO errors, 3 means the run completed but left quarantined
   faults, 4 means a fail-fast policy terminated the run, 5 means a
   session or checkpoint file failed integrity checks. *)
let exit_quarantined = 3
let exit_fail_fast = 4
let exit_corrupt_session = 5
let exit_status run = if run.failed_faults = [] then 0 else exit_quarantined
