(** Whole-dictionary test generation (the producer of Table 2 and
    Fig. 8), with per-fault failure quarantine.

    A simulator failure while generating one fault's test no longer
    aborts the run: the fault is re-attempted down the
    {!Resilience.policy}'s retry ladder and, if every rung fails,
    quarantined with a diagnosis while the remaining faults proceed. *)

type fault_report = {
  report_fault_id : string;
  report_outcome : Generate.result Resilience.outcome;
}

exception Fault_failure of Resilience.diagnosis
(** Raised (instead of quarantining) when the policy has
    [fail_fast = true] and a fault exhausts its retry ladder. *)

type run = {
  results : Generate.result list;
      (** one per successfully generated dictionary entry (including
          recovered and resumed ones), in dictionary order — quarantined
          faults are absent *)
  reports : fault_report list;
      (** one per dictionary entry, in order, successful or not *)
  failed_faults : Resilience.diagnosis list;
      (** quarantined faults, in dictionary order *)
  recovered_count : int;  (** faults that needed [>= 1] ladder rung *)
  resumed_count : int;  (** faults taken from the [resume] list, unsimulated *)
  rung_stats : (string * int) list;
      (** per-rung success counts, baseline first, zero rows included *)
  evaluators : Evaluator.t list;
  wall_seconds : float;  (** monotonic wall-clock duration of the run *)
  total_fault_simulations : int;
}

val rung_stats_of_reports :
  policy:Resilience.policy -> fault_report list -> (string * int) list
(** Per-rung success counts for a report list (baseline first, zero rows
    included) — the pure aggregation used to build {!run.rung_stats},
    exposed so merge properties can be tested in isolation. *)

val run :
  ?options:Generate.options ->
  ?policy:Resilience.policy ->
  ?resume:Generate.result list ->
  ?checkpoint:(Generate.result -> unit) ->
  ?progress:(done_:int -> total:int -> fault_id:string -> unit) ->
  ?jobs:int ->
  evaluators:Evaluator.t list ->
  Faults.Dictionary.t ->
  run
(** Generate the optimal test for every fault of the dictionary.

    [policy] governs retries and quarantine (default
    {!Resilience.default_policy}).  Faults whose id
    appears in [resume] are not re-simulated — the stored result is
    reused, so an interrupted run restarts where it left off.
    [checkpoint] is invoked with each freshly generated (non-resumed)
    result in dictionary order, before any later fault is reported —
    as soon as it completes on one worker, at most one fault later on a
    pool (the calling domain drains results between its own faults) —
    the hook {!Session.checkpoint_append} persists partial runs and
    stays single-writer at any job count.
    [progress] is invoked after each fault (CLI feedback), also in
    dictionary order.

    [jobs] (default [0], one per core) is the number of workers the
    per-fault tasks fan out over through {!Parallel.fan_out}: the
    calling domain and [jobs - 1] spawned ones.  Each worker simulates
    on private evaluator forks that share one topology table (every
    fault site compiled once per worker, for all configurations),
    failure injection is scoped per fault, and outcomes are emitted in
    dictionary order, so the resulting [run] record is the same bit for
    bit at every job count; [jobs = 1] is an in-order loop that spawns
    no domain.  A run that already executes on a worker (a daemon
    request, a fuzz invariant's base run) passes [~jobs:1].

    @raise Fault_failure under a [fail_fast] policy. *)

val of_results : evaluators:Evaluator.t list -> Generate.result list -> run
(** Wrap results loaded from a {!Session} file as a run (no simulation
    statistics; every result counts as resumed). *)

type distribution_row = {
  dist_config_id : int;
  bridge_count : int;
  pinhole_count : int;
}

val distribution : run -> distribution_row list
(** Per-configuration counts of best tests, split by fault kind — the
    paper's Table 2.  Rows are sorted by configuration id and include
    zero rows for configurations that won no fault. *)

val undetectable_faults : run -> Generate.result list

val results_for_config : run -> config_id:int -> Generate.result list
(** Results whose best test uses the given configuration (Fig. 8 and
    Table 3 inputs). *)

val critical_impacts : run -> (string * float) list
(** [(fault_id, critical impact)] for every uniquely solved fault. *)

(** {2 Process exit codes}

    The CLI maps run outcomes onto distinct exit codes so CI can gate on
    them: [0] clean, [1] usage/IO errors (owned by the CLI layer),
    {!exit_quarantined} when the run completed but left quarantined
    faults, {!exit_fail_fast} when a fail-fast policy terminated the
    run, {!exit_corrupt_session} when a session or checkpoint file
    failed integrity checks. *)

val exit_quarantined : int
(** [3] — the run completed but [failed_faults] is non-empty. *)

val exit_fail_fast : int
(** [4] — a [fail_fast] policy aborted the run ({!Fault_failure}). *)

val exit_corrupt_session : int
(** [5] — a session or checkpoint file is corrupt (truncated, torn
    write, checksum mismatch, bad header). *)

val exit_status : run -> int
(** [0] for a clean run, {!exit_quarantined} if any fault ended the run
    quarantined. *)
