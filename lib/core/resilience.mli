(** Resilient execution of per-fault simulation work.

    Faulty circuits are exactly where Newton/transient solvers are most
    fragile: a hard bridge can make the MNA matrix near-singular, push
    the operating point into a region where the level-1 models produce
    NaN, or stall transient stepping.  This module turns such failures
    from run-aborting exceptions into structured per-fault outcomes:

    - a {b retry ladder} re-attempts the failed work under escalating
      solver options (more Newton iterations, a raised gmin floor,
      relaxed [reltol], a subdivided transient step), each attempt capped
      by an evaluation budget;
    - faults that fail every rung are {b quarantined}: recorded as a
      {!diagnosis} so the surrounding run can continue.

    The ladder is a fixed list, so recovery behaviour is deterministic:
    the same fault and the same failure always walk the same rungs. *)

type rung = {
  rung_label : string;  (** stable name used in reports and rung stats *)
  newton_scale : float;  (** multiply [Dc.options.max_newton] *)
  gmin_floor : float;  (** raise [Dc.options.gmin] to at least this *)
  reltol_scale : float;  (** multiply [Dc.options.reltol] *)
  dt_divisor : int;  (** multiply [Execute.profile.dt_divisor] *)
}

val baseline_label : string
(** ["baseline"] — the rung name reported for the initial, unescalated
    attempt. *)

val default_ladder : rung list
(** Four rungs of strictly increasing aggressiveness:
    [more-newton] (4x Newton budget), [raise-gmin] (gmin floor 1e-9),
    [relax-reltol] (100x reltol, 2x step subdivision) and
    [brute-force] (8x Newton, gmin floor 1e-8, 4x step subdivision). *)

val escalate : rung -> Execute.profile -> Execute.profile
(** Apply a rung's solver-option escalation to an execution profile. *)

type policy = {
  ladder : rung list;
  max_retries : int;  (** rungs attempted after the baseline (<= ladder length) *)
  attempt_budget : int option;
      (** per-configuration faulty-evaluation cap added for each attempt
          ([None] = unlimited) *)
  fail_fast : bool;
      (** abort the surrounding run on the first unrecoverable fault
          instead of quarantining it *)
}

val default_policy : policy
(** The full {!default_ladder}, [max_retries = 4],
    [attempt_budget = Some 4000], [fail_fast = false]. *)

type attempt = {
  attempt_rung : string;  (** {!baseline_label} or a ladder rung label *)
  attempt_error : string option;
      (** the failure that ended this attempt; [None] means the attempt
          succeeded (only ever the last attempt of a recovery) *)
}

type diagnosis = {
  diag_fault_id : string;
  diag_attempts : attempt list;  (** every attempt, in ladder order *)
  diag_error : string;  (** the final attempt's failure *)
}

val pp_diagnosis : Format.formatter -> diagnosis -> unit

type 'a outcome =
  | Ok of 'a  (** first attempt succeeded *)
  | Recovered of 'a * attempt list
      (** a ladder rung succeeded after [>= 1] failures; the last attempt
          carries [attempt_error = None] and names the winning rung *)
  | Failed of diagnosis  (** every attempt failed: quarantined *)

val succeeded : 'a outcome -> 'a option

val recovery_rung : 'a outcome -> string option
(** The rung that produced the value of a [Recovered] outcome. *)

val recoverable_error : exn -> string option
(** Classify an exception: [Some message] for simulator failures the
    retry ladder may cure ({!Execute.Execution_failure}, DC
    non-convergence, transient step failure, singular MNA matrices,
    {!Evaluator.Budget_exhausted}), [None] for everything else
    (programming errors propagate unchanged). *)

val protect : policy:policy -> fault_id:string -> (rung option -> 'a) -> 'a outcome
(** [protect ~policy ~fault_id f] runs [f None] (the baseline attempt)
    and, on a recoverable failure, walks [f (Some rung)] down the
    policy's ladder (at most [max_retries] rungs) until an attempt
    succeeds.  Unrecoverable exceptions propagate.  [fail_fast] does not
    change [protect] itself — callers decide what to do with a [Failed]
    outcome. *)
