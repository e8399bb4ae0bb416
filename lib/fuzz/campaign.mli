(** Deterministic failure-injection fuzz campaigns.

    A campaign draws one {!Scenario.spec} from an [Rng] stream keyed by
    the campaign seed and index, builds it, runs the engine once, and
    checks every {!Invariants.t} against it.  A failing invariant is
    greedily shrunk ({!Scenario.shrink}) to the smallest spec that still
    trips it before being reported.

    Campaigns run sequentially for reproducible shrink order, but they
    no longer {e have} to be the only injected work in the process: the
    failure-injection configuration is scoped to the running domain
    ({!Numerics.Failpoint.with_config}), so concurrent sessions with
    different [--inject] specs — e.g. several requests inside the serve
    daemon — cannot corrupt each other's failure schedules.  [jobs]
    selects the engine worker domains used {e inside} the parallel
    invariants — and because engine runs are bit-identical across job
    counts, the whole report is a pure function of [(options)],
    byte-deterministic for a fixed seed at any [jobs] value. *)

type options = {
  campaigns : int;  (** scenarios to draw, >= 1 *)
  seed : int64;  (** campaign stream seed *)
  jobs : int;  (** engine worker domains for parallel invariants; 0 = auto *)
  inject : Numerics.Failpoint.spec list;
      (** failure sites swept by the injection invariants *)
  checks : string list option;
      (** run only these invariants ([None] = all) *)
  self_test : bool;
      (** also run the planted {!Invariants.self_test_invariant} *)
}

val default_inject : Numerics.Failpoint.spec list
(** Low-probability DC-convergence and execution failures, trigger-capped
    so every scenario still completes. *)

val default_options : options
(** 20 campaigns, seed 0, auto jobs, {!default_inject}, all invariants,
    no self-test. *)

type violation = {
  v_campaign : int;
  v_invariant : string;
  v_spec : Scenario.spec;  (** the originally drawn failing spec *)
  v_shrunk : Scenario.spec;  (** minimal spec still failing *)
  v_shrink_steps : int;  (** accepted shrink steps from spec to shrunk *)
  v_detail : string;  (** failure detail at the shrunk spec *)
}

type tally = { t_name : string; t_pass : int; t_skip : int; t_fail : int }

type report = {
  r_options : options;
  r_scenarios : int;
  r_build_failures : int;  (** scenarios whose build or base run raised *)
  r_checks_run : int;
  r_checks_passed : int;
  r_checks_skipped : int;
  r_tallies : tally list;  (** per-invariant outcome counts *)
  r_violations : violation list;
}

val run :
  ?progress:(campaign:int -> total:int -> unit) ->
  options ->
  (report, string) result
(** Run the campaigns.  [Error] only on invalid options (an unknown
    invariant name in [checks]); invariant violations are reported in
    the result, not as an error. *)

val clean : report -> bool
(** No violations and no build failures. *)

val report_json : report -> string
(** Deterministic JSON rendering (no timing, no host data): identical
    options produce identical bytes. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable summary including shrunk counterexamples. *)
