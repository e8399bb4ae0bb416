(** Engine invariants checked by fuzz campaigns.

    Each invariant takes a built scenario plus its base (sequential,
    injection-free) engine run and either passes, skips (vacuous for
    this scenario), or fails with a human-readable detail:

    - [session-roundtrip] — results survive serialize/parse byte-stably,
      in both the plain and the trailered checkpoint form;
    - [parallel-merge] — a parallel run is bit-identical to the
      sequential run (session bytes, rung stats, quarantine reports);
    - [compaction-no-loss] — compaction at delta 0.1 never loses the
      detection of a fault its own optimal test detected, and never
      grows the test set;
    - [coverage-monotone] — a detected fault stays detected when its
      impact is intensified 4x (vacuously skipped when the intensified
      circuit does not simulate);
    - [inject-contract] — under failure injection, every dictionary
      fault is accounted for exactly once, quarantine reports stay
      within the dictionary, and {!Testgen.Engine.exit_status} honours
      the 0/3 contract;
    - [inject-parity] — sequential and parallel runs under the same
      injection agree bit-for-bit;
    - [crash-safety] — a run torn mid-checkpoint-write (via the
      [session.torn_write] failure point) recovers with
      {!Testgen.Session.checkpoint_resume} and finishes to a checkpoint
      file byte-identical to an uninterrupted run's;
    - [backend-parity] — the same scenario built with [~backend] forced
      to the linear-algebra backend {!Circuit.Mna.build} did not select
      for the nominal netlist gives identical session bytes, rung
      stats, fault reports and fault-simulation counts, and a
      bit-identical compaction (compact tests and coverage report) at
      delta 0.1. *)

type outcome = Pass | Skip of string | Fail of string

type ctx = {
  built : Scenario.built;
  run : Testgen.Engine.run;  (** the base sequential, injection-free run *)
  jobs : int;  (** worker domains for the parallel invariants (>= 1) *)
  inject : Numerics.Failpoint.spec list;
      (** failure sites for the injection invariants *)
  inject_seed : int64;
}

val make_ctx :
  jobs:int ->
  inject:Numerics.Failpoint.spec list ->
  inject_seed:int64 ->
  Scenario.spec ->
  ctx
(** Build the scenario and its base run.  May raise if the scenario
    itself cannot be built or run (callers treat that as a finding). *)

type t = { name : string; check : ctx -> outcome }

val all : t list
(** The production invariants, in a fixed documented order. *)

val self_test_invariant : t
(** A deliberately planted violation (fails whenever
    [fault_count >= 2]); campaigns run it only in self-test mode to
    prove the find-and-shrink pipeline works end to end. *)

val names : string list
(** Names of {!all}, for CLI validation and reports. *)
