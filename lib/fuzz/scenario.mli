(** Fuzzed test-generation scenarios.

    A scenario {!spec} is a small, fully-deterministic description of one
    randomized end-to-end problem: a macro topology, a weighted subsample
    of its fault universe, and a handful of randomly-parameterized DC
    test configurations with random tolerance floors.  {!build} expands a
    spec into evaluators and a dictionary ready for {!Testgen.Engine.run};
    the expansion draws every value from {!Numerics.Rng} streams keyed by
    the spec itself, so equal specs build bit-identical scenarios — the
    property {!shrink}ing and counterexample replay rely on. *)

type topology =
  | Rc_ladder of int  (** passive ladder with the given section count *)
  | Ota
  | Sallen_key
  | Sk_chain of int
      (** buffered Sallen-Key chain ({!Macros.Filter_chain.sk_chain}) —
          fuzzed up to 16 stages, a 49-node / 66-unknown system *)
  | Ota_cascade of int
      (** gm-RC cascade ({!Macros.Filter_chain.ota_cascade}) — fuzzed up
          to 32 stages, a 65-node system *)

type spec = {
  topology : topology;
  fault_count : int;  (** faults drawn from the macro's universe, >= 1 *)
  bridge_weight : int;  (** percent chance each draw prefers a bridge *)
  config_count : int;  (** fuzzed DC configurations, >= 1 *)
  levels : int;  (** DC levels (return values) per configuration, >= 1 *)
  floor_exp : int;  (** tester accuracy floor is [10^-floor_exp] volts *)
  value_seed : int;  (** stream selector for all value draws *)
}

val minimal : spec
(** The smallest scenario: 1-section ladder, 1 bridge fault, 1
    single-level configuration — the fixed point of {!shrink}. *)

val to_string : spec -> string
(** Compact one-line form, e.g. ["rc2/f3/bw75/c2/l1/e3/v417"]. *)

val pp : Format.formatter -> spec -> unit

val size : spec -> int
(** Scenario cost measure; every {!shrink} candidate is strictly
    smaller, so greedy shrinking terminates. *)

type built = {
  spec : spec;
  macro : Macros.Macro.t;
  configs : Testgen.Test_config.t list;
  dictionary : Faults.Dictionary.t;
  evaluators : Testgen.Evaluator.t list;
}

val build :
  ?batching:bool -> ?backend:Circuit.Mna.backend -> spec -> built
(** Expand a spec (deterministically) into a runnable scenario:
    floor-only tolerance boxes, the fast execution profile, compiled
    evaluators.  [batching] (default true) and [backend] are test seams
    passed to {!Testgen.Evaluator.create}: [~batching:false] builds the
    sequential-reference variant the batch-parity invariant compares
    against, and [backend] — a test seam; default chosen by
    {!Circuit.Mna.build} from the node count — forces the other backend
    for the backend-parity invariant. *)

val generate_options : Testgen.Generate.options
(** Reduced optimizer budgets used for all fuzz engine runs. *)

val gen : Numerics.Rng.t -> spec
(** Draw a random spec (bounded sizes, RC-ladder-heavy topology mix). *)

val shrink : spec -> spec list
(** Strictly smaller candidate specs, smallest first, deduplicated.
    Empty exactly at {!minimal}-like fixed points. *)

val qcheck_gen : spec QCheck.Gen.t

val arbitrary : spec QCheck.arbitrary
(** QCheck arbitrary with printing and shrinking wired in. *)
