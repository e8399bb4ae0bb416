(** Bundled per-configuration evaluation context.

    An evaluator owns everything needed to answer "what is [S_f(T)] for
    this configuration?": the nominal target, the calibrated box model
    and an execution profile.  Nominal observables are memoized per
    parameter value set, which makes the impact-convergence loop (many
    impacts, same [T]) cheap.

    Every measurement goes through one cached compiled execution plan
    per topology — the nominal netlist, and one per fault {e site}
    ({!Faults.Fault.id} excludes the impact resistance, which restamps
    as a value) — so each optimizer probe restamps a preallocated
    workspace instead of rewriting and re-indexing the netlist.  A plan
    ({!Execute.topology}) is configuration-free: evaluators built
    together by {!create_all} keep one table of them, so a context
    compiles each site once, not once per configuration.
    The results are bit-identical to rewriting and re-indexing the
    fault-injected netlist for every probe — the reference the parity
    tests keep in the test tree. *)

type t

exception Budget_exhausted of { config_id : int; budget : int }
(** Raised by a faulty-circuit evaluation once the shared evaluation
    counter reaches the budget installed with {!set_budget} — the retry
    ladder's per-attempt cap.  Deliberately distinct from
    {!Execute.Execution_failure} so it is never mistaken for a detected
    fault. *)

val create :
  ?profile:Execute.profile ->
  ?backend:Circuit.Mna.backend ->
  Test_config.t ->
  nominal:Execute.target ->
  box_model:Tolerance.t ->
  t
(** [backend] forces the linear-algebra engine every compiled plan of
    this evaluator is built on — a test seam; default chosen by
    {!Circuit.Mna.build} from the node count.  Results are bit-identical
    across backends (see {!Circuit.Mna.backend}). *)

val create_all :
  ?profile:Execute.profile ->
  ?backend:Circuit.Mna.backend ->
  nominal:Execute.target ->
  (Test_config.t * Tolerance.t) list ->
  t list
(** One evaluator per [(configuration, box model)] over the same nominal
    target, as {!create} builds them, sharing one table of compiled
    topologies: the first configuration to probe a fault site compiles
    it and the others reuse it (bit-identical — a workspace's results do
    not depend on what it solved before).  A lone {!create} keeps a
    private table. *)

val with_profile : t -> Execute.profile -> t
(** A derived evaluator with a different execution profile (used by the
    resilience retry ladder).  Configuration, target, box model, the
    evaluation counter and the budget cell are shared with the parent;
    the nominal-observable cache is fresh (cached values depend on the
    profile).  Compiled plans are shared — they capture topology, not
    profile, and the retry ladder runs sequentially in one domain. *)

val fork : t list -> t list
(** Worker-private copies for parallel execution: each shares the
    immutable configuration, target, box model and profile, but owns a
    private nominal-observable cache (warm-started from the parent's
    entries) and zeroed evaluation/budget/cache counters, so domains
    never touch shared mutable state.  Compiled plans start empty: they
    own mutable solver workspaces and must never cross domains.  Forks
    of evaluators that shared a topology table share one fresh table,
    so a worker compiles each fault site once for all configurations.
    Determinism is unaffected: cache keys are exact and cached values
    deterministic, so a cold and a warm cache produce bit-identical
    results. *)

val release_sites : t list -> unit
(** Drop the compiled fault sites of the evaluators' topology tables,
    keeping the nominal netlist's.  Results do not
    depend on it: a released site is compiled again when it is next
    evaluated.  Each site holds a solver workspace, so a table that keeps
    every site it ever saw grows with the dictionary. *)

val absorb : into:t -> t -> unit
(** [absorb ~into:parent child] merges a fork back: counters and
    per-key nominal-cache lookup counts are summed and cache entries
    unioned.  All three commute, so the merged statistics are
    independent of worker scheduling and of the order forks are
    absorbed in — the deterministic merge of per-domain cache
    statistics.  A no-op when [parent == child]. *)

val retain_reused : t list -> unit
(** Keep only the nominal-cache entries looked up at least twice since
    the last call (hits and misses both count; {!absorb} sums the
    forks' counts in), then start counting afresh.  {!Engine.run} calls
    it on its evaluators when the run ends, so a long-lived context
    keeps the lattice seeds and candidate points later faults and
    compaction read again, not every optimizer probe of every run.
    Lookup totals are sums over faults, so the retained set does not
    depend on [--jobs] or scheduling; results never depend on it. *)

val config : t -> Test_config.t
val config_id : t -> int

val find : t list -> int -> t
(** [find ts id] is the first evaluator of [ts] whose configuration id
    is [id].
    @raise Not_found if there is none. *)

val profile : t -> Execute.profile

val set_budget : t -> int option -> unit
(** Install (or clear, with [None]) an absolute evaluation-count budget:
    once {!evaluation_count} reaches it, the next faulty evaluation
    raises {!Budget_exhausted}.  Shared with evaluators derived via
    {!with_profile}. *)

val nominal_observables : t -> Numerics.Vec.t -> float array
(** Memoized nominal measurement at the given parameter values: the
    cache's own array, which no later evaluation overwrites. *)

val box : t -> Numerics.Vec.t -> float array

val detected_sentinel : float
(** Sensitivity assigned when the faulty circuit cannot be simulated at
    all (-1e6): a macro whose faulty version does not even reach an
    operating point is trivially caught on the tester. *)

val sensitivity : t -> Faults.Fault.t -> Numerics.Vec.t -> float
(** [S_f(T)]: injects the fault into the nominal netlist, measures, and
    scores against the memoized nominal response and the box model.
    Returns {!detected_sentinel} if the faulty simulation fails.
    @raise Execute.Execution_failure if the {e nominal} simulation fails
    (a setup error, not a fault effect). *)

val sensitivity_and_deviation :
  t -> Faults.Fault.t -> Numerics.Vec.t -> float * float array
(** Sensitivity together with the per-return-value deviations (reports).
    The deviation array is empty when the faulty simulation failed. *)

val faulty_observables : t -> Faults.Fault.t -> Numerics.Vec.t -> float array
(** Raw faulty measurement (no memoization) through the fault site's
    compiled plan, in a fresh array the caller owns.
    @raise Execute.Execution_failure on simulator failure. *)

val sensitivity_at : t -> Execute.topology -> Numerics.Vec.t -> float
(** Score an arbitrary compiled topology (e.g. a fault-free circuit at a
    Monte-Carlo process point, see {!Execute.topology}) against this
    evaluator's nominal response and box — the production pass/fail
    decision: negative means the part fails the test.  Charged and
    failure-aware exactly as {!sensitivity_and_deviation}; returns
    {!detected_sentinel} if the topology cannot be simulated.  The
    topology's workspace is restamped, so it follows the topology's
    ownership rule. *)

val evaluation_count : t -> int
(** Number of faulty-circuit simulations performed so far. *)

type cache_stats = { hits : int; misses : int; entries : int }

val cache_stats : t -> cache_stats
(** Nominal-observable cache statistics (memoization hits/misses and
    live entries) — summed across absorbed forks by {!absorb}. *)

val nominal_keys : t -> string list
(** The nominal cache's keys (the exact hex-float spelling of each
    cached parameter point), sorted — what {!retain_reused} kept. *)
