(** Named failure-injection points.

    The solver stack (DC Newton, transient stepping, test execution)
    queries registered failure points by name; a test configures a set of
    points with trigger probabilities and a seed, then drives the code
    under test and asserts that the recovery layer absorbs the injected
    failures.  In production nothing is configured and every query is one
    atomic load of a zero counter.

    {b Domain safety.}  Configurations are scoped, never process-global:
    an installed configuration is an immutable value carried as the
    calling domain's override for the extent of a {!with_config}
    bracket.  Every domain builds its own site table (per-point {!Rng}
    stream plus query/trigger counters) from its override.  There is no
    shared mutable state, so concurrent queries from different domains
    are safe, and the draw sequence one domain sees is never perturbed
    by another domain's query traffic.  Counters reported by
    {!query_count} / {!trigger_count} are those of the calling domain
    (and, inside {!with_scope}, of the active scope).

    {b Runs.}  [atpg generate --inject] and each injected daemon session
    bracket their run in {!with_config}, so several sessions in one
    process have fully independent failure schedules.  Worker domains
    spawned on behalf of a run inherit its configuration by carrying a
    {!snapshot} across the spawn ({!with_snapshot}).

    {b Determinism.}  Trigger decisions are drawn from per-point {!Rng}
    streams derived from the configuration seed and the point name —
    bit-reproducible for a fixed seed, and independent across points.
    Inside a {!with_scope} bracket the streams (and trigger caps) are
    additionally keyed by the scope, so the failure pattern seen by one
    unit of work (e.g. one fault's generation) is a pure function of
    [(seed, scope key, point, query index)] — the same under sequential
    and parallel execution, whatever the scheduling. *)

type spec = {
  point : string;  (** failure-point name, e.g. ["dc.no_convergence"] *)
  probability : float;  (** chance each query trips, in [\[0, 1\]] *)
  max_triggers : int option;
      (** stop firing after this many trips ([None] = unlimited) *)
}

val fail_always : ?max_triggers:int -> string -> spec
(** Probability-1 spec, the common unit-test shape. *)

val known_points : string list
(** Every failure point instrumented across the solver and session
    stack — the universe the CLI documents and fuzz campaigns draw
    injection sites from. *)

val spec_of_string : string -> (spec, string) result
(** Parse the CLI syntax [NAME[=PROB][@MAX]], e.g.
    ["dc.no_convergence=0.2@3"].  Probabilities outside [\[0, 1\]] and
    malformed numbers are rejected with a diagnostic. *)

val spec_to_string : spec -> string
(** Inverse of {!spec_of_string} (canonical form). *)

val with_config : ?seed:int64 -> spec list -> (unit -> 'a) -> 'a
(** [with_config specs f] runs [f] with [specs] installed as the calling
    domain's override, restoring the previous override state on exit —
    the exception-safe shape for tests, and a bracket other sessions
    cannot observe.  Probabilities outside [\[0, 1\]] raise
    [Invalid_argument].  An empty [specs] on a domain with no override
    is just [f ()]. *)

type snapshot
(** The calling domain's effective injection configuration, as a value
    that can cross a [Domain.spawn]. *)

val snapshot : unit -> snapshot

val with_snapshot : snapshot -> (unit -> 'a) -> 'a
(** [with_snapshot snap f] runs [f] under the configuration captured by
    [snapshot].  When the captured domain had no override this is
    exactly [f ()]; otherwise the override is installed on the calling
    domain for the duration.  Used by [Testgen.Parallel.fan_out] so
    worker domains obey the run that spawned them. *)

val active : unit -> bool
(** [true] iff at least one failure point is configured for the calling
    domain. *)

val should_fail : string -> bool
(** Called by instrumented code.  [true] when the named point is
    configured, its trigger cap is not exhausted, and this query's random
    draw falls below the probability.  Unconfigured names never fail. *)

val without : (unit -> 'a) -> 'a
(** [without f] runs [f] with failure injection masked on the calling
    domain: every {!should_fail} query inside answers [false] without
    consuming a random draw or counting.  Used around {e nominal}-circuit
    simulation, whose per-fault occurrence depends on memoization-cache
    state (cold per-worker caches in parallel, one warm cache
    sequentially): masking it keeps the injected failure pattern of each
    fault's scope a pure function of the fault, identical at every job
    count.  Nestable; a no-op when nothing is configured. *)

val epoch : unit -> int
(** Number of injections that have fired on the calling domain since it
    started.  Sample it around a call whose genuine failures must be
    absorbed (e.g. a faulty circuit that cannot converge counts as
    detected): when the epoch moved across the call, the failure was
    injected and should be re-raised to the recovery layer instead of
    being interpreted as a result.  Monotone; scope brackets do not reset
    it. *)

val with_scope : key:string -> (unit -> 'a) -> 'a
(** [with_scope ~key f] runs [f] with fresh per-point streams and trigger
    caps derived from the configuration seed {e and} [key].  Decisions
    inside the bracket depend only on [(seed, key, point, query index)],
    never on work done outside it — the seam that keeps failure injection
    per-fault-deterministic under any execution order.  The previous
    streams and counters are restored on exit.  A no-op when nothing is
    configured.  Scopes are per-domain; brackets on different domains do
    not interact. *)

val query_count : string -> int
(** Queries seen by the named point since its configuration was
    installed, on the calling domain and in the active scope (0 if
    unknown). *)

val trigger_count : string -> int
(** Failures injected at the named point since its configuration was
    installed, on the calling domain and in the active scope. *)
