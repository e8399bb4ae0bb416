(** Zero-dependency tracing and metrics substrate.

    The generation loop is an opaque nest of per-fault, per-configuration
    optimizer runs over Newton solves; this module makes it observable
    without perturbing it.  Everything is {e off by default}: the
    disabled path is one atomic load and a branch per instrumentation
    site — no allocation, no float arithmetic, no effect on results —
    so the engine's bit-identity contract holds with tracing off.

    With tracing on, spans and counters record into a process-global
    sink: an in-memory aggregator, plus (optionally) a JSONL trace file.
    The sink is shared by every request a long-lived server handles;
    span events are attributed to their owning request at record time
    (see {!with_request}) so concurrent sessions interleave in the trace
    without cross-attribution, while counter/histogram aggregates remain
    server-wide totals.
    Aggregate {e counter} and {e histogram} values are deterministic
    under any `--jobs N`: every increment is tied to one unit of
    per-fault work, the engine isolates each fault on fresh evaluator
    forks while tracing (cache state becomes a pure function of the
    fault), and integer addition commutes.  Span {e durations} are wall
    clock and therefore not deterministic; trace files are identical
    across job counts modulo the [elapsed_ms] timestamp fields.

    Domain-ownership rules: counters and histograms use atomic cells and
    may be bumped from any domain.  Span events recorded inside
    {!Task.collect} buffer in domain-local state and must be flushed
    from a single thread (the engine's in-order emit funnel); events
    recorded outside any task scope write directly under the sink lock. *)

type value = Int of int | Float of float | Str of string
(** Attribute values attached to span events. *)

val enable : ?trace:string -> unit -> unit
(** Switch tracing on, resetting all registered counters, histograms and
    the in-memory aggregate.  [trace] opens (truncating) a JSONL trace
    file; without it only the in-memory aggregator records. *)

val shutdown : unit -> unit
(** Append the counter/histogram summary to the trace file (if any),
    close it, and switch tracing off.  No-op when tracing is off. *)

val reset : unit -> unit
(** Zero all registered counters and histograms and clear the in-memory
    aggregate without touching the enabled flag or the trace file. *)

val active : unit -> bool
(** One atomic load: the guard every instrumentation site checks first. *)

val with_request : string -> (unit -> 'a) -> 'a
(** [with_request id f] runs [f] with every span event recorded by the
    calling domain stamped with request id [id] (a ["req"] field on the
    JSONL span lines).  The stamp is taken at record time from the
    recording domain, so two requests running concurrently on different
    domains each tag exactly their own spans.  Nestable (innermost id
    wins); restored on exit.  Worker domains spawned inside the bracket
    inherit the id through {!Testgen.Parallel}'s fan-out propagation. *)

val current_request : unit -> string option
(** The calling domain's active request id, if inside {!with_request}. *)

module Counter : sig
  type t
  (** A named monotonic integer counter backed by an atomic cell. *)

  val create : string -> t
  (** A {e registered} global counter: one cell per name for the whole
      process (calling [create] twice with the same name returns the
      same counter), included in {!counters} and the trace summary. *)

  val unregistered : string -> t
  (** A private counter owned by a data structure (e.g. one evaluator):
      same cell semantics, but not in the global registry.  Several
      instances may share a name. *)

  val name : t -> string

  val incr : t -> unit
  (** Unconditional increment (used for counters that must count even
      with tracing off, e.g. the evaluator budget counter). *)

  val add : t -> int -> unit

  val bump : t -> int -> unit
  (** [add] guarded by {!active}: the standard instrumentation call. *)

  val value : t -> int
  val reset : t -> unit

  val fork : t -> t
  (** A zeroed private counter with the same name — a worker domain's
      view.  Forking never touches the parent. *)

  val absorb : into:t -> t -> unit
  (** [absorb ~into:parent child] adds the child's count into the
      parent.  Addition commutes and associates, so absorbing any
      permutation of forks yields the same total — the deterministic
      merge {!Parallel} relies on.  No-op when [parent == child]. *)
end

module Histogram : sig
  type t
  (** Fixed-bound integer histogram (atomic bucket cells). *)

  val create : string -> bounds:int array -> t
  (** Registered histogram with inclusive upper bounds per bucket
      (ascending) plus an implicit overflow bucket.  Idempotent per
      name, like {!Counter.create}. *)

  val observe : t -> int -> unit
  (** Count a sample into its bucket when tracing is {!active}
      (no-op otherwise). *)

  val counts : t -> (string * int) list
  (** [(bucket label, count)] rows, e.g. [("<=8", 12); (">64", 1)]. *)

  val reset : t -> unit
end

module Span : sig
  val timed :
    ?key:string ->
    ?attrs:(unit -> (string * value) list) ->
    string ->
    (unit -> 'a) ->
    'a
  (** [timed name f] runs [f], recording a span event (name, optional
      key, nesting depth, elapsed wall time) when tracing is active —
      when it is not, this is exactly [f ()].  [attrs] is a thunk,
      evaluated only on a traced, successful return, so attribute
      construction costs nothing when disabled.  If [f] raises, the
      event is recorded with [err=true] (and no attrs) and the
      exception is re-raised. *)
end

module Task : sig
  type events
  (** An opaque batch of span events buffered by one task. *)

  val none : events

  val collect : (unit -> 'a) -> 'a * events
  (** Run a task with span events buffered in domain-local state
      instead of written to the sink, and return them.  The engine
      buffers each fault's events this way and flushes them through its
      in-order emit funnel, which makes the trace-file event order
      deterministic under any worker count.  With tracing off this is
      [f ()] plus {!none}. *)

  val flush : events -> unit
  (** Write a buffered batch to the sink (trace file + aggregator).
      Call from a single thread, in task order, for a deterministic
      trace. *)
end

(** {2 In-memory aggregate} *)

type span_stat = { span_name : string; span_count : int; span_seconds : float }

val counters : unit -> (string * int) list
(** Registered counter values, sorted by name.  Deterministic under
    [--jobs N] (see the module preamble). *)

val histograms : unit -> (string * (string * int) list) list
(** Registered histogram bucket counts, sorted by name. *)

val span_stats : unit -> span_stat list
(** Per-span-name totals of flushed events, sorted by name.  Counts are
    deterministic; seconds are wall clock. *)

val fault_evals : unit -> (string * int) list
(** [(fault id, evaluations)] from flushed [engine.fault] spans, sorted
    by descending evaluation count (fault id breaks ties). *)

