(** Multicore fault simulation: a [Domain]-based worker pool whose
    output is bit-for-bit identical to the sequential engine's.

    The calling domain is one of the workers: it spawns [jobs - 1]
    domains, and all of them pull task indices from one atomic work
    queue (cheap faults don't stall behind expensive ones) and deposit
    outcomes into a slot array.  Between its own tasks the caller drains
    the finished prefix of the slots {e in index order} into the
    engine's single-writer funnel, so a result may reach [emit] up to
    one task after it is finished.  Combined with
    the engine's worker-private evaluator forks, the deterministic
    fork/absorb cache merge and per-fault failure-injection scopes, a
    run at any [--jobs] value produces the same {!Engine.run} record —
    same fault ordering, same [rung_stats], same {!Session} checkpoint
    bytes — so sessions checkpoint and resume interchangeably across job
    counts.

    Error determinism: if several tasks raise, the exception from the
    lowest task index propagates; a fail-fast {!Engine.Fault_failure}
    raised by the funnel cancels outstanding work and propagates after
    every domain is joined.  Either way no domain is leaked. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool size [jobs = 0]
    asks for. *)

val fan_out :
  jobs:int ->
  make_ctx:(unit -> 'ctx) ->
  f:('ctx -> int -> 'a) ->
  emit:(int -> 'a -> unit) ->
  int ->
  unit
(** [fan_out ~jobs ~make_ctx ~f ~emit n] evaluates [f ctx i] for every
    [i] in [0 .. n-1] on [jobs] workers — the calling domain plus
    [jobs - 1] spawned domains (fewer when [n] is smaller), each with its
    own [make_ctx ()] context; [jobs = 0] means {!default_jobs} — and
    calls [emit i result] for increasing [i] from the calling domain.
    With [jobs = 1] (or one task) it is a plain in-order loop over one
    context, with no domains spawned; otherwise it runs a full major
    collection before spawning (the caller's garbage, freed for the new
    domains to reuse) and one after joining (the joined domains').  [f] must not
    depend on shared mutable state; [emit] runs only on the calling
    domain and may raise to abort the fan-out. *)
