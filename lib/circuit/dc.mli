(** DC operating-point computation.

    Damped Newton–Raphson on the MNA system, with gmin stepping and
    source stepping as homotopy fallbacks — the standard SPICE recipe,
    which is robust enough to absorb the worst fault-injected circuits
    (e.g. a low-ohmic bridge across the supply).  Iterates with NaN or
    infinite node voltages abort the attempt immediately (they can never
    legitimately converge).

    Failure-injection points (see {!Numerics.Failpoint}):
    ["dc.no_convergence"] raises {!No_convergence} at [solve] entry,
    ["dc.singular"] fails one Newton attempt as a singular matrix, and
    ["dc.nan_solution"] corrupts one Newton iterate to NaN (exercising
    the finiteness guard). *)

exception No_convergence of string

type options = {
  abstol : float;  (** absolute node-voltage tolerance (V), default 1e-9 *)
  reltol : float;  (** relative tolerance, default 1e-6 *)
  max_newton : int;  (** iterations per Newton attempt, default 150 *)
  gmin : float;  (** final diagonal conductance, default 1e-12 *)
  vlimit : float;  (** max node-voltage update per damped step, default 0.6 V *)
}

val default_options : options

type report = {
  solution : Numerics.Vec.t;
  newton_iterations : int;
      (** iterations of the successful attempt: one LU factorization
          each on a nonlinear plan, at most one for the whole attempt
          on a linear one ({!solve}) *)
  gmin_steps : int;  (** gmin-stepping stages used (0 = direct success) *)
  source_steps : int;  (** source-stepping stages used *)
}

val solve :
  ?options:options ->
  ?guess:Numerics.Vec.t ->
  ?companions:float array ->
  ?source_scale:float ->
  ?workspace:Mna.workspace ->
  ?restamp:Mna.restamp ->
  Mna.t ->
  time:Mna.source_time ->
  report
(** Compute the operating point with sources evaluated at [time].
    [companions] (the capacitor/inductor integration companions, laid
    out as {!Mna.companion_slots} describes) and [source_scale] are
    threaded through to {!Mna.assemble_into} so the transient integrator
    can reuse this solver for its per-step nonlinear systems.

    Each Newton attempt restamps one preallocated system in place: the
    caller's [workspace] — the compiled hot path, reused across solves —
    or, without it, a workspace created for this call.  On a nonlinear
    plan every iteration re-assembles and refactors it.  On a linear
    plan ({!Mna.linear}) the system does not change within an attempt,
    so the attempt assembles, factors and solves it once, checks that
    solve for finiteness once, and repeats the damped update toward
    that fixed solve: the same iterates, iteration counts and outcome as
    refactoring every iteration, bit for bit.  The workspace holds that
    factorization ({!Mna.ws_factor} [~hold:true]), and a later attempt
    whose assembled matrix is bit-equal to it ({!Mna.ws_holds}) solves
    against it without factoring: the stimulus and the transient
    history enter only the right-hand side, so the levels and points of
    one fault at one impact, and its gmin stage, share one
    factorization, as do transient steps whose companions keep their
    bits.  Both kinds of plan run the one Newton loop: while
    {!Numerics.Failpoint.active} each of its iterations queries
    ["dc.singular"] and then ["dc.nan_solution"] (a corrupted iterate
    fails the attempt however late it comes), and a linear plan still
    factors at most once per attempt.  With or
    without a workspace the arithmetic, pivot order and iteration counts
    are the same, so the reports are bit-identical.  [restamp]
    substitutes stimulus/fault-impact values at stamp time.

    Operating-point memo: a solve on a caller's [workspace] with no
    [guess], no [companions] and [source_scale = 1] (DC levels, the
    operating points of AC and noise, every transient's [t = 0] point)
    depends only on the topology, the [options] and the values
    {!Mna.op_inputs_into} writes.  The workspace remembers the outcomes
    of its last two such solves, keyed on those values' bits and the
    options' bits; a repeat returns the remembered report with a fresh
    copy of its solution, or re-raises the remembered {!No_convergence}
    message, without running Newton.  The memo is bypassed while
    {!Numerics.Failpoint.active}, since a hit would skip the solve's
    failpoint queries, and on linear plans, whose re-solve against the
    held factorization is cheap.

    Tracing counters: [solver.dc.solves] counts solves that ran and
    converged, [solver.dc.failures] those that ran and failed, and
    [solver.dc.op_memo_hits] the answers the memo gave (neither).
    [solver.dc.newton_iterations], [solver.dc.lu_factorizations] and
    [solver.dc.pattern_reuses] (factorizations the sparse backend served
    by numeric replay on a held pattern, {!Numerics.Smat.refactor})
    count over every attempt of every solve
    that ran — plain attempts that ran out the Newton budget, every gmin and
    source stage, and the attempts of failed solves — and
    [solver.dc.budget_exhausted] counts the attempts that ran out the
    budget.  On a linear plan [lu_factorizations]
    grows by at most one per attempt whatever its iteration count, and
    not at all on a held matrix, so a traced run of a linear macro reads
    fewer factorizations than solves.  The [solver.dc.newton_per_solve]
    histogram observes a converged solve's iterations over all its
    attempts.

    @raise No_convergence when Newton, gmin stepping and source stepping
    all fail.
    @raise Invalid_argument if the workspace size does not match the
    system. *)

val operating_point :
  ?options:options -> ?guess:Numerics.Vec.t -> Mna.t ->
  time:Mna.source_time -> Numerics.Vec.t
(** Convenience wrapper returning only the solution vector. *)
