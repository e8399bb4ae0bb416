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
      (** iterations of the successful attempt, one LU factorization
          each *)
  pattern_reuses : int;
      (** of those factorizations, how many the sparse backend served by
          numeric replay on a held pattern ({!Numerics.Smat.refactor});
          always 0 on the dense backend *)
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

    Every Newton iteration restamps and refactors one preallocated
    system in place: the caller's [workspace] — the compiled hot path,
    reused across solves — or, without it, a workspace created for this
    call.  Either way the arithmetic, pivot order and iteration counts
    are the same, so the reports are bit-identical.  [restamp]
    substitutes stimulus/fault-impact values at stamp time.

    @raise No_convergence when Newton, gmin stepping and source stepping
    all fail.
    @raise Invalid_argument if the workspace size does not match the
    system. *)

val operating_point :
  ?options:options -> ?guess:Numerics.Vec.t -> Mna.t ->
  time:Mna.source_time -> Numerics.Vec.t
(** Convenience wrapper returning only the solution vector. *)
