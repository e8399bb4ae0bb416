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
  ?companions:(string, Mna.companion) Hashtbl.t ->
  ?source_scale:float ->
  ?workspace:Mna.workspace ->
  ?restamp:Mna.restamp ->
  Mna.t ->
  time:Mna.source_time ->
  report
(** Compute the operating point with sources evaluated at [time].
    [companions] and [source_scale] are threaded through to
    {!Mna.assemble} so the transient integrator can reuse this solver for
    its per-step nonlinear systems.

    With [workspace], every Newton iteration restamps and refactors the
    caller's preallocated system in place instead of allocating — the
    compiled hot path.  Without it, each iteration builds a fresh system
    (the build-per-solve reference path).  Both produce bit-identical
    reports: same arithmetic, same pivot order, same iteration counts.
    [restamp] substitutes stimulus/fault-impact values at stamp time on
    either path.

    @raise No_convergence when Newton, gmin stepping and source stepping
    all fail.
    @raise Invalid_argument if the workspace size does not match the
    system. *)

val operating_point :
  ?options:options -> ?guess:Numerics.Vec.t -> Mna.t ->
  time:Mna.source_time -> Numerics.Vec.t
(** Convenience wrapper returning only the solution vector. *)

val solve_adjoint :
  ?options:options ->
  ?companions:(string, Mna.companion) Hashtbl.t ->
  ?restamp:Mna.restamp ->
  ?workspace:Mna.workspace ->
  ?time:Mna.source_time ->
  Mna.t ->
  x:Numerics.Vec.t ->
  obs_row:int ->
  Numerics.Vec.t
(** [solve_adjoint sys ~x ~obs_row] solves the adjoint system
    [A^T lambda = e_obs] at the converged operating point [x], where [A]
    is the MNA system reassembled at [x] under the same [companions],
    [restamp] and [gmin] the forward solve used.  At a Newton fixed
    point the assembled matrix is the exact residual Jacobian (the
    MOSFET companion stamps are its partial derivatives), so [lambda]
    contracts any parameter's derivative stamp to the exact observable
    sensitivity: [dV_obs/dp = lambda^T (dz/dp - (dA/dp) x)].  One fresh
    factorization is paid per call — the factorization left behind by
    the Newton loop belongs to the second-to-last iterate, not the
    solution.  With [workspace] the assembly and factorization reuse the
    caller's preallocated buffers (overwriting the held factorization).
    Bumps the [solver.dc.adjoint_solves] counter when tracing is active.
    @raise Invalid_argument on size mismatch or an out-of-range
    observable row.
    @raise Numerics.Mat.Singular if the Jacobian is singular at [x]. *)
