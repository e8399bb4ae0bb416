(** Transient analysis.

    Fixed-step backward-Euler integration with a full Newton solve per
    step, observing one node.  The test configurations sample that node
    at a prescribed rate (100 MHz for the step-response configurations, a
    period-locked rate for THD), so a fixed step aligned to the sample
    clock is the natural choice. *)

exception Step_failure of { time : float; reason : string }

val simulate :
  ?options:Dc.options ->
  ?workspace:Mna.workspace ->
  ?restamp:Mna.restamp ->
  Mna.t ->
  tstop:float ->
  dt:float ->
  observe:string ->
  float array
(** The voltage of node [observe]: the sample at [t = 0], then one every
    [dt] up to [tstop].  Initial condition is the operating point with
    sources at [t = 0].  A non-converging step is retried with up to 16x
    local step refinement (each split bumps the [solver.tran.halvings]
    counter while tracing) before {!Step_failure} is raised.  The failure-injection point
    ["tran.step_failure"] (see {!Numerics.Failpoint}) raises
    {!Step_failure} at the start of a step.

    Each top-level step starts Newton from the extrapolation of the last
    accepted solutions at the fixed step: cubic from the fourth step on
    ([4x_k - 6x_{k-1} + 4x_{k-2} - x_{k-3}]), linear and then quadratic
    before it, the previous solution on the first.  When the prediction
    moves any node more than {!Dc.vlimit} from the previous
    solution, the step starts from the previous solution instead (the
    [solver.tran.predictor_fallbacks] counter counts those steps while
    tracing); refined half-steps always do.  The [t = 0] operating point
    is solved as {!Dc.solve} solves any operating point.

    Every Newton solve of every step restamps one preallocated system
    in place: the caller's [workspace] (the compiled hot path) or, without
    it, one workspace created for the simulation.  The reactive elements
    and the observed node are resolved to unknown indices once; each step
    then overwrites one position-keyed companion array
    ({!Mna.companion_slots}) and reads the observed voltage by index, so
    no step hashes a name.  [restamp] substitutes stimulus/fault-impact
    values at stamp time.

    With a caller's [workspace] the samples are written into the
    workspace's buffer of that length ({!Mna.sample_buffer}) rather than
    a fresh array: they stay valid until the next simulation of the same
    length on that workspace, so a caller that keeps them copies them.
    Without one the result is a fresh array.
    @raise Not_found if the observed node does not exist.
    @raise Invalid_argument on non-positive [tstop] or [dt]. *)
