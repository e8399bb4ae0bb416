(** Transient analysis.

    Fixed-step implicit integration (backward Euler by default,
    trapezoidal optionally) with a full Newton solve per step.  The test
    configurations sample the output at a prescribed rate (100 MHz for the
    step-response configurations, a period-locked rate for THD), so a
    fixed step aligned to the sample clock is the natural choice. *)

type method_ = Backward_euler | Trapezoidal

type probe = { node : string; values : float array }

type result = {
  probes : probe list;
      (** in the order of [observe]; each holds the sample at [t = 0],
          then one every [dt] up to [tstop] *)
}

val probe_values : result -> string -> float array
(** @raise Not_found if the node was not observed. *)

exception Step_failure of { time : float; reason : string }

val simulate :
  ?options:Dc.options ->
  ?method_:method_ ->
  ?workspace:Mna.workspace ->
  ?restamp:Mna.restamp ->
  Mna.t ->
  tstop:float ->
  dt:float ->
  observe:string list ->
  result
(** Initial condition is the operating point with sources at [t = 0].
    A non-converging step is retried with up to 16x local step refinement
    (each split bumps the [solver.tran.halvings] counter while tracing)
    before {!Step_failure} is raised.  The failure-injection point
    ["tran.step_failure"] (see {!Numerics.Failpoint}) raises
    {!Step_failure} at the start of a step.

    Every Newton solve of every step restamps one preallocated system
    in place: the caller's [workspace] (the compiled hot path) or, without
    it, one workspace created for the simulation.  The reactive elements
    and observed nodes are resolved to unknown indices once; each step
    then overwrites one position-keyed companion array
    ({!Mna.companion_slots}) and reads the observed voltages by index, so
    no step hashes a name.  [restamp] substitutes stimulus/fault-impact
    values at stamp time.

    With a caller's [workspace] and exactly one observed node, the
    samples are written into the workspace's buffer of that length
    ({!Mna.sample_buffer}) rather than a fresh array: the result's
    values stay valid until the next simulation of the same length on
    that workspace, so a caller that keeps them copies them.  Otherwise
    every probe gets a fresh array.
    @raise Not_found if an observed node does not exist.
    @raise Invalid_argument on non-positive [tstop] or [dt]. *)
