(** Test execution: apply a test to a circuit and collect observables.

    This is the reproduction's stand-in for "HSPICE run + automatic
    post-processing" (paper §3.3): the configuration's stimulus replaces
    the macro's input-source waveform, the requested analysis runs, and
    the observable vector comes back.  Deviation computation implements
    the per-return-value [delta r] of §3.1. *)

type target = {
  netlist : Circuit.Netlist.t;  (** nominal or fault-injected macro *)
  stimulus_source : string;  (** independent source the stimulus replaces *)
  observe_node : string;
}

type profile = {
  samples_per_period : int;  (** THD transient resolution (default 128) *)
  settle_periods : int;  (** periods simulated before the THD window (2) *)
  analyze_periods : int;  (** periods inside the THD window (2) *)
  thd_harmonics : int;  (** highest harmonic order (5) *)
  dc_options : Circuit.Dc.options;
  dt_divisor : int;
      (** transient integration-step subdivision (default 1).  Values > 1
          integrate with [dt / dt_divisor] and decimate back onto the
          requested sample grid — a retry-ladder escalation for stiff
          faulty circuits that preserves observable length and timing. *)
}

val default_profile : profile

val fast_profile : profile
(** Coarser THD windows for unit tests and quick sweeps. *)

exception Execution_failure of string
(** Raised when the underlying analysis cannot complete (DC or transient
    non-convergence) — treated by callers as "no measurable response". *)

val with_stimulus :
  Circuit.Netlist.t -> source:string -> Circuit.Waveform.t ->
  Circuit.Netlist.t
(** Replace the waveform of the named independent V or I source.
    @raise Invalid_argument if the device is missing or not an
    independent source. *)

val observables :
  ?profile:profile -> Test_config.t -> target -> Numerics.Vec.t ->
  float array
(** Run the configuration's analysis with the given parameter values.
    The result length depends on the analysis: one voltage per DC level,
    one THD value, or the full sample train.  The failure-injection point
    ["execute.observables"] (see {!Numerics.Failpoint}) raises
    {!Execution_failure} at entry.
    @raise Execution_failure on simulator failure.
    @raise Invalid_argument if the value vector length differs from the
    configuration's parameter count. *)

type topology
(** The configuration-free part of a compiled execution plan: the
    target's topology indexed once ({!Circuit.Mna.build}) with a
    preallocated solver workspace.  Every probe of the optimizer then
    restamps stimulus values into the same workspace instead of
    rewriting and re-indexing the netlist.

    A topology owns mutable buffers: share it freely across sequential
    probes — of any configuration — but never across domains.  Results
    do not depend on what the workspace solved before. *)

val topology : ?backend:Circuit.Mna.backend -> target -> topology
(** Compile the target's topology.  It is built from the
    stimulus-normalized netlist (the stimulus source moved to the end of
    device order, exactly where every per-probe {!with_stimulus} rewrite
    puts it), so unknown numbering — and therefore pivoting and
    arithmetic — matches {!observables} bit for bit.  [backend] forces
    the linear-algebra engine — a test seam; default chosen by
    {!Circuit.Mna.build} from the node count.  Both produce
    bit-identical results (see {!Circuit.Mna.backend}).
    @raise Invalid_argument if the stimulus source is missing or not an
    independent source. *)

type compiled
(** A compiled execution plan: a shared {!topology} plus the small
    per-configuration shell — the configuration and, for AC and noise
    analyses, a small-signal workspace.  Same ownership rule as the
    topology. *)

val with_config : topology -> Test_config.t -> compiled
(** The plan of one configuration over a compiled topology. *)

val compile : ?backend:Circuit.Mna.backend -> Test_config.t -> target -> compiled
(** [with_config (topology ?backend target) config]. *)

val compiled_observables :
  ?profile:profile ->
  ?impact:string * float ->
  compiled ->
  Numerics.Vec.t ->
  float array
(** {!observables} over a compiled plan: bit-identical results, no
    per-probe netlist rewrite, matrix allocation or LU allocation.
    [impact] overrides one resistor's value during stamping — the
    value phase of a fault whose injected topology the plan was compiled
    from (see [Faults.Inject.impact_override]).  The same failpoint
    ["execute.observables"] fires at entry, after the same number of
    draws as the direct path.

    The samples of a step-train configuration ({!Test_config.Tran_samples}
    at [dt_divisor = 1]) are returned in the plan's own buffer
    ({!Circuit.Tran.simulate}): the next transient of the same length on
    the plan's topology overwrites them, so a caller that keeps them
    copies them.

    @raise Execution_failure on simulator failure.
    @raise Invalid_argument on value-count mismatch or an invalid probe
    waveform (same rejection as netlist insertion on the direct path). *)

type fault_batch = {
  fb_obs : float array option array array;
      (** impact-major: [fb_obs.(f).(p)] is the observable vector of
          fault [f] at parameter point [p], or [None] when that pair
          must be recomputed sequentially *)
  fb_panels : int;
      (** factorizations actually held — one per impact whose restamped
          system factored successfully *)
}
(** Result of a config-major batched sweep: the full
    (fault x parameter point) cross-product of one configuration. *)

val compiled_batch_over_faults :
  ?profile:profile ->
  compiled ->
  impacts:(string * float) option array ->
  points:Numerics.Vec.t array ->
  fault_batch option
(** Config-major concurrent fault evaluation: for each entry of
    [impacts] the compiled system is restamped and factored ONCE (a
    numeric-only pattern replay on the sparse backend), and every probe
    level of every parameter point in [points] solves against that held
    factorization ({!Circuit.Mna.ws_solve_into}, on either backend).
    Each column's converged operating point is then recovered by
    replaying the sequential Newton walk with its own update,
    {!Circuit.Dc.damped_step} (the system of a linear plan does not
    depend on the iterate, so the trajectory is a pure damping walk
    toward the single solve), making every returned observable bitwise
    identical to {!compiled_observables} on the same (impact, point)
    pair.

    [None] when the plan is outside the batchable family (non-DC-levels
    analysis, or a nonlinear MOSFET-bearing topology).  Within a batch,
    a cell is [None] when its fault's factorization was singular or a
    damping walk did not converge — the sequential path escalates to its
    gmin/source stepping ladders there, which the caller must replay
    verbatim, fault by fault.  Unlike the sequential path this function
    never raises {!Execution_failure}.
    @raise Invalid_argument on value-count mismatch or an invalid probe
    waveform (same rejection as the sequential path). *)

val deviations :
  Test_config.t -> nominal:float array -> faulty:float array -> float array
(** Per-return-value deviations [delta r_i] between two observable
    vectors, according to the configuration's return mode.  Length equals
    {!Test_config.return_count}.
    @raise Invalid_argument on observable length mismatch. *)

val return_values :
  Test_config.t -> nominal:float array -> observed:float array -> float array
(** The return values [R(T)] themselves (for reports): equal to the
    observables for [Per_component], and to the deviation metric
    relative to nominal for the delta modes. *)
