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

type topology
(** A compiled execution plan: the target's topology indexed once
    ({!Circuit.Mna.build}) with a preallocated solver workspace, and a
    small-signal workspace made by the first AC or noise probe.  It
    depends on the target only, so every configuration of a context
    probes one plan per fault site: each optimizer probe restamps
    stimulus values into the same workspace instead of rewriting and
    re-indexing the netlist.

    A topology owns mutable buffers: share it freely across sequential
    probes — of any configuration — but never across domains.  Results
    do not depend on what the workspace solved before. *)

val topology : ?backend:Circuit.Mna.backend -> target -> topology
(** Compile the target's topology.  It is built from the
    stimulus-normalized netlist (the stimulus source moved to the end of
    device order, exactly where a per-probe {!with_stimulus} rewrite
    puts it), so unknown numbering — and therefore pivoting and
    arithmetic — matches rebuilding the rewritten netlist for every
    probe, bit for bit.  [backend] forces
    the linear-algebra engine — a test seam; default chosen by
    {!Circuit.Mna.build} from the node count.  Both produce
    bit-identical results (see {!Circuit.Mna.backend}).
    @raise Invalid_argument if the stimulus source is missing or not an
    independent source. *)

val compiled_observables :
  ?profile:profile ->
  ?impact:string * float ->
  topology ->
  Test_config.t ->
  Numerics.Vec.t ->
  float array
(** Run the configuration's analysis with the given parameter values
    on a compiled topology, restamping the probe's stimulus into its
    workspace: no per-probe netlist rewrite, matrix allocation or LU
    allocation.
    The result length depends on the analysis: one voltage per DC level,
    one THD or IMD value, the full sample train, one noise density, or
    gain and phase.  [impact] overrides one resistor's value during
    stamping — the value phase of a fault whose injected topology the
    plan was compiled from (see [Faults.Inject.impact_override]).  The
    failure-injection point ["execute.observables"] (see
    {!Numerics.Failpoint}) raises {!Execution_failure} at entry.

    The samples of a step-train configuration ({!Test_config.Tran_samples}
    at [dt_divisor = 1]) are returned in the topology's own buffer
    ({!Circuit.Tran.simulate}): the next transient of the same length on
    it overwrites them, so a caller that keeps them copies them.

    @raise Execution_failure on simulator failure.
    @raise Invalid_argument on value-count mismatch or an invalid probe
    waveform (same rejection as netlist insertion). *)

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
