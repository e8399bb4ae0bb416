(** Modified nodal analysis: unknown ordering and system assembly.

    The unknown vector [x] is the non-ground node voltages followed by one
    branch current per voltage source, VCVS and inductor.  {!assemble}
    produces the linearized system [A x = z] at a given iterate — for
    linear elements this is the exact system; for MOSFETs it is the
    Newton companion linearization, so a fixed point of
    [x = solve (assemble x)] is an exact operating point. *)

type t

type backend = Dense | Sparse
(** Linear-algebra backend of a compiled topology.  [Dense] factors
    through {!Numerics.Mat}; [Sparse] records the stamp plan's slots
    once per {!workspace} and factors through {!Numerics.Smat}.  Both
    perform the same pivot choices and the same per-entry update sequence, so detect
    verdicts and session bytes are bit-identical across backends — the
    backend is a pure time/space trade, invisible to results. *)

val build : ?backend:backend -> Netlist.t -> t
(** Index the netlist and choose its backend from the node count:
    [Dense] for at most {!sparse_above_nodes} nodes, [Sparse] above.
    [backend] forces one — a test seam; default chosen by
    [Mna.build] from the node count.
    @raise Invalid_argument if the netlist fails
    {!Netlist.connectivity_check}. *)

val sparse_above_nodes : int
(** Node count above which {!build} selects [Sparse] (24), set from the
    measured [atpg generate] crossover: dense wins on the 10-node
    IV-converter, the two stay within a fraction of a second per run
    from 11 to 17 nodes, and sparse wins from 25 nodes up (1.4-2.3x at
    25, 2.6-2.8x at 49). *)

val backend : t -> backend
(** The backend {!build} chose, or was forced to. *)

val backend_name : backend -> string
(** ["dense"] or ["sparse"]. *)

val linear : t -> bool
(** Whether the stamp plan is linear: it holds no MOSFET, the only
    device whose stamp reads the iterate.  On a linear plan
    {!assemble} ignores [x], so at fixed time, companions, source scale,
    overrides and gmin every Newton iteration assembles the same system
    bit for bit — which {!Dc.solve} exploits by factoring it once per
    attempt, and by keeping that factorization across solves whose
    matrices are bit-equal ({!ws_holds}). *)

val netlist : t -> Netlist.t
val n_nodes : t -> int
val size : t -> int
(** Total unknown count (nodes + branches). *)

val node_index : t -> string -> int option
(** [None] for ground.  @raise Not_found for an unknown node name. *)

val voltage : t -> Numerics.Vec.t -> string -> float
(** Voltage of a node in a solution vector; [0.] for ground.
    @raise Not_found for an unknown node name. *)

val branch_current : t -> Numerics.Vec.t -> string -> float
(** Branch current of a voltage source / VCVS / inductor by device name.
    @raise Not_found if the device has no branch unknown. *)

val branch_index : t -> string -> int
(** Unknown index of the branch current of a voltage source / VCVS /
    inductor by device name.
    @raise Not_found if the device has no branch unknown. *)

val companion_slots : t -> int
(** Length of a companion array for this plan: the integration
    companions of its capacitors and inductors, two slots each, at
    {!companion_slot}.  A capacitor's pair is [(geq, ieq)] — it is
    replaced by [geq] in parallel with a current source, so its current
    (a to b) is [geq*(va - vb) - ieq]; an inductor's is [(req, veq)] —
    its branch equation becomes [va - vb - req*i = veq].  Other slots
    are ignored. *)

val companion_slot : t -> string -> int
(** Index of the first of a named capacitor's or inductor's two
    companion slots.
    @raise Not_found if the plan has no capacitor or inductor of that
    name. *)

type source_time = [ `Dc | `Time of float ]
(** [`Dc] evaluates waveforms with {!Waveform.dc_value}; [`Time t] with
    {!Waveform.value}. *)

type restamp = {
  stimulus : (string * Waveform.t) option;
      (** substitute this wave for the named independent source *)
  impact : (string * float) option;
      (** substitute this resistance for the named resistor (the
          fault-impact knob of the convergence loop) *)
}
(** Value-phase overrides for a compiled topology: assembly substitutes
    the probe's stimulus wave and fault-impact resistance at stamp time
    instead of rewriting the netlist and re-indexing it.  The stamp
    sequence is unchanged, so the assembled system is bit-identical to
    one built from a netlist carrying the overridden values. *)

val restamp_wave : restamp option -> string -> Waveform.t -> Waveform.t
(** The wave a named source stamps under an override set (identity
    without a matching override). *)

val restamp_ohms : restamp option -> string -> float -> float
(** The resistance a named resistor stamps under an override set —
    shared with the small-signal and noise stampers so every analysis
    sees the same fault impact. *)

type engine
(** A backend's paired system matrix and factorization state. *)

type sink
(** Where assembly accumulates stamps, matching the engine: the dense
    matrix storage at [i*n+j], or the sparse matrix's values through a
    slot table — the value slot of every stamp, in stamp order, with the
    offset where each plan entry's stamps start — recorded when the
    workspace was made.  No stamp searches the sparse pattern. *)

type solver_state = ..
(** Per-workspace state of a solver built on this module — the DC
    operating-point memo ({!Dc.solve}) extends it.  A fresh workspace
    holds [No_solver_state]. *)

type solver_state += No_solver_state

type workspace = {
  w_size : int;
  w_eng : engine;  (** system matrix + factorization, backend-matched *)
  w_sink : sink;  (** stamping view of [w_eng]'s system matrix *)
  w_mos : float array;  (** MOSFET evaluation scratch (4 slots) *)
  w_z : Numerics.Vec.t;  (** right-hand side *)
  mutable w_x : Numerics.Vec.t;  (** Newton iterate *)
  mutable w_x_new : Numerics.Vec.t;  (** Newton solve output / next iterate *)
  mutable w_solver : solver_state;
  mutable w_samples : float array list;
      (** observation buffers ({!sample_buffer}) *)
  w_snapshot : float array;
      (** the matrix values of the last [~hold:true] {!ws_factor} *)
  mutable w_held : bool;
      (** whether the factorization was made from [w_snapshot] *)
}
(** Preallocated solve state sized for one compiled topology: system,
    factorization and the per-call stamping scratch.  The two iterate
    buffers are swapped (never reallocated) by the Newton loop.
    A workspace is owned by exactly one running analysis at a time;
    under parallel execution each domain creates its own.  The system
    matrix and factorization live behind {!engine} so the Newton loop is
    backend-agnostic through {!ws_factor} / {!ws_solve_into}. *)

val workspace : t -> workspace
(** A workspace on the topology's backend.  A sparse one runs the stamp
    plan once through a recording sink, with companions so that every
    capacitor and inductor stamps: the recorded index pairs plus the
    full diagonal are its matrix pattern, and each stamp's value slot
    is resolved there once.  It assembles only the plan it was made
    from. *)

val sample_buffer : workspace -> int -> float array
(** [sample_buffer ws len] is the workspace's observation buffer of
    length [len], created on first use: a transient simulation on the
    workspace writes its samples there instead of allocating a fresh
    array per run.  Its contents belong to the last simulation that
    wrote it.  The workspace keeps at most four lengths. *)

val ws_matrix : workspace -> float array
(** The assembled matrix values, shared (not copied): the dense
    row-major storage ({!Numerics.Mat.data}) or the sparse pattern
    slots ({!Numerics.Smat.values}). *)

val ws_factor : ?hold:bool -> workspace -> bool
(** Factor the workspace's assembled system in place.  Returns [true]
    when the sparse backend replayed a held pattern ({!Numerics.Smat.refactor})
    instead of paying the full symbolic pass — a pure optimization,
    bit-identical either way; always [false] on the dense backend.

    With [~hold:true] the matrix values are snapshotted first and the
    factorization is held: {!ws_holds} then recognizes a later assembly
    of the same bits.  Any other call, and a [Singular], drops the
    hold.
    @raise Numerics.Mat.Singular if the system is numerically singular
    (same payload on both backends). *)

val ws_holds : workspace -> bool
(** Whether the workspace holds a factorization of exactly the assembled
    matrix, compared bit for bit ([-0.] and [0.] differ).  The same bits
    give the same factors, so solving against the held factorization is
    bit-identical to factoring again. *)

val ws_solve_into : workspace -> Numerics.Vec.t -> Numerics.Vec.t -> unit
(** Solve against the last {!ws_factor} — {!Numerics.Mat.solve_into} or
    its bit-identical sparse counterpart. *)

val assemble :
  t ->
  x:Numerics.Vec.t ->
  time:source_time ->
  ?companions:float array ->
  ?source_scale:float ->
  ?restamp:restamp ->
  gmin:float ->
  unit ->
  Numerics.Mat.t * Numerics.Vec.t
(** Build the linearized MNA system at iterate [x].  [gmin] is added from
    every node to ground.  [source_scale] (default 1) multiplies all
    independent source values — the knob used by source stepping.
    With [companions] (laid out as {!companion_slots} describes) every
    capacitor and inductor stamps its integration companion; without,
    capacitors are open and inductors are shorts (DC treatment).
    @raise Invalid_argument on a bad iterate or companion array size. *)

val assemble_into :
  t ->
  workspace ->
  x:Numerics.Vec.t ->
  time:source_time ->
  ?companions:float array ->
  ?source_scale:float ->
  ?restamp:restamp ->
  gmin:float ->
  unit ->
  unit
(** {!assemble} into the workspace's preallocated system — the zero
    allocation restamp path: stamps accumulate through the workspace's
    sink and MOSFETs are evaluated in its scratch array, so on either
    backend a call allocates nothing beyond what the source waveforms
    return.  The workspace matrix and right-hand side are zeroed first,
    so the result is bit-identical to {!assemble}.
    @raise Invalid_argument on a size mismatch, or when a sparse
    workspace was made from another topology. *)

val op_inputs : t -> int
(** The number of slots {!op_inputs_into} writes: one per independent
    source, plus two for the impact override. *)

val op_inputs_into :
  t -> time:source_time -> ?restamp:restamp -> float array -> unit
(** [op_inputs_into t ~time ?restamp buf] writes, in plan order, every
    independent source's value at [time] as [restamp] substitutes it,
    then the plan position of the resistor [restamp]'s impact overrides
    ([-1.] when it names none) and that resistance.  With the topology,
    whose other values are fixed, these are everything a companion-free,
    unscaled assembly depends on besides the iterate.  The DC
    operating-point memo keys on their bits.  Allocates nothing.
    @raise Invalid_argument unless [buf] holds {!op_inputs} slots. *)

val mosfet_operating_points :
  t -> x:Numerics.Vec.t -> (string * Mos_model.operating_point) list
(** Per-MOSFET bias details at a solution — used by AC analysis and by
    diagnostics. *)
