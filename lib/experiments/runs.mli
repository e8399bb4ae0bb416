(** Per-experiment report generators.

    One function per table/figure of the paper (see DESIGN.md §4); each
    returns a printable report.  The expensive whole-dictionary
    generation run is produced once with {!engine_run} and shared by the
    result-dependent experiments. *)

val fig1 : unit -> string
(** Fig. 1: a test-configuration description (the step-response
    configuration with accumulated-sum return value). *)

val tab1 : unit -> string
(** Table 1: the five configuration definitions. *)

val tps_fault : Faults.Fault.t
(** The bridge used for the tps-graph figures (nodes n1-vout, the
    "two arbitrarily chosen nodes" of the paper's example). *)

val fig234 : ?grid:int -> Setup.t -> string
(** Figs. 2-4: tps-graphs of the THD configuration for the bridge at
    10 kOhm (hard region), 34 kOhm and 75 kOhm (soft region), plus the
    soft-region stability summary of §3.2. *)

val fig5 : Setup.t -> string
(** Fig. 5: the p = 2 tolerance box of configuration #2 with one
    response inside the box (possibly fault-free) and one outside
    (necessarily faulty). *)

val fig6 : ?fault_id:string -> Setup.t -> string
(** Fig. 6: full generation trace for one fault — optimized candidates,
    impact-convergence steps and the surviving test. *)

val fig7 : unit -> string
(** Fig. 7: the pinhole fault model as the netlist expansion it induces. *)

val engine_run :
  ?progress:(done_:int -> total:int -> fault_id:string -> unit) ->
  ?options:Testgen.Generate.options ->
  ?policy:Testgen.Resilience.policy ->
  ?jobs:int ->
  Setup.t ->
  Testgen.Engine.run
(** The 55-fault generation run feeding tab2/fig8/tab3/tab4/xbase.
    [options] (e.g. {!Setup.probe_options}), [policy] and [jobs] (worker
    domains, default [0] = one per core) are passed through to
    {!Testgen.Engine.run}. *)

val resume_run :
  ?progress:(done_:int -> total:int -> fault_id:string -> unit) ->
  ?options:Testgen.Generate.options ->
  ?policy:Testgen.Resilience.policy ->
  ?jobs:int ->
  ?on_resume:(int -> unit) ->
  ?on_append:(int -> unit) ->
  path:string ->
  Setup.t ->
  (Testgen.Engine.run, int * string) result
(** {!engine_run} against the session checkpoint at [path] — the one
    checkpointed-generation routine of [atpg generate/compact --resume]
    and of named daemon sessions.  The results the file already holds
    are resumed (not re-simulated), every new result is appended as soon
    as it completes, in dictionary order, and the file is closed on
    every exit, so an interrupted run restarts where it left off and
    ends with the bytes of an uninterrupted one.  A missing file starts
    a fresh checkpoint.

    [on_resume n] is called once, before any fault is simulated, with
    the number of results salvaged from the file; [on_append n] after
    each append, with the number of results the file now holds.  An
    exception raised by either hook (or by the run) propagates after the
    file is closed.

    [Error (code, message)] when the checkpoint cannot be opened: [code]
    is {!Testgen.Engine.exit_corrupt_session} when the file exists but
    cannot be salvaged (e.g. an unsupported header; a torn tail is
    salvaged, not an error), [1] when it cannot be created or read. *)

val session_error_code : string -> int
(** Exit code for a session file at this path that failed to load:
    {!Testgen.Engine.exit_corrupt_session} if the file exists (it is
    corrupt), [1] otherwise (a plain IO error). *)

val tab2 : Setup.t -> Testgen.Engine.run -> string
(** Table 2: distribution of best tests over the configurations, split
    by fault type. *)

val fig8 : Setup.t -> Testgen.Engine.run -> string
(** Fig. 8: optimized parameter values of configurations #1-#3. *)

val tab3 : Setup.t -> Testgen.Engine.run -> string
(** Table 3: the parameter values of configuration #5's best tests. *)

val compact_run :
  ?delta:float -> Setup.t -> Testgen.Engine.run -> Testgen.Compactor.result
(** The §4 compaction of a generation run (default delta 0.1). *)

val render_tab4 : delta:float -> Testgen.Compactor.result -> string
(** Render a compaction result as the TAB4 report. *)

val tab4 : ?delta:float -> Setup.t -> Testgen.Engine.run -> string
(** §4.2: the collapsed (compact) test set, its groups, and the final
    coverage ([compact_run] + [render_tab4]). *)

val xbase : Setup.t -> Testgen.Engine.run -> string
(** §2.2 claim: optimized tailoring vs fixed-seed selection. *)

val all_reports :
  ?progress:(done_:int -> total:int -> fault_id:string -> unit) ->
  ?on_calibrate:(unit -> unit) ->
  ?profile:Testgen.Execute.profile ->
  unit ->
  (string * (unit -> string)) list
(** Every paper table and figure in DESIGN.md order, then every
    extension ({!Extensions}), as [(id, render)] pairs: fig1 tab1
    fig234 fig5 fig6 fig7 tab2 fig8 tab3 tab4 xbase xac xifa xeq xq
    ximd.  Nothing runs until a render is called: the calibrated {!Setup.iv}
    context (at [profile], default {!Testgen.Execute.default_profile}),
    its one {!engine_run} and its one delta = 0.1 {!compact_run} are
    built on first use and shared by every report that needs them, so
    fig1, tab1 and fig7 build nothing.  xac calibrates its own
    {!Extensions.iv_with_ac} context at [profile].  [on_calibrate] is
    called just before each calibration starts; [progress] is passed to
    the engine run. *)
