(** Experiment context: a macro wired to its test configurations with
    calibrated tolerance boxes — everything the generation engine needs. *)

type t = {
  macro : Macros.Macro.t;
  configs : Testgen.Test_config.t list;
  evaluators : Testgen.Evaluator.t list;
  dictionary : Faults.Dictionary.t;
  profile : Testgen.Execute.profile;
}

val target_of_macro :
  Macros.Macro.t -> Macros.Process.point -> Testgen.Execute.target
(** Build an execution target for the macro at a process point
    (standardized stimulus source and observation node). *)

val create :
  ?profile:Testgen.Execute.profile ->
  ?backend:Circuit.Mna.backend ->
  ?grid:int ->
  ?guardband:float ->
  ?corners:Macros.Process.point list ->
  macro:Macros.Macro.t ->
  configs:Testgen.Test_config.t list ->
  unit ->
  t
(** Calibrate a box model per configuration over the process [corners]
    (default {!Macros.Process.corners}) and bundle evaluators plus the
    macro's exhaustive fault dictionary.  [backend] forces the evaluators'
    linear-algebra engine — a test seam; default chosen by
    {!Circuit.Mna.build} from the node count.  Results are bit-identical
    across backends. *)

val iv :
  ?profile:Testgen.Execute.profile ->
  ?backend:Circuit.Mna.backend ->
  ?grid:int ->
  unit ->
  t
(** The paper's experiment: IV-converter macro with configurations
    #1..#5 and the 55-fault dictionary. *)

val probe :
  ?profile:Testgen.Execute.profile ->
  ?backend:Circuit.Mna.backend ->
  ?configs:int ->
  ?levels:int ->
  ?floor:float ->
  macro:Macros.Macro.t ->
  unit ->
  t
(** A deterministic generic context for {e any} macro: [configs]
    (default 3) DC-level test configurations in half-span windows slid
    across the macro family's stimulus range, [levels] (default 2) DC
    levels per configuration, floor-only tolerance boxes at [floor]
    volts (default 1e-3) and the fast execution profile.  No corner
    calibration and no random draws — the context is a pure function of
    [(macro, configs, levels, floor)], so the CLI one-shot path
    and the serve daemon construct bit-identical problems from a macro
    name.  [backend] is a test seam as in {!create}.  Use
    {!probe_options} for engine runs over probe contexts. *)

val probe_options : Testgen.Generate.options
(** Reduced optimizer budgets (coarse brackets, 1e-2 tolerance, short
    impact walks) matched to {!probe}'s floor-only boxes. *)

val reduced : t -> n_faults:int -> t
(** Same context with a truncated dictionary — for quick runs and unit
    tests. *)

val for_macro :
  ?on_calibrate:(unit -> unit) ->
  fast:bool ->
  string ->
  (t * Testgen.Generate.options option, string) result
(** The generation context for a macro name and the engine options to
    run it with: the paper's calibrated {!iv} context (default options)
    for ["iv"], the deterministic {!probe} context with {!probe_options}
    for every other {!Macros.Registry} name.  [fast] selects
    {!Testgen.Execute.fast_profile} over the default profile.
    [on_calibrate] is called just before the IV context's corner
    calibration starts (the slow step).  [Error] names an unknown
    macro.  The CLI and the serve daemon both build their contexts here,
    so the two paths pose bit-identical problems. *)
