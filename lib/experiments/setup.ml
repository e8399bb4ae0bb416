open Testgen

type t = {
  macro : Macros.Macro.t;
  configs : Test_config.t list;
  evaluators : Evaluator.t list;
  dictionary : Faults.Dictionary.t;
  profile : Execute.profile;
}

let target_of_macro (macro : Macros.Macro.t) point =
  {
    Execute.netlist = macro.Macros.Macro.build point;
    stimulus_source = macro.Macros.Macro.stimulus_source;
    observe_node = macro.Macros.Macro.observe_node;
  }

let create ?(profile = Execute.default_profile) ?backend ?grid ?corners ~macro
    ~configs () =
  let corner_points =
    match corners with Some c -> c | None -> Macros.Process.corners ()
  in
  let nominal = target_of_macro macro Macros.Process.nominal in
  let corner_targets = List.map (target_of_macro macro) corner_points in
  let evaluators =
    Evaluator.create_all ~profile ?backend ~nominal
      (List.map
         (fun config ->
           ( config,
             Tolerance.calibrate ~profile ?grid config ~nominal
               ~corners:corner_targets () ))
         configs)
  in
  {
    macro;
    configs;
    evaluators;
    dictionary = Macros.Macro.dictionary macro;
    profile;
  }

let iv ?profile ?backend ?grid () =
  create ?profile ?backend ?grid ~macro:Macros.Iv_converter.macro
    ~configs:Iv_configs.all ()

(* -- generic probe contexts -------------------------------------------- *)

(* Stimulus window each macro family accepts at its control node.  The
   IV-converter is current-driven; the active macros have an input
   common-mode range; the passive/buffered chains pass DC through. *)
let probe_stimulus (macro : Macros.Macro.t) =
  match macro.Macros.Macro.macro_type with
  | "IV-converter" -> ("Iin", "A", -40e-6, 40e-6)
  | "OTA-buffer" -> ("inp", "V", 1.2, 3.8)
  | "SK-lowpass" -> ("in", "V", 1.5, 3.5)
  | other ->
      (* RC-ladder, SK-filter-chain, OTA-cascade, and any future DC-coupled
         family *)
      ignore other;
      ("in", "V", 1.0, 4.0)

let probe_configs ~configs ~levels ~floor macro =
  let control_node, units, lo, hi = probe_stimulus macro in
  let span = hi -. lo in
  let w = 0.5 *. span in
  List.init configs (fun j ->
      (* half-span windows slid evenly across the stimulus range, so the
         configurations cover distinct but overlapping operating regions *)
      let plo =
        if configs = 1 then lo
        else lo +. (float_of_int j *. (span -. w) /. float_of_int (configs - 1))
      in
      let phi = plo +. w in
      let seed_v = 0.5 *. (plo +. phi) in
      let step = (phi -. plo) /. float_of_int (levels + 1) in
      Test_config.create ~id:(800 + j)
        ~name:(Printf.sprintf "Probe DC sweep %d" j)
        ~macro_type:macro.Macros.Macro.macro_type ~control_node
        ~params:
          [
            Test_param.create ~name:"v" ~units ~lower:plo ~upper:phi
              ~seed:seed_v;
          ]
        ~analysis:
          (Test_config.Dc_levels
             (fun v ->
               List.init levels (fun k ->
                   let lvl =
                     Float.min phi (v.(0) +. (float_of_int k *. step))
                   in
                   Circuit.Waveform.Dc lvl)))
        ~returns:Test_config.Per_component
        ~return_names:
          (List.init levels (fun k ->
               Printf.sprintf "V(%s)@%d" macro.Macros.Macro.observe_node k))
        ~accuracy_floor:(List.init levels (fun _ -> floor))
        ~summary:"deterministic dc levels at the control node")

let probe ?(profile = Execute.fast_profile) ?backend ?(configs = 3)
    ?(levels = 2) ?(floor = 1e-3) ~macro () =
  if configs < 1 then invalid_arg "Setup.probe: configs must be >= 1";
  if levels < 1 then invalid_arg "Setup.probe: levels must be >= 1";
  let configs = probe_configs ~configs ~levels ~floor macro in
  let nominal = target_of_macro macro Macros.Process.nominal in
  let evaluators =
    Evaluator.create_all ~profile ?backend ~nominal
      (List.map (fun config -> (config, Tolerance.floor_only config)) configs)
  in
  {
    macro;
    configs;
    evaluators;
    dictionary = Macros.Macro.dictionary macro;
    profile;
  }

(* Reduced optimizer budgets matching the probe plan's floor-only boxes:
   a probe context answers "which faults does a compact DC test set
   catch" quickly and deterministically, not how tight the optimum is. *)
let probe_options =
  {
    Generate.default_options with
    Generate.bracket_points = 4;
    optimizer_tol = 1e-2;
    powell_max_iter = 2;
    max_impact_steps = 16;
  }

let reduced t ~n_faults =
  { t with dictionary = Faults.Dictionary.take t.dictionary n_faults }

(* The one place a macro name becomes a generation context: the CLI's
   generate/compact/baseline and the serve daemon both build through it,
   so the serve and one-shot paths pose bit-identical problems. *)
let for_macro ?(on_calibrate = ignore) ~fast name =
  match Macros.Registry.find name with
  | Error e -> Error e
  | Ok macro ->
      let profile =
        if fast then Execute.fast_profile else Execute.default_profile
      in
      if String.equal name "iv" then begin
        on_calibrate ();
        Ok (iv ~profile (), None)
      end
      else Ok (probe ~profile ~macro (), Some probe_options)
