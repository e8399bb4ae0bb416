open Circuit

type target = {
  netlist : Netlist.t;
  stimulus_source : string;
  observe_node : string;
}

type profile = {
  samples_per_period : int;
  settle_periods : int;
  analyze_periods : int;
  thd_harmonics : int;
  dc_options : Dc.options;
  dt_divisor : int;
}

let default_profile =
  {
    samples_per_period = 128;
    settle_periods = 2;
    analyze_periods = 2;
    thd_harmonics = 5;
    dc_options = Dc.default_options;
    dt_divisor = 1;
  }

let fast_profile =
  {
    samples_per_period = 64;
    settle_periods = 1;
    analyze_periods = 1;
    thd_harmonics = 5;
    dc_options = Dc.default_options;
    dt_divisor = 1;
  }

exception Execution_failure of string

let with_stimulus nl ~source wave =
  match Netlist.find nl source with
  | None ->
      invalid_arg
        (Printf.sprintf "Execute.with_stimulus: no device %S" source)
  | Some (Device.Isource i) ->
      Netlist.replace nl source [ Device.Isource { i with wave } ]
  | Some (Device.Vsource v) ->
      Netlist.replace nl source [ Device.Vsource { v with wave } ]
  | Some
      ( Device.Resistor _ | Device.Capacitor _ | Device.Inductor _
      | Device.Vcvs _ | Device.Vccs _ | Device.Mosfet _ ) ->
      invalid_arg
        (Printf.sprintf
           "Execute.with_stimulus: %S is not an independent source" source)

let check_values config values =
  if Numerics.Vec.dim values <> Test_config.n_params config then
    invalid_arg "Execute: parameter value count mismatch"

(* ------------------------------------------------------------------ *)
(* Compiled plans: the compile-once / restamp-many hot path             *)
(* ------------------------------------------------------------------ *)

(* Replacing a device in a netlist moves it to the end of the device
   list, which shifts its unknown index.  Compilation replaces the
   stimulus with its own current wave, so the stimulus source is always
   last: the unknown numbering (and with it pivoting and arithmetic) is
   the one a per-probe [with_stimulus] rewrite followed by [Mna.build]
   produces — the numbering the recorded session and transient goldens
   were made with, and the one the rebuild-per-probe reference of the
   parity tests shares. *)
let normalize_stimulus nl ~source =
  match Netlist.find nl source with
  | Some (Device.Isource { wave; _ }) | Some (Device.Vsource { wave; _ }) ->
      with_stimulus nl ~source wave
  | Some _ | None ->
      (* not an independent source / missing: raise with_stimulus's
         canonical error *)
      with_stimulus nl ~source (Waveform.Dc 0.)

(* A compiled plan depends only on the target, so every configuration
   of a context shares one per fault site: the indexed system, its
   solver workspace and, made by the first AC or noise probe, a
   small-signal workspace. *)
type topology = {
  t_target : target;
  t_plan : Mna.t;
  t_ws : Mna.workspace;
  t_ac : Ac.workspace Lazy.t;
}

let topology ?backend target =
  let nl = normalize_stimulus target.netlist ~source:target.stimulus_source in
  let plan = Mna.build ?backend nl in
  {
    t_target = target;
    t_plan = plan;
    t_ws = Mna.workspace plan;
    t_ac = lazy (Ac.workspace plan);
  }

(* A probe wave as a restamp of the plan's stimulus source, rejected as
   netlist insertion would reject it (same message). *)
let restamp topo ~impact wave =
  let source = topo.t_target.stimulus_source in
  (match Waveform.validate wave with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Netlist.add: %s: %s" source e));
  { Mna.stimulus = Some (source, wave); impact }

(* The one operating-point helper shared by the DC, noise and AC arms:
   solve at the DC time point and map non-convergence to the uniform
   execution failure. *)
let operating_point ~options topo restamp =
  match
    Dc.solve ~options ~workspace:topo.t_ws ~restamp topo.t_plan ~time:`Dc
  with
  | report -> report.Dc.solution
  | exception Dc.No_convergence msg -> raise (Execution_failure msg)

(* Integrate with the step subdivided by [dt_divisor] (a retry-ladder
   escalation: a stiffer faulty circuit often converges with a finer
   step), then decimate back onto the requested sample grid so callers
   always see the same observable length and timing. *)
let transient ~options ~dt_divisor topo restamp ~tstop ~dt =
  let k = Int.max 1 dt_divisor in
  let dt_fine = dt /. float_of_int k in
  let observe = topo.t_target.observe_node in
  match
    Tran.simulate ~options ~workspace:topo.t_ws ~restamp topo.t_plan ~tstop
      ~dt:dt_fine ~observe:[ observe ]
  with
  | result ->
      let fine = Tran.probe_values result observe in
      if k = 1 then fine
      else begin
        let n_coarse = Int.max 1 (int_of_float (Float.round (tstop /. dt))) in
        Array.init (n_coarse + 1) (fun i ->
            fine.(Int.min (i * k) (Array.length fine - 1)))
      end
  | exception Tran.Step_failure { time; reason } ->
      raise
        (Execution_failure
           (Printf.sprintf "transient step failed at t=%g: %s" time reason))
  | exception Dc.No_convergence msg -> raise (Execution_failure msg)

(* The THD and IMD window: sampling locked to the fundamental [f0],
   [settle_periods] simulated and dropped, the last [analyze_periods]
   returned with their sample interval. *)
let periodic_window ~profile topo restamp f0 =
  let spp = profile.samples_per_period in
  let dt = 1. /. (f0 *. float_of_int spp) in
  let total = profile.settle_periods + profile.analyze_periods in
  let tstop = float_of_int total /. f0 in
  let samples =
    transient ~options:profile.dc_options ~dt_divisor:profile.dt_divisor topo
      restamp ~tstop ~dt
  in
  let keep = spp * profile.analyze_periods in
  (Array.sub samples (Array.length samples - keep) keep, dt)

let observables_body ~profile topo config ~impact values =
  check_values config values;
  if Numerics.Failpoint.should_fail "execute.observables" then
    raise (Execution_failure "injected failure at execute.observables");
  let options = profile.dc_options in
  let observe = topo.t_target.observe_node in
  let probe wave = restamp topo ~impact wave in
  match config.Test_config.analysis with
  | Test_config.Dc_levels waves ->
      waves values
      |> List.map (fun w ->
             Mna.voltage topo.t_plan
               (operating_point ~options topo (probe w))
               observe)
      |> Array.of_list
  | Test_config.Tran_thd { stimulus; fundamental } ->
      let f0 = fundamental values in
      if f0 <= 0. then raise (Execution_failure "THD: non-positive fundamental");
      let seg, dt = periodic_window ~profile topo (probe (stimulus values)) f0 in
      let thd =
        Sigproc.Thd.thd_percent ~harmonics:profile.thd_harmonics ~samples:seg
          ~sample_rate:(1. /. dt) ~fundamental_hz:f0 ()
      in
      [| thd |]
  | Test_config.Tran_samples { stimulus; sample_rate; test_time } ->
      transient ~options ~dt_divisor:profile.dt_divisor topo
        (probe (stimulus values))
        ~tstop:test_time ~dt:(1. /. sample_rate)
  | Test_config.Tran_imd { stimulus; base_freq; k1; k2 } ->
      let f0 = base_freq values in
      if f0 <= 0. then raise (Execution_failure "IMD: non-positive base frequency");
      (* sampling is locked to the base period; the highest product
         2 k2 - k1 must stay below Nyquist *)
      if (2 * k2) - k1 >= profile.samples_per_period / 2 then
        raise (Execution_failure "IMD: products above Nyquist for this profile");
      let seg, dt = periodic_window ~profile topo (probe (stimulus values)) f0 in
      let imd3 =
        Sigproc.Imd.imd3_percent ~samples:seg ~sample_rate:(1. /. dt)
          ~base_freq:f0 ~k1 ~k2 ()
      in
      [| imd3 |]
  | Test_config.Noise_psd { bias; freq } ->
      let f = freq values in
      if f <= 0. then raise (Execution_failure "noise: non-positive frequency");
      let restamp = probe (bias values) in
      let op = operating_point ~options topo restamp in
      (match
         Noise.output_noise ~workspace:(Lazy.force topo.t_ac) ~restamp
           topo.t_plan ~op ~observe ~freqs:[| f |]
       with
      | [ point ] -> [| 1e9 *. sqrt point.Noise.total_psd |]
      | _ -> raise (Execution_failure "noise: unexpected result")
      | exception Not_found ->
          raise (Execution_failure "noise: unknown observation node")
      | exception Numerics.Cmat.Singular _ ->
          raise (Execution_failure "noise: singular small-signal system"))
  | Test_config.Ac_gain { bias; freq } ->
      let f = freq values in
      if f <= 0. then raise (Execution_failure "AC: non-positive frequency");
      let restamp = probe (bias values) in
      let op = operating_point ~options topo restamp in
      (match
         Ac.sweep ~workspace:(Lazy.force topo.t_ac) ~restamp topo.t_plan ~op
           ~source:topo.t_target.stimulus_source ~freqs:[| f |] ~observe
       with
      | [ point ] ->
          [| Ac.gain_db point.Ac.value; Ac.phase_deg point.Ac.value |]
      | _ -> raise (Execution_failure "AC: unexpected sweep result")
      | exception Numerics.Cmat.Singular _ ->
          raise (Execution_failure "AC: singular small-signal system"))

(* The span closure is only built when tracing is active, so the
   disabled path is a direct call with no extra allocation. *)
let compiled_observables ?(profile = default_profile) ?impact topo config
    values =
  if not (Obs.active ()) then
    observables_body ~profile topo config ~impact values
  else
    Obs.Span.timed ~key:(string_of_int config.Test_config.config_id)
      "execute.solve" (fun () ->
        observables_body ~profile topo config ~impact values)

let deviations config ~nominal ~faulty =
  if Array.length nominal <> Array.length faulty then
    invalid_arg "Execute.deviations: observable length mismatch";
  match config.Test_config.returns with
  | Test_config.Per_component ->
      Array.init (Array.length faulty) (fun i -> faulty.(i) -. nominal.(i))
  | Test_config.Max_abs_delta ->
      [| Sigproc.Metrics.max_abs_delta faulty nominal |]
  | Test_config.Sum_abs_delta ->
      [|
        Float.abs
          (Sigproc.Metrics.accumulate faulty
          -. Sigproc.Metrics.accumulate nominal);
      |]

let return_values config ~nominal ~observed =
  match config.Test_config.returns with
  | Test_config.Per_component -> Array.copy observed
  | Test_config.Max_abs_delta | Test_config.Sum_abs_delta ->
      deviations config ~nominal ~faulty:observed
