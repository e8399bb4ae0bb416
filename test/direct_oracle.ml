(* Reference execution for the parity tests: the rebuild-per-probe
   engine that {!Testgen.Execute.compiled_observables} replaced.  Every
   probe wave is written into the netlist ({!Testgen.Execute.with_stimulus})
   and the result re-indexed from scratch ({!Circuit.Mna.build}); the
   solvers run without a caller workspace or restamp.  The analysis arms,
   failpoint site and error mapping are the library's, expression for
   expression, so the two must agree bit for bit — observables, failure
   messages and failpoint draws. *)

open Circuit
open Testgen

let operating_point ~options sys =
  match Dc.solve ~options sys ~time:`Dc with
  | report -> report.Dc.solution
  | exception Dc.No_convergence msg -> raise (Execute.Execution_failure msg)

let transient ~options ~dt_divisor sys ~observe ~tstop ~dt =
  let k = Int.max 1 dt_divisor in
  let dt_fine = dt /. float_of_int k in
  match Tran.simulate ~options sys ~tstop ~dt:dt_fine ~observe with
  | fine ->
      if k = 1 then fine
      else begin
        let n_coarse = Int.max 1 (int_of_float (Float.round (tstop /. dt))) in
        Array.init (n_coarse + 1) (fun i ->
            fine.(Int.min (i * k) (Array.length fine - 1)))
      end
  | exception Tran.Step_failure { time; reason } ->
      raise
        (Execute.Execution_failure
           (Printf.sprintf "transient step failed at t=%g: %s" time reason))
  | exception Dc.No_convergence msg -> raise (Execute.Execution_failure msg)

let window ~(profile : Execute.profile) sys ~observe f0 =
  let spp = profile.samples_per_period in
  let dt = 1. /. (f0 *. float_of_int spp) in
  let total = profile.settle_periods + profile.analyze_periods in
  let tstop = float_of_int total /. f0 in
  let samples =
    transient ~options:profile.dc_options ~dt_divisor:profile.dt_divisor sys
      ~observe ~tstop ~dt
  in
  let keep = spp * profile.analyze_periods in
  (Array.sub samples (Array.length samples - keep) keep, dt)

let observables ?(profile = Execute.default_profile) config
    (target : Execute.target) values =
  if Numerics.Vec.dim values <> Test_config.n_params config then
    invalid_arg "Execute: parameter value count mismatch";
  if Numerics.Failpoint.should_fail "execute.observables" then
    raise (Execute.Execution_failure "injected failure at execute.observables");
  let options = profile.dc_options in
  let observe = target.observe_node in
  let source = target.stimulus_source in
  let build wave =
    Mna.build (Execute.with_stimulus target.netlist ~source wave)
  in
  let fail msg = raise (Execute.Execution_failure msg) in
  match config.Test_config.analysis with
  | Test_config.Dc_levels waves ->
      waves values
      |> List.map (fun w ->
             let sys = build w in
             Mna.voltage sys (operating_point ~options sys) observe)
      |> Array.of_list
  | Test_config.Tran_thd { stimulus; fundamental } ->
      let f0 = fundamental values in
      if f0 <= 0. then fail "THD: non-positive fundamental";
      let seg, dt = window ~profile (build (stimulus values)) ~observe f0 in
      [|
        Sigproc.Thd.thd_percent ~harmonics:5 ~samples:seg
          ~sample_rate:(1. /. dt) ~fundamental_hz:f0 ();
      |]
  | Test_config.Tran_samples { stimulus; sample_rate; test_time } ->
      transient ~options ~dt_divisor:profile.dt_divisor
        (build (stimulus values))
        ~observe ~tstop:test_time ~dt:(1. /. sample_rate)
  | Test_config.Tran_imd { stimulus; base_freq; k1; k2 } ->
      let f0 = base_freq values in
      if f0 <= 0. then fail "IMD: non-positive base frequency";
      if (2 * k2) - k1 >= profile.samples_per_period / 2 then
        fail "IMD: products above Nyquist for this profile";
      let seg, dt = window ~profile (build (stimulus values)) ~observe f0 in
      [|
        Sigproc.Imd.imd3_percent ~samples:seg ~sample_rate:(1. /. dt)
          ~base_freq:f0 ~k1 ~k2 ();
      |]
  | Test_config.Noise_psd { bias; freq } ->
      let f = freq values in
      if f <= 0. then fail "noise: non-positive frequency";
      let sys = build (bias values) in
      let op = operating_point ~options sys in
      (match Noise.output_noise sys ~op ~observe ~freqs:[| f |] with
      | [ point ] -> [| 1e9 *. sqrt point.Noise.total_psd |]
      | _ -> fail "noise: unexpected result"
      | exception Not_found -> fail "noise: unknown observation node"
      | exception Numerics.Cmat.Singular _ ->
          fail "noise: singular small-signal system")
  | Test_config.Ac_gain { bias; freq } ->
      let f = freq values in
      if f <= 0. then fail "AC: non-positive frequency";
      let sys = build (bias values) in
      let op = operating_point ~options sys in
      (match Ac.sweep sys ~op ~source ~freqs:[| f |] ~observe with
      | [ point ] -> [| Ac.gain_db point.Ac.value; Ac.phase_deg point.Ac.value |]
      | _ -> fail "AC: unexpected sweep result"
      | exception Numerics.Cmat.Singular _ ->
          fail "AC: singular small-signal system")
