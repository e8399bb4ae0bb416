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
   list, which shifts its unknown index — so the per-probe direct path
   ([with_stimulus] then [Mna.build]) always sees the stimulus source
   last.  A compiled plan must index the same topology, so compilation
   normalizes the netlist by replacing the stimulus with its own current
   wave: same devices, same order, same unknown numbering as every probe
   of the direct path. *)
let normalize_stimulus nl ~source =
  match Netlist.find nl source with
  | Some (Device.Isource { wave; _ }) | Some (Device.Vsource { wave; _ }) ->
      with_stimulus nl ~source wave
  | Some _ | None ->
      (* not an independent source / missing: raise with_stimulus's
         canonical error *)
      with_stimulus nl ~source (Waveform.Dc 0.)

(* A compiled plan has two parts.  The topology — indexed system plus
   solver workspace — depends only on the target, so every configuration
   of a context can share one per fault site; the shell adds what one
   configuration needs on top (the small-signal workspace of AC and
   noise analyses). *)
type topology = { t_target : target; t_plan : Mna.t; t_ws : Mna.workspace }

let topology ?backend target =
  let nl = normalize_stimulus target.netlist ~source:target.stimulus_source in
  let plan = Mna.build ?backend nl in
  { t_target = target; t_plan = plan; t_ws = Mna.workspace plan }

type compiled = {
  c_config : Test_config.t;
  c_topo : topology;
  c_ac : Ac.workspace option;
}

let with_config topo config =
  let c_ac =
    match config.Test_config.analysis with
    | Test_config.Noise_psd _ | Test_config.Ac_gain _ ->
        Some (Ac.workspace topo.t_plan)
    | Test_config.Dc_levels _ | Test_config.Tran_thd _
    | Test_config.Tran_samples _ | Test_config.Tran_imd _ -> None
  in
  { c_config = config; c_topo = topo; c_ac }

let compile ?backend config target =
  with_config (topology ?backend target) config

(* How an analysis obtains a simulatable system for one probe wave:
   the direct path rewrites the netlist and re-indexes it per probe; the
   compiled path restamps the precompiled plan's workspace. *)
type engine =
  | Direct of target
  | Restamp of { c : compiled; impact : (string * float) option }

let engine_target = function
  | Direct t -> t
  | Restamp { c; _ } -> c.c_topo.t_target

type inst = {
  i_sys : Mna.t;
  i_ws : Mna.workspace option;
  i_restamp : Mna.restamp option;
  i_ac : Ac.workspace option;
}

let instantiate engine wave =
  match engine with
  | Direct target ->
      let nl =
        with_stimulus target.netlist ~source:target.stimulus_source wave
      in
      { i_sys = Mna.build nl; i_ws = None; i_restamp = None; i_ac = None }
  | Restamp { c; impact } ->
      let topo = c.c_topo in
      let source = topo.t_target.stimulus_source in
      (* the direct path validates each probe wave when it is inserted
         into the netlist; keep the same rejection (and message shape) *)
      (match Waveform.validate wave with
      | Ok () -> ()
      | Error e ->
          invalid_arg (Printf.sprintf "Netlist.add: %s: %s" source e));
      {
        i_sys = topo.t_plan;
        i_ws = Some topo.t_ws;
        i_restamp = Some { Mna.stimulus = Some (source, wave); impact };
        i_ac = c.c_ac;
      }

(* The one operating-point helper shared by the DC, noise and AC arms:
   solve at the DC time point and map non-convergence to the uniform
   execution failure. *)
let operating_point ~options inst =
  match
    Dc.solve ~options ?workspace:inst.i_ws ?restamp:inst.i_restamp inst.i_sys
      ~time:`Dc
  with
  | report -> report.Dc.solution
  | exception Dc.No_convergence msg -> raise (Execution_failure msg)

(* Integrate with the step subdivided by [dt_divisor] (a retry-ladder
   escalation: a stiffer faulty circuit often converges with a finer
   step), then decimate back onto the requested sample grid so callers
   always see the same observable length and timing. *)
let transient ~options ~dt_divisor inst ~observe ~tstop ~dt =
  let k = Int.max 1 dt_divisor in
  let dt_fine = dt /. float_of_int k in
  match
    Tran.simulate ~options ?workspace:inst.i_ws ?restamp:inst.i_restamp
      inst.i_sys ~tstop ~dt:dt_fine ~observe:[ observe ]
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

let observables_body engine ~profile config values =
  check_values config values;
  if Numerics.Failpoint.should_fail "execute.observables" then
    raise (Execution_failure "injected failure at execute.observables");
  let options = profile.dc_options in
  let dt_divisor = profile.dt_divisor in
  let target = engine_target engine in
  let observe = target.observe_node in
  match config.Test_config.analysis with
  | Test_config.Dc_levels waves ->
      waves values
      |> List.map (fun w ->
             let inst = instantiate engine w in
             Mna.voltage inst.i_sys (operating_point ~options inst) observe)
      |> Array.of_list
  | Test_config.Tran_thd { stimulus; fundamental } ->
      let f0 = fundamental values in
      if f0 <= 0. then raise (Execution_failure "THD: non-positive fundamental");
      let spp = profile.samples_per_period in
      let dt = 1. /. (f0 *. float_of_int spp) in
      let total = profile.settle_periods + profile.analyze_periods in
      let tstop = float_of_int total /. f0 in
      let inst = instantiate engine (stimulus values) in
      let samples = transient ~options ~dt_divisor inst ~observe ~tstop ~dt in
      let keep = spp * profile.analyze_periods in
      let seg = Array.sub samples (Array.length samples - keep) keep in
      let thd =
        Sigproc.Thd.thd_percent ~harmonics:profile.thd_harmonics ~samples:seg
          ~sample_rate:(1. /. dt) ~fundamental_hz:f0 ()
      in
      [| thd |]
  | Test_config.Tran_samples { stimulus; sample_rate; test_time } ->
      let dt = 1. /. sample_rate in
      let inst = instantiate engine (stimulus values) in
      transient ~options ~dt_divisor inst ~observe ~tstop:test_time ~dt
  | Test_config.Tran_imd { stimulus; base_freq; k1; k2 } ->
      let f0 = base_freq values in
      if f0 <= 0. then raise (Execution_failure "IMD: non-positive base frequency");
      let spp = profile.samples_per_period in
      (* sampling is locked to the base period; the highest product
         2 k2 - k1 must stay below Nyquist *)
      if (2 * k2) - k1 >= spp / 2 then
        raise (Execution_failure "IMD: products above Nyquist for this profile");
      let dt = 1. /. (f0 *. float_of_int spp) in
      let total = profile.settle_periods + profile.analyze_periods in
      let tstop = float_of_int total /. f0 in
      let inst = instantiate engine (stimulus values) in
      let samples = transient ~options ~dt_divisor inst ~observe ~tstop ~dt in
      let keep = spp * profile.analyze_periods in
      let seg = Array.sub samples (Array.length samples - keep) keep in
      let imd3 =
        Sigproc.Imd.imd3_percent ~samples:seg ~sample_rate:(1. /. dt)
          ~base_freq:f0 ~k1 ~k2 ()
      in
      [| imd3 |]
  | Test_config.Noise_psd { bias; freq } ->
      let f = freq values in
      if f <= 0. then raise (Execution_failure "noise: non-positive frequency");
      let inst = instantiate engine (bias values) in
      let op = operating_point ~options inst in
      (match
         Noise.output_noise ?workspace:inst.i_ac ?restamp:inst.i_restamp
           inst.i_sys ~op ~observe ~freqs:[| f |]
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
      let inst = instantiate engine (bias values) in
      let op = operating_point ~options inst in
      (match
         Ac.sweep ?workspace:inst.i_ac ?restamp:inst.i_restamp inst.i_sys ~op
           ~source:target.stimulus_source ~freqs:[| f |] ~observe
       with
      | [ point ] ->
          [| Ac.gain_db point.Ac.value; Ac.phase_deg point.Ac.value |]
      | _ -> raise (Execution_failure "AC: unexpected sweep result")
      | exception Numerics.Cmat.Singular _ ->
          raise (Execution_failure "AC: singular small-signal system"))

(* The span closure is only built when tracing is active, so the
   disabled path is a direct call with no extra allocation. *)
let observables_of engine ~profile config values =
  if not (Obs.active ()) then observables_body engine ~profile config values
  else
    Obs.Span.timed ~key:(string_of_int config.Test_config.config_id)
      "execute.solve" (fun () -> observables_body engine ~profile config values)

let observables ?(profile = default_profile) config target values =
  observables_of (Direct target) ~profile config values

let compiled_observables ?(profile = default_profile) ?impact c values =
  observables_of (Restamp { c; impact }) ~profile c.c_config values

(* ------------------------------------------------------------------ *)
(* Config-major fault batching: one factorization per fault, the whole  *)
(* (point x level) probe cross-product solved against it                *)
(* ------------------------------------------------------------------ *)

type fault_batch = {
  fb_obs : float array option array array;
  fb_panels : int;
}

(* Exact replay of [Dc.newton_ws]'s damped-update walk for a linear
   plan.  The assembled system of a linear (MOSFET-free) topology does
   not depend on the Newton iterate, so every iteration's raw solve
   produces the same vector [s] and the sequential trajectory is a pure
   damping walk toward it: [x <- x + alpha * (s - x)] with [alpha]
   bounded by the node-voltage limit.  Replaying that walk term for term
   — the same [Float.max] reduction for the step bound, the same update
   form (kept even at [alpha = 1.], where it is not a bitwise no-op),
   the same node-only convergence test on the damped iterate —
   reproduces the converged solution bit for bit without touching the
   factorization again.  Returns the buffer holding the converged
   iterate, or [None] when the walk does not converge inside the Newton
   budget (the sequential path then enters its gmin/source stepping
   ladders, which the caller must replay verbatim, fault by fault). *)
let replay_damped ~options ~n_nodes ~s xa xb =
  let size = Array.length s in
  let finite = ref true in
  for i = 0 to n_nodes - 1 do
    if not (Float.is_finite s.(i)) then finite := false
  done;
  if not !finite then None
  else begin
    let vlimit = options.Dc.vlimit in
    let abstol = options.Dc.abstol and reltol = options.Dc.reltol in
    Array.fill xa 0 size 0.;
    let cur = ref xa and nxt = ref xb in
    let converged = ref false in
    let iters = ref 0 in
    while (not !converged) && !iters < options.Dc.max_newton do
      incr iters;
      let x = !cur and x_new = !nxt in
      (* The sequential walk blits [s] into [x_new] and then reduces,
         updates and tests over it in separate passes; here the blit is
         folded away ([x_new.(i)] {e is} [s.(i)] at that point) and the
         update and convergence passes fused — every arithmetic
         expression below is term-for-term the sequential one, so the
         trajectory stays bitwise identical. *)
      let dv_max = ref 0. in
      for i = 0 to n_nodes - 1 do
        dv_max := Float.max !dv_max (Float.abs (s.(i) -. x.(i)))
      done;
      let alpha = if !dv_max > vlimit then vlimit /. !dv_max else 1. in
      if alpha = 1. then begin
        let ok = ref true in
        for i = 0 to size - 1 do
          let xi = x.(i) in
          let xn = xi +. (alpha *. (s.(i) -. xi)) in
          x_new.(i) <- xn;
          if i < n_nodes then begin
            let dx = Float.abs (xn -. xi) in
            if dx > abstol +. (reltol *. Float.abs xn) then ok := false
          end
        done;
        converged := !ok
      end
      else
        for i = 0 to size - 1 do
          let xi = x.(i) in
          x_new.(i) <- xi +. (alpha *. (s.(i) -. xi))
        done;
      cur := x_new;
      nxt := x
    done;
    if !converged then Some !cur else None
  end

(* The config-major engine behind {!Evaluator.batched_fault_sensitivities}:
   for each fault (impact override) the system is restamped and factored
   ONCE — a numeric-only pattern replay on the sparse backend — and every
   probe column of every parameter point solves against that held
   factorization, in one blocked triangular panel on sparse
   ({!Numerics.Smat.solve_block}) or a sequential [ws_solve_into] sweep
   on dense.  Each column's converged operating point is then recovered
   by the exact damping replay above, so results are bitwise identical
   to walking {!compiled_observables} pair by pair.  A fault whose
   factorization is singular, or whose damping walk does not converge,
   leaves [None] cells for the caller's verbatim sequential fallback. *)
let compiled_batch_over_faults ?(profile = default_profile) c ~impacts ~points =
  match c.c_config.Test_config.analysis with
  | Test_config.Tran_thd _ | Test_config.Tran_samples _ | Test_config.Tran_imd _
  | Test_config.Noise_psd _ | Test_config.Ac_gain _ ->
      None
  | Test_config.Dc_levels waves ->
      let nonlinear =
        List.exists
          (function Device.Mosfet _ -> true | _ -> false)
          (Netlist.devices (Mna.netlist c.c_topo.t_plan))
      in
      if nonlinear then None
      else begin
        Array.iter (check_values c.c_config) points;
        let { t_target = target; t_plan = plan; t_ws = ws } = c.c_topo in
        let source = target.stimulus_source in
        let wave_rows = Array.map (fun v -> Array.of_list (waves v)) points in
        Array.iter
          (Array.iter (fun w ->
               match Waveform.validate w with
               | Ok () -> ()
               | Error e ->
                   invalid_arg (Printf.sprintf "Netlist.add: %s: %s" source e)))
          wave_rows;
        let np = Array.length points in
        let offsets = Array.make (Int.max 1 np) 0 in
        let total = ref 0 in
        Array.iteri
          (fun p row ->
            offsets.(p) <- !total;
            total := !total + Array.length row)
          wave_rows;
        let m = !total in
        let n = Mna.size plan in
        let n_nodes = Mna.n_nodes plan in
        let options = profile.dc_options in
        let gmin = options.Dc.gmin in
        let x0 = Numerics.Vec.create n 0. in
        let obs_row = Mna.node_index plan target.observe_node in
        let n_impacts = Array.length impacts in
        let out = Array.init n_impacts (fun _ -> Array.make np None) in
        let panels = ref 0 in
        if m > 0 && n_impacts > 0 then begin
          let sbuf = Numerics.Vec.create n 0. in
          let xa = Numerics.Vec.create n 0. in
          let xb = Numerics.Vec.create n 0. in
          let assemble impact p l =
            Mna.assemble_into plan ws ~x:x0 ~time:`Dc
              ~restamp:
                { Mna.stimulus = Some (source, wave_rows.(p).(l)); impact }
              ~gmin ()
          in
          (* Replay every column of this fault against the held
             factorization; a point whose columns all converge yields its
             observable vector, anything else stays [None]. *)
          let replay_points solve_col =
            Array.init np (fun p ->
                let levels = Array.length wave_rows.(p) in
                let obs = Array.make levels 0. in
                let ok = ref true in
                for l = 0 to levels - 1 do
                  if !ok then begin
                    solve_col (offsets.(p) + l);
                    match replay_damped ~options ~n_nodes ~s:sbuf xa xb with
                    | Some x ->
                        obs.(l) <-
                          (match obs_row with Some r -> x.(r) | None -> 0.)
                    | None -> ok := false
                  end
                done;
                if !ok then Some obs else None)
          in
          match Mna.ws_sparse_lu ws with
          | Some slu ->
              let b =
                Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout n m
              in
              let xs =
                Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout n m
              in
              Array.iteri
                (fun fi impact ->
                  for p = 0 to np - 1 do
                    for l = 0 to Array.length wave_rows.(p) - 1 do
                      assemble impact p l;
                      let k = offsets.(p) + l in
                      for i = 0 to n - 1 do
                        b.{i, k} <- ws.Mna.w_z.(i)
                      done
                    done
                  done;
                  match Mna.ws_factor ws with
                  | (_ : bool) ->
                      Numerics.Smat.solve_block slu ~b ~x:xs;
                      incr panels;
                      out.(fi) <-
                        replay_points (fun k ->
                            for i = 0 to n - 1 do
                              sbuf.(i) <- xs.{i, k}
                            done)
                  | exception Numerics.Mat.Singular _ ->
                      (* the sequential path escalates to its stepping
                         ladders here: leave the row to the fallback *)
                      ())
                impacts
          | None ->
              let zs = Array.init m (fun _ -> Numerics.Vec.create n 0.) in
              Array.iteri
                (fun fi impact ->
                  for p = 0 to np - 1 do
                    for l = 0 to Array.length wave_rows.(p) - 1 do
                      assemble impact p l;
                      Array.blit ws.Mna.w_z 0 zs.(offsets.(p) + l) 0 n
                    done
                  done;
                  match Mna.ws_factor ws with
                  | (_ : bool) ->
                      incr panels;
                      out.(fi) <-
                        replay_points (fun k ->
                            Mna.ws_solve_into ws zs.(k) sbuf)
                  | exception Numerics.Mat.Singular _ -> ())
                impacts
        end;
        Some { fb_obs = out; fb_panels = !panels }
      end

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
