(* Compiled hot-path parity: the compile-once/restamp-many execution
   path must reproduce the rebuild-per-probe reference
   ({!Direct_oracle}) bit for bit — per-arm observables, calibrated
   tolerance boxes, and every probe the engine makes over the full IV
   dictionary, with and without failure injection — plus the dt_divisor
   decimation contract. *)

open Testgen
module Fp = Numerics.Failpoint

let iv_target =
  Experiments.Setup.target_of_macro Macros.Iv_converter.macro
    Macros.Process.nominal

let bits = Array.map Int64.bits_of_float

let check_bitwise msg expected got =
  Alcotest.(check (array int64)) msg (bits expected) (bits got)

let bridge = Faults.Fault.bridge "n1" "vout" ~resistance:10e3
let pinhole = Faults.Fault.pinhole "m6" ~r_shunt:2e3

let injected fault =
  {
    iv_target with
    Execute.netlist = Faults.Inject.apply iv_target.Execute.netlist fault;
  }

(* ------------------------------------------------- observables parity *)

(* Every analysis arm (DC levels, THD, step train, IMD, noise, AC), on
   the nominal topology and on a bridge and a pinhole topology: the
   compiled plan must reproduce the direct per-probe rebuild bitwise. *)
let test_observables_parity () =
  let profile = Execute.fast_profile in
  List.iter
    (fun config ->
      let values = Test_param.seeds_of config.Test_config.params in
      let check_target label target impact =
        let direct = Direct_oracle.observables ~profile config target values in
        let compiled =
          Execute.compiled_observables ~profile ?impact
            (Execute.topology target) config values
        in
        check_bitwise
          (Printf.sprintf "config %d %s" config.Test_config.config_id label)
          direct compiled
      in
      check_target "nominal" iv_target None;
      check_target "bridge" (injected bridge)
        (Some (Faults.Inject.impact_override bridge));
      check_target "pinhole" (injected pinhole)
        (Some (Faults.Inject.impact_override pinhole)))
    Experiments.Iv_configs.all

(* One plan per fault site, restamped per impact: a plan compiled from
   the 10k bridge answers queries for the 3k bridge through the impact
   override alone, still matching a direct run that injects 3k afresh. *)
let test_impact_restamp_parity () =
  let config = Experiments.Iv_configs.config1 in
  let values = Test_param.seeds_of config.Test_config.params in
  let plan = Execute.topology (injected bridge) in
  List.iter
    (fun ohms ->
      let variant = Faults.Fault.with_impact bridge ohms in
      let direct = Direct_oracle.observables config (injected variant) values in
      let compiled =
        Execute.compiled_observables
          ~impact:(Faults.Inject.impact_override variant)
          plan config values
      in
      check_bitwise (Printf.sprintf "bridge at %g ohm" ohms) direct compiled)
    [ 10e3; 3e3; 330.; 1e6 ]

(* The impact override must also reach the small-signal and noise
   stamps, where the resistor appears both in the system matrix and as a
   thermal-noise source. *)
let test_impact_reaches_noise_and_ac () =
  let values fault config =
    let v = Test_param.seeds_of config.Test_config.params in
    let direct = Direct_oracle.observables config (injected fault) v in
    let compiled =
      Execute.compiled_observables
        ~impact:(Faults.Inject.impact_override fault)
        (Execute.topology (injected fault))
        config v
    in
    (direct, compiled)
  in
  List.iter
    (fun config ->
      List.iter
        (fun fault ->
          let direct, compiled = values fault config in
          check_bitwise
            (Printf.sprintf "config %d, fault %s" config.Test_config.config_id
               (Faults.Fault.id fault))
            direct compiled)
        [ bridge; Faults.Fault.with_impact bridge 470.; pinhole ])
    [ Experiments.Iv_configs.config1 ]

(* ------------------------------------------------- calibration parity *)

(* Calibration restamps one compiled plan per process point across the
   lattice: every lattice box must equal, bit for bit, the box built from
   rebuild-per-probe observables — the guardbanded maximum corner
   deviation, floored.  The floors are zeroed, so no simulated bit hides
   under the tester accuracy, and each of the three corners is the
   maximum somewhere (res+ at config #1's upper level, all+ on the
   transients, all- at #2's second level and #5's last point). *)
let test_calibration_parity () =
  let profile = Execute.fast_profile and guardband = 1.25 in
  let corners =
    List.filter
      (fun p -> List.mem p.Macros.Process.label [ "res+"; "all+"; "all-" ])
      (Macros.Process.corners ())
    |> List.map (Experiments.Setup.target_of_macro Macros.Iv_converter.macro)
  in
  Alcotest.(check int) "three corners" 3 (List.length corners);
  List.iter
    (fun config ->
      let config =
        {
          config with
          Test_config.accuracy_floor =
            List.map (fun _ -> 0.) config.Test_config.accuracy_floor;
        }
      in
      let t =
        Tolerance.calibrate ~profile ~grid:2 ~guardband config
          ~nominal:iv_target ~corners ()
      in
      List.iteri
        (fun i values ->
          let nominal = Direct_oracle.observables ~profile config iv_target values in
          let devs = Array.make (Test_config.return_count config) [] in
          List.iter
            (fun corner ->
              match Direct_oracle.observables ~profile config corner values with
              | obs ->
                  Array.iteri
                    (fun r d -> devs.(r) <- Float.abs d :: devs.(r))
                    (Execute.deviations config ~nominal ~faulty:obs)
              | exception Execute.Execution_failure _ -> ())
            corners;
          let want =
            Array.map
              (fun ds ->
                Float.max
                  (guardband *. Numerics.Stats.max_abs (Array.of_list ds))
                  0.)
              devs
          in
          check_bitwise
            (Printf.sprintf "config %d, lattice point %d"
               config.Test_config.config_id i)
            want (Tolerance.box t values))
        (Tolerance.lattice_points t))
    Experiments.Iv_configs.all

(* ---------------------------------------------- per-probe differential *)

(* The engine measures every probe through {!Evaluator.faulty_observables}
   (one compiled plan per fault site, the impact restamped as a value);
   the reference is {!Direct_oracle.observables} on the fault-injected netlist,
   rebuilt per probe.  For every fault of the full IV dictionary the two
   must agree bit for bit at the probes the engine makes: the seed point,
   each candidate's optimized parameters, and the winning parameters at
   the critical (or strongest) impact. *)

let full_dictionary = Macros.Macro.dictionary Macros.Iv_converter.macro
let config = Experiments.Iv_configs.config1

let evaluator () =
  Evaluator.create config ~nominal:iv_target
    ~box_model:(Tolerance.floor_only config)

let engine_run jobs =
  Engine.run ~jobs ~evaluators:[ evaluator () ] full_dictionary

let sequential_run = lazy (engine_run 1)

let probes_of (r : Generate.result) =
  let f = r.Generate.dictionary_fault in
  let boundary =
    match r.Generate.outcome with
    | Generate.Unique { params; critical_impact; _ } ->
        (Faults.Fault.with_impact f critical_impact, params)
    | Generate.Undetectable { params; strongest_impact; _ } ->
        (Faults.Fault.with_impact f strongest_impact, params)
  in
  ((f, Test_param.seeds_of config.Test_config.params)
   :: List.map (fun c -> (f, c.Generate.cand_params)) r.Generate.candidates)
  @ [ boundary ]

let all_probes (run : Engine.run) =
  Array.of_list (List.concat_map probes_of run.Engine.results)

let measure f =
  match f () with
  | obs -> Ok (bits obs)
  | exception Execute.Execution_failure m -> Error m

let reference_probe (fault, values) =
  measure (fun () -> Direct_oracle.observables config (injected fault) values)

let engine_probe ev (fault, values) =
  measure (fun () -> Evaluator.faulty_observables ev fault values)

let probe_label (fault, values) =
  Printf.sprintf "%s (%h ohm) at %s" (Faults.Fault.id fault)
    (Faults.Fault.impact_resistance fault)
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") values)))

let check_probe label reference engine =
  Alcotest.(check (result (array int64) string)) label reference engine

let test_differential_sequential () =
  let run = Lazy.force sequential_run in
  Alcotest.(check int) "whole dictionary simulated"
    (Faults.Dictionary.size full_dictionary)
    (List.length run.Engine.results);
  let ev = evaluator () in
  Array.iter
    (fun p -> check_probe (probe_label p) (reference_probe p) (engine_probe ev p))
    (all_probes run)

(* The same differential over a pool of two domains: the engine run fans
   out over two domains, and the probes are re-measured on two domains,
   each through its own fork of one evaluator — compiled plans are
   domain-private, so neither may disturb the bits. *)
let test_differential_pool () =
  let run = engine_run 2 in
  Alcotest.(check string) "pool run = sequential run"
    (Session.to_string (Lazy.force sequential_run).Engine.results)
    (Session.to_string run.Engine.results);
  let probes = all_probes run in
  let parent = evaluator () in
  let engine = Array.make (Array.length probes) (Error "unset") in
  Parallel.fan_out ~jobs:2
    ~make_ctx:(fun () -> List.hd (Evaluator.fork [ parent ]))
    ~f:(fun ev i -> engine_probe ev probes.(i))
    ~emit:(fun i r -> engine.(i) <- r)
    (Array.length probes);
  Array.iteri
    (fun i p -> check_probe (probe_label p) (reference_probe p) engine.(i))
    probes

(* Under probabilistic failure injection both paths must draw the same
   failpoint sequence per probe (same solve count, same Newton iteration
   counts), so every probe fails or succeeds identically. *)
let test_differential_injected () =
  let specs =
    [
      { Fp.point = "dc.no_convergence"; probability = 0.35; max_triggers = None };
      { Fp.point = "execute.observables"; probability = 0.05; max_triggers = None };
    ]
  in
  let ev = evaluator () in
  let failed = ref 0 in
  Array.iteri
    (fun i p ->
      let seed = Int64.of_int (23 + i) in
      let reference =
        Fp.with_config ~seed specs (fun () -> reference_probe p)
      in
      let engine = Fp.with_config ~seed specs (fun () -> engine_probe ev p) in
      if Result.is_error reference then incr failed;
      check_probe (probe_label p) reference engine)
    (all_probes (Lazy.force sequential_run));
  Alcotest.(check bool) "injection failed some probes" true (!failed > 0)

(* ------------------------------------------------ transient goldens *)

(* Bit patterns of the transient configurations, recorded before the
   step loop was made allocation-free (the IV rows re-recorded when each
   step's Newton began starting from the extrapolated solution); any
   reordering of the transient arithmetic changes them.  Each row is (case, length, MD5 of the
   little-endian [Int64.bits_of_float] of every value, bits of the last
   value).  The IV netlist has no inductor and runs backward Euler only,
   so an RLC fixture pins the inductor and trapezoidal companions. *)

let digest values =
  let b = Buffer.create (8 * Array.length values) in
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) values;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_golden (label, len, md5, last) values =
  let n = Array.length values in
  Alcotest.(check int) (label ^ " length") len n;
  Alcotest.(check int64) (label ^ " last value") last
    (Int64.bits_of_float values.(n - 1));
  Alcotest.(check string) (label ^ " digest") md5 (digest values)

let check_goldens goldens got =
  Alcotest.(check int) "case count" (List.length goldens) (List.length got);
  List.iter2
    (fun ((label, _, _, _) as golden) (label', values) ->
      Alcotest.(check string) "case order" label label';
      check_golden golden values)
    goldens got

let iv_goldens =
  [
    ("config3/p0/nominal", 1, "60ab307ce04569c2ed56736dc96321ef", 4553190419911539711L);
    ("config3/p0/bridge", 1, "c17f8e0e9f4b6139d57ce58e242e5d35", 4611868731606040686L);
    ("config3/p0/pinhole", 1, "2f33756239b3a5f66eb22839c0ab64d4", 4611996336580389483L);
    ("config3/p1/nominal", 1, "dfff93262100c5fc572b65aaea175c8a", 4566849439370052780L);
    ("config3/p1/bridge", 1, "a5832d25351b0edb0c893dadbbf0c80b", 4613062560273413631L);
    ("config3/p1/pinhole", 1, "dc34dc8a333510f0d3dc94012400cbd0", 4613690474869027172L);
    ("config4/p0/nominal", 751, "f12d73bb94e2833b6e742aa030ece548", 4611686517852432083L);
    ("config4/p0/bridge", 751, "132105b541caa41a6dab7ae2d9b0a5cb", 4613925268275510953L);
    ("config4/p0/pinhole", 751, "47647f03eaf8360a277eae5cd5b39b68", 4586638563423296728L);
    ("config4/p1/nominal", 751, "c8042703e3407a7a599ec36dd160fce9", 4610027852816563095L);
    ("config4/p1/bridge", 751, "de5eb8fce5b507a6c5d0a1cc5cf92c8e", 4613972581418055030L);
    ("config4/p1/pinhole", 751, "18afb8bc0be3dca519bac8ead10e77a7", 4591098430862222177L);
    ("config5/p0/nominal", 751, "240ff8f8992714683b712537c259daa3", 4611083702484125967L);
    ("config5/p0/bridge", 751, "5cb8ee91d9e2d18831bb91fbff1e651f", 4613947688632361073L);
    ("config5/p0/pinhole", 751, "8a441c600f90500bbd6d7a096994dbe2", 4589408387695641632L);
    ("config5/p1/nominal", 751, "84764d2777768394af97931e456fbb6d", 4612364279447056587L);
    ("config5/p1/bridge", 751, "a6e4583e1ac07f63c4d04a55cf8fcac8", 4613895104186608933L);
    ("config5/p1/pinhole", 751, "20e1a509b914ac43821e1e70ed142908", 4580550684651417770L);
  ]

let rlc_goldens =
  [
    ("rlc/be/a", 501, "4b310a5f154f0e1fe362a9a2ccab7a61", 4602126758221741320L);
    ("rlc/be/b", 501, "c86d290760914d9f8d6ab6cf81c702bc", -4611364513359841473L);
    ("rlc/trap/a", 501, "932c557bfc9a58c1171c6eb09887d03f", 4601949870474137000L);
    ("rlc/trap/b", 501, "3f63d6da89dc9d22f26f7950823d58e7", -4610207603670832289L);
  ]

let golden_points =
  let ua = 1e-6 in
  [
    (3, [ [| 20. *. ua; 10e3 |]; [| 35. *. ua; 50e3 |] ]);
    (4, [ [| 25. *. ua |]; [| 45. *. ua |] ]);
    (5, [ [| 10. *. ua; 25. *. ua |]; [| -30. *. ua; 40. *. ua |] ]);
  ]

let test_iv_transient_goldens () =
  let bridge = Faults.Fault.bridge "n1" "n2" ~resistance:5e3 in
  let targets =
    [
      ("nominal", iv_target, None);
      ("bridge", injected bridge, Some (Faults.Inject.impact_override bridge));
      ("pinhole", injected pinhole, Some (Faults.Inject.impact_override pinhole));
    ]
  in
  let got =
    List.concat_map
      (fun (id, points) ->
        let config = Experiments.Iv_configs.by_id id in
        List.concat
          (List.mapi
             (fun p values ->
               List.map
                 (fun (label, target, impact) ->
                   ( Printf.sprintf "config%d/p%d/%s" id p label,
                     Execute.compiled_observables ?impact
                       (Execute.topology target) config values ))
                 targets)
             points))
      golden_points
  in
  check_goldens iv_goldens got

let rlc_system () =
  let open Circuit in
  Mna.build
    (Netlist.add_all (Netlist.empty ~title:"rlc")
       [
         Device.Vsource
           {
             name = "v";
             plus = "in";
             minus = "0";
             wave = Waveform.Sine { offset = 0.5; ampl = 1.; freq = 5e3; phase = 0. };
           };
         Device.Resistor { name = "r1"; a = "in"; b = "a"; ohms = 10. };
         Device.Inductor { name = "l1"; a = "a"; b = "b"; henries = 1e-3 };
         Device.Capacitor { name = "c1"; a = "b"; b = "0"; farads = 1e-6 };
       ])

let test_rlc_transient_goldens () =
  let sys = rlc_system () in
  let got =
    List.concat_map
      (fun (label, method_) ->
        let r =
          Circuit.Tran.simulate ~method_ sys ~tstop:1e-3 ~dt:2e-6
            ~observe:[ "a"; "b" ]
        in
        [
          (label ^ "/a", Circuit.Tran.probe_values r "a");
          (label ^ "/b", Circuit.Tran.probe_values r "b");
        ])
      [ ("rlc/be", Circuit.Tran.Backward_euler); ("rlc/trap", Circuit.Tran.Trapezoidal) ]
  in
  check_goldens rlc_goldens got

(* ------------------------------------------------ allocation bounds *)

(* The transient step is allocation-free down to the stamping kernel:
   these bounds pin it so a boxed float or a closure creeping back into
   the loop fails a test instead of slowing the paper's workload
   silently. *)

let minor_words_per_call ~calls f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let test_assembly_allocation () =
  let sys =
    Circuit.Mna.build (Macros.Macro.nominal_netlist Macros.Iv_converter.macro)
  in
  Alcotest.(check string) "IV runs dense" "dense"
    (Circuit.Mna.backend_name (Circuit.Mna.backend sys));
  let ws = Circuit.Mna.workspace sys in
  let x = (Circuit.Dc.solve sys ~time:`Dc).Circuit.Dc.solution in
  let assemble () =
    Circuit.Mna.assemble_into sys ws ~x ~time:`Dc ~gmin:1e-12 ()
  in
  let words = minor_words_per_call ~calls:1000 assemble in
  Printf.printf "assemble_into: %.3f minor words per call\n" words;
  if words >= 1. then
    Alcotest.failf "assemble_into allocates %.2f words per call" words;
  let factor () = ignore (Circuit.Mna.ws_factor ws : bool) in
  let words = minor_words_per_call ~calls:1000 factor in
  Printf.printf "ws_factor: %.3f minor words per call\n" words;
  if words >= 1. then
    Alcotest.failf "ws_factor allocates %.2f words per call" words

(* Step-response configuration #4 on the nominal IV-converter: 750 steps
   at 100 MHz, through a compiled plan's workspace as the engine runs
   it.  What remains per step is the solve report, its solution vector,
   the time and guess wrappers and the recursion's float arguments:
   about 57 words.  Boxing the stamped float again (a non-inlined
   [sink_add]) costs 122 words per assembly and ~460 per step. *)
let words_per_step_bound = 100.

let test_transient_allocation () =
  let nl =
    Execute.with_stimulus iv_target.Execute.netlist
      ~source:iv_target.Execute.stimulus_source
      (Circuit.Waveform.Step
         { base = 0.; elev = 25e-6; delay = 100e-9; rise = 10e-9 })
  in
  let sys = Circuit.Mna.build nl in
  let ws = Circuit.Mna.workspace sys in
  let steps = 750 in
  let simulate () =
    ignore
      (Circuit.Tran.simulate ~workspace:ws sys ~tstop:7.5e-6 ~dt:1e-8
         ~observe:[ iv_target.Execute.observe_node ])
  in
  let words = minor_words_per_call ~calls:3 simulate /. float_of_int steps in
  Printf.printf "transient: %.1f minor words per step\n" words;
  if words >= words_per_step_bound then
    Alcotest.failf "transient allocates %.1f words per step (bound %.0f)" words
      words_per_step_bound

(* One optimizer probe of the DC-levels configuration #1 at its seed
   values through one compiled plan, as the engine makes it: about 313
   minor words (311 in the release profile), the solve reports and
   result records.  The rebuild-per-probe [Direct_oracle.observables] of the
   same probe allocates about 4,100, so a netlist rewrite or a matrix
   allocation creeping back into the compiled probe fails this bound. *)
let words_per_probe_bound = 500.

let test_probe_allocation () =
  let config = Experiments.Iv_configs.config1 in
  let plan = Execute.topology iv_target in
  let values = Test_param.seeds_of config.Test_config.params in
  let probe () =
    ignore
      (Execute.compiled_observables ~profile:Execute.fast_profile plan config
         values)
  in
  let words = minor_words_per_call ~calls:100 probe in
  Printf.printf "config #1 probe: %.1f minor words\n" words;
  if words >= words_per_probe_bound then
    Alcotest.failf "config #1 probe allocates %.1f words (bound %.0f)" words
      words_per_probe_bound

(* --------------------------------------------- dt_divisor decimation *)

(* Step-train configuration with an awkward tstop/dt ratio: the product
   test_time * sample_rate is not exactly representable, so the grid
   reconstruction must round, not truncate. *)
let decimation_config ~sample_rate ~test_time =
  Test_config.create ~id:99 ~name:"decimation probe"
    ~macro_type:"IV-converter" ~control_node:"Iin"
    ~params:
      [
        Test_param.create ~name:"elev" ~units:"A" ~lower:5e-6 ~upper:50e-6
          ~seed:25e-6;
      ]
    ~analysis:
      (Test_config.Tran_samples
         {
           stimulus =
             (fun v ->
               Circuit.Waveform.Step
                 { base = 0.; elev = v.(0); delay = 2e-7; rise = 1e-7 });
           sample_rate;
           test_time;
         })
    ~returns:Test_config.Max_abs_delta
    ~return_names:[ "Max_k |dV(Vout,t_k)|" ]
    ~accuracy_floor:[ 2e-3 ]
    ~summary:"decimation regression probe"

let test_decimation_grid () =
  List.iter
    (fun (sample_rate, test_time) ->
      let config = decimation_config ~sample_rate ~test_time in
      let values = Test_param.seeds_of config.Test_config.params in
      let with_divisor k =
        let profile = { Execute.default_profile with dt_divisor = k } in
        Execute.compiled_observables ~profile (Execute.topology iv_target)
          config values
      in
      let reference = with_divisor 1 in
      let expected_len =
        1 + int_of_float (Float.round (test_time *. sample_rate))
      in
      Alcotest.(check int)
        (Printf.sprintf "k=1 grid length at %g Hz x %g s" sample_rate test_time)
        expected_len (Array.length reference);
      List.iter
        (fun k ->
          let decimated = with_divisor k in
          Alcotest.(check int)
            (Printf.sprintf "k=%d grid length" k)
            (Array.length reference) (Array.length decimated);
          (* the t=0 sample is the DC operating point: independent of
             the integration step, so bitwise equal across divisors *)
          Alcotest.(check int64)
            (Printf.sprintf "k=%d initial sample" k)
            (Int64.bits_of_float reference.(0))
            (Int64.bits_of_float decimated.(0));
          (* endpoint alignment: with an exact divisor relationship the
             final decimated sample is the fine grid's final sample, at
             t = tstop *)
          Alcotest.(check bool)
            (Printf.sprintf "k=%d endpoint finite" k)
            true
            (Float.is_finite decimated.(Array.length decimated - 1)))
        [ 2; 3; 5 ])
    [ (100e6, 7.5e-6); (3.3e6, 1e-5); (7e6, 3e-6) ]

(* The decimated grid must agree sample-for-sample with an explicit
   fine-grid simulation read at every k-th point (the same subdivided
   step the profile induces, [dt /. k]). *)
let test_decimation_values () =
  let sample_rate = 3.3e6 and test_time = 1e-5 in
  let config = decimation_config ~sample_rate ~test_time in
  let values = Test_param.seeds_of config.Test_config.params in
  let k = 3 in
  let profile = { Execute.default_profile with dt_divisor = k } in
  let decimated =
    Execute.compiled_observables ~profile (Execute.topology iv_target)
      config values
  in
  let wave =
    Circuit.Waveform.Step
      { base = 0.; elev = values.(0); delay = 2e-7; rise = 1e-7 }
  in
  let nl =
    Execute.with_stimulus iv_target.Execute.netlist
      ~source:iv_target.Execute.stimulus_source wave
  in
  let sys = Circuit.Mna.build nl in
  let dt = 1. /. sample_rate in
  let result =
    Circuit.Tran.simulate ~options:Circuit.Dc.default_options sys
      ~tstop:test_time
      ~dt:(dt /. float_of_int k)
      ~observe:[ iv_target.Execute.observe_node ]
  in
  let fine = Circuit.Tran.probe_values result iv_target.Execute.observe_node in
  Alcotest.(check bool) "decimation drops samples" true
    (Array.length decimated < Array.length fine);
  Array.iteri
    (fun i coarse ->
      let j = Int.min (i * k) (Array.length fine - 1) in
      Alcotest.(check int64)
        (Printf.sprintf "sample %d" i)
        (Int64.bits_of_float fine.(j))
        (Int64.bits_of_float coarse))
    decimated

(* ------------------------------------------------ shared topologies *)

(* The evaluators of one context share one compiled topology per fault
   site: across every configuration the plan cache misses once per
   distinct site plus once for the nominal netlist, and sensitivities
   from configurations interleaved on the shared workspaces equal, bit
   for bit, those of evaluators with private plans — probe by probe and
   through sweeps.  Forks of the set share one fresh table the same way. *)

(* [f ()] with tracing on (counters count only then), and how far it
   moved each named counter *)
let counting names f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.shutdown (fun () ->
      let v = f () in
      let counters = Obs.counters () in
      ( v,
        List.map
          (fun n -> Option.value ~default:0 (List.assoc_opt n counters))
          names ))

(* [f ()] and the plan-cache misses it caused *)
let counting_misses f =
  match counting [ "evaluator.plan_cache.misses" ] f with
  | v, [ misses ] -> (v, misses)
  | _ -> assert false

let sensitivity_bits (s, dev) = (Int64.bits_of_float s, Array.to_list (bits dev))

let check_shared_topology ~profile ~nominal ~backend configs faults =
  Alcotest.(check string) "backend chosen for the netlist"
    (Circuit.Mna.backend_name backend)
    (Circuit.Mna.backend_name
       (Circuit.Mna.backend (Circuit.Mna.build nominal.Execute.netlist)));
  let boxed = List.map (fun c -> (c, Tolerance.floor_only c)) configs in
  let points config =
    let lo, _ = Test_param.bounds_of config.Test_config.params in
    [ Test_param.seeds_of config.Test_config.params; lo ]
  in
  let sites =
    List.length (List.sort_uniq String.compare (List.map Faults.Fault.id faults))
  in
  (* every fault visits the configurations forwards, then backwards, so
     consecutive probes hop between configurations on one workspace *)
  let n = List.length configs in
  let order = List.init n Fun.id @ List.rev (List.init n Fun.id) in
  let probes =
    List.concat_map
      (fun fault ->
        List.concat_map
          (fun k -> List.map (fun p -> (k, fault, p)) (points (List.nth configs k)))
          order)
      faults
  in
  let measure evs =
    let sequential =
      List.map
        (fun (k, fault, p) ->
          sensitivity_bits
            (Evaluator.sensitivity_and_deviation (List.nth evs k) fault p))
        probes
    in
    (* then configuration by configuration, every fault at every point *)
    let config_major =
      List.map
        (fun ev ->
          List.map
            (fun fault ->
              List.map
                (fun p ->
                  sensitivity_bits
                    (Evaluator.sensitivity_and_deviation ev fault p))
                (points (Evaluator.config ev)))
            faults)
        evs
    in
    (sequential, config_major)
  in
  let shared = Evaluator.create_all ~profile ~nominal boxed in
  let (got, got_config_major), misses =
    counting_misses (fun () -> measure shared)
  in
  Alcotest.(check int) "plan-cache misses = fault sites + nominal" (sites + 1)
    misses;
  let want, want_config_major =
    measure
      (List.map
         (fun (config, box_model) ->
           Evaluator.create ~profile config ~nominal ~box_model)
         boxed)
  in
  List.iteri
    (fun i ((k, fault, _), (g, w)) ->
      Alcotest.(check (pair int64 (list int64)))
        (Printf.sprintf "probe %d, config #%d, %s: shared = private" i
           (List.nth configs k).Test_config.config_id (Faults.Fault.id fault))
        w g)
    (List.combine probes (List.combine got want));
  Alcotest.(check bool) "config-major pass: shared = private" true
    (got_config_major = want_config_major);
  (* the upper bounds are a point no nominal cache holds yet *)
  let forks = Evaluator.fork shared in
  let (), misses =
    counting_misses (fun () ->
        List.iter
          (fun ev ->
            let _, hi = Test_param.bounds_of (Evaluator.config ev).Test_config.params in
            ignore (Evaluator.sensitivity ev (List.hd faults) hi))
          forks)
  in
  Alcotest.(check int) "forked set compiles one site and the nominal once" 2
    misses

(* dense: the paper's five configurations, DC levels and transients *)
let test_shared_topology_iv () =
  check_shared_topology ~profile:Execute.fast_profile ~nominal:iv_target
    ~backend:Circuit.Mna.Dense Experiments.Iv_configs.all
    [ bridge; Faults.Fault.with_impact bridge 3e3; pinhole ]

(* sparse: rc48's probe context, a linear plan holding its factorization *)
let test_shared_topology_rc48 () =
  let macro =
    match Macros.Registry.find "rc48" with Ok m -> m | Error e -> failwith e
  in
  let ctx = Experiments.Setup.probe ~macro () in
  let faults =
    List.filteri (fun i _ -> i < 4)
      (List.map
         (fun e -> e.Faults.Dictionary.fault)
         (Faults.Dictionary.entries ctx.Experiments.Setup.dictionary))
  in
  check_shared_topology ~profile:ctx.Experiments.Setup.profile
    ~nominal:(Experiments.Setup.target_of_macro macro Macros.Process.nominal)
    ~backend:Circuit.Mna.Sparse ctx.Experiments.Setup.configs
    (faults @ [ Faults.Fault.weaken (List.hd faults) ~factor:4. ])

(* Released sites compile again, to the same bits: after
   [Evaluator.release_sites], and after an engine run, which releases the
   caller's sites before its workers start, every fault site misses once
   more and the nominal (kept, and answered from the nominal cache)
   never does. *)
let test_release_sites () =
  let macro =
    match Macros.Registry.find "rc48" with Ok m -> m | Error e -> failwith e
  in
  let ctx = Experiments.Setup.reduced (Experiments.Setup.probe ~macro ()) ~n_faults:3 in
  let evs = ctx.Experiments.Setup.evaluators in
  let faults =
    List.map
      (fun e -> e.Faults.Dictionary.fault)
      (Faults.Dictionary.entries ctx.Experiments.Setup.dictionary)
  in
  let measure () =
    List.concat_map
      (fun ev ->
        let p = Test_param.seeds_of (Evaluator.config ev).Test_config.params in
        List.map
          (fun f -> sensitivity_bits (Evaluator.sensitivity_and_deviation ev f p))
          faults)
      evs
  in
  let first, misses = counting_misses measure in
  Alcotest.(check int) "first pass: sites + nominal" 4 misses;
  Evaluator.release_sites evs;
  let again, misses = counting_misses measure in
  Alcotest.(check int) "after release_sites: sites only" 3 misses;
  Alcotest.(check bool) "after release_sites: same bits" true (again = first);
  ignore
    (Experiments.Runs.engine_run ~jobs:1 ~options:Experiments.Setup.probe_options
       ctx);
  let after_run, misses = counting_misses measure in
  Alcotest.(check int) "after an engine run: sites only" 3 misses;
  Alcotest.(check bool) "after an engine run: same bits" true (after_run = first)

(* ------------------------------------------ operating-point memo *)

let report_bits (r : Circuit.Dc.report) =
  ( Array.to_list (bits r.Circuit.Dc.solution),
    [ r.Circuit.Dc.newton_iterations; r.Circuit.Dc.gmin_steps;
      r.Circuit.Dc.source_steps ] )

let report_testable =
  Alcotest.(pair (list int64) (list int))

let iv_system () =
  Circuit.Mna.build (Macros.Macro.nominal_netlist Macros.Iv_converter.macro)

(* A repeated operating point is answered from the workspace: the same
   report bit for bit as a fresh solve on a workspace of its own, in a
   solution vector of its own, for each of the last two inputs. *)
let test_memo_hits_are_fresh_solves () =
  let sys = iv_system () in
  let ws = Circuit.Mna.workspace sys in
  let restamp amps =
    {
      Circuit.Mna.stimulus =
        Some (iv_target.Execute.stimulus_source, Circuit.Waveform.Dc amps);
      impact = None;
    }
  in
  let solve ?workspace amps =
    Circuit.Dc.solve ?workspace ~restamp:(restamp amps) sys ~time:`Dc
  in
  let (second, third, again), counts =
    counting [ "solver.dc.op_memo_hits"; "solver.dc.solves" ] (fun () ->
        let first = solve ~workspace:ws 20e-6 in
        let second = solve ~workspace:ws (-15e-6) in
        (* the older of the two entries *)
        let third = solve ~workspace:ws 20e-6 in
        first.Circuit.Dc.solution.(0) <- Float.nan;
        let again = solve ~workspace:ws 20e-6 in
        (second, third, again))
  in
  Alcotest.(check (list int)) "two solves, two hits" [ 2; 2 ] counts;
  Alcotest.(check bool) "a hit returns a vector of its own" true
    (third.Circuit.Dc.solution != again.Circuit.Dc.solution);
  let fresh amps = report_bits (solve amps) in
  Alcotest.check report_testable "hit = fresh solve" (fresh 20e-6)
    (report_bits third);
  Alcotest.check report_testable "hit after the caller's write = fresh solve"
    (fresh 20e-6) (report_bits again);
  Alcotest.check report_testable "second input = fresh solve" (fresh (-15e-6))
    (report_bits second)

(* A failed operating point is remembered too: the repeat re-raises the
   same message without running the solver again. *)
let test_memo_failures () =
  let sys = iv_system () in
  let ws = Circuit.Mna.workspace sys in
  let options = { Circuit.Dc.default_options with max_newton = 1 } in
  let message () =
    match Circuit.Dc.solve ~options ~workspace:ws sys ~time:`Dc with
    | _ -> Alcotest.fail "one Newton iteration converged"
    | exception Circuit.Dc.No_convergence m -> m
  in
  let (first, second), counts =
    counting
      [ "solver.dc.failures"; "solver.dc.op_memo_hits"; "solver.dc.budget_exhausted" ]
      (fun () ->
        let first = message () in
        (first, message ()))
  in
  Alcotest.(check string) "same message" first second;
  (* the plain attempt and the first gmin stage run out the budget of
     one iteration; the chain breaks there, and so does source stepping *)
  Alcotest.(check (list int)) "one failure, one hit, budget-exhausted attempts"
    [ 1; 1; 3 ] counts

(* The escalated view of an evaluator shares its compiled plans, and
   with them the workspaces; its options differ, so it must never be
   answered by an entry the base options made. *)
let test_memo_keys_options () =
  let config = Experiments.Iv_configs.by_id 4 in
  let ev =
    Evaluator.create ~profile:Execute.fast_profile config ~nominal:iv_target
      ~box_model:(Tolerance.floor_only config)
  in
  let rung = List.hd Resilience.default_policy.Resilience.ladder in
  let escalated =
    Evaluator.with_profile ev (Resilience.escalate rung Execute.fast_profile)
  in
  let values = Test_param.seeds_of config.Test_config.params in
  let probe ev () = ignore (Evaluator.faulty_observables ev bridge values) in
  let (), base = counting [ "solver.dc.op_memo_hits" ] (fun () -> probe ev (); probe ev ()) in
  Alcotest.(check (list int)) "base repeat hits" [ 1 ] base;
  let (), esc = counting [ "solver.dc.op_memo_hits" ] (probe escalated) in
  Alcotest.(check (list int)) "escalated never hits a base entry" [ 0 ] esc;
  let direct =
    Direct_oracle.observables ~profile:(Evaluator.profile escalated) config
      (injected bridge) values
  in
  check_bitwise "escalated = direct"
    direct (Evaluator.faulty_observables escalated bridge values)

(* Under an active failure-injection config the memo is bypassed: a hit
   would skip the solve's failpoint queries. *)
let test_memo_bypassed_under_injection () =
  let sys = iv_system () in
  let ws = Circuit.Mna.workspace sys in
  let specs =
    [ { Fp.point = "dc.singular"; probability = 0.; max_triggers = None } ]
  in
  let (), counts =
    counting [ "solver.dc.op_memo_hits"; "solver.dc.solves" ] (fun () ->
        Fp.with_config ~seed:1L specs (fun () ->
            for _ = 1 to 3 do
              ignore (Circuit.Dc.solve ~workspace:ws sys ~time:`Dc)
            done))
  in
  Alcotest.(check (list int)) "no hits, three solves" [ 0; 3 ] counts

(* ---------------------------------------------------- linear plans *)

(* On a linear plan a Newton attempt assembles and factors its system
   once and walks the damped update toward that one solve, so the
   factorization counter grows by at most one per attempt however many
   iterations the walk takes: a plain operating point of rc16 counts
   one.  The workspace holds the factorization, and a step whose matrix
   is bit-equal to the held one factors nothing.  A transient's step
   [h = t_next - t_prev] does not keep its bits from step to step, nor
   its companions theirs, so 201 solves (the [t = 0] point and 200
   steps) factor 120 times.  The nonlinear IV
   plan still factors every iteration. *)
let dc_counters =
  [ "solver.dc.solves"; "solver.dc.newton_iterations";
    "solver.dc.lu_factorizations"; "solver.dc.gmin_steps";
    "solver.dc.budget_exhausted" ]

let test_linear_factors_once_per_attempt () =
  let macro = Macros.Rc_ladder.macro ~sections:16 in
  let rc16 wave =
    Circuit.Mna.build
      (Execute.with_stimulus
         (Macros.Macro.nominal_netlist macro)
         ~source:macro.Macros.Macro.stimulus_source wave)
  in
  let sys = rc16 (Circuit.Waveform.Dc 2.) in
  Alcotest.(check bool) "rc16 is linear" true (Circuit.Mna.linear sys);
  Alcotest.(check bool) "iv is not" false (Circuit.Mna.linear (iv_system ()));
  let r, counts = counting dc_counters (fun () -> Circuit.Dc.solve sys ~time:`Dc) in
  Alcotest.(check bool) "the walk takes several iterations" true
    (r.Circuit.Dc.newton_iterations > 1);
  Alcotest.(check (list int)) "one solve, one attempt, one factorization"
    [ 1; r.Circuit.Dc.newton_iterations; 1; 0; 0 ] counts;
  let step =
    rc16 (Circuit.Waveform.Step { base = 0.; elev = 2.; delay = 1e-6; rise = 0. })
  in
  let (_ : Circuit.Tran.result), counts =
    counting dc_counters (fun () ->
        Circuit.Tran.simulate step ~tstop:2e-5 ~dt:1e-7 ~observe:[ "out" ])
  in
  (match counts with
  | [ solves; newton; lu; gmin; exhausted ] ->
      Alcotest.(check (list int)) "every attempt converged first time" [ 0; 0 ]
        [ gmin; exhausted ];
      Alcotest.(check (pair int int)) "solves, factorizations" (201, 120)
        (solves, lu);
      Alcotest.(check bool) "fewer factorizations than iterations" true
        (lu < newton)
  | _ -> assert false);
  let _, counts =
    counting dc_counters (fun () -> Circuit.Dc.solve (iv_system ()) ~time:`Dc)
  in
  match counts with
  | [ _; newton; lu; _; _ ] ->
      Alcotest.(check int) "iv: one factorization per iteration" newton lu
  | _ -> assert false

(* -------------------------------------------- observation buffers *)

(* A step-train simulation writes into its plan's buffer; every array
   an evaluator hands out is the caller's own all the same. *)
let test_observables_owned () =
  let config = Experiments.Iv_configs.by_id 4 in
  let ev =
    Evaluator.create ~profile:Execute.fast_profile config ~nominal:iv_target
      ~box_model:(Tolerance.floor_only config)
  in
  let lo, hi = Test_param.bounds_of config.Test_config.params in
  let a = Evaluator.faulty_observables ev bridge lo in
  let a_bits = bits a in
  let b = Evaluator.faulty_observables ev bridge hi in
  Alcotest.(check bool) "two results, two arrays" true (a != b);
  check_bitwise "first result keeps its values" (Array.map Int64.float_of_bits a_bits) a;
  Alcotest.(check bool) "the results differ" true (bits a <> bits b);
  let n = Evaluator.nominal_observables ev lo in
  let n_bits = bits n in
  ignore (Evaluator.nominal_observables ev hi);
  ignore (Evaluator.sensitivity ev bridge hi);
  check_bitwise "nominal entry survives later nominal simulations"
    (Array.map Int64.float_of_bits n_bits) n;
  check_bitwise "nominal entry = direct"
    (Direct_oracle.observables ~profile:Execute.fast_profile config iv_target lo)
    n

let () =
  Alcotest.run "hotpath"
    [
      ( "observables",
        [
          Alcotest.test_case "all arms, nominal + faults" `Quick
            test_observables_parity;
          Alcotest.test_case "impact restamp reuses one plan" `Quick
            test_impact_restamp_parity;
          Alcotest.test_case "impact reaches noise and AC" `Quick
            test_impact_reaches_noise_and_ac;
          Alcotest.test_case "calibrated lattice boxes" `Quick
            test_calibration_parity;
        ] );
      ( "engine",
        [
          Alcotest.test_case "full dictionary, sequential" `Quick
            test_differential_sequential;
          Alcotest.test_case "compiled pool vs direct reference" `Quick
            test_differential_pool;
          Alcotest.test_case "under failure injection" `Quick
            test_differential_injected;
        ] );
      ( "shared topology",
        [
          Alcotest.test_case "iv, dense" `Quick test_shared_topology_iv;
          Alcotest.test_case "rc48, sparse" `Quick test_shared_topology_rc48;
          Alcotest.test_case "released sites recompile" `Quick
            test_release_sites;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "IV configs #3-#5 bit patterns" `Quick
            test_iv_transient_goldens;
          Alcotest.test_case "RLC backward Euler and trapezoidal" `Quick
            test_rlc_transient_goldens;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "assembly and factorization" `Quick
            test_assembly_allocation;
          Alcotest.test_case "transient words per step" `Quick
            test_transient_allocation;
          Alcotest.test_case "compiled probe words" `Quick
            test_probe_allocation;
        ] );
      ( "op memo",
        [
          Alcotest.test_case "hits equal fresh solves" `Quick
            test_memo_hits_are_fresh_solves;
          Alcotest.test_case "failures re-raise" `Quick test_memo_failures;
          Alcotest.test_case "escalated options never hit" `Quick
            test_memo_keys_options;
          Alcotest.test_case "bypassed under injection" `Quick
            test_memo_bypassed_under_injection;
        ] );
      ( "linear plans",
        [
          Alcotest.test_case "one factorization per attempt" `Quick
            test_linear_factors_once_per_attempt;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "observables are the caller's own" `Quick
            test_observables_owned;
        ] );
      ( "decimation",
        [
          Alcotest.test_case "grid length and endpoints" `Quick
            test_decimation_grid;
          Alcotest.test_case "values match explicit fine grid" `Quick
            test_decimation_values;
        ] );
    ]
