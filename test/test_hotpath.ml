(* Compiled hot-path parity: the compile-once/restamp-many execution
   path must reproduce the direct build-per-probe path bit for bit —
   per-arm observables, and every probe the engine makes over the full
   IV dictionary, with and without failure injection — plus the
   dt_divisor decimation contract. *)

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
        let direct = Execute.observables ~profile config target values in
        let compiled =
          Execute.compiled_observables ~profile ?impact
            (Execute.compile config target)
            values
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
  let plan = Execute.compile config (injected bridge) in
  List.iter
    (fun ohms ->
      let variant = Faults.Fault.with_impact bridge ohms in
      let direct = Execute.observables config (injected variant) values in
      let compiled =
        Execute.compiled_observables
          ~impact:(Faults.Inject.impact_override variant)
          plan values
      in
      check_bitwise (Printf.sprintf "bridge at %g ohm" ohms) direct compiled)
    [ 10e3; 3e3; 330.; 1e6 ]

(* The impact override must also reach the small-signal and noise
   stamps, where the resistor appears both in the system matrix and as a
   thermal-noise source. *)
let test_impact_reaches_noise_and_ac () =
  let values fault config =
    let v = Test_param.seeds_of config.Test_config.params in
    let direct = Execute.observables config (injected fault) v in
    let compiled =
      Execute.compiled_observables
        ~impact:(Faults.Inject.impact_override fault)
        (Execute.compile config (injected fault))
        v
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

(* ---------------------------------------------- per-probe differential *)

(* The engine measures every probe through {!Evaluator.faulty_observables}
   (one compiled plan per fault site, the impact restamped as a value);
   the reference is {!Execute.observables} on the fault-injected netlist,
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
  measure (fun () -> Execute.observables config (injected fault) values)

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
   step loop was made allocation-free; any reordering of the transient
   arithmetic changes them.  Each row is (case, length, MD5 of the
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
    ("config3/p0/nominal", 1, "cc6b92bcfcef2c97fc979f7683cbbfb0", 4553190419870777869L);
    ("config3/p0/bridge", 1, "8c37111258a8c0b6f9f0f4e60bad77e8", 4611868731638199734L);
    ("config3/p0/pinhole", 1, "f25ab1a52fd8f21493da6f8ef0e8ef53", 4611996336580386913L);
    ("config3/p1/nominal", 1, "f6d853478ffb40aef5a5af8e18df57a6", 4566849439417570488L);
    ("config3/p1/bridge", 1, "4f7c7ee3bca416af75adc28eb0d0f087", 4613062560326309790L);
    ("config3/p1/pinhole", 1, "6b2621cc164ae2bd337bea73cb19c119", 4613690474869005101L);
    ("config4/p0/nominal", 751, "e1dc2263bce1db14e63c7c9dc1e0f397", 4611686517852426685L);
    ("config4/p0/bridge", 751, "4cf97465e201844994547610923d7a0a", 4613925268275510474L);
    ("config4/p0/pinhole", 751, "1312943d703aa9b8a025f62cc063f75f", 4586638563423296729L);
    ("config4/p1/nominal", 751, "a1020de5e6ace18f4427d92548fb59df", 4610027852816265725L);
    ("config4/p1/bridge", 751, "db178552d7c634e221bd079ff1a4db8f", 4613972581418055363L);
    ("config4/p1/pinhole", 751, "2251059e6a9136aef1b161ac1538e24f", 4591098430862222179L);
    ("config5/p0/nominal", 751, "3e3395464406d73ace1b77545ff308ec", 4611083702484175254L);
    ("config5/p0/bridge", 751, "d461ee97b2b4851e8a986e3d537b7e6e", 4613947688632360955L);
    ("config5/p0/pinhole", 751, "78b0a0a19672aba3d47d10e18a592567", 4589408387695641630L);
    ("config5/p1/nominal", 751, "e449ddc29bfb02f456881dac8ff1b2c9", 4612364279447045988L);
    ("config5/p1/bridge", 751, "364a0227288dfdafe7e391485a7d574e", 4613895104186608866L);
    ("config5/p1/pinhole", 751, "bce488f0bb41c94a92b7d0ea67780776", 4580550684651417770L);
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
                       (Execute.compile config target)
                       values ))
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
   result records.  The rebuild-per-probe [Execute.observables] of the
   same probe allocates about 4,100, so a netlist rewrite or a matrix
   allocation creeping back into the compiled probe fails this bound. *)
let words_per_probe_bound = 500.

let test_probe_allocation () =
  let config = Experiments.Iv_configs.config1 in
  let plan = Execute.compile config iv_target in
  let values = Test_param.seeds_of config.Test_config.params in
  let probe () =
    ignore
      (Execute.compiled_observables ~profile:Execute.fast_profile plan values)
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
        Execute.observables ~profile config iv_target values
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
  let decimated = Execute.observables ~profile config iv_target values in
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
   for bit, those of evaluators with private plans — sequential and
   batched.  Forks of the set share one fresh table the same way. *)

(* [f ()] with tracing on (plan-cache counters count only then), and
   the plan-cache misses it caused *)
let counting_misses f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.shutdown (fun () ->
      let v = f () in
      ( v,
        Option.value ~default:0
          (List.assoc_opt "evaluator.plan_cache.misses" (Obs.counters ())) ))

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
    let batched =
      List.map
        (fun ev ->
          Evaluator.batched_fault_sensitivities ev ~faults:(Array.of_list faults)
            ~points:(Array.of_list (points (Evaluator.config ev)))
          |> Option.map (Array.map (Array.map sensitivity_bits)))
        evs
    in
    (sequential, batched)
  in
  let shared = Evaluator.create_all ~profile ~nominal boxed in
  let (got, got_batched), misses = counting_misses (fun () -> measure shared) in
  Alcotest.(check int) "plan-cache misses = fault sites + nominal" (sites + 1)
    misses;
  let want, want_batched =
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
  Alcotest.(check bool) "batched cells: shared = private" true
    (got_batched = want_batched);
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

(* sparse: rc48's probe context, where the batch engine also runs *)
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
      ( "decimation",
        [
          Alcotest.test_case "grid length and endpoints" `Quick
            test_decimation_grid;
          Alcotest.test_case "values match explicit fine grid" `Quick
            test_decimation_values;
        ] );
    ]
