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

let engine_run executor =
  Engine.run ~executor ~evaluators:[ evaluator () ] full_dictionary

let sequential_run = lazy (engine_run Engine.sequential)

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

(* The same differential over a pool of two domains: the engine run uses
   the parallel executor, and the probes are re-measured on two domains,
   each through its own fork of one evaluator — compiled plans are
   domain-private, so neither may disturb the bits. *)
let test_differential_pool () =
  let run = engine_run (Parallel.executor ~jobs:2) in
  Alcotest.(check string) "pool run = sequential run"
    (Session.to_string (Lazy.force sequential_run).Engine.results)
    (Session.to_string run.Engine.results);
  let probes = all_probes run in
  let parent = evaluator () in
  let engine = Array.make (Array.length probes) (Error "unset") in
  Parallel.fan_out ~jobs:2
    ~make_ctx:(fun () -> Evaluator.fork parent)
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
        Fp.with_failpoints ~seed specs (fun () -> reference_probe p)
      in
      let engine = Fp.with_failpoints ~seed specs (fun () -> engine_probe ev p) in
      if Result.is_error reference then incr failed;
      check_probe (probe_label p) reference engine)
    (all_probes (Lazy.force sequential_run));
  Alcotest.(check bool) "injection failed some probes" true (!failed > 0)

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
      ( "decimation",
        [
          Alcotest.test_case "grid length and endpoints" `Quick
            test_decimation_grid;
          Alcotest.test_case "values match explicit fine grid" `Quick
            test_decimation_values;
        ] );
    ]
