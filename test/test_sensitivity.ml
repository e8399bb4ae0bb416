(* Unit tests for the sensitivity cost function: pinned values for a
   hand-solved resistive divider with a bridge fault, sign/monotonicity
   properties of the paper's S_f(T) = 1 - |delta r|/box, and the
   minimum over several return values. *)

open Testgen

let approx = Alcotest.float 1e-12

let config_of ?(levels = 1) returns names =
  Test_config.create ~id:77 ~name:"sensitivity unit" ~macro_type:"unit"
    ~control_node:"in"
    ~params:
      [
        Test_param.create ~name:"p" ~units:"V" ~lower:0. ~upper:1. ~seed:0.5;
      ]
    ~analysis:
      (Test_config.Dc_levels
         (fun v -> List.init levels (fun _ -> Circuit.Waveform.Dc v.(0))))
    ~returns ~return_names:names
    ~accuracy_floor:(List.map (fun _ -> 1e-3) names)
    ~summary:"sensitivity unit fixture"

let one_return = config_of Test_config.Per_component [ "V(out)" ]

(* -------------------------------------------------- basic algebra *)

let test_of_deviation () =
  Alcotest.check approx "zero deviation costs 1" 1.
    (Sensitivity.of_deviation ~deviation:0. ~box:0.1);
  Alcotest.check approx "deviation at the box edge costs 0" 0.
    (Sensitivity.of_deviation ~deviation:0.1 ~box:0.1);
  Alcotest.check approx "twice the box costs -1" (-1.)
    (Sensitivity.of_deviation ~deviation:0.2 ~box:0.1);
  Alcotest.check approx "sign of the deviation is irrelevant"
    (Sensitivity.of_deviation ~deviation:0.07 ~box:0.1)
    (Sensitivity.of_deviation ~deviation:(-0.07) ~box:0.1);
  Alcotest.check_raises "non-positive box rejected"
    (Invalid_argument "Sensitivity.of_deviation: box <= 0")
    (fun () -> ignore (Sensitivity.of_deviation ~deviation:0.1 ~box:0.))

let test_combine_and_detects () =
  Alcotest.check approx "combine takes the minimum" (-0.25)
    (Sensitivity.combine [| 0.9; -0.25; 0.1 |]);
  Alcotest.(check bool) "negative sensitivity detects" true
    (Sensitivity.detects (-1e-9));
  Alcotest.(check bool) "zero sensitivity does not detect" false
    (Sensitivity.detects 0.);
  Alcotest.(check bool) "positive sensitivity does not detect" false
    (Sensitivity.detects 0.4)

(* ------------------------------------------- hand-solved divider *)

(* Resistive divider vin -R1- vout -R2- gnd driven at V, with a bridge
   of rf ohms across R2: vout = V * (R2 || rf) / (R1 + (R2 || rf)).
   Everything solvable on paper — the pinned values below come from
   V = 5, R1 = R2 = 10k. *)
let divider_vout ~rf =
  let v = 5. and r1 = 10e3 and r2 = 10e3 in
  let r2' = if Float.is_finite rf then r2 *. rf /. (r2 +. rf) else r2 in
  v *. r2' /. (r1 +. r2')

let test_divider_pinned () =
  let nominal = divider_vout ~rf:infinity in
  Alcotest.check approx "nominal divider voltage" 2.5 nominal;
  (* rf = 10k makes R2' = 5k: vout = 5 * 5/15 = 5/3, deviation -5/6 *)
  let faulty = divider_vout ~rf:10e3 in
  Alcotest.check approx "faulty divider voltage" (5. /. 3.) faulty;
  let s =
    Sensitivity.compute one_return ~box:[| 0.1 |] ~nominal:[| nominal |]
      ~faulty:[| faulty |]
  in
  Alcotest.check approx "S = 1 - (5/6)/0.1"
    (1. -. (5. /. 6. /. 0.1))
    s;
  Alcotest.(check bool) "well outside the box: detected" true
    (Sensitivity.detects s);
  (* a 1 MOhm bridge barely moves the divider: inside a 0.1 V box *)
  let soft =
    Sensitivity.compute one_return ~box:[| 0.1 |] ~nominal:[| nominal |]
      ~faulty:[| divider_vout ~rf:1e6 |]
  in
  Alcotest.(check bool) "soft fault stays undetected" false
    (Sensitivity.detects soft)

(* Intensifying the bridge (smaller rf) monotonically lowers the
   divider sensitivity; weakening it drives S toward 1. *)
let test_divider_monotone () =
  let nominal = divider_vout ~rf:infinity in
  let s_at rf =
    Sensitivity.compute one_return ~box:[| 0.1 |] ~nominal:[| nominal |]
      ~faulty:[| divider_vout ~rf |]
  in
  let ladder = [ 1e6; 300e3; 100e3; 30e3; 10e3; 3e3; 1e3 ] in
  let values = List.map s_at ladder in
  List.iter2
    (fun (weaker, stronger) rf ->
      Alcotest.(check bool)
        (Printf.sprintf "S strictly decreases through rf = %g" rf)
        true (stronger < weaker))
    (List.combine
       (List.filteri (fun i _ -> i < List.length values - 1) values)
       (List.tl values))
    (List.tl ladder);
  Alcotest.(check bool) "S approaches 1 from below as rf grows" true
    (let s = s_at 1e9 in
     s < 1. && s > 1. -. 1e-3)

let test_multi_return_minimum () =
  let config =
    config_of ~levels:2 Test_config.Per_component [ "a"; "b" ]
  in
  let s =
    Sensitivity.compute config ~box:[| 0.1; 0.1 |] ~nominal:[| 1.; 2. |]
      ~faulty:[| 1.05; 2.3 |]
  in
  (* component sensitivities are 0.5 and -2: the worse one wins *)
  Alcotest.check approx "minimum over return values" (-2.) s

let () =
  Alcotest.run "sensitivity"
    [
      ( "algebra",
        [
          Alcotest.test_case "of_deviation" `Quick test_of_deviation;
          Alcotest.test_case "combine and detects" `Quick
            test_combine_and_detects;
        ] );
      ( "divider",
        [
          Alcotest.test_case "pinned hand-solved values" `Quick
            test_divider_pinned;
          Alcotest.test_case "impact monotonicity" `Quick
            test_divider_monotone;
          Alcotest.test_case "multi-return minimum" `Quick
            test_multi_return_minimum;
        ] );
    ]
