(* Tests for session persistence, the quality estimator and DC sweeps. *)

open Testgen

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs b)

let check_float ?eps msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%.9g vs %.9g)" msg a b) true
    (feq ?eps a b)

(* ---------------------------------------------------------------- session *)

let sample_results =
  [
    {
      Generate.fault_id = "bridge:a-b";
      dictionary_fault = Faults.Fault.bridge "a" "b" ~resistance:10e3;
      candidates =
        [
          {
            Generate.cand_config_id = 1;
            cand_params = [| 1.25e-5 |];
            low_impact_sensitivity = -3.5;
            optimizer_evaluations = 42;
          };
          {
            Generate.cand_config_id = 2;
            cand_params = [| -2e-6; 1e-5 |];
            low_impact_sensitivity = 0.25;
            optimizer_evaluations = 77;
          };
        ];
      outcome =
        Generate.Unique
          {
            config_id = 1;
            params = [| 1.25e-5 |];
            critical_impact = 123456.789;
            dictionary_sensitivity = -12.5;
          };
      trace =
        [
          { Generate.impact = 10e3; detecting = [ 1; 2 ] };
          { Generate.impact = 20e3; detecting = [ 1 ] };
          { Generate.impact = 40e3; detecting = [] };
        ];
    };
    {
      Generate.fault_id = "pinhole:m3";
      dictionary_fault = Faults.Fault.pinhole "m3" ~r_shunt:2e3;
      candidates = [];
      outcome =
        Generate.Undetectable
          {
            most_sensitive_config = 2;
            params = [| 0.; 5e-6 |];
            best_sensitivity = 0.75;
            strongest_impact = 10.;
          };
      trace = [];
    };
  ]

let results_equal (a : Generate.result) (b : Generate.result) =
  a.Generate.fault_id = b.Generate.fault_id
  && a.Generate.dictionary_fault = b.Generate.dictionary_fault
  && a.Generate.candidates = b.Generate.candidates
  && a.Generate.outcome = b.Generate.outcome
  && a.Generate.trace = b.Generate.trace

let test_session_roundtrip () =
  let text = Session.to_string sample_results in
  match Session.of_string text with
  | Error m -> Alcotest.fail m
  | Ok loaded ->
      Alcotest.(check int) "count" 2 (List.length loaded);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) (a.Generate.fault_id ^ " roundtrips") true
            (results_equal a b))
        sample_results loaded

let test_session_file_roundtrip () =
  let path = Filename.temp_file "atpg" ".session" in
  (match Session.save ~path sample_results with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Session.load ~path with
  | Ok loaded -> Alcotest.(check int) "count" 2 (List.length loaded)
  | Error m -> Alcotest.fail m);
  Sys.remove path

let test_session_errors () =
  (match Session.of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty accepted");
  (match Session.of_string "atpg-session 99\n" with
  | Error m ->
      Alcotest.(check bool) "version message" true
        (String.length m > 0)
  | Ok _ -> Alcotest.fail "bad version accepted");
  (match Session.of_string "atpg-session 1\ncandidate 1 2 3 | 4\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "orphan line accepted");
  match Session.of_string "atpg-session 1\nresult x\nfault bridge a b 1\nend\n" with
  | Error _ -> ()  (* missing outcome *)
  | Ok _ -> Alcotest.fail "missing outcome accepted"

let prop_session_roundtrip =
  QCheck.Test.make ~name:"session roundtrip on random results" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 9)) in
      let u lo hi = Numerics.Rng.uniform rng ~lo ~hi in
      let vec n = Array.init n (fun _ -> u (-1e-3) 1e-3) in
      let fault =
        if Numerics.Rng.int rng ~bound:2 = 0 then
          Faults.Fault.bridge "na" "nb" ~resistance:(u 1. 1e6)
        else Faults.Fault.pinhole "mx" ~r_shunt:(u 1. 1e6)
      in
      let outcome =
        if Numerics.Rng.int rng ~bound:2 = 0 then
          Generate.Unique
            {
              config_id = 1 + Numerics.Rng.int rng ~bound:5;
              params = vec (1 + Numerics.Rng.int rng ~bound:2);
              critical_impact = u 1. 1e7;
              dictionary_sensitivity = u (-1e3) 1.;
            }
        else
          Generate.Undetectable
            {
              most_sensitive_config = 1 + Numerics.Rng.int rng ~bound:5;
              params = vec (1 + Numerics.Rng.int rng ~bound:2);
              best_sensitivity = u 0. 1.;
              strongest_impact = u 1. 1e4;
            }
      in
      let r =
        {
          Generate.fault_id = Faults.Fault.id fault;
          dictionary_fault = fault;
          candidates =
            List.init (Numerics.Rng.int rng ~bound:3) (fun i ->
                {
                  Generate.cand_config_id = i + 1;
                  cand_params = vec 2;
                  low_impact_sensitivity = u (-10.) 1.;
                  optimizer_evaluations = Numerics.Rng.int rng ~bound:500;
                });
          outcome;
          trace =
            List.init (Numerics.Rng.int rng ~bound:4) (fun _ ->
                {
                  Generate.impact = u 1. 1e6;
                  detecting =
                    List.init (Numerics.Rng.int rng ~bound:3) (fun i -> i + 1);
                });
        }
      in
      match Session.of_string (Session.to_string [ r ]) with
      | Ok [ loaded ] -> results_equal r loaded
      | Ok _ | Error _ -> false)

(* ------------------------------------------------------------- corruption *)

(* Every corruption mode a mid-write kill or bit rot can leave behind
   must fail the strict loader with a diagnostic naming the damage, and
   the lenient loader must recover exactly the trailer-verified prefix. *)

let with_file text f =
  let path = Filename.temp_file "atpg-corrupt" ".session" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      f path)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec at i = i + ln <= lh && (String.equal (String.sub hay i ln) needle || at (i + 1)) in
  at 0

let check_load_fails ~mode text ~diag =
  with_file text (fun path ->
      match Session.load ~path with
      | Ok _ -> Alcotest.fail (mode ^ ": strict load accepted corrupt file")
      | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: diagnostic %S mentions %S" mode m diag)
            true (contains m diag))

let check_salvage ~mode text expected_count =
  with_file text (fun path ->
      match Session.load_partial ~path with
      | Error m -> Alcotest.fail (Printf.sprintf "%s: salvage failed: %s" mode m)
      | Ok rs ->
          Alcotest.(check int)
            (mode ^ ": salvaged block count")
            expected_count (List.length rs))

let checkpoint_text = lazy (Session.to_checkpoint_string sample_results)
let one_block_text = lazy (Session.to_checkpoint_string [ List.hd sample_results ])

let test_corrupt_zero_length () =
  check_load_fails ~mode:"zero-length" "" ~diag:"empty";
  (* a zero-length file holds zero trustworthy blocks, not an error *)
  check_salvage ~mode:"zero-length" "" 0

let test_corrupt_bad_header () =
  check_load_fails ~mode:"bad version" "atpg-session 99\n" ~diag:"version";
  check_load_fails ~mode:"not a session" "totally not a session\n"
    ~diag:"not an atpg session"

let test_corrupt_truncated_mid_block () =
  let full = Lazy.force checkpoint_text in
  let one = Lazy.force one_block_text in
  (* kill landed while block 2's payload was being written: nothing after
     block 1's trailer can be trusted *)
  let torn = String.sub full 0 (String.length one + 25) in
  check_load_fails ~mode:"truncated" torn ~diag:"torn checkpoint";
  check_salvage ~mode:"truncated" torn 1

let test_corrupt_torn_trailer () =
  let full = Lazy.force checkpoint_text in
  (* kill landed inside the final trailer line itself *)
  let torn = String.sub full 0 (String.length full - 4) in
  check_load_fails ~mode:"torn trailer" torn ~diag:"torn checkpoint trailer";
  check_salvage ~mode:"torn trailer" torn 1

let test_corrupt_flipped_byte () =
  let full = Lazy.force checkpoint_text in
  let one = Lazy.force one_block_text in
  let b = Bytes.of_string full in
  (* flip a byte inside block 2's payload: the trailer's CRC must catch it *)
  let pos = String.length one + 10 in
  Bytes.set b pos (if Bytes.get b pos = 'x' then 'y' else 'x');
  let corrupt = Bytes.to_string b in
  check_load_fails ~mode:"flipped byte" corrupt ~diag:"checksum mismatch";
  check_salvage ~mode:"flipped byte" corrupt 1

let test_corrupt_length_mismatch () =
  let full = Lazy.force checkpoint_text in
  (* corrupt the length field of the last block's trailer: same digit
     count, so every byte offset is preserved and only the recorded
     length disagrees with the block *)
  let d = String.rindex full '#' + 4 in
  let b = Bytes.of_string full in
  Bytes.set b d (if Bytes.get b d = '9' then '8' else '9');
  let corrupt = Bytes.to_string b in
  check_load_fails ~mode:"length mismatch" corrupt ~diag:"mismatch";
  check_salvage ~mode:"length mismatch" corrupt 1

let test_checkpoint_text_loads_as_session () =
  (* trailers are comments to the plain parser: a checkpoint file is a
     valid session file with identical content *)
  match Session.of_string (Lazy.force checkpoint_text) with
  | Error m -> Alcotest.fail m
  | Ok loaded ->
      Alcotest.(check int) "both blocks" 2 (List.length loaded);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) (a.Generate.fault_id ^ " roundtrips") true
            (results_equal a b))
        sample_results loaded

(* ------------------------------------------------------------------- diff *)

(* [sample_results] with the first fault's outcome replaced. *)
let with_outcome outcome =
  match sample_results with
  | r :: rest -> { r with Generate.outcome } :: rest
  | [] -> assert false

let unique ?(config_id = 1) ?(critical_impact = 123456.789)
    ?(dictionary_sensitivity = -12.5) () =
  Generate.Unique
    { config_id; params = [| 1.25e-5 |]; critical_impact; dictionary_sensitivity }

let contains text sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length text && (String.sub text i n = sub || at (i + 1))
  in
  at 0

let check_diff label d ~ok ~moves ~flips ~missing ~changed =
  Alcotest.(check (list int))
    (label ^ ": moves, flips, missing, changed")
    [ moves; flips; missing; changed ]
    [
      d.Session.winner_moves;
      d.Session.flips;
      d.Session.missing;
      List.length d.Session.changes;
    ];
  Alcotest.(check bool) (label ^ ": ok") ok (Session.diff_ok d)

let test_diff_self () =
  let d = Session.diff sample_results sample_results in
  check_diff "self" d ~ok:true ~moves:0 ~flips:0 ~missing:0 ~changed:0;
  Alcotest.(check (pair int int)) "agreeing / faults" (2, 2)
    (d.Session.agreeing, d.Session.faults);
  Alcotest.(check bool) "summary reads compat 1.000" true
    (contains (Session.render_diff d) "verdicts: compat 1.000 (2/2)")

let test_diff_winner_move () =
  let d = Session.diff sample_results (with_outcome (unique ~config_id:2 ())) in
  check_diff "winner" d ~ok:false ~moves:1 ~flips:0 ~missing:0 ~changed:1;
  let text = Session.render_diff d in
  Alcotest.(check bool) "names the fault and the move" true
    (contains text "bridge:a-b" && contains text "WINNER MOVED")

let test_diff_flip () =
  let d =
    Session.diff sample_results
      (with_outcome
         (Generate.Undetectable
            {
              most_sensitive_config = 1;
              params = [| 1.25e-5 |];
              best_sensitivity = 0.5;
              strongest_impact = 10.;
            }))
  in
  check_diff "flip" d ~ok:false ~moves:0 ~flips:1 ~missing:0 ~changed:1;
  Alcotest.(check bool) "reported" true
    (contains (Session.render_diff d) "FLIP")

let test_diff_missing () =
  let d = Session.diff sample_results [ List.hd sample_results ] in
  check_diff "missing" d ~ok:false ~moves:0 ~flips:0 ~missing:1 ~changed:1;
  Alcotest.(check bool) "reported" true
    (contains (Session.render_diff d) "pinhole:m3")

(* Critical-impact ratios inside the bisection's resolution pass, larger
   ones fail; a sensitivity sign change is reported but passes. *)
let test_diff_ratio () =
  let near = Session.diff sample_results
      (with_outcome (unique ~critical_impact:(123456.789 *. 1.05) ())) in
  check_diff "ratio 1.05" near ~ok:true ~moves:0 ~flips:0 ~missing:0 ~changed:1;
  check_float "worst ratio" near.Session.worst_ratio 1.05;
  let far = Session.diff sample_results
      (with_outcome (unique ~critical_impact:(123456.789 /. 1.2) ())) in
  check_diff "ratio 1.2" far ~ok:false ~moves:0 ~flips:0 ~missing:0 ~changed:1;
  Alcotest.(check (option string)) "worst fault" (Some "bridge:a-b")
    far.Session.worst_fault;
  let flipped_sign = Session.diff sample_results
      (with_outcome (unique ~dictionary_sensitivity:3. ())) in
  check_diff "sign" flipped_sign ~ok:true ~moves:0 ~flips:0 ~missing:0
    ~changed:1;
  Alcotest.(check bool) "sign reported" true
    (contains (Session.render_diff flipped_sign) "SIGN CHANGED")

(* ---------------------------------------------------------------- quality *)

let iv_target =
  Experiments.Setup.target_of_macro Macros.Iv_converter.macro
    Macros.Process.nominal

let corner_targets =
  List.map
    (Experiments.Setup.target_of_macro Macros.Iv_converter.macro)
    [
      { Macros.Process.nominal with Macros.Process.label = "res+"; dres = 0.15 };
      { Macros.Process.nominal with Macros.Process.label = "res-"; dres = -0.15 };
    ]

let quality_evaluator =
  lazy
    (Evaluator.create Experiments.Iv_configs.config1 ~nominal:iv_target
       ~box_model:
         (Tolerance.calibrate Experiments.Iv_configs.config1
            ~nominal:iv_target ~corners:corner_targets ~grid:2 ()))

let quality_tests =
  [
    { Coverage.test_label = "t1"; test_config_id = 1; test_params = [| 25e-6 |] };
  ]

let test_quality_estimate () =
  let rng = Numerics.Rng.create 77L in
  let fault_free =
    List.map
      (Experiments.Setup.target_of_macro Macros.Iv_converter.macro)
      (Macros.Process.monte_carlo rng ~n:20)
  in
  let dict =
    Faults.Dictionary.of_faults
      [
        Faults.Fault.bridge "n1" "vout" ~resistance:10e3;  (* detected *)
        Faults.Fault.bridge "0" "vdd" ~resistance:10e3;  (* escapes *)
      ]
  in
  let e =
    Quality.estimate
      ~evaluators:[ Lazy.force quality_evaluator ]
      ~tests:quality_tests ~fault_free ~dictionary:dict ()
  in
  Alcotest.(check int) "samples" 20 e.Quality.fault_free_samples;
  (* the calibrated box contains 3-sigma MC samples almost surely *)
  Alcotest.(check bool)
    (Printf.sprintf "low overkill (%.2f)" e.Quality.overkill_rate)
    true
    (e.Quality.overkill_rate <= 0.15);
  check_float "escape = half of uniform weight" 0.5 e.Quality.escape_rate;
  Alcotest.(check bool) "margin positive" true (e.Quality.worst_sample_margin > 0.);
  (* bit patterns recorded when each sample was still rebuilt per probe:
     scoring through one compiled topology per sample moves neither *)
  Alcotest.(check int64) "worst margin bits" 4599690581138420120L
    (Int64.bits_of_float e.Quality.worst_sample_margin);
  Alcotest.(check int64) "overkill bits" 0L
    (Int64.bits_of_float e.Quality.overkill_rate)

let test_quality_weighted_escape () =
  let dict =
    Faults.Dictionary.of_faults
      [
        Faults.Fault.bridge "n1" "vout" ~resistance:10e3;
        Faults.Fault.bridge "0" "vdd" ~resistance:10e3;
      ]
  in
  let e =
    Quality.estimate
      ~evaluators:[ Lazy.force quality_evaluator ]
      ~tests:quality_tests ~fault_free:[ iv_target ] ~dictionary:dict
      ~weights:[ ("bridge:n1-vout", 9.); ("bridge:0-vdd", 1.) ]
      ()
  in
  check_float ~eps:1e-6 "weighted escape" 0.1 e.Quality.escape_rate

let test_quality_report_string () =
  let e =
    {
      Quality.overkill_rate = 0.01;
      escape_rate = 0.05;
      fault_free_samples = 100;
      worst_sample_margin = 0.8;
    }
  in
  let s = Quality.report e in
  Alcotest.(check bool) "mentions overkill" true
    (String.length s > 0 && String.index_opt s '%' <> None)

(* ------------------------------------------------------------------ sweep *)

let test_linspace () =
  let xs = Circuit.Sweep.linspace ~lo:0. ~hi:1. ~points:5 in
  Alcotest.(check (array (float 1e-12))) "grid" [| 0.; 0.25; 0.5; 0.75; 1. |] xs

let test_dc_transfer_iv () =
  let nl = Macros.Macro.nominal_netlist Macros.Iv_converter.macro in
  let sweep_values = Circuit.Sweep.linspace ~lo:(-50e-6) ~hi:50e-6 ~points:21 in
  let observe = [ "vout"; "iin" ] in
  let result =
    Circuit.Sweep.dc_transfer nl ~source:"iin_src" ~sweep_values ~observe
  in
  (* the restamp sweep reproduces, bit for bit, a rebuild per level that
     chains the same Newton guess *)
  let guess = ref None in
  let rebuilt =
    Array.map
      (fun v ->
        let sys =
          Circuit.Mna.build
            (Testgen.Execute.with_stimulus nl ~source:"iin_src"
               (Circuit.Waveform.Dc v))
        in
        let report = Circuit.Dc.solve ?guess:!guess sys ~time:`Dc in
        guess := Some report.Circuit.Dc.solution;
        List.map (Circuit.Mna.voltage sys report.Circuit.Dc.solution) observe)
      sweep_values
  in
  List.iteri
    (fun k node ->
      Alcotest.(check (array int64))
        (node ^ " trace equals the rebuild-per-level loop")
        (Array.map (fun vs -> Int64.bits_of_float (List.nth vs k)) rebuilt)
        (Array.map Int64.bits_of_float (Circuit.Sweep.trace result node)))
    observe;
  let vout = Circuit.Sweep.trace result "vout" in
  (* monotone decreasing transfer *)
  let monotone = ref true in
  for i = 0 to Array.length vout - 2 do
    if vout.(i + 1) >= vout.(i) then monotone := false
  done;
  Alcotest.(check bool) "monotone decreasing" true !monotone;
  (* slope at 0 = -Rf *)
  let slope = Circuit.Sweep.slope_at result ~node:"vout" ~at:0. in
  Alcotest.(check bool)
    (Printf.sprintf "transimpedance %.0f ~ -20k" slope)
    true
    (Float.abs (slope +. 20e3) < 300.)

let test_sweep_errors () =
  let nl = Macros.Macro.nominal_netlist Macros.Iv_converter.macro in
  (try
     ignore
       (Circuit.Sweep.dc_transfer nl ~source:"rf" ~sweep_values:[| 0. |]
          ~observe:[]);
     Alcotest.fail "non-source accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Circuit.Sweep.dc_transfer nl ~source:"iin_src" ~sweep_values:[||]
          ~observe:[]);
     Alcotest.fail "empty sweep accepted"
   with Invalid_argument _ -> ())

let () =
  Alcotest.run "persistence"
    [
      ( "session",
        [
          Alcotest.test_case "roundtrip" `Quick test_session_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_session_file_roundtrip;
          Alcotest.test_case "errors" `Quick test_session_errors;
          QCheck_alcotest.to_alcotest prop_session_roundtrip;
        ] );
      ( "diff",
        [
          Alcotest.test_case "self diff reads compat 1.0" `Quick test_diff_self;
          Alcotest.test_case "winner move" `Quick test_diff_winner_move;
          Alcotest.test_case "flip" `Quick test_diff_flip;
          Alcotest.test_case "missing fault" `Quick test_diff_missing;
          Alcotest.test_case "impact ratio and sign" `Quick test_diff_ratio;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "zero-length file" `Quick test_corrupt_zero_length;
          Alcotest.test_case "bad header" `Quick test_corrupt_bad_header;
          Alcotest.test_case "truncated mid-block" `Quick
            test_corrupt_truncated_mid_block;
          Alcotest.test_case "torn trailer" `Quick test_corrupt_torn_trailer;
          Alcotest.test_case "flipped byte" `Quick test_corrupt_flipped_byte;
          Alcotest.test_case "length mismatch" `Quick
            test_corrupt_length_mismatch;
          Alcotest.test_case "checkpoint loads as session" `Quick
            test_checkpoint_text_loads_as_session;
        ] );
      ( "quality",
        [
          Alcotest.test_case "estimate" `Quick test_quality_estimate;
          Alcotest.test_case "weighted escape" `Quick test_quality_weighted_escape;
          Alcotest.test_case "report" `Quick test_quality_report_string;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "linspace" `Quick test_linspace;
          Alcotest.test_case "iv transfer curve" `Quick test_dc_transfer_iv;
          Alcotest.test_case "errors" `Quick test_sweep_errors;
        ] );
    ]
