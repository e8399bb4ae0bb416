(* Unit and property tests for the circuit simulator substrate. *)

open Circuit

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs b)

let check_float ?eps msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%.9g vs %.9g)" msg a b) true
    (feq ?eps a b)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------------------------------------------------------------- Units *)

let test_units_format () =
  Alcotest.(check string) "10k" "10k" (Units.format_eng 10e3);
  Alcotest.(check string) "25u" "25u" (Units.format_eng 25e-6);
  Alcotest.(check string) "2n" "2n" (Units.format_eng 2e-9);
  Alcotest.(check string) "zero" "0" (Units.format_eng 0.);
  Alcotest.(check string) "negative" "-5m" (Units.format_eng (-5e-3));
  Alcotest.(check string) "with unit" "100kOhm"
    (Units.format_eng ~unit_symbol:"Ohm" 100e3)

let test_units_parse () =
  let p s = Units.parse_eng s in
  Alcotest.(check (option (float 1e-12))) "10k" (Some 10e3) (p "10k");
  Alcotest.(check (option (float 1e-12))) "2.5u" (Some 2.5e-6) (p "2.5u");
  Alcotest.(check (option (float 1e-9))) "100meg" (Some 100e6) (p "100meg");
  Alcotest.(check (option (float 1e-12))) "plain" (Some 42.) (p "42");
  Alcotest.(check (option (float 1e-12))) "exponent" (Some 1.5e3) (p "1.5e3");
  Alcotest.(check (option (float 1e-12))) "bad" None (p "abc");
  Alcotest.(check (option (float 1e-12))) "empty" None (p "")

let test_units_roundtrip () =
  List.iter
    (fun v ->
      match Units.parse_eng (Units.format_eng v) with
      | Some v' -> check_float ~eps:1e-3 "roundtrip" v v'
      | None -> Alcotest.fail "roundtrip parse failed")
    [ 1.; 10e3; 25e-6; 4.7e-9; 100e6; 3.3 ]

(* ------------------------------------------------------------- Waveform *)

let test_waveform_dc () =
  check_float "dc" 5. (Waveform.value (Waveform.Dc 5.) 123.);
  check_float "dc_value" 5. (Waveform.dc_value (Waveform.Dc 5.))

let test_waveform_step () =
  let w = Waveform.Step { base = 1.; elev = 2.; delay = 1e-6; rise = 1e-6 } in
  check_float "before" 1. (Waveform.value w 0.);
  check_float "mid-ramp" 2. (Waveform.value w 1.5e-6);
  check_float "after" 3. (Waveform.value w 5e-6);
  check_float "ideal step" 3.
    (Waveform.value (Waveform.Step { base = 1.; elev = 2.; delay = 0.; rise = 0. }) 1e-9)

let test_waveform_sine () =
  let w = Waveform.Sine { offset = 1.; ampl = 2.; freq = 1e3; phase = 0. } in
  check_float "at 0" 1. (Waveform.value w 0.);
  check_float "quarter period" 3. (Waveform.value w 0.25e-3);
  check_float "dc is offset" 1. (Waveform.dc_value w)

let test_waveform_pwl () =
  let w = Waveform.Pwl [ (0., 0.); (1., 10.); (2., 10.); (3., 0.) ] in
  check_float "before" 0. (Waveform.value w (-1.));
  check_float "interp" 5. (Waveform.value w 0.5);
  check_float "flat" 10. (Waveform.value w 1.5);
  check_float "after" 0. (Waveform.value w 99.)

let test_waveform_validate () =
  let bad = Waveform.Sine { offset = 0.; ampl = 1.; freq = 0.; phase = 0. } in
  Alcotest.(check bool) "zero freq rejected" true
    (Result.is_error (Waveform.validate bad));
  let bad_pwl = Waveform.Pwl [ (1., 0.); (0., 1.) ] in
  Alcotest.(check bool) "unsorted pwl rejected" true
    (Result.is_error (Waveform.validate bad_pwl));
  Alcotest.(check bool) "good step ok" true
    (Result.is_ok
       (Waveform.validate
          (Waveform.Step { base = 0.; elev = 1.; delay = 0.; rise = 0. })))

(* ------------------------------------------------------------ Mos_model *)

let nmos = Mos_model.nmos_default
let pmos = Mos_model.pmos_default

let test_mos_cutoff () =
  let op = Mos_model.eval nmos ~w:10e-6 ~l:1e-6 ~vg:0.3 ~vd:2. ~vs:0. in
  check_float "cutoff current" 0. op.Mos_model.ids;
  Alcotest.(check bool) "region" true (op.Mos_model.region = `Cutoff)

let test_mos_saturation () =
  (* vgs = 1.2, vt = 0.7, vds = 3 > vgst: saturation
     id = kp/2 * W/L * vgst^2 * (1 + lambda vds) *)
  let op = Mos_model.eval nmos ~w:10e-6 ~l:1e-6 ~vg:1.2 ~vd:3. ~vs:0. in
  let expected = 0.5 *. 120e-6 *. 10. *. 0.25 *. (1. +. (0.05 *. 3.)) in
  check_float ~eps:1e-9 "sat current" expected op.Mos_model.ids;
  Alcotest.(check bool) "region" true (op.Mos_model.region = `Saturation)

let test_mos_triode () =
  let op = Mos_model.eval nmos ~w:10e-6 ~l:1e-6 ~vg:2. ~vd:0.2 ~vs:0. in
  let vgst = 1.3 and vds = 0.2 in
  let expected =
    120e-6 *. 10. *. ((vgst *. vds) -. (0.5 *. vds *. vds)) *. (1. +. (0.05 *. vds))
  in
  check_float ~eps:1e-9 "triode current" expected op.Mos_model.ids;
  Alcotest.(check bool) "region" true (op.Mos_model.region = `Triode)

let test_mos_swap_antisymmetry () =
  (* reversing drain and source must negate the channel current *)
  let a = Mos_model.eval nmos ~w:10e-6 ~l:1e-6 ~vg:2. ~vd:0.5 ~vs:1.5 in
  let b = Mos_model.eval nmos ~w:10e-6 ~l:1e-6 ~vg:2. ~vd:1.5 ~vs:0.5 in
  check_float "antisymmetric" (-.b.Mos_model.ids) a.Mos_model.ids

let test_mos_pmos_sign () =
  (* conducting PMOS: source at 5, gate low -> current flows source->drain,
     i.e. ids (drain to source) is negative *)
  let op = Mos_model.eval pmos ~w:10e-6 ~l:1e-6 ~vg:3.5 ~vd:2. ~vs:5. in
  Alcotest.(check bool) "pmos conducts with ids < 0" true (op.Mos_model.ids < 0.);
  let off = Mos_model.eval pmos ~w:10e-6 ~l:1e-6 ~vg:5. ~vd:2. ~vs:5. in
  check_float "pmos off" 0. off.Mos_model.ids

let test_mos_continuity_at_pinchoff () =
  (* current and gm continuous across the triode/saturation boundary *)
  let vgst = 0.8 in
  let below = Mos_model.eval nmos ~w:10e-6 ~l:1e-6 ~vg:(0.7 +. vgst)
      ~vd:(vgst -. 1e-9) ~vs:0. in
  let above = Mos_model.eval nmos ~w:10e-6 ~l:1e-6 ~vg:(0.7 +. vgst)
      ~vd:(vgst +. 1e-9) ~vs:0. in
  check_float ~eps:1e-6 "ids continuous" below.Mos_model.ids above.Mos_model.ids;
  check_float ~eps:1e-4 "gm continuous" below.Mos_model.d_gate above.Mos_model.d_gate

let prop_mos_derivatives =
  QCheck.Test.make ~name:"mos partials match finite differences" ~count:200
    QCheck.(triple (float_range (-1.) 6.) (float_range (-1.) 6.) (float_range (-1.) 6.))
    (fun (vg, vd, vs) ->
      let model = if vg > 2.5 then nmos else pmos in
      let h = 1e-7 in
      let ids v_g v_d v_s =
        (Mos_model.eval model ~w:10e-6 ~l:1e-6 ~vg:v_g ~vd:v_d ~vs:v_s).Mos_model.ids
      in
      let op = Mos_model.eval model ~w:10e-6 ~l:1e-6 ~vg ~vd ~vs in
      let fd_g = (ids (vg +. h) vd vs -. ids (vg -. h) vd vs) /. (2. *. h) in
      let fd_d = (ids vg (vd +. h) vs -. ids vg (vd -. h) vs) /. (2. *. h) in
      let fd_s = (ids vg vd (vs +. h) -. ids vg vd (vs -. h)) /. (2. *. h) in
      let close a b = Float.abs (a -. b) <= 1e-4 *. (1e-4 +. Float.abs b) +. 1e-9 in
      (* skip points straddling a region boundary where the derivative jumps *)
      let regions_consistent =
        let r v_g v_d v_s =
          (Mos_model.eval model ~w:10e-6 ~l:1e-6 ~vg:v_g ~vd:v_d ~vs:v_s).Mos_model.region
        in
        r (vg +. h) vd vs = r (vg -. h) vd vs
        && r vg (vd +. h) vs = r vg (vd -. h) vs
        && r vg vd (vs +. h) = r vg vd (vs -. h)
        && (vd -. vs) *. (vd +. h -. vs) > 0.  (* not at the swap point *)
      in
      QCheck.assume regions_consistent;
      close fd_g op.Mos_model.d_gate
      && close fd_d op.Mos_model.d_drain
      && close fd_s op.Mos_model.d_source)

(* -------------------------------------------------------------- Netlist *)

let r name a b ohms = Device.Resistor { name; a; b; ohms }

let test_netlist_basic () =
  let nl = Netlist.empty ~title:"t" in
  let nl = Netlist.add nl (r "r1" "a" "0" 100.) in
  let nl = Netlist.add nl (r "r2" "a" "b" 100.) in
  Alcotest.(check int) "count" 2 (Netlist.device_count nl);
  Alcotest.(check (list string)) "nodes" [ "a"; "b" ] (Netlist.nodes nl);
  Alcotest.(check (list string)) "all nodes" [ "0"; "a"; "b" ]
    (Netlist.all_nodes nl);
  Alcotest.(check bool) "mem" true (Netlist.mem nl "r1");
  let nl2 = Netlist.remove nl "r1" in
  Alcotest.(check int) "after remove" 1 (Netlist.device_count nl2)

let test_netlist_duplicate () =
  let nl = Netlist.add (Netlist.empty ~title:"t") (r "r1" "a" "0" 1.) in
  (try
     ignore (Netlist.add nl (r "r1" "b" "0" 1.));
     Alcotest.fail "expected duplicate rejection"
   with Invalid_argument _ -> ())

let test_netlist_invalid_device () =
  (try
     ignore (Netlist.add (Netlist.empty ~title:"t") (r "r1" "a" "0" (-5.)));
     Alcotest.fail "expected validation failure"
   with Invalid_argument _ -> ())

let test_netlist_replace () =
  let nl =
    Netlist.add_all (Netlist.empty ~title:"t")
      [ r "r1" "a" "0" 1.; r "r2" "a" "0" 2. ]
  in
  let nl = Netlist.replace nl "r1" [ r "r1a" "a" "x" 1.; r "r1b" "x" "0" 1. ] in
  Alcotest.(check int) "count" 3 (Netlist.device_count nl);
  Alcotest.(check bool) "old gone" false (Netlist.mem nl "r1")

let test_netlist_fresh_names () =
  let nl =
    Netlist.add_all (Netlist.empty ~title:"t")
      [ r "x1" "a" "0" 1.; r "r1" "n1" "0" 1.; r "r2" "n1" "a" 1. ]
  in
  Alcotest.(check string) "fresh node skips n1" "n2"
    (Netlist.fresh_node nl ~prefix:"n");
  Alcotest.(check string) "fresh device" "x2"
    (Netlist.fresh_device_name nl ~prefix:"x")

let test_connectivity () =
  let dangling =
    Netlist.add_all (Netlist.empty ~title:"t")
      [ r "r1" "a" "0" 1.; r "r2" "a" "hang" 1. ]
  in
  Alcotest.(check bool) "dangling rejected" true
    (Result.is_error (Netlist.connectivity_check dangling));
  let no_ground =
    Netlist.add_all (Netlist.empty ~title:"t")
      [ r "r1" "a" "b" 1.; r "r2" "a" "b" 1. ]
  in
  Alcotest.(check bool) "no ground rejected" true
    (Result.is_error (Netlist.connectivity_check no_ground))

let test_spice_output () =
  let nl =
    Netlist.add_all (Netlist.empty ~title:"deck")
      [ r "r1" "a" "0" 10e3;
        Device.Vsource { name = "v1"; plus = "a"; minus = "0"; wave = Waveform.Dc 5. } ]
  in
  let s = Netlist.to_spice nl in
  Alcotest.(check bool) "title" true
    (String.length s > 6 && String.sub s 0 6 = "* deck");
  Alcotest.(check bool) "has resistor" true
    (contains s "Rr1 a 0 10k");
  Alcotest.(check bool) "has .end" true (contains s ".end")

(* ---------------------------------------------------------------- DC/MNA *)

let divider v r1 r2 =
  Netlist.add_all (Netlist.empty ~title:"divider")
    [
      Device.Vsource { name = "vin"; plus = "top"; minus = "0"; wave = Waveform.Dc v };
      r "r1" "top" "mid" r1;
      r "r2" "mid" "0" r2;
    ]

let test_dc_divider () =
  let sys = Mna.build (divider 10. 1e3 3e3) in
  let x = Dc.operating_point sys ~time:`Dc in
  check_float ~eps:1e-6 "mid" 7.5 (Mna.voltage sys x "mid");
  check_float ~eps:1e-6 "top" 10. (Mna.voltage sys x "top");
  (* branch current flows from + through the source: i = -10/4k *)
  check_float ~eps:1e-6 "source current" (-2.5e-3)
    (Mna.branch_current sys x "vin")

let test_dc_isource () =
  let nl =
    Netlist.add_all (Netlist.empty ~title:"i")
      [
        Device.Isource { name = "i1"; from_node = "0"; to_node = "n"; wave = Waveform.Dc 1e-3 };
        r "r1" "n" "0" 2e3;
      ]
  in
  let sys = Mna.build nl in
  let x = Dc.operating_point sys ~time:`Dc in
  check_float ~eps:1e-6 "v = i*r" 2. (Mna.voltage sys x "n")

let test_dc_vccs () =
  (* vccs converts v(a) = 1 V into 2 mA through a 1k load: v(out) = -2 V
     (current from out to ground through the source means out is pulled) *)
  let nl =
    Netlist.add_all (Netlist.empty ~title:"g")
      [
        Device.Vsource { name = "vin"; plus = "a"; minus = "0"; wave = Waveform.Dc 1. };
        Device.Vccs { name = "g1"; plus = "out"; minus = "0"; ctrl_plus = "a";
                      ctrl_minus = "0"; gm = 2e-3 };
        r "rl" "out" "0" 1e3;
        r "ra" "a" "0" 1e6;
      ]
  in
  let sys = Mna.build nl in
  let x = Dc.operating_point sys ~time:`Dc in
  check_float ~eps:1e-6 "vccs output" (-2.) (Mna.voltage sys x "out")

let test_dc_vcvs () =
  let nl =
    Netlist.add_all (Netlist.empty ~title:"e")
      [
        Device.Vsource { name = "vin"; plus = "a"; minus = "0"; wave = Waveform.Dc 0.5 };
        Device.Vcvs { name = "e1"; plus = "out"; minus = "0"; ctrl_plus = "a";
                      ctrl_minus = "0"; gain = 10. };
        r "rl" "out" "0" 1e3;
        r "ra" "a" "0" 1e6;
      ]
  in
  let sys = Mna.build nl in
  let x = Dc.operating_point sys ~time:`Dc in
  check_float ~eps:1e-6 "vcvs output" 5. (Mna.voltage sys x "out")

let test_dc_inductor_short () =
  (* in DC an inductor is a short: divider collapses *)
  let nl =
    Netlist.add_all (Netlist.empty ~title:"l")
      [
        Device.Vsource { name = "v"; plus = "a"; minus = "0"; wave = Waveform.Dc 3. };
        Device.Inductor { name = "l1"; a = "a"; b = "b"; henries = 1e-3 };
        r "r1" "b" "0" 1e3;
      ]
  in
  let sys = Mna.build nl in
  let x = Dc.operating_point sys ~time:`Dc in
  check_float ~eps:1e-6 "short" 3. (Mna.voltage sys x "b");
  check_float ~eps:1e-6 "current" 3e-3 (Mna.branch_current sys x "l1")

let test_dc_nmos_inverter () =
  (* resistor-loaded NMOS: analytic solution checked in closed form *)
  let nl =
    Netlist.add_all (Netlist.empty ~title:"inv")
      [
        Device.Vsource { name = "vdd"; plus = "vdd"; minus = "0"; wave = Waveform.Dc 5. };
        Device.Vsource { name = "vg"; plus = "g"; minus = "0"; wave = Waveform.Dc 1.2 };
        r "rd" "vdd" "d" 10e3;
        Device.Mosfet { name = "m1"; drain = "d"; gate = "g"; source = "0";
                        model = nmos; w = 10e-6; l = 1e-6 };
      ]
  in
  let sys = Mna.build nl in
  let x = Dc.operating_point sys ~time:`Dc in
  (* vd (1 + 10k*beta/2*vgst^2*lambda) = 5 - 10k*beta/2*vgst^2 *)
  check_float ~eps:1e-4 "drain voltage" 3.255813953 (Mna.voltage sys x "d")

let test_dc_gmin_stepping_path () =
  (* starve Newton of iterations so the direct attempt fails and the
     homotopy fallback has to finish the job *)
  let nl = Macros.Iv_converter.build Macros.Process.nominal in
  let sys = Mna.build nl in
  let options = { Dc.default_options with Dc.max_newton = 14 } in
  let report = Dc.solve ~options sys ~time:`Dc in
  Alcotest.(check bool) "homotopy used" true (report.Dc.gmin_steps > 0);
  check_float ~eps:1e-3 "same operating point" 2.4997
    (Mna.voltage sys report.Dc.solution "vout")

(* ------------------------------------------------- fault-impact site *)

let test_mna_impact_site () =
  let sys = Mna.build (divider 10. 1e3 3e3) in
  let idx name = Option.get (Mna.node_index sys name) in
  (match Mna.impact_site sys "r1" with
  | Some (i, j) ->
      let expect = [ idx "top"; idx "mid" ] in
      Alcotest.(check bool) "r1 terminals" true
        (List.sort compare [ i; j ] = List.sort compare expect)
  | None -> Alcotest.fail "r1 should have an impact site");
  (match Mna.impact_site sys "r2" with
  | Some (i, j) ->
      (* grounded terminal carries index -1 *)
      Alcotest.(check bool) "r2 terminals" true
        (List.sort compare [ i; j ] = List.sort compare [ idx "mid"; -1 ])
  | None -> Alcotest.fail "r2 should have an impact site");
  Alcotest.(check bool) "unknown device" true
    (Mna.impact_site sys "nope" = None);
  Alcotest.(check bool) "vsource is not a resistor" true
    (Mna.impact_site sys "vin" = None)

let test_tran_trapezoidal_inductor () =
  (* RL step response under trapezoidal integration *)
  let nl =
    Netlist.add_all (Netlist.empty ~title:"rl")
      [
        Device.Vsource
          { name = "v"; plus = "in"; minus = "0";
            wave = Waveform.Step { base = 0.; elev = 1.; delay = 0.; rise = 0. } };
        r "r1" "in" "mid" 1e3;
        Device.Inductor { name = "l1"; a = "mid"; b = "0"; henries = 1. };
      ]
  in
  let sys = Mna.build nl in
  let result =
    Tran.simulate ~method_:Tran.Trapezoidal sys ~tstop:3e-3 ~dt:5e-6
      ~observe:[ "mid" ]
  in
  let v = Tran.probe_values result "mid" in
  check_float ~eps:2e-2 "v(mid) at tau" (exp (-1.)) v.(200)

let test_dc_guess_dimension () =
  let sys = Mna.build (divider 1. 1e3 1e3) in
  (try
     ignore (Dc.solve ~guess:[| 0. |] sys ~time:`Dc);
     Alcotest.fail "expected dimension rejection"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------- Transient *)

let test_tran_rc_charge () =
  let nl =
    Netlist.add_all (Netlist.empty ~title:"rc")
      [
        Device.Vsource
          { name = "v"; plus = "in"; minus = "0";
            wave = Waveform.Step { base = 0.; elev = 1.; delay = 0.; rise = 0. } };
        r "r1" "in" "out" 1e3;
        Device.Capacitor { name = "c1"; a = "out"; b = "0"; farads = 1e-6 };
      ]
  in
  let sys = Mna.build nl in
  let result = Tran.simulate sys ~tstop:5e-3 ~dt:5e-6 ~observe:[ "out" ] in
  let v = Tran.probe_values result "out" in
  let at t = v.(int_of_float (t /. 5e-6)) in
  check_float ~eps:5e-3 "one tau" (1. -. exp (-1.)) (at 1e-3);
  check_float ~eps:5e-3 "two tau" (1. -. exp (-2.)) (at 2e-3);
  Alcotest.(check bool) "starts at 0" true (Float.abs v.(0) < 1e-9)

let test_tran_trapezoidal_accuracy () =
  (* smooth (sine) excitation: trapezoidal's O(h^2) should clearly beat
     backward Euler's O(h).  A discontinuous step would not show this --
     the jump resets both methods to first order. *)
  let freq = 200. in
  let make method_ =
    let nl =
      Netlist.add_all (Netlist.empty ~title:"rc")
        [
          Device.Vsource
            { name = "v"; plus = "in"; minus = "0";
              wave = Waveform.Sine { offset = 0.; ampl = 1.; freq; phase = 0. } };
          r "r1" "in" "out" 1e3;
          Device.Capacitor { name = "c1"; a = "out"; b = "0"; farads = 1e-6 };
        ]
    in
    let sys = Mna.build nl in
    let result =
      Tran.simulate ~method_ sys ~tstop:30e-3 ~dt:1e-4 ~observe:[ "out" ]
    in
    let v = Tran.probe_values result "out" in
    (* steady-state amplitude over the last two periods (100 samples) *)
    let n = Array.length v in
    let lo, hi = Numerics.Stats.min_max (Array.sub v (n - 100) 100) in
    (hi -. lo) /. 2.
  in
  let w = 2. *. Float.pi *. freq in
  let exact = 1. /. sqrt (1. +. ((w *. 1e-3) ** 2.)) in
  let be_err = Float.abs (make Tran.Backward_euler -. exact) in
  let tr_err = Float.abs (make Tran.Trapezoidal -. exact) in
  Alcotest.(check bool)
    (Printf.sprintf "trapezoidal (%.2e) beats BE (%.2e)" tr_err be_err)
    true (tr_err < be_err /. 3.)

let test_tran_rl () =
  (* series RL driven by a step: i(t) = V/R (1 - e^{-tR/L}) *)
  let nl =
    Netlist.add_all (Netlist.empty ~title:"rl")
      [
        Device.Vsource
          { name = "v"; plus = "in"; minus = "0";
            wave = Waveform.Step { base = 0.; elev = 1.; delay = 0.; rise = 0. } };
        r "r1" "in" "mid" 1e3;
        Device.Inductor { name = "l1"; a = "mid"; b = "0"; henries = 1. };
      ]
  in
  let sys = Mna.build nl in
  (* tau = L/R = 1 ms; check v(mid) decays like e^{-t/tau} *)
  let result = Tran.simulate sys ~tstop:3e-3 ~dt:5e-6 ~observe:[ "mid" ] in
  let v = Tran.probe_values result "mid" in
  check_float ~eps:1e-2 "v(mid) at tau" (exp (-1.)) v.(200)

let test_tran_sine_amplitude () =
  (* linear RC low-pass far below cutoff passes the sine through *)
  let nl =
    Netlist.add_all (Netlist.empty ~title:"sine")
      [
        Device.Vsource
          { name = "v"; plus = "in"; minus = "0";
            wave = Waveform.Sine { offset = 0.; ampl = 1.; freq = 100.; phase = 0. } };
        r "r1" "in" "out" 1e3;
        Device.Capacitor { name = "c1"; a = "out"; b = "0"; farads = 1e-9 };
      ]
  in
  let sys = Mna.build nl in
  let result = Tran.simulate sys ~tstop:0.02 ~dt:1e-5 ~observe:[ "out" ] in
  let v = Tran.probe_values result "out" in
  let lo, hi = Numerics.Stats.min_max (Array.sub v 500 1500) in
  check_float ~eps:2e-2 "amplitude preserved" 2. (hi -. lo)

let test_tran_bad_args () =
  let sys = Mna.build (divider 1. 1e3 1e3) in
  (try
     ignore (Tran.simulate sys ~tstop:0. ~dt:1e-6 ~observe:[]);
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ());
  try
    ignore (Tran.simulate sys ~tstop:1e-5 ~dt:1e-6 ~observe:[ "nope" ]);
    Alcotest.fail "expected an unknown observed node to raise"
  with Not_found -> ()

(* ------------------------------------------------------------------- AC *)

let test_ac_rc_lowpass () =
  let nl =
    Netlist.add_all (Netlist.empty ~title:"lp")
      [
        Device.Vsource { name = "v"; plus = "in"; minus = "0"; wave = Waveform.Dc 0. };
        r "r1" "in" "out" 1e3;
        Device.Capacitor { name = "c1"; a = "out"; b = "0"; farads = 1e-6 };
      ]
  in
  let sys = Mna.build nl in
  let op = Dc.operating_point sys ~time:`Dc in
  let fc = 1. /. (2. *. Float.pi *. 1e3 *. 1e-6) in
  match Ac.sweep sys ~op ~source:"v" ~freqs:[| fc /. 100.; fc; fc *. 100. |] ~observe:"out" with
  | [ low; cut; high ] ->
      check_float ~eps:1e-3 "passband ~ 0 dB" 0. (Ac.gain_db low.Ac.value);
      check_float ~eps:1e-2 "-3dB at fc" (-3.0103) (Ac.gain_db cut.Ac.value);
      Alcotest.(check bool) "stopband ~ -40dB" true
        (Float.abs (Ac.gain_db high.Ac.value +. 40.) < 0.2);
      check_float ~eps:1e-2 "phase at fc" (-45.) (Ac.phase_deg cut.Ac.value)
  | _ -> Alcotest.fail "expected three points"

let test_ac_rlc_resonance () =
  (* series RLC, output across C: resonance at 1/(2 pi sqrt(LC)) *)
  let nl =
    Netlist.add_all (Netlist.empty ~title:"rlc")
      [
        Device.Vsource { name = "v"; plus = "in"; minus = "0"; wave = Waveform.Dc 0. };
        r "r1" "in" "a" 10.;
        Device.Inductor { name = "l1"; a = "a"; b = "b"; henries = 1e-3 };
        Device.Capacitor { name = "c1"; a = "b"; b = "0"; farads = 1e-6 };
      ]
  in
  let sys = Mna.build nl in
  let op = Dc.operating_point sys ~time:`Dc in
  let f0 = 1. /. (2. *. Float.pi *. sqrt (1e-3 *. 1e-6)) in
  (match Ac.sweep sys ~op ~source:"v" ~freqs:[| f0 |] ~observe:"b" with
  | [ peak ] ->
      (* at resonance |H| = Q = sqrt(L/C)/R = 3.162 *)
      check_float ~eps:1e-2 "resonance gain = Q" (sqrt (1e-3 /. 1e-6) /. 10.)
        (Complex.norm peak.Ac.value)
  | _ -> Alcotest.fail "expected one point")

(* ---------------------------------------------------------------- Noise *)

let kt = Noise.boltzmann *. 300.

let test_noise_divider () =
  (* output noise of a resistive divider = 4kT (R1 || R2) *)
  let nl =
    Netlist.add_all (Netlist.empty ~title:"div")
      [
        Device.Vsource { name = "v"; plus = "top"; minus = "0"; wave = Waveform.Dc 1. };
        r "r1" "top" "mid" 10e3;
        r "r2" "mid" "0" 30e3;
      ]
  in
  let sys = Mna.build nl in
  let op = Dc.operating_point sys ~time:`Dc in
  match Noise.output_noise sys ~op ~observe:"mid" ~freqs:[| 1e3 |] with
  | [ p ] ->
      let expected = 4. *. kt *. (10e3 *. 30e3 /. 40e3) in
      check_float ~eps:1e-6 "4kT(R1||R2)" expected p.Noise.total_psd;
      (* the lower resistor sees the same parallel impedance: equal shares
         scale as 1/R -> r1 contributes R2/(R1+R2) of the total *)
      Alcotest.(check int) "two contributors" 2
        (List.length p.Noise.contributions)
  | _ -> Alcotest.fail "one point expected"

let test_noise_ktc () =
  (* integrated output noise of an RC low-pass = sqrt(kT/C), independent
     of R -- the classic sanity check *)
  let make rr cc =
    let nl =
      Netlist.add_all (Netlist.empty ~title:"rc")
        [
          Device.Vsource { name = "v"; plus = "in"; minus = "0"; wave = Waveform.Dc 0. };
          r "r" "in" "out" rr;
          Device.Capacitor { name = "c"; a = "out"; b = "0"; farads = cc };
        ]
    in
    let sys = Mna.build nl in
    let op = Dc.operating_point sys ~time:`Dc in
    let fc = 1. /. (2. *. Float.pi *. rr *. cc) in
    let freqs = Ac.log_space ~lo:(fc /. 1e4) ~hi:(fc *. 1e4) ~points:400 in
    Noise.integrated_rms (Noise.output_noise sys ~op ~observe:"out" ~freqs)
  in
  check_float ~eps:1e-3 "kT/C for 1k/1n" (sqrt (kt /. 1e-9)) (make 1e3 1e-9);
  (* doubling R leaves the integrated noise unchanged *)
  check_float ~eps:2e-3 "kT/C independent of R" (sqrt (kt /. 1e-9))
    (make 2e3 1e-9)

let test_noise_mosfet_contribution () =
  let nl =
    Netlist.add_all (Netlist.empty ~title:"cs")
      [
        Device.Vsource { name = "vdd"; plus = "vdd"; minus = "0"; wave = Waveform.Dc 5. };
        Device.Vsource { name = "vg"; plus = "g"; minus = "0"; wave = Waveform.Dc 1.2 };
        r "rd" "vdd" "d" 10e3;
        Device.Mosfet { name = "m1"; drain = "d"; gate = "g"; source = "0";
                        model = nmos; w = 10e-6; l = 1e-6 };
      ]
  in
  let sys = Mna.build nl in
  let op = Dc.operating_point sys ~time:`Dc in
  match Noise.output_noise sys ~op ~observe:"d" ~freqs:[| 1e3 |] with
  | [ p ] ->
      Alcotest.(check bool) "mosfet contributes" true
        (List.exists
           (fun c -> c.Noise.noise_source = "m1" && c.Noise.psd > 0.)
           p.Noise.contributions);
      (* contributions sorted largest first *)
      let rec sorted = function
        | a :: (b :: _ as rest) -> a.Noise.psd >= b.Noise.psd && sorted rest
        | [ _ ] | [] -> true
      in
      Alcotest.(check bool) "sorted" true (sorted p.Noise.contributions);
      (* analytic: output PSD = 4kT/Rd Rd^2 + 4kT 2/3 gm Rout^2 with
         Rout = Rd || rds; check within 1 % using the operating point *)
      let mos = List.assoc "m1" (Mna.mosfet_operating_points sys ~x:op) in
      let gds = mos.Mos_model.d_drain and gm = mos.Mos_model.d_gate in
      let rout = 1. /. ((1. /. 10e3) +. gds) in
      let expected =
        (4. *. kt /. 10e3 *. (rout ** 2.))
        +. (4. *. kt *. (2. /. 3.) *. gm *. (rout ** 2.))
      in
      check_float ~eps:1e-2 "analytic total" expected p.Noise.total_psd
  | _ -> Alcotest.fail "one point expected"

let test_noise_integrated_errors () =
  (try
     ignore (Noise.integrated_rms []);
     Alcotest.fail "empty accepted"
   with Invalid_argument _ -> ())

let test_ac_log_space () =
  let fs = Ac.log_space ~lo:1. ~hi:1000. ~points:4 in
  Alcotest.(check int) "count" 4 (Array.length fs);
  check_float "first" 1. fs.(0);
  check_float "second" 10. fs.(1);
  check_float "last" 1000. fs.(3)

let () =
  Alcotest.run "circuit"
    [
      ( "units",
        [
          Alcotest.test_case "format" `Quick test_units_format;
          Alcotest.test_case "parse" `Quick test_units_parse;
          Alcotest.test_case "roundtrip" `Quick test_units_roundtrip;
        ] );
      ( "waveform",
        [
          Alcotest.test_case "dc" `Quick test_waveform_dc;
          Alcotest.test_case "step" `Quick test_waveform_step;
          Alcotest.test_case "sine" `Quick test_waveform_sine;
          Alcotest.test_case "pwl" `Quick test_waveform_pwl;
          Alcotest.test_case "validate" `Quick test_waveform_validate;
        ] );
      ( "mos_model",
        [
          Alcotest.test_case "cutoff" `Quick test_mos_cutoff;
          Alcotest.test_case "saturation" `Quick test_mos_saturation;
          Alcotest.test_case "triode" `Quick test_mos_triode;
          Alcotest.test_case "drain/source swap" `Quick test_mos_swap_antisymmetry;
          Alcotest.test_case "pmos polarity" `Quick test_mos_pmos_sign;
          Alcotest.test_case "pinchoff continuity" `Quick test_mos_continuity_at_pinchoff;
          QCheck_alcotest.to_alcotest prop_mos_derivatives;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "basics" `Quick test_netlist_basic;
          Alcotest.test_case "duplicate name" `Quick test_netlist_duplicate;
          Alcotest.test_case "invalid device" `Quick test_netlist_invalid_device;
          Alcotest.test_case "replace" `Quick test_netlist_replace;
          Alcotest.test_case "fresh names" `Quick test_netlist_fresh_names;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "spice output" `Quick test_spice_output;
        ] );
      ( "dc",
        [
          Alcotest.test_case "divider" `Quick test_dc_divider;
          Alcotest.test_case "current source" `Quick test_dc_isource;
          Alcotest.test_case "vccs" `Quick test_dc_vccs;
          Alcotest.test_case "vcvs" `Quick test_dc_vcvs;
          Alcotest.test_case "inductor short" `Quick test_dc_inductor_short;
          Alcotest.test_case "nmos inverter" `Quick test_dc_nmos_inverter;
          Alcotest.test_case "guess dimension" `Quick test_dc_guess_dimension;
          Alcotest.test_case "gmin stepping path" `Quick test_dc_gmin_stepping_path;
          Alcotest.test_case "impact site" `Quick test_mna_impact_site;
        ] );
      ( "tran",
        [
          Alcotest.test_case "rc charge" `Quick test_tran_rc_charge;
          Alcotest.test_case "trapezoidal accuracy" `Quick test_tran_trapezoidal_accuracy;
          Alcotest.test_case "rl time constant" `Quick test_tran_rl;
          Alcotest.test_case "trapezoidal inductor" `Quick test_tran_trapezoidal_inductor;
          Alcotest.test_case "sine through" `Quick test_tran_sine_amplitude;
          Alcotest.test_case "bad args" `Quick test_tran_bad_args;
        ] );
      ( "ac",
        [
          Alcotest.test_case "rc lowpass" `Quick test_ac_rc_lowpass;
          Alcotest.test_case "rlc resonance" `Quick test_ac_rlc_resonance;
          Alcotest.test_case "log space" `Quick test_ac_log_space;
        ] );
      ( "noise",
        [
          Alcotest.test_case "divider 4kT(R1||R2)" `Quick test_noise_divider;
          Alcotest.test_case "kT/C" `Quick test_noise_ktc;
          Alcotest.test_case "mosfet channel noise" `Quick test_noise_mosfet_contribution;
          Alcotest.test_case "integration errors" `Quick test_noise_integrated_errors;
        ] );
    ]
