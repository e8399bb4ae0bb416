(* Cross-cutting property tests: physical consistency between analyses,
   structural invariants of the MNA system, clustering/collapse algebra. *)

open Circuit

(* -------------------------------------------------- tran vs ac consistency *)

(* For a linear RC low-pass the transient steady-state sine amplitude must
   match the AC transfer magnitude — two completely independent code paths
   (nonlinear time stepping vs complex phasor solve). *)
let prop_tran_matches_ac =
  QCheck.Test.make ~name:"transient steady state matches AC transfer"
    ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 101)) in
      let r = Numerics.Rng.uniform rng ~lo:100. ~hi:10e3 in
      let c = Numerics.Rng.uniform rng ~lo:1e-9 ~hi:1e-6 in
      let fc = 1. /. (2. *. Float.pi *. r *. c) in
      (* pick a frequency around the cutoff where |H| varies the most *)
      let freq = fc *. Numerics.Rng.uniform rng ~lo:0.3 ~hi:3. in
      let nl =
        Netlist.add_all (Netlist.empty ~title:"rc")
          [
            Device.Vsource
              { name = "v"; plus = "in"; minus = "0";
                wave = Waveform.Sine { offset = 0.; ampl = 1.; freq; phase = 0. } };
            Device.Resistor { name = "r"; a = "in"; b = "out"; ohms = r };
            Device.Capacitor { name = "c"; a = "out"; b = "0"; farads = c };
          ]
      in
      let sys = Mna.build nl in
      let op = Dc.operating_point sys ~time:`Dc in
      let h =
        match Ac.sweep sys ~op ~source:"v" ~freqs:[| freq |] ~observe:"out" with
        | [ p ] -> Complex.norm p.Ac.value
        | _ -> nan
      in
      let period = 1. /. freq in
      let result =
        Tran.simulate ~method_:Tran.Trapezoidal sys ~tstop:(10. *. period)
          ~dt:(period /. 200.) ~observe:[ "out" ]
      in
      let v = Tran.probe_values result "out" in
      let n = Array.length v in
      let lo, hi = Numerics.Stats.min_max (Array.sub v (n - 200) 200) in
      let amp = (hi -. lo) /. 2. in
      Float.abs (amp -. h) <= 0.02 *. h)

(* ---------------------------------------------------- resistive reduction *)

(* A random resistor ladder driven by a DC source: MNA voltage at the load
   equals the closed-form series/parallel reduction. *)
let prop_ladder_reduction =
  QCheck.Test.make ~name:"MNA matches series/parallel ladder reduction"
    ~count:60
    QCheck.(pair (int_range 1 6) (int_range 0 100_000))
    (fun (stages, seed) ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 41)) in
      let resistor () = Numerics.Rng.uniform rng ~lo:100. ~hi:100e3 in
      (* ladder: v -- Rs1 -- n1 -- Rs2 -- n2 ... each ni also has Rpi to 0.
         Reduce from the far end: Req_k = Rp_k || (Rs_{k+1} + Req_{k+1}) *)
      let series = Array.init stages (fun _ -> resistor ()) in
      let shunt = Array.init stages (fun _ -> resistor ()) in
      let nl = ref (Netlist.empty ~title:"ladder") in
      let add d = nl := Netlist.add !nl d in
      add (Device.Vsource { name = "v"; plus = "n0"; minus = "0"; wave = Waveform.Dc 10. });
      for k = 0 to stages - 1 do
        add
          (Device.Resistor
             { name = Printf.sprintf "rs%d" k; a = Printf.sprintf "n%d" k;
               b = Printf.sprintf "n%d" (k + 1); ohms = series.(k) });
        add
          (Device.Resistor
             { name = Printf.sprintf "rp%d" k; a = Printf.sprintf "n%d" (k + 1);
               b = "0"; ohms = shunt.(k) })
      done;
      let sys = Mna.build !nl in
      let x = Dc.operating_point sys ~time:`Dc in
      (* closed form by backward reduction *)
      let rec req k =
        if k = stages - 1 then shunt.(k)
        else
          let downstream = series.(k + 1) +. req (k + 1) in
          1. /. ((1. /. shunt.(k)) +. (1. /. downstream))
      in
      let rec volt k v_in =
        (* voltage at node k+1 given voltage at node k *)
        let z = req k in
        let v = v_in *. z /. (series.(k) +. z) in
        if k = stages - 1 then v else volt (k + 1) v
      in
      let expected = volt 0 10. in
      let got = Mna.voltage sys x (Printf.sprintf "n%d" stages) in
      Float.abs (got -. expected) <= 1e-6 *. (1. +. Float.abs expected))

(* ------------------------------------------------------------ MNA algebra *)

(* Circuits of resistors and current sources only produce a symmetric
   conductance matrix. *)
let prop_mna_symmetry =
  QCheck.Test.make ~name:"resistive MNA matrix is symmetric" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 7)) in
      let n_nodes = 2 + Numerics.Rng.int rng ~bound:5 in
      let node i = if i = 0 then "0" else Printf.sprintf "n%d" i in
      let nl = ref (Netlist.empty ~title:"mesh") in
      (* spanning chain guarantees connectivity, then random extra edges *)
      for i = 0 to n_nodes - 2 do
        nl :=
          Netlist.add !nl
            (Device.Resistor
               { name = Printf.sprintf "rc%d" i; a = node i; b = node (i + 1);
                 ohms = Numerics.Rng.uniform rng ~lo:10. ~hi:1e4 })
      done;
      for e = 0 to n_nodes - 1 do
        let i = Numerics.Rng.int rng ~bound:n_nodes in
        let j = Numerics.Rng.int rng ~bound:n_nodes in
        if i <> j then
          nl :=
            Netlist.add !nl
              (Device.Resistor
                 { name = Printf.sprintf "re%d" e; a = node i; b = node j;
                   ohms = Numerics.Rng.uniform rng ~lo:10. ~hi:1e4 })
      done;
      nl :=
        Netlist.add !nl
          (Device.Isource
             { name = "i"; from_node = "0"; to_node = node (n_nodes - 1);
               wave = Waveform.Dc 1e-3 });
      let sys = Mna.build !nl in
      let x = Numerics.Vec.create (Mna.size sys) 0. in
      let a, _ = Mna.assemble sys ~x ~time:`Dc ~gmin:1e-12 () in
      let ok = ref true in
      for i = 0 to Numerics.Mat.rows a - 1 do
        for j = 0 to Numerics.Mat.cols a - 1 do
          if
            Float.abs (Numerics.Mat.get a i j -. Numerics.Mat.get a j i)
            > 1e-12
          then ok := false
        done
      done;
      !ok)

(* superposition: doubling every independent source doubles every node
   voltage of a linear circuit *)
let prop_linearity =
  QCheck.Test.make ~name:"linear circuits scale with source_scale" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 23)) in
      let nl =
        Netlist.add_all (Netlist.empty ~title:"lin")
          [
            Device.Vsource
              { name = "v"; plus = "a"; minus = "0";
                wave = Waveform.Dc (Numerics.Rng.uniform rng ~lo:1. ~hi:10.) };
            Device.Resistor
              { name = "r1"; a = "a"; b = "b";
                ohms = Numerics.Rng.uniform rng ~lo:100. ~hi:1e4 };
            Device.Resistor
              { name = "r2"; a = "b"; b = "0";
                ohms = Numerics.Rng.uniform rng ~lo:100. ~hi:1e4 };
            Device.Isource
              { name = "i"; from_node = "0"; to_node = "b";
                wave = Waveform.Dc (Numerics.Rng.uniform rng ~lo:1e-4 ~hi:1e-2) };
          ]
      in
      let sys = Mna.build nl in
      let solve scale =
        (Dc.solve ~source_scale:scale sys ~time:`Dc).Dc.solution
      in
      let x1 = solve 1. and x2 = solve 2. in
      let vb1 = Mna.voltage sys x1 "b" and vb2 = Mna.voltage sys x2 "b" in
      Float.abs (vb2 -. (2. *. vb1)) <= 1e-9 *. (1. +. Float.abs vb2))

(* ------------------------------------------- Newton loop vs the oracle *)

(* {!Dc.solve} runs one in-place Newton loop on a workspace; the oracle
   in [Newton_oracle] rebuilds and refactors a dense system on every
   iteration.  On the IV-converter and any of its faults, at any input
   level, on either backend, with or without integration companions,
   the two must agree bit for bit: solution, Newton iterations and
   homotopy stages, or both must fail.  Two thirds of the draws inject
   one singular or NaN iterate, which both loops query at the same
   sites, to drive the gmin-stepping ladder. *)

let iv_target =
  Experiments.Setup.target_of_macro Macros.Iv_converter.macro
    Macros.Process.nominal

let iv_faults =
  Array.of_list (Macros.Macro.fault_universe Macros.Iv_converter.macro)

let report_bits = function
  | Ok r ->
      Ok
        ( Array.map Int64.bits_of_float r.Dc.solution,
          r.Dc.newton_iterations,
          r.Dc.gmin_steps,
          r.Dc.source_steps )
  | Error () -> Error ()

let prop_newton_oracle =
  QCheck.Test.make ~name:"Dc.solve matches the allocating Newton oracle"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 5)) in
      let pick = Numerics.Rng.int rng ~bound:(Array.length iv_faults + 1) in
      let nl =
        if pick = Array.length iv_faults then iv_target.Testgen.Execute.netlist
        else Faults.Inject.apply iv_target.Testgen.Execute.netlist iv_faults.(pick)
      in
      let level = Numerics.Rng.uniform rng ~lo:(-50e-6) ~hi:50e-6 in
      let nl =
        Testgen.Execute.with_stimulus nl
          ~source:iv_target.Testgen.Execute.stimulus_source (Waveform.Dc level)
      in
      let backend =
        if Numerics.Rng.int rng ~bound:2 = 0 then Mna.Dense else Mna.Sparse
      in
      let sys = Mna.build ~backend nl in
      (* half the draws stamp random backward-Euler capacitor companions,
         as a transient step does *)
      let companions =
        if Numerics.Rng.int rng ~bound:2 = 0 then None
        else begin
          let c = Array.make (Mna.companion_slots sys) 0. in
          List.iter
            (fun d ->
              match d with
              | Device.Capacitor { name; _ } ->
                  let k = Mna.companion_slot sys name in
                  c.(k) <- Numerics.Rng.uniform rng ~lo:1e-6 ~hi:1e-3;
                  c.(k + 1) <- Numerics.Rng.uniform rng ~lo:(-1e-3) ~hi:1e-3
              | _ -> ())
            (Netlist.devices nl);
          Some c
        end
      in
      let run f =
        report_bits
          (match f () with r -> Ok r | exception Dc.No_convergence _ -> Error ())
      in
      let time = `Time 0. in
      (* 0: clean; 1, 2: one injected singular or NaN iterate *)
      let inject = Numerics.Rng.int rng ~bound:3 in
      let injected f =
        if inject = 0 then f
        else
          let point = if inject = 1 then "dc.singular" else "dc.nan_solution" in
          let specs =
            [ { Numerics.Failpoint.point; probability = 0.3; max_triggers = Some 1 } ]
          in
          fun () ->
            Numerics.Failpoint.with_config ~seed:(Int64.of_int seed) specs f
      in
      let solve = injected (fun () -> Dc.solve ?companions sys ~time) in
      let oracle =
        injected (fun () -> Newton_oracle.solve ?companions sys ~time)
      in
      run solve = run oracle)

(* The same differential on linear plans, where {!Dc.solve} assembles,
   factors and solves once per attempt and steps the damped update
   toward that fixed solve instead of refactoring
   every iteration.  Over the RC ladder (rc16 dense, rc48 sparse), the
   OTA cascade and the Sallen-Key chain, nominal or with a random fault,
   at a random input level, at [`Dc] or at [`Time] with random
   companions, from the zero start or from a random guess, the two must
   agree bit for bit.  A third of the draws inject one singular or NaN
   iterate, which both loops query on every iteration. *)

let linear_macros =
  [|
    Macros.Rc_ladder.macro ~sections:16;
    Macros.Rc_ladder.macro ~sections:48;
    Macros.Filter_chain.ota_cascade ~stages:16;
    Macros.Filter_chain.sk_chain ~stages:4;
  |]

let linear_targets =
  Array.map
    (fun m ->
      ( Experiments.Setup.target_of_macro m Macros.Process.nominal,
        Array.of_list (Macros.Macro.fault_universe m) ))
    linear_macros

let prop_newton_oracle_linear =
  QCheck.Test.make
    ~name:"Dc.solve on linear plans matches the allocating Newton oracle"
    ~count:80
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 11)) in
      let target, faults =
        linear_targets.(Numerics.Rng.int rng
                          ~bound:(Array.length linear_targets))
      in
      let nl = target.Testgen.Execute.netlist in
      let nl =
        if Numerics.Rng.int rng ~bound:4 = 0 then nl
        else
          Faults.Inject.apply nl
            faults.(Numerics.Rng.int rng ~bound:(Array.length faults))
      in
      let level = Numerics.Rng.uniform rng ~lo:(-2.) ~hi:2. in
      let nl =
        Testgen.Execute.with_stimulus nl
          ~source:target.Testgen.Execute.stimulus_source (Waveform.Dc level)
      in
      let sys = Mna.build nl in
      let time, companions =
        if Numerics.Rng.int rng ~bound:2 = 0 then (`Dc, None)
        else begin
          let c = Array.make (Mna.companion_slots sys) 0. in
          List.iter
            (fun d ->
              match d with
              | Device.Capacitor { name; _ } ->
                  let k = Mna.companion_slot sys name in
                  c.(k) <- Numerics.Rng.uniform rng ~lo:1e-6 ~hi:1e-3;
                  c.(k + 1) <- Numerics.Rng.uniform rng ~lo:(-1e-3) ~hi:1e-3
              | _ -> ())
            (Netlist.devices nl);
          (`Time 1e-6, Some c)
        end
      in
      let guess =
        if Numerics.Rng.int rng ~bound:2 = 0 then None
        else
          Some
            (Array.init (Mna.size sys) (fun _ ->
                 Numerics.Rng.uniform rng ~lo:(-3.) ~hi:3.))
      in
      let run f =
        report_bits
          (match f () with r -> Ok r | exception Dc.No_convergence _ -> Error ())
      in
      (* 0, 1: clean; 2, 3: one injected singular or NaN iterate *)
      let inject = Numerics.Rng.int rng ~bound:6 in
      let injected f =
        if inject < 4 then f
        else
          let point = if inject = 4 then "dc.singular" else "dc.nan_solution" in
          let specs =
            [ { Numerics.Failpoint.point; probability = 0.3; max_triggers = Some 1 } ]
          in
          fun () ->
            Numerics.Failpoint.with_config ~seed:(Int64.of_int seed) specs f
      in
      let solve =
        injected (fun () -> Dc.solve ?guess ?companions sys ~time)
      in
      let oracle =
        injected (fun () ->
            Newton_oracle.solve ?guess ?companions sys ~time)
      in
      Mna.linear sys && run solve = run oracle)

(* A linear plan's workspace keeps its last factorization and solves
   against it while the assembled matrix is bit-equal to the one it was
   made from ({!Mna.ws_holds}).  Over the same four linear macros, a
   sequence of solves on one workspace — stimulus levels, two fault
   impacts, two gmins, [`Dc] or [`Time] with one of two companion
   conductance sets — must give, solve by solve, the bits a fresh
   workspace gives.  Each sequence holds a solve, then one on a
   different matrix while injection is armed (the same loop, drawing on
   every iteration), then one on the first solve's matrix again.  Finally a held matrix whose zero entry flips its sign must
   not count as held: [-0. = 0.], but the two are different bits. *)
let prop_held_factorization =
  QCheck.Test.make
    ~name:"a held factorization solves as a fresh workspace does" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 29)) in
      let target, faults =
        linear_targets.(Numerics.Rng.int rng
                          ~bound:(Array.length linear_targets))
      in
      let fault = faults.(Numerics.Rng.int rng ~bound:(Array.length faults)) in
      let source = target.Testgen.Execute.stimulus_source in
      let sys =
        Mna.build
          (Testgen.Execute.with_stimulus
             (Faults.Inject.apply target.Testgen.Execute.netlist fault)
             ~source (Waveform.Dc 0.))
      in
      let ws = Mna.workspace sys in
      let impacts = [| 200.; 47e3 |] and gmins = [| 1e-12; 1e-9 |] in
      let conductances =
        Array.init 2 (fun _ ->
            Array.init (Mna.companion_slots sys) (fun k ->
                if k mod 2 = 0 then Numerics.Rng.uniform rng ~lo:1e-6 ~hi:1e-3
                else 0.))
      in
      (* a matrix is (impact, gmin, companion set or none) *)
      let draw_matrix () =
        ( Numerics.Rng.int rng ~bound:2,
          Numerics.Rng.int rng ~bound:2,
          Numerics.Rng.int rng ~bound:3 )
      in
      let solve ~workspace (i, g, c) level =
        let restamp =
          {
            Mna.stimulus = Some (source, Waveform.Dc level);
            impact =
              Some
                (Faults.Inject.impact_override
                   (Faults.Fault.with_impact fault impacts.(i)));
          }
        in
        let options = { Dc.default_options with gmin = gmins.(g) } in
        let time, companions =
          if c = 2 then (`Dc, None)
          else
            (* the history currents vary per solve; they enter the
               right-hand side only *)
            ( `Time 1e-6,
              Some
                (Array.mapi
                   (fun k geq ->
                     if k mod 2 = 0 then geq
                     else Numerics.Rng.uniform rng ~lo:(-1e-3) ~hi:1e-3)
                   conductances.(c)) )
        in
        let run ws =
          report_bits
            (match
               Dc.solve ~options ?companions ~workspace:ws ~restamp sys ~time
             with
            | r -> Ok r
            | exception Dc.No_convergence _ -> Error ())
        in
        (run workspace, run (Mna.workspace sys))
      in
      let level () = Numerics.Rng.uniform rng ~lo:(-2.) ~hi:2. in
      let agree (held, fresh) = held = fresh in
      let clean () = agree (solve ~workspace:ws (draw_matrix ()) (level ())) in
      let first = draw_matrix () in
      let other =
        let i, g, c = first in
        (1 - i, g, c)
      in
      let armed =
        [ { Numerics.Failpoint.point = "dc.singular"; probability = 0.;
            max_triggers = None } ]
      in
      let ok =
        List.for_all Fun.id
          [
            clean ();
            agree (solve ~workspace:ws first (level ()));
            Numerics.Failpoint.with_config ~seed:1L armed (fun () ->
                agree (solve ~workspace:ws other (level ())));
            agree (solve ~workspace:ws first (level ()));
            clean ();
            clean ();
            agree (solve ~workspace:ws first (level ()));
          ]
      in
      (* the workspace now holds [first]'s matrix; flip a zero's sign *)
      let values = Mna.ws_matrix ws in
      let held = Mna.ws_holds ws in
      let zero = ref (-1) in
      Array.iteri (fun k v -> if !zero < 0 && v = 0. then zero := k) values;
      let sign_sensitive =
        !zero < 0
        || begin
             values.(!zero) <- -.values.(!zero);
             not (Mna.ws_holds ws)
           end
      in
      Mna.linear sys && ok && held && sign_sensitive)

(* Injection runs the production loop.  Inside a
   {!Numerics.Failpoint.with_config} bracket whose specs never fire, the
   solves of a linear plan give the bits, Newton iterations and traced
   factorizations they give outside it: the loop draws on every
   iteration but still factors at most once per attempt.  And a NaN
   iterate injected on a later iteration of a linear attempt, after its
   one solve, still fails that attempt; the gmin ladder then recovers
   with the oracle's bits. *)

let never_fire =
  List.map
    (fun point ->
      { Numerics.Failpoint.point; probability = 0.; max_triggers = None })
    [ "dc.singular"; "dc.nan_solution" ]

let late_nan =
  [ { Numerics.Failpoint.point = "dc.nan_solution"; probability = 0.5;
      max_triggers = Some 1 } ]

(* [f ()] traced, and the LU factorizations it counted *)
let traced_factorizations f =
  Obs.enable ();
  Fun.protect ~finally:Obs.shutdown (fun () ->
      let v = f () in
      ( v,
        Option.value ~default:0
          (List.assoc_opt "solver.dc.lu_factorizations" (Obs.counters ())) ))

(* The query index at which [late_nan] first fires under [seed]. *)
let first_firing seed =
  Numerics.Failpoint.with_config ~seed late_nan (fun () ->
      let rec go k =
        if Numerics.Failpoint.should_fail "dc.nan_solution" then k
        else go (k + 1)
      in
      go 1)

let test_injection_runs_the_linear_loop () =
  Array.iteri
    (fun m (target, _) ->
      let name = linear_macros.(m).Macros.Macro.macro_name in
      let source = target.Testgen.Execute.stimulus_source in
      let sys =
        Mna.build
          (Testgen.Execute.with_stimulus target.Testgen.Execute.netlist ~source
             (Waveform.Dc 0.))
      in
      let restamp level =
        { Mna.stimulus = Some (source, Waveform.Dc level); impact = None }
      in
      (* one workspace for the levels, so later ones meet the held
         factorization *)
      let run () =
        let ws = Mna.workspace sys in
        traced_factorizations (fun () ->
            List.map
              (fun level ->
                Dc.solve ~workspace:ws ~restamp:(restamp level) sys ~time:`Dc)
              [ 2.; -1.5; 0.7 ])
      in
      let clean, clean_lu = run () in
      let armed, armed_lu =
        Numerics.Failpoint.with_config ~seed:1L never_fire run
      in
      let bits = List.map (fun r -> report_bits (Ok r)) in
      let iterations =
        List.fold_left (fun n r -> n + r.Dc.newton_iterations) 0 clean
      in
      Alcotest.(check bool)
        (name ^ ": fewer factorizations than iterations")
        true (clean_lu < iterations);
      Alcotest.(check bool)
        (name ^ ": armed solves keep their bits and iterations")
        true
        (bits clean = bits armed);
      Alcotest.(check int)
        (name ^ ": armed solves factor as often")
        clean_lu armed_lu;
      (* a seed whose NaN fires on a later iteration of the first attempt *)
      let first_attempt = (List.hd clean).Dc.newton_iterations in
      let seed =
        List.find
          (fun seed ->
            let k = first_firing seed in
            k >= 2 && k <= first_attempt)
          (List.init 64 (fun i -> Int64.of_int (i + 1)))
      in
      let solve f =
        Numerics.Failpoint.with_config ~seed late_nan (fun () ->
            let r =
              match f () with
              | r -> Ok r
              | exception Dc.No_convergence _ -> Error ()
            in
            (r, Numerics.Failpoint.trigger_count "dc.nan_solution"))
      in
      let restamp = restamp 2. in
      let late, fired =
        solve (fun () ->
            Dc.solve ~workspace:(Mna.workspace sys) ~restamp sys ~time:`Dc)
      in
      let oracle, _ =
        solve (fun () -> Newton_oracle.solve ~restamp sys ~time:`Dc)
      in
      Alcotest.(check int) (name ^ ": the NaN fired once") 1 fired;
      Alcotest.(check bool)
        (name ^ ": the attempt failed and gmin stepping recovered")
        true
        (match late with Ok r -> r.Dc.gmin_steps > 0 | Error () -> false);
      Alcotest.(check bool)
        (name ^ ": recovered as the oracle does")
        true
        (report_bits late = report_bits oracle))
    linear_targets

(* -------------------------------------------------------------- clustering *)

let cluster_params =
  [
    Testgen.Test_param.create ~name:"x" ~units:"" ~lower:0. ~upper:1. ~seed:0.5;
    Testgen.Test_param.create ~name:"y" ~units:"" ~lower:0. ~upper:1. ~seed:0.5;
  ]

let prop_cluster_complete_linkage =
  QCheck.Test.make
    ~name:"every pair inside a cluster is within the threshold" ~count:60
    QCheck.(pair (int_range 2 25) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 3)) in
      let items =
        List.init n (fun i ->
            {
              Testgen.Cluster.item_id = Printf.sprintf "p%d" i;
              location =
                [|
                  Numerics.Rng.uniform rng ~lo:0. ~hi:1.;
                  Numerics.Rng.uniform rng ~lo:0. ~hi:1.;
                |];
            })
      in
      let threshold = 0.2 in
      let groups =
        Testgen.Cluster.group ~params:cluster_params ~threshold items
      in
      (* partition check *)
      let count = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
      count = n
      && List.for_all
           (fun g ->
             List.for_all
               (fun (a : Testgen.Cluster.item) ->
                 List.for_all
                   (fun (b : Testgen.Cluster.item) ->
                     (* locations are back in physical units = normalized
                        here since bounds are [0,1] *)
                     Testgen.Cluster.distance a.Testgen.Cluster.location
                       b.Testgen.Cluster.location
                     <= threshold +. 1e-9)
                   g)
               g)
           groups)

(* {!Testgen.Cluster.group} merges in place; the oracle rebuilds its
   cluster list on every merge.  The groups must be equal, including on
   the inputs where scan order and tie-breaks decide: repeated
   locations, exactly tied distances and distances exactly at the
   threshold.  Half the draws place items on a grid of eighths (exact
   in binary, as are the bounds [-2, 2] and [0, 1]), so ties and
   threshold hits are exact. *)
let prop_cluster_matches_oracle =
  let params =
    [
      Testgen.Test_param.create ~name:"x" ~units:"" ~lower:(-2.) ~upper:2.
        ~seed:0.;
      Testgen.Test_param.create ~name:"y" ~units:"" ~lower:0. ~upper:1.
        ~seed:0.5;
    ]
  in
  QCheck.Test.make ~name:"in-place grouping matches the list-rebuilding oracle"
    ~count:120
    QCheck.(pair (int_range 1 40) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 7)) in
      let on_grid = Numerics.Rng.int rng ~bound:2 = 0 in
      let coord () =
        if on_grid then float_of_int (Numerics.Rng.int rng ~bound:9) /. 8.
        else Numerics.Rng.uniform rng ~lo:0. ~hi:1.
      in
      (* a pool smaller than the item count repeats locations *)
      let pool =
        Array.init
          (1 + Numerics.Rng.int rng ~bound:n)
          (fun _ -> [| -2. +. (4. *. coord ()); coord () |])
      in
      let items =
        List.init n (fun i ->
            {
              Testgen.Cluster.item_id = Printf.sprintf "f%d" i;
              location =
                Array.copy pool.(Numerics.Rng.int rng ~bound:(Array.length pool));
            })
      in
      let threshold =
        [| 0.; 0.125; 0.25; 0.375; 0.2 |].(Numerics.Rng.int rng ~bound:5)
      in
      Testgen.Cluster.group ~params ~threshold items
      = Cluster_oracle.group ~params ~threshold items)

let prop_centroid_inside_hull =
  QCheck.Test.make ~name:"centroid stays within the member bounding box"
    ~count:60
    QCheck.(pair (int_range 1 10) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 5)) in
      let members =
        List.init n (fun i ->
            {
              Testgen.Cluster.item_id = Printf.sprintf "m%d" i;
              location =
                [|
                  Numerics.Rng.uniform rng ~lo:(-5.) ~hi:5.;
                  Numerics.Rng.uniform rng ~lo:(-5.) ~hi:5.;
                |];
            })
      in
      let c = Testgen.Cluster.centroid members in
      let coords d =
        List.map (fun (m : Testgen.Cluster.item) -> m.Testgen.Cluster.location.(d)) members
      in
      List.for_all
        (fun d ->
          let cs = coords d in
          let lo = List.fold_left Float.min infinity cs in
          let hi = List.fold_left Float.max neg_infinity cs in
          c.(d) >= lo -. 1e-12 && c.(d) <= hi +. 1e-12)
        [ 0; 1 ])

(* ----------------------------------------------------------- collapse math *)

let prop_acceptance_monotone_in_delta =
  QCheck.Test.make
    ~name:"collapse acceptance bound is monotone in delta" ~count:200
    QCheck.(pair (float_range (-10.) 1.) (pair (float_range 0. 0.5) (float_range 0.5 1.)))
    (fun (s_opt, (d1, d2)) ->
      (* bound(delta) = s_opt + delta (1 - s_opt); 1 - s_opt >= 0 *)
      let bound d = s_opt +. (d *. (1. -. s_opt)) in
      bound d1 <= bound d2 +. 1e-12)

(* ------------------------------------------------------------- sensitivity *)

let prop_sensitivity_min =
  QCheck.Test.make ~name:"combined sensitivity is the component minimum"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 6) (float_range (-100.) 1.))
    (fun components ->
      let arr = Array.of_list components in
      let s = Testgen.Sensitivity.combine arr in
      Array.for_all (fun c -> s <= c +. 1e-12) arr
      && Array.exists (fun c -> Float.abs (c -. s) < 1e-12) arr)

let prop_sensitivity_scaling =
  QCheck.Test.make ~name:"sensitivity is linear in the deviation" ~count:100
    QCheck.(pair (float_range 0.01 10.) (float_range 0.1 10.))
    (fun (dev, box) ->
      let s1 = Testgen.Sensitivity.of_deviation ~deviation:dev ~box in
      let s2 = Testgen.Sensitivity.of_deviation ~deviation:(2. *. dev) ~box in
      (* 1 - 2d/b = 2(1 - d/b) - 1 *)
      Float.abs (s2 -. ((2. *. s1) -. 1.)) <= 1e-9)

(* ------------------------------------------------------- in-place LU *)

(* Random strictly diagonally dominant system: always factorable, and
   awkward enough (random signs and magnitudes) to exercise pivoting. *)
let random_system rng n =
  let a = Numerics.Mat.create n n in
  for i = 0 to n - 1 do
    let row_sum = ref 0. in
    for j = 0 to n - 1 do
      if j <> i then begin
        let x = Numerics.Rng.uniform rng ~lo:(-1.) ~hi:1. in
        row_sum := !row_sum +. Float.abs x;
        Numerics.Mat.set a i j x
      end
    done;
    let sign = if Numerics.Rng.uniform rng ~lo:0. ~hi:1. < 0.5 then -1. else 1. in
    Numerics.Mat.set a i i (sign *. (!row_sum +. 1.))
  done;
  let b =
    Numerics.Vec.init n (fun _ -> Numerics.Rng.uniform rng ~lo:(-10.) ~hi:10.)
  in
  (a, b)

(* The unchecked kernels against the checked reference they replaced
   ({!Lu_oracle}): random systems of sizes 1-20 in five shapes, three
   per case through one workspace so stale state from the previous
   factorization would show.  Shapes: sparse-ish random (exact zeros, so
   the zero-multiplier skip runs), rank-deficient (a row copied onto
   another), a zero column (a [Singular] payload), a diagonally
   dominant system with its rows shuffled (forced swaps), and small
   integers (ties in pivot magnitude, so the first-maximum rule
   shows). *)
let random_shaped rng n shape =
  let u lo hi = Numerics.Rng.uniform rng ~lo ~hi in
  let a =
    match shape with
    | 3 ->
        let a, _ = random_system rng n in
        let perm = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Numerics.Rng.int rng ~bound:(i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        Numerics.Mat.of_rows
          (Array.init n (fun i ->
               Array.init n (fun j -> Numerics.Mat.get a perm.(i) j)))
    | 4 ->
        Numerics.Mat.of_rows
          (Array.init n (fun _ ->
               Array.init n (fun _ ->
                   float_of_int (Numerics.Rng.int rng ~bound:5 - 2))))
    | _ ->
        let a = Numerics.Mat.create n n in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if u 0. 1. < 0.7 then Numerics.Mat.set a i j (u (-1.) 1.)
          done
        done;
        a
  in
  (match shape with
  | 1 when n > 1 ->
      let src = Numerics.Rng.int rng ~bound:n in
      let dst = (src + 1 + Numerics.Rng.int rng ~bound:(n - 1)) mod n in
      for j = 0 to n - 1 do
        Numerics.Mat.set a dst j (Numerics.Mat.get a src j)
      done
  | 2 ->
      let c = Numerics.Rng.int rng ~bound:n in
      for i = 0 to n - 1 do
        Numerics.Mat.set a i c 0.
      done
  | _ -> ());
  (a, Numerics.Vec.init n (fun _ -> u (-10.) 10.))

let prop_lu_kernel_oracle =
  QCheck.Test.make ~name:"dense kernels match the checked reference bit for bit"
    ~count:300
    QCheck.(triple (int_range 1 20) (int_range 0 4) (int_range 0 1_000_000))
    (fun (n, shape, seed) ->
      let rng = Numerics.Rng.create (Int64.of_int (seed + 29)) in
      let ws = Numerics.Mat.lu_workspace n in
      List.for_all
        (fun shape ->
          let a, b = random_shaped rng n shape in
          Lu_oracle.reference a b = Lu_oracle.kernel ws a b)
        [ shape; (shape + 1) mod 5; shape ])

(* The systems the paper's transient Newton factors: the IV-converter
   under a configuration #4 step, assembled at each step's solution with
   that step's backward-Euler companions, plus the zero-guess systems of
   the operating point. *)
let iv_transient_systems () =
  let target =
    Experiments.Setup.target_of_macro Macros.Iv_converter.macro
      Macros.Process.nominal
  in
  let nl =
    Testgen.Execute.with_stimulus target.Testgen.Execute.netlist
      ~source:target.Testgen.Execute.stimulus_source
      (Waveform.Step { base = 0.; elev = 25e-6; delay = 100e-9; rise = 10e-9 })
  in
  let sys = Mna.build nl in
  let nodes = Netlist.nodes nl in
  let dt = 1e-8 and steps = 40 in
  let r = Tran.simulate sys ~tstop:(dt *. float_of_int steps) ~dt ~observe:nodes in
  let x_at k =
    let x = Numerics.Vec.create (Mna.size sys) 0. in
    List.iter
      (fun node ->
        match Mna.node_index sys node with
        | Some i -> x.(i) <- (Tran.probe_values r node).(k)
        | None -> ())
      nodes;
    x
  in
  let companions x_prev =
    let c = Array.make (Mna.companion_slots sys) 0. in
    List.iter
      (function
        | Device.Capacitor { name; a; b; farads } ->
            let slot = Mna.companion_slot sys name in
            let geq = farads /. dt in
            c.(slot) <- geq;
            c.(slot + 1) <- geq *. (Mna.voltage sys x_prev a -. Mna.voltage sys x_prev b)
        | _ -> ())
      (Netlist.devices nl);
    c
  in
  let zero = Numerics.Vec.create (Mna.size sys) 0. in
  List.map
    (fun gmin -> Mna.assemble sys ~x:zero ~time:(`Time 0.) ~gmin ())
    [ 1e-12; 1e-2 ]
  @ List.init steps (fun k ->
        let k = k + 1 in
        Mna.assemble sys ~x:(x_at k)
          ~time:(`Time (dt *. float_of_int k))
          ~companions:(companions (x_at (k - 1)))
          ~gmin:1e-12 ())

let test_lu_kernel_iv_systems () =
  let systems = iv_transient_systems () in
  let ws = Numerics.Mat.lu_workspace (Numerics.Mat.rows (fst (List.hd systems))) in
  List.iteri
    (fun i (a, z) ->
      match Lu_oracle.reference a z with
      | Lu_oracle.Singular k -> Alcotest.failf "system %d singular at %d" i k
      | expected ->
          if expected <> Lu_oracle.kernel ws a z then
            Alcotest.failf "system %d: kernel differs from the reference" i)
    systems

(* Every entry check of the unchecked kernels still raises. *)
let test_lu_entry_checks () =
  let open Numerics in
  let raises label f =
    match f () with
    | () -> Alcotest.failf "%s: no Invalid_argument" label
    | exception Invalid_argument _ -> ()
  in
  let a, b = random_system (Rng.create 5L) 4 in
  let ws = Mat.lu_workspace 4 in
  raises "solve on an unfactored workspace" (fun () ->
      Mat.solve_into ws b (Vec.create 4 0.));
  raises "pivots of an unfactored workspace" (fun () ->
      ignore (Mat.lu_pivots ws));
  raises "non-square" (fun () -> Mat.factor_in_place (Mat.create 4 3) ws);
  raises "size mismatch" (fun () -> Mat.factor_in_place (Mat.create 5 5) ws);
  Mat.factor_in_place a ws;
  raises "aliased b and x" (fun () -> Mat.solve_into ws b b);
  raises "short b" (fun () -> Mat.solve_into ws (Vec.create 3 0.) (Vec.create 4 0.));
  raises "short x" (fun () -> Mat.solve_into ws b (Vec.create 3 0.));
  raises "lu_solve dimension" (fun () -> ignore (Mat.lu_solve ws (Vec.create 5 0.)));
  (* a Singular raise leaves the workspace unfactored *)
  (match Mat.factor_in_place (Mat.create 4 4) ws with
  | () -> Alcotest.fail "zero matrix factored"
  | exception Mat.Singular 0 -> ()
  | exception Mat.Singular k -> Alcotest.failf "zero matrix: Singular %d" k);
  raises "solve after Singular" (fun () -> Mat.solve_into ws b (Vec.create 4 0.))

let () =
  Alcotest.run "properties"
    [
      ( "physics",
        [
          QCheck_alcotest.to_alcotest prop_tran_matches_ac;
          QCheck_alcotest.to_alcotest prop_ladder_reduction;
          QCheck_alcotest.to_alcotest prop_mna_symmetry;
          QCheck_alcotest.to_alcotest prop_linearity;
        ] );
      ( "newton",
        [
          QCheck_alcotest.to_alcotest prop_newton_oracle;
          QCheck_alcotest.to_alcotest prop_newton_oracle_linear;
          QCheck_alcotest.to_alcotest prop_held_factorization;
          Alcotest.test_case "injection runs the linear-plan loop" `Quick
            test_injection_runs_the_linear_loop;
        ] );
      ( "lu",
        [
          QCheck_alcotest.to_alcotest prop_lu_kernel_oracle;
          Alcotest.test_case "kernel matches the reference on IV systems"
            `Quick test_lu_kernel_iv_systems;
          Alcotest.test_case "entry checks raise" `Quick test_lu_entry_checks;
        ] );
      ( "clustering",
        [
          QCheck_alcotest.to_alcotest prop_cluster_complete_linkage;
          QCheck_alcotest.to_alcotest prop_cluster_matches_oracle;
          QCheck_alcotest.to_alcotest prop_centroid_inside_hull;
        ] );
      ( "algebra",
        [
          QCheck_alcotest.to_alcotest prop_acceptance_monotone_in_delta;
          QCheck_alcotest.to_alcotest prop_sensitivity_min;
          QCheck_alcotest.to_alcotest prop_sensitivity_scaling;
        ] );
    ]
