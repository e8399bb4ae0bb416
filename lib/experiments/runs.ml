open Testgen

let fig1 () =
  "FIG1 -- test configuration description example (cf. paper Fig. 1)\n\n"
  ^ Test_config.describe Iv_configs.config5

let tab1 () =
  let rows =
    List.map
      (fun (c : Test_config.t) ->
        [
          string_of_int c.Test_config.config_id;
          c.Test_config.config_name;
          c.Test_config.summary;
          String.concat ", "
            (List.map
               (fun p -> Format.asprintf "%a" Test_param.pp p)
               c.Test_config.params);
          String.concat ", " c.Test_config.return_names;
        ])
      Iv_configs.all
  in
  "TAB1 -- test configuration definitions for the IV-converter (cf. Table 1)\n\n"
  ^ Report.Table.of_rows
      ~headers:
        [
          ("#", Report.Table.Right);
          ("name", Report.Table.Left);
          ("stimulus", Report.Table.Left);
          ("parameters (bounds, seed)", Report.Table.Left);
          ("return value(s)", Report.Table.Left);
        ]
      rows

let tps_fault = Faults.Fault.bridge "n1" "vout" ~resistance:10e3

let render_tps (g : Tps.graph) =
  match g.Tps.axes with
  | [ (xn, xs); (yn, ys) ] ->
      (* Tps stores values row-major with axis 0 outermost *)
      Report.Heatmap.render ~x_axis:(xn, xs) ~y_axis:(yn, ys)
        ~values:(fun xi yi -> g.Tps.values.((xi * Array.length ys) + yi))
        ()
  | [ (xn, xs) ] ->
      Report.Heatmap.render_1d ~x_axis:(xn, xs) ~values:g.Tps.values ~height:12
  | _ -> "unsupported tps rank\n"

let fig234 ?(grid = 9) ctx =
  let ev = Evaluator.find ctx.Setup.evaluators 3 in
  (* The paper weakens its example bridge over 10k/34k/75k; our macro's
     soft-fault boundary for this bridge sits higher, so the same
     hard/soft/soft progression uses 10k/75k/150k. *)
  let impacts = [ (10e3, "FIG2", "hard-fault region");
                  (75e3, "FIG3", "soft-fault region");
                  (150e3, "FIG4", "soft-fault region") ] in
  let graphs =
    List.map
      (fun (r, tag, region) ->
        let g =
          Tps.sweep ev (Faults.Fault.with_impact tps_fault r) ~grid ()
        in
        (tag, region, r, g))
      impacts
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (tag, region, r, g) ->
      let arg, s = Tps.argmin g in
      Buffer.add_string b
        (Printf.sprintf
           "%s -- tps-graph, THD configuration, bridge n1-vout at %s (%s)\n"
           tag
           (Circuit.Units.format_eng ~unit_symbol:"Ohm" r)
           region);
      Buffer.add_string b
        (Printf.sprintf
           "  argmin: Iin_dc=%s freq=%s  S=%.3g  detected fraction=%.2f\n\n"
           (Circuit.Units.format_eng ~unit_symbol:"A" arg.(0))
           (Circuit.Units.format_eng ~unit_symbol:"Hz" arg.(1))
           s (Tps.detection_fraction g));
      Buffer.add_string b (render_tps g);
      Buffer.add_char b '\n')
    graphs;
  (match graphs with
  | [ (_, _, _, g_hard); (_, _, _, g_soft1); (_, _, _, g_soft2) ] ->
      let s_hard = Tps.normalized_argmin_shift g_hard g_soft1 in
      let s_soft = Tps.normalized_argmin_shift g_soft1 g_soft2 in
      Buffer.add_string b
        (Printf.sprintf
           "soft-region stability (sec. 3.2): argmin shift 10k->75k = %.2f, \
            75k->150k = %.2f\n\
            (once the impact enters the soft-fault region the optimum \
            location is stable: the second shift is the small one, while \
            the landscape only flattens and shifts upward)\n"
           s_hard s_soft)
  | _ -> ());
  Buffer.contents b

let fig5 ctx =
  let ev = Evaluator.find ctx.Setup.evaluators 2 in
  let config = Evaluator.config ev in
  let seeds = Test_config.param_values_of_seed config in
  let nominal = Evaluator.nominal_observables ev seeds in
  let box = Evaluator.box ev seeds in
  (* a weak fault response inside the box, and a strong one outside *)
  let fault = Faults.Fault.bridge "ntail" "vref" ~resistance:10e3 in
  let weak = Faults.Fault.with_impact fault 10e6 in
  let r1 = Evaluator.faulty_observables ev weak seeds in
  let r2 = Evaluator.faulty_observables ev fault seeds in
  let line label obs =
    Printf.sprintf "  %-26s r1=%8.4f V  r2=%8.4f V" label obs.(0) obs.(1)
  in
  String.concat "\n"
    [
      "FIG5 -- two return values with tolerance box (cf. Fig. 5)";
      "";
      Printf.sprintf "configuration #2 at seed parameters, p = %d return values"
        (Test_config.return_count config);
      line "nominal" nominal;
      Printf.sprintf "  %-26s b1=%8.4f V  b2=%8.4f V" "tolerance box half-width"
        box (* box.(0), box.(1) below *).(0) box.(1);
      line
        (Printf.sprintf "R(T)_1: %s" (Faults.Fault.describe weak))
        r1;
      line (Printf.sprintf "R(T)_2: %s" (Faults.Fault.describe fault)) r2;
      "";
      Printf.sprintf
        "  R(T)_1 stays inside the box (|dr| <= b): may be fault-free -> \
         undetected (S=%.3f)"
        (Sensitivity.compute config ~box ~nominal ~faulty:r1);
      Printf.sprintf
        "  R(T)_2 leaves the box: can only come from a faulty circuit \
         (S=%.3f)"
        (Sensitivity.compute config ~box ~nominal ~faulty:r2);
      "";
    ]

let fig6 ?(fault_id = "bridge:n1-vout") ctx =
  match Faults.Dictionary.find ctx.Setup.dictionary fault_id with
  | None -> Printf.sprintf "FIG6: unknown fault %s\n" fault_id
  | Some entry ->
      let r = Generate.generate ~evaluators:ctx.Setup.evaluators entry in
      let b = Buffer.create 2048 in
      Buffer.add_string b
        (Printf.sprintf
           "FIG6 -- generation scheme trace for %s (cf. Fig. 6)\n\n"
           (Faults.Fault.describe entry.Faults.Dictionary.fault));
      Buffer.add_string b "step 1: per-configuration optimization against the weakened model\n";
      List.iter
        (fun (c : Generate.candidate) ->
          Buffer.add_string b
            (Printf.sprintf
               "  tc%d: params=[%s]  S_low=%9.3f  (%d fault simulations)\n"
               c.Generate.cand_config_id
               (String.concat "; "
                  (Array.to_list
                     (Array.map Circuit.Units.format_eng c.Generate.cand_params)))
               c.Generate.low_impact_sensitivity c.Generate.optimizer_evaluations))
        r.Generate.candidates;
      Buffer.add_string b "\nstep 2: fault-impact convergence\n";
      List.iter
        (fun (s : Generate.trace_step) ->
          Buffer.add_string b
            (Printf.sprintf "  impact R=%-10s detecting: {%s}\n"
               (Circuit.Units.format_eng ~unit_symbol:"Ohm" s.Generate.impact)
               (String.concat ", "
                  (List.map (Printf.sprintf "tc%d") s.Generate.detecting))))
        r.Generate.trace;
      (match r.Generate.outcome with
      | Generate.Unique { config_id; params; critical_impact; dictionary_sensitivity } ->
          Buffer.add_string b
            (Printf.sprintf
               "\nsurvivor: tc%d params=[%s]\ncritical impact level: %s  \
                (S at dictionary impact: %.3f)\n"
               config_id
               (String.concat "; "
                  (Array.to_list (Array.map Circuit.Units.format_eng params)))
               (Circuit.Units.format_eng ~unit_symbol:"Ohm" critical_impact)
               dictionary_sensitivity)
      | Generate.Undetectable { most_sensitive_config; best_sensitivity; strongest_impact; _ } ->
          Buffer.add_string b
            (Printf.sprintf
               "\nundetectable; most sensitive test tc%d (S=%.3f at R=%s)\n"
               most_sensitive_config best_sensitivity
               (Circuit.Units.format_eng ~unit_symbol:"Ohm" strongest_impact)));
      Buffer.contents b

let fig7 () =
  let dev =
    Circuit.Device.Mosfet
      {
        name = "m6";
        drain = "n2";
        gate = "n1";
        source = "vdd";
        model = Circuit.Mos_model.pmos_default;
        w = 100e-6;
        l = 1e-6;
      }
  in
  let expansion =
    Faults.Inject.pinhole_subcircuit dev ~r_shunt:2e3 ~internal_node:"m6_ph1"
  in
  "FIG7 -- the pinhole fault model (cf. Fig. 7)\n\n"
  ^ "a gate-oxide pinhole splits the channel at 25% of L from the drain\n"
  ^ "and shunts gate to channel with the impact resistance Rp:\n\n"
  ^ Printf.sprintf "  original: %s\n\n" (Circuit.Device.to_spice dev)
  ^ String.concat "\n"
      (List.map
         (fun d -> "  " ^ Circuit.Device.to_spice d)
         expansion)
  ^ "\n"

let engine_run ?progress ?options ?policy ?jobs ctx =
  Engine.run ?options ?policy ?progress ?jobs ~evaluators:ctx.Setup.evaluators
    ctx.Setup.dictionary

(* A session file that exists but fails to load is corrupt; a missing or
   unreadable one is a plain IO error. *)
let session_error_code path =
  if Sys.file_exists path then Engine.exit_corrupt_session else 1

(* The checkpoint-resume sequence of both `atpg generate --resume` and a
   named daemon session: salvage the file's prefix, resume it, append
   every new result in dictionary order, and close the file on every
   exit — including an exception raised by [on_append], which is how the
   daemon's drain stops a run at checkpoint granularity. *)
let resume_run ?progress ?options ?policy ?jobs ?(on_resume = ignore)
    ?(on_append = ignore) ~path ctx =
  match Session.checkpoint_resume ~path with
  | Error m ->
      Error (session_error_code path, "cannot resume checkpoint: " ^ m)
  | Ok (ck, prior) ->
      let completed = ref (List.length prior) in
      let checkpoint r =
        Session.checkpoint_append ck r;
        incr completed;
        on_append !completed
      in
      Fun.protect
        ~finally:(fun () -> Session.checkpoint_close ck)
        (fun () ->
          on_resume !completed;
          Ok
            (Engine.run ?options ?policy ?progress ?jobs ~resume:prior
               ~checkpoint ~evaluators:ctx.Setup.evaluators
               ctx.Setup.dictionary))

let tab2 _ctx run =
  let dist = Engine.distribution run in
  let rows =
    List.map
      (fun (d : Engine.distribution_row) ->
        [
          Printf.sprintf "#%d" d.Engine.dist_config_id;
          string_of_int d.Engine.bridge_count;
          string_of_int d.Engine.pinhole_count;
        ])
      dist
  in
  let total_b = List.fold_left (fun a (d : Engine.distribution_row) -> a + d.Engine.bridge_count) 0 dist in
  let total_p = List.fold_left (fun a (d : Engine.distribution_row) -> a + d.Engine.pinhole_count) 0 dist in
  let undet = Engine.undetectable_faults run in
  "TAB2 -- distribution of best tests over configurations (cf. Table 2)\n\n"
  ^ Report.Table.of_rows
      ~headers:
        [
          ("ID test configuration", Report.Table.Left);
          ("bridge", Report.Table.Right);
          ("pinhole", Report.Table.Right);
        ]
      (rows @ [ [ "total"; string_of_int total_b; string_of_int total_p ] ])
  ^ Printf.sprintf
      "\nundetectable faults at every tried impact: %d%s\n\
       engine: %d fault simulations, %.1f s wall clock\n"
      (List.length undet)
      (match undet with
      | [] -> ""
      | _ ->
          " ("
          ^ String.concat ", " (List.map (fun r -> r.Generate.fault_id) undet)
          ^ ")")
      run.Engine.total_fault_simulations run.Engine.wall_seconds

let fig8 ctx run =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "FIG8 -- optimized test parameter values, configurations #1..#3 (cf. Fig. 8)\n\n";
  let for_config cid =
    Engine.results_for_config run ~config_id:cid
    |> List.map (fun r -> (r.Generate.fault_id, Generate.best_params r))
  in
  (* config 1: one parameter -> strip plot *)
  let c1 = Evaluator.config (Evaluator.find ctx.Setup.evaluators 1) in
  let p1 = List.hd c1.Test_config.params in
  let pts1 = List.map (fun (_, v) -> v.(0)) (for_config 1) in
  Buffer.add_string b
    (Printf.sprintf "configuration #1 (%d tests), lev axis:\n"
       (List.length pts1));
  Buffer.add_string b
    (Report.Scatter.render_1d ~label:"lev [A]"
       ~range:(p1.Test_param.lower, p1.Test_param.upper)
       pts1);
  Buffer.add_char b '\n';
  (* configs 2, 3: scatter *)
  List.iter
    (fun cid ->
      let c = Evaluator.config (Evaluator.find ctx.Setup.evaluators cid) in
      match c.Test_config.params with
      | [ px; py ] ->
          let pts = List.map (fun (_, v) -> (v.(0), v.(1))) (for_config cid) in
          Buffer.add_string b
            (Printf.sprintf "configuration #%d (%d tests):\n" cid
               (List.length pts));
          Buffer.add_string b
            (Report.Scatter.render
               ~x_label:
                 (Printf.sprintf "%s [%s]" px.Test_param.param_name
                    px.Test_param.units)
               ~y_label:
                 (Printf.sprintf "%s [%s]" py.Test_param.param_name
                    py.Test_param.units)
               ~x_range:(px.Test_param.lower, px.Test_param.upper)
               ~y_range:(py.Test_param.lower, py.Test_param.upper)
               [ { Report.Scatter.series_glyph = 'o'; points = pts } ]);
          Buffer.add_char b '\n'
      | _ -> ())
    [ 2; 3 ];
  Buffer.contents b

let tab3 ctx run =
  let results = Engine.results_for_config run ~config_id:5 in
  let c = Evaluator.config (Evaluator.find ctx.Setup.evaluators 5) in
  let param_names =
    List.map (fun p -> p.Test_param.param_name) c.Test_config.params
  in
  let rows =
    List.map
      (fun r ->
        let v = Generate.best_params r in
        r.Generate.fault_id
        :: List.mapi
             (fun i _ -> Circuit.Units.format_eng ~unit_symbol:"A" v.(i))
             param_names)
      results
  in
  "TAB3 -- best tests defined by configuration #5 (cf. Table 3)\n\n"
  ^
  if rows = [] then "(no fault selected configuration #5 in this run)\n"
  else
    Report.Table.of_rows
      ~headers:
        (("fault", Report.Table.Left)
        :: List.map (fun n -> (n, Report.Table.Right)) param_names)
      rows

let render_tab4 ~delta result =
  let rows =
    List.map
      (fun (ct : Compactor.compact_test) ->
        [
          ct.Compactor.ct_label;
          Printf.sprintf "#%d" ct.Compactor.ct_config_id;
          String.concat "; "
            (Array.to_list
               (Array.map Circuit.Units.format_eng ct.Compactor.ct_params));
          string_of_int (List.length ct.Compactor.ct_fault_ids);
        ])
      result.Compactor.compact_tests
  in
  "TAB4 -- collapsed test set (cf. sec. 4.2, delta = "
  ^ Printf.sprintf "%.2f" delta
  ^ ")\n\n"
  ^ Report.Table.of_rows
      ~headers:
        [
          ("test", Report.Table.Left);
          ("configuration", Report.Table.Left);
          ("parameters", Report.Table.Left);
          ("faults collapsed", Report.Table.Right);
        ]
      rows
  ^ Printf.sprintf
      "\n%d fault-specific tests collapsed onto %d compact tests \
       (ratio %.1fx)\nscreening: %d proposals, %d accepted, %d splits\n\
       final coverage at dictionary impacts: %d/%d (%.1f%%)%s\n"
      result.Compactor.original_test_count
      (List.length result.Compactor.compact_tests)
      (Compactor.compaction_ratio result)
      result.Compactor.stats.Collapse.proposals
      result.Compactor.stats.Collapse.accepted
      result.Compactor.stats.Collapse.splits result.Compactor.coverage.Coverage.covered
      result.Compactor.coverage.Coverage.total
      (Coverage.percent result.Compactor.coverage)
      (match Coverage.missed result.Compactor.coverage with
      | [] -> ""
      | m -> "\nmissed: " ^ String.concat ", " m)

let compact_run ?(delta = 0.1) ctx run =
  Compactor.compact ~delta ~evaluators:ctx.Setup.evaluators
    ctx.Setup.dictionary run

let tab4 ?(delta = 0.1) ctx run = render_tab4 ~delta (compact_run ~delta ctx run)

let xbase ctx run =
  let summary = Baseline.compare ~evaluators:ctx.Setup.evaluators ctx.Setup.dictionary run in
  let better =
    List.length
      (List.filter
         (fun c ->
           match
             (c.Baseline.optimized_critical_impact, c.Baseline.seed_critical_impact)
           with
           | Some o, Some s -> o > s *. 1.05
           | Some _, None -> true
           | None, _ -> false)
         summary.Baseline.comparisons)
  in
  Printf.sprintf
    "XBASE -- tailored optimization vs fixed-seed selection (cf. sec. 2.2)\n\n\
     faults covered at dictionary impact: optimized %d/%d, seed-only %d/%d\n\
     faults where optimization extends the detectable impact range: %d\n\
     median critical-impact gain (optimized / seed): %.2fx\n\
     (the paper's claim: plain selection from a fixed set 'will not result \
     in the most sensitive test set')\n"
    summary.Baseline.optimized_covered summary.Baseline.total
    summary.Baseline.seed_covered summary.Baseline.total better
    summary.Baseline.median_impact_gain

let all_reports ?progress ?(on_calibrate = ignore)
    ?(profile = Execute.default_profile) () =
  let ctx =
    lazy
      (on_calibrate ();
       Setup.iv ~profile ())
  in
  let run = lazy (engine_run ?progress (Lazy.force ctx)) in
  let compaction =
    lazy (compact_run ~delta:0.1 (Lazy.force ctx) (Lazy.force run))
  in
  let with_ctx f () = f (Lazy.force ctx) in
  let with_run f () = f (Lazy.force ctx) (Lazy.force run) in
  [
    ("fig1", fig1);
    ("tab1", tab1);
    ("fig234", with_ctx (fun c -> fig234 c));
    ("fig5", with_ctx fig5);
    ("fig6", with_ctx (fun c -> fig6 c));
    ("fig7", fig7);
    ("tab2", with_run tab2);
    ("fig8", with_run fig8);
    ("tab3", with_run tab3);
    ("tab4", fun () -> render_tab4 ~delta:0.1 (Lazy.force compaction));
    ("xbase", with_run xbase);
    ( "xac",
      fun () ->
        on_calibrate ();
        Extensions.xac_report (Extensions.iv_with_ac ~profile ()) );
    ( "xifa",
      fun () ->
        Extensions.xifa_report (Lazy.force ctx) (Lazy.force run)
          (Lazy.force compaction) );
    ("xeq", with_run Extensions.xeq_report);
    ( "xq",
      fun () -> Extensions.xq_report (Lazy.force ctx) (Lazy.force compaction) );
    ("ximd", with_ctx Extensions.ximd_report);
  ]
