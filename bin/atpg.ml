(* Command-line front end for the analog ATPG reproduction. *)

open Cmdliner
open Testgen

let macro_of_name = Macros.Registry.find

let macro_arg =
  let doc =
    "Target macro: $(b,iv) (the paper's IV-converter), $(b,ota), $(b,sk), \
     or a parametric family — $(b,rc)$(i,N) (RC ladder), $(b,skc)$(i,N) \
     (Sallen-Key filter chain), $(b,otac)$(i,N) (OTA cascade)."
  in
  Arg.(value & opt string "iv" & info [ "macro" ] ~docv:"NAME" ~doc)

let fast_arg =
  let doc = "Use the fast execution profile (coarser THD windows)." in
  Arg.(value & flag & info [ "fast" ] ~doc)

(* Numeric flags are validated at parse time: garbage and out-of-range
   values produce a friendly cmdliner error (usage exit code) instead of
   being silently clamped or crashing mid-run. *)
let bounded_int ~what ~min () =
  let parse s =
    match int_of_string_opt s with
    | None ->
        Error (`Msg (Printf.sprintf "%s: expected an integer, got %S" what s))
    | Some v when v < min ->
        Error (`Msg (Printf.sprintf "%s must be >= %d (got %d)" what min v))
    | Some v -> Ok v
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let take_arg =
  let doc = "Only process the first $(docv) dictionary faults." in
  Arg.(
    value
    & opt (some (bounded_int ~what:"--take" ~min:1 ())) None
    & info [ "take" ] ~docv:"N" ~doc)

let profile_of fast =
  if fast then Execute.fast_profile else Execute.default_profile

let with_macro name f =
  match macro_of_name name with
  | Error e ->
      prerr_endline e;
      1
  | Ok macro -> f macro

let fault_of_dictionary macro fid =
  let dict = Macros.Macro.dictionary macro in
  match Faults.Dictionary.find dict fid with
  | Some entry -> Ok entry
  | None ->
      Error
        (Printf.sprintf "unknown fault %S; use `atpg faults` to list ids" fid)

(* -- netlist ----------------------------------------------------------- *)

let netlist_cmd =
  let run macro_name fault_id impact =
    with_macro macro_name (fun macro ->
        let nl = Macros.Macro.nominal_netlist macro in
        match fault_id with
        | None ->
            print_string (Circuit.Netlist.to_spice nl);
            0
        | Some fid -> begin
            match fault_of_dictionary macro fid with
            | Error e ->
                prerr_endline e;
                1
            | Ok entry ->
                let fault =
                  match impact with
                  | None -> entry.Faults.Dictionary.fault
                  | Some r ->
                      Faults.Fault.with_impact entry.Faults.Dictionary.fault r
                in
                print_string
                  (Circuit.Netlist.to_spice (Faults.Inject.apply nl fault));
                0
          end)
  in
  let fault_arg =
    let doc = "Inject the fault with this id before printing." in
    Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"ID" ~doc)
  in
  let impact_arg =
    let doc = "Override the fault's model resistance (ohms)." in
    Arg.(value & opt (some float) None & info [ "impact" ] ~docv:"OHMS" ~doc)
  in
  Cmd.v
    (Cmd.info "netlist" ~doc:"Print the macro netlist (optionally faulty).")
    Term.(const run $ macro_arg $ fault_arg $ impact_arg)

(* -- op ---------------------------------------------------------------- *)

let op_cmd =
  let run macro_name =
    with_macro macro_name (fun macro ->
        let nl = Macros.Macro.nominal_netlist macro in
        let sys = Circuit.Mna.build nl in
        let report = Circuit.Dc.solve sys ~time:`Dc in
        let x = report.Circuit.Dc.solution in
        Printf.printf
          "operating point of %s (%s, newton: %d iterations, %d gmin steps)\n\n"
          macro.Macros.Macro.macro_name
          (Circuit.Mna.backend_name (Circuit.Mna.backend sys))
          report.Circuit.Dc.newton_iterations
          report.Circuit.Dc.gmin_steps;
        List.iter
          (fun n ->
            Printf.printf "  V(%-8s) = %9.5f V\n" n (Circuit.Mna.voltage sys x n))
          (Circuit.Netlist.nodes nl);
        print_newline ();
        List.iter
          (fun (name, op) ->
            Printf.printf "  %-6s ids = %10.3e A  (%s)\n" name
              op.Circuit.Mos_model.ids
              (match op.Circuit.Mos_model.region with
              | `Cutoff -> "cutoff"
              | `Triode -> "triode"
              | `Saturation -> "saturation"))
          (Circuit.Mna.mosfet_operating_points sys ~x);
        0)
  in
  Cmd.v
    (Cmd.info "op" ~doc:"Solve and print the macro's DC operating point.")
    Term.(const run $ macro_arg)

(* -- faults ------------------------------------------------------------ *)

let faults_cmd =
  let run macro_name =
    with_macro macro_name (fun macro ->
        let dict = Macros.Macro.dictionary macro in
        Format.printf "%a@." Faults.Dictionary.pp_summary dict;
        List.iter
          (fun e ->
            Printf.printf "  %-24s %s\n" e.Faults.Dictionary.fault_id
              (Faults.Fault.describe e.Faults.Dictionary.fault))
          (Faults.Dictionary.entries dict);
        0)
  in
  Cmd.v
    (Cmd.info "faults" ~doc:"List the macro's exhaustive fault dictionary.")
    Term.(const run $ macro_arg)

(* -- simulate ----------------------------------------------------------- *)

let simulate_cmd =
  let run file observe =
    match Circuit.Spice_parser.parse_file file with
    | Error e ->
        Printf.eprintf "%s:%d: %s\n" file e.Circuit.Spice_parser.line
          e.Circuit.Spice_parser.message;
        1
    | Ok nl -> begin
        match Circuit.Mna.build nl with
        | exception Invalid_argument msg ->
            Printf.eprintf "%s: %s\n" file msg;
            1
        | sys -> begin
            match Circuit.Dc.solve sys ~time:`Dc with
            | exception Circuit.Dc.No_convergence msg ->
                Printf.eprintf "%s\n" msg;
                1
            | report ->
                let x = report.Circuit.Dc.solution in
                Printf.printf "%s: DC operating point (%d newton iterations)\n"
                  (Circuit.Netlist.title nl)
                  report.Circuit.Dc.newton_iterations;
                let nodes =
                  match observe with
                  | [] -> Circuit.Netlist.nodes nl
                  | ns -> ns
                in
                List.iter
                  (fun n ->
                    match Circuit.Mna.voltage sys x n with
                    | v -> Printf.printf "  V(%-8s) = %9.5f V\n" n v
                    | exception Not_found ->
                        Printf.printf "  V(%-8s) = <unknown node>\n" n)
                  nodes;
                0
          end
      end
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DECK" ~doc:"SPICE-style netlist file.")
  in
  let observe_arg =
    Arg.(
      value & opt_all string []
      & info [ "observe" ] ~docv:"NODE" ~doc:"Only print these nodes.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Parse a SPICE-style deck and print its DC operating point.")
    Term.(const run $ file_arg $ observe_arg)

(* -- sweep -------------------------------------------------------------- *)

let sweep_cmd =
  let run macro_name lo hi points =
    with_macro macro_name (fun macro ->
        let nl = Macros.Macro.nominal_netlist macro in
        let source = macro.Macros.Macro.stimulus_source in
        let observe = macro.Macros.Macro.observe_node in
        let sweep_values = Circuit.Sweep.linspace ~lo ~hi ~points in
        match
          Circuit.Sweep.dc_transfer nl ~source ~sweep_values
            ~observe:[ observe ]
        with
        | exception Circuit.Dc.No_convergence msg ->
            prerr_endline msg;
            1
        | result ->
            let values = Circuit.Sweep.trace result observe in
            Printf.printf "DC transfer of %s: %s swept %s -> V(%s)\n\n"
              macro.Macros.Macro.macro_name source
              (Printf.sprintf "[%s, %s]" (Circuit.Units.format_eng lo)
                 (Circuit.Units.format_eng hi))
              observe;
            print_string
              (Report.Heatmap.render_1d
                 ~x_axis:(source, sweep_values)
                 ~values ~height:14);
            let mid = (lo +. hi) /. 2. in
            Printf.printf "slope at %s: %.4g\n" (Circuit.Units.format_eng mid)
              (Circuit.Sweep.slope_at result ~node:observe ~at:mid);
            0)
  in
  let lo_arg =
    Arg.(
      value & opt float (-50e-6)
      & info [ "from" ] ~docv:"VAL" ~doc:"Sweep start value.")
  in
  let hi_arg =
    Arg.(
      value & opt float 50e-6
      & info [ "to" ] ~docv:"VAL" ~doc:"Sweep end value.")
  in
  (* the slope printed at the midpoint needs three points *)
  let points_arg =
    Arg.(
      value
      & opt (bounded_int ~what:"--points" ~min:3 ()) 41
      & info [ "points" ] ~docv:"N" ~doc:"Grid points.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"DC-sweep the macro's stimulus and plot the transfer curve.")
    Term.(const run $ macro_arg $ lo_arg $ hi_arg $ points_arg)

(* -- noise -------------------------------------------------------------- *)

let noise_cmd =
  let run macro_name (lo, hi) points =
    with_macro macro_name (fun macro ->
        let nl = Macros.Macro.nominal_netlist macro in
        let sys = Circuit.Mna.build nl in
        let op = Circuit.Dc.operating_point sys ~time:`Dc in
        let freqs = Circuit.Ac.log_space ~lo ~hi ~points in
        let points_list =
          Circuit.Noise.output_noise sys ~op
            ~observe:macro.Macros.Macro.observe_node ~freqs
        in
        Printf.printf "output noise of %s at V(%s), %s .. %s\n\n"
          macro.Macros.Macro.macro_name macro.Macros.Macro.observe_node
          (Circuit.Units.format_eng ~unit_symbol:"Hz" lo)
          (Circuit.Units.format_eng ~unit_symbol:"Hz" hi);
        List.iter
          (fun p ->
            let top =
              match p.Circuit.Noise.contributions with
              | c :: _ ->
                  Printf.sprintf "  (dominant: %s, %.0f%%)"
                    c.Circuit.Noise.noise_source
                    (100. *. c.Circuit.Noise.psd
                    /. Float.max 1e-300 p.Circuit.Noise.total_psd)
              | [] -> ""
            in
            Printf.printf "  %10sHz  %.3e V^2/Hz  (%.2f nV/rtHz)%s\n"
              (Circuit.Units.format_eng p.Circuit.Noise.noise_freq_hz)
              p.Circuit.Noise.total_psd
              (1e9 *. sqrt p.Circuit.Noise.total_psd)
              top)
          points_list;
        Printf.printf "\nintegrated over the band: %.3f uV rms\n"
          (1e6 *. Circuit.Noise.integrated_rms points_list);
        0)
  in
  let lo_arg =
    Arg.(
      value & opt float 10.
      & info [ "from" ] ~docv:"HZ" ~doc:"Band start frequency.")
  in
  let hi_arg =
    Arg.(
      value & opt float 100e6
      & info [ "to" ] ~docv:"HZ" ~doc:"Band end frequency.")
  in
  let band_arg =
    let band lo hi =
      if lo > 0. && lo < hi then `Ok (lo, hi)
      else
        `Error
          ( false,
            Printf.sprintf "the band needs 0 < --from < --to (got %g .. %g)" lo
              hi )
    in
    Term.(ret (const band $ lo_arg $ hi_arg))
  in
  let points_arg =
    Arg.(
      value
      & opt (bounded_int ~what:"--points" ~min:2 ()) 25
      & info [ "points" ] ~docv:"N" ~doc:"Log-spaced grid points.")
  in
  Cmd.v
    (Cmd.info "noise"
       ~doc:"Output-referred noise analysis of the macro (adjoint method).")
    Term.(const run $ macro_arg $ band_arg $ points_arg)

(* -- context-backed commands ------------------------------------------ *)

let on_calibrate () = prerr_endline "calibrating tolerance boxes..."

let iv_context ~fast () =
  on_calibrate ();
  Experiments.Setup.iv ~profile:(profile_of fast) ()

(* Generation context for any --macro, built exactly as the serve
   daemon builds it. *)
let generation_context ~macro_name ~fast () =
  Experiments.Setup.for_macro ~on_calibrate ~fast macro_name

let progress ~done_ ~total ~fault_id =
  Printf.eprintf "  [%2d/%2d] %s\n%!" done_ total fault_id

let tps_cmd =
  let run fast fault_id config_id impact grid =
    let ids =
      List.map (fun c -> c.Test_config.config_id) Experiments.Iv_configs.all
    in
    match fault_of_dictionary Macros.Iv_converter.macro fault_id with
    | Error e ->
        prerr_endline e;
        1
    | Ok _ when not (List.mem config_id ids) ->
        Printf.eprintf "unknown configuration #%d; valid ids: %s\n" config_id
          (String.concat ", " (List.map string_of_int ids));
        1
    | Ok entry ->
        let ctx = iv_context ~fast () in
        let fault =
          match impact with
          | None -> entry.Faults.Dictionary.fault
          | Some r -> Faults.Fault.with_impact entry.Faults.Dictionary.fault r
        in
        let ev = Evaluator.find ctx.Experiments.Setup.evaluators config_id in
        let g = Tps.sweep ev fault ~grid () in
        let arg, s = Tps.argmin g in
        (match g.Tps.axes with
        | [ (xn, xs); (yn, ys) ] ->
            print_string
              (Report.Heatmap.render ~x_axis:(xn, xs) ~y_axis:(yn, ys)
                 ~values:(fun xi yi ->
                   g.Tps.values.((xi * Array.length ys) + yi))
                 ())
        | [ (xn, xs) ] ->
            print_string
              (Report.Heatmap.render_1d ~x_axis:(xn, xs) ~values:g.Tps.values
                 ~height:14)
        | _ -> ());
        Printf.printf "argmin: [%s]  S = %.4g  detected fraction %.2f\n"
          (String.concat "; "
             (Array.to_list (Array.map Circuit.Units.format_eng arg)))
          s (Tps.detection_fraction g);
        0
  in
  let fault_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "fault" ] ~docv:"ID" ~doc:"Fault to sweep.")
  in
  let config_arg =
    Arg.(
      value & opt int 3
      & info [ "config" ] ~docv:"N" ~doc:"Test configuration id (1..5).")
  in
  let impact_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "impact" ] ~docv:"OHMS" ~doc:"Override the model resistance.")
  in
  let grid_arg =
    Arg.(
      value
      & opt (bounded_int ~what:"--grid" ~min:2 ()) 9
      & info [ "grid" ] ~docv:"N" ~doc:"Grid per axis.")
  in
  Cmd.v
    (Cmd.info "tps"
       ~doc:"Render a test-parameter sensitivity graph (paper Figs. 2-4).")
    Term.(const run $ fast_arg $ fault_arg $ config_arg $ impact_arg $ grid_arg)

(* -- resilience options ------------------------------------------------ *)

let seed_conv what =
  let parse s =
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None ->
        Error (`Msg (Printf.sprintf "%s: expected an integer seed, got %S" what s))
  in
  Arg.conv ~docv:"SEED" (parse, fun ppf v -> Format.fprintf ppf "%Ld" v)

let max_retries_arg =
  let doc =
    "Retry-ladder rungs attempted after a failed fault simulation before \
     the fault is quarantined (0 disables retries)."
  in
  Arg.(
    value
    & opt
        (bounded_int ~what:"--max-retries" ~min:0 ())
        (List.length Resilience.default_ladder)
    & info [ "max-retries" ] ~docv:"N" ~doc)

let fail_fast_arg =
  let doc =
    "Abort the run on the first unrecoverable fault instead of \
     quarantining it and continuing."
  in
  Arg.(value & flag & info [ "fail-fast" ] ~doc)

let resume_arg =
  let doc =
    "Checkpoint file: results are appended after every fault, and an \
     existing (possibly truncated) file is loaded so an interrupted run \
     restarts where it left off."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let jobs_doc =
  "Results, reports and checkpoint files are bit-for-bit identical at \
   every job count, so a run checkpointed at one $(docv) can be resumed at \
   another."

let jobs_opt ~default ~doc =
  Arg.(
    value
    & opt (bounded_int ~what:"--jobs" ~min:0 ()) default
    & info [ "jobs"; "j" ] ~docv:"N" ~doc:(doc ^ " " ^ jobs_doc))

let jobs_arg =
  jobs_opt ~default:0
    ~doc:
      "Worker domains for the generation run: $(docv)=0 (the default) uses \
       one per available core, $(docv)=1 runs sequentially."

let policy_of ~max_retries ~fail_fast =
  {
    Resilience.default_policy with
    Resilience.max_retries = Int.max 0 max_retries;
    fail_fast;
  }

let parse_inject_specs specs =
  List.fold_left
    (fun acc s ->
      match (acc, Numerics.Failpoint.spec_of_string s) with
      | Error e, _ -> Error e
      | Ok _, Error e -> Error e
      | Ok l, Ok spec -> Ok (l @ [ spec ]))
    (Ok []) specs

let inject_arg =
  let doc =
    Printf.sprintf
      "Failure-injection point $(docv) (testing hook), as \
       NAME[=PROB][@MAX]: e.g. $(b,dc.no_convergence=0.3@5). Known \
       points: %s. Repeatable."
      (String.concat ", " Numerics.Failpoint.known_points)
  in
  Arg.(value & opt_all string [] & info [ "inject" ] ~docv:"SPEC" ~doc)

let inject_seed_arg =
  let doc = "Seed for the failure-injection random streams." in
  Arg.(
    value
    & opt (seed_conv "--inject-seed") 0L
    & info [ "inject-seed" ] ~docv:"SEED" ~doc)

let print_resilience_summary (run : Engine.run) =
  if run.Engine.resumed_count > 0 then
    Printf.eprintf "resumed %d fault(s) from the checkpoint\n"
      run.Engine.resumed_count;
  if run.Engine.recovered_count > 0 then begin
    Printf.eprintf "recovered %d fault(s) via the retry ladder:\n"
      run.Engine.recovered_count;
    List.iter
      (fun (label, n) ->
        if n > 0 && not (String.equal label Resilience.baseline_label) then
          Printf.eprintf "  %-12s %d\n" label n)
      run.Engine.rung_stats
  end;
  match run.Engine.failed_faults with
  | [] -> ()
  | fs ->
      Printf.eprintf "%d fault(s) quarantined as unrecoverable:\n"
        (List.length fs);
      List.iter (fun d -> Format.eprintf "  %a@." Resilience.pp_diagnosis d) fs

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE"
        ~doc:"Save the generation results as a session file.")

let load_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:"Load generation results from a session file instead of \
              regenerating.")

let save_session path results =
  match Session.save ~path results with
  | Ok () ->
      Printf.eprintf "session saved to %s\n" path;
      0
  | Error m ->
      Printf.eprintf "cannot save session: %s\n" m;
      1

let run_or_load ?options ?policy ?resume ~jobs ctx ~load ~take =
  match load with
  | Some path -> begin
      match Session.load ~path with
      | Error m ->
          Printf.eprintf "cannot load session: %s\n" m;
          Error (Experiments.Runs.session_error_code path)
      | Ok results ->
          Ok (Engine.of_results ~evaluators:ctx.Experiments.Setup.evaluators results)
    end
  | None -> (
      let ctx =
        match take with
        | Some n -> Experiments.Setup.reduced ctx ~n_faults:n
        | None -> ctx
      in
      let run =
        match resume with
        | None ->
            Ok
              (Experiments.Runs.engine_run ~progress ?options ?policy ~jobs
                 ctx)
        | Some path ->
            let on_resume = function
              | 0 -> ()
              | n ->
                  Printf.eprintf
                    "checkpoint %s: %d fault(s) already generated\n%!" path n
            in
            Experiments.Runs.resume_run ~progress ?options ?policy ~jobs
              ~on_resume ~path ctx
      in
      match run with
      | Ok run ->
          print_resilience_summary run;
          Ok run
      | Error (code, message) ->
          prerr_endline message;
          Error code)

(* -- tracing ----------------------------------------------------------- *)

let trace_arg =
  let doc =
    "Enable observability tracing and write a JSONL trace to $(docv): one \
     span event per line (schema atpg-trace/1), followed by a \
     counter/histogram summary. Aggregate counters are identical at every \
     --jobs count; only elapsed-time fields differ between runs. Off by \
     default, with zero overhead on the simulation hot path."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      Obs.enable ~trace:path ();
      Fun.protect ~finally:Obs.shutdown f

(* Save errors keep owning exit code 1; a clean run that left quarantined
   faults reports Engine.exit_quarantined so CI can gate on it. *)
let finish_run ?save (run_result : Engine.run) =
  let save_code =
    match save with
    | Some path -> save_session path run_result.Engine.results
    | None -> 0
  in
  if save_code <> 0 then save_code else Engine.exit_status run_result

let generate_cmd =
  let run fast macro fault_id take save max_retries fail_fast resume inject
      inject_seed jobs trace =
    match parse_inject_specs inject with
    | Error e ->
        prerr_endline e;
        1
    | Ok specs ->
        with_trace trace (fun () ->
            (* build the context first: injection targets the resilient
               generation run, not the tolerance-box setup *)
            match generation_context ~macro_name:macro ~fast () with
            | Error e ->
                prerr_endline e;
                1
            | Ok (ctx, ctx_options) ->
                Numerics.Failpoint.with_config ~seed:inject_seed specs
                  (fun () ->
                    let policy = policy_of ~max_retries ~fail_fast in
                    match fault_id with
                    | Some fid ->
                        print_string (Experiments.Runs.fig6 ~fault_id:fid ctx);
                        0
                    | None -> begin
                        match
                          run_or_load ?options:ctx_options ~policy ?resume
                            ~jobs ctx ~load:None ~take
                        with
                        | Error code -> code
                        | Ok run_result ->
                            print_string (Experiments.Runs.tab2 ctx run_result);
                            finish_run ?save run_result
                        | exception Engine.Fault_failure d ->
                            Format.eprintf "fail-fast: %a@."
                              Resilience.pp_diagnosis d;
                            Engine.exit_fail_fast
                      end))
  in
  let fault_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"ID"
          ~doc:"Generate (with full trace) for a single fault.")
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Run fault-specific test generation (paper sec. 3).")
    Term.(
      const run $ fast_arg $ macro_arg $ fault_arg $ take_arg $ save_arg
      $ max_retries_arg $ fail_fast_arg $ resume_arg $ inject_arg
      $ inject_seed_arg $ jobs_arg $ trace_arg)

let compact_cmd =
  let run fast macro take delta load save max_retries fail_fast
      resume jobs trace =
    with_trace trace (fun () ->
        match generation_context ~macro_name:macro ~fast () with
        | Error e ->
            prerr_endline e;
            1
        | Ok (ctx, options) -> (
            let policy = policy_of ~max_retries ~fail_fast in
            match
              run_or_load ?options ~policy ?resume ~jobs ctx ~load ~take
            with
            | Error code -> code
            | Ok run_result ->
                print_string (Experiments.Runs.tab2 ctx run_result);
                print_newline ();
                print_string (Experiments.Runs.tab4 ~delta ctx run_result);
                finish_run ?save run_result
            | exception Engine.Fault_failure d ->
                Format.eprintf "fail-fast: %a@." Resilience.pp_diagnosis d;
                Engine.exit_fail_fast))
  in
  let delta_arg =
    Arg.(
      value & opt float 0.1
      & info [ "delta" ] ~docv:"D"
          ~doc:"Acceptable sensitivity loss for collapsing (sec. 4.1).")
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Generate (or --load) and collapse the compact test set \
             (paper sec. 4).")
    Term.(
      const run $ fast_arg $ macro_arg $ take_arg $ delta_arg
      $ load_arg $ save_arg $ max_retries_arg $ fail_fast_arg $ resume_arg
      $ jobs_arg $ trace_arg)

let baseline_cmd =
  let run fast macro take jobs trace =
    with_trace trace (fun () ->
        match generation_context ~macro_name:macro ~fast () with
        | Error e ->
            prerr_endline e;
            1
        | Ok (ctx, options) ->
            let ctx =
              match take with
              | Some n -> Experiments.Setup.reduced ctx ~n_faults:n
              | None -> ctx
            in
            let run_result =
              Experiments.Runs.engine_run ~progress ?options ~jobs ctx
            in
            print_string (Experiments.Runs.xbase ctx run_result);
            Engine.exit_status run_result)
  in
  Cmd.v
    (Cmd.info "baseline"
       ~doc:"Compare optimized generation against fixed-seed selection.")
    Term.(
      const run $ fast_arg $ macro_arg $ take_arg $ jobs_arg $ trace_arg)

let diff_cmd =
  let run before after =
    let load path =
      match Session.load ~path with
      | Ok results -> Ok results
      | Error m ->
          Printf.eprintf "cannot load session %s: %s\n" path m;
          Error (Experiments.Runs.session_error_code path)
    in
    match (load before, load after) with
    | Error code, _ | _, Error code -> code
    | Ok a, Ok b ->
        let d = Session.diff a b in
        print_string (Session.render_diff d);
        if Session.diff_ok d then 0 else Session.exit_verdict_drift
  in
  let session_pos n docv =
    Arg.(required & pos n (some string) None & info [] ~docv)
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare the verdicts of two session files."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "For every fault whose verdict differs, print its winning \
              configuration and detectability in A and B, the \
              critical-impact ratio and the sign of the dictionary \
              sensitivity; then one summary line.";
           `P
             (Printf.sprintf
                "Exits %d on a winner move, a detectability flip, a fault \
                 missing from one side or a critical-impact ratio above %g \
                 (the resolution of the critical-impact bisection)."
                Session.exit_verdict_drift Generate.critical_resolution);
         ])
    Term.(const run $ session_pos 0 "A.session" $ session_pos 1 "B.session")

(* -- profile ------------------------------------------------------------ *)

let render_profile (run_result : Engine.run) =
  let b = Buffer.create 2048 in
  let section title body =
    Buffer.add_string b title;
    Buffer.add_char b '\n';
    Buffer.add_string b body;
    Buffer.add_char b '\n'
  in
  (* per-phase wall clock *)
  let spans = Obs.span_stats () in
  let total_secs =
    match
      List.find_opt (fun s -> String.equal s.Obs.span_name "engine.run") spans
    with
    | Some s -> s.Obs.span_seconds
    | None -> run_result.Engine.wall_seconds
  in
  section "Per-phase wall clock"
    (Report.Table.of_rows
       ~headers:
         [
           ("span", Report.Table.Left);
           ("count", Report.Table.Right);
           ("seconds", Report.Table.Right);
           ("% of run", Report.Table.Right);
         ]
       (List.map
          (fun s ->
            [
              s.Obs.span_name;
              string_of_int s.Obs.span_count;
              Printf.sprintf "%.3f" s.Obs.span_seconds;
              (if total_secs > 0. then
                 Printf.sprintf "%.1f"
                   (100. *. s.Obs.span_seconds /. total_secs)
               else "-");
            ])
          spans));
  (* top faults by evaluations *)
  let top_faults =
    let rec take n = function
      | [] -> []
      | _ when n <= 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    take 10 (Obs.fault_evals ())
  in
  if top_faults <> [] then
    section "Top faults by evaluations"
      (Report.Table.of_rows
         ~headers:[ ("fault", Report.Table.Left); ("evals", Report.Table.Right) ]
         (List.map (fun (fid, n) -> [ fid; string_of_int n ]) top_faults));
  (* counters, with cache hit rates *)
  let counters = Obs.counters () in
  let value name =
    match List.assoc_opt name counters with Some v -> v | None -> 0
  in
  let hit_rate hits misses =
    let total = hits + misses in
    if total = 0 then "-"
    else Printf.sprintf "%.1f%%" (100. *. float_of_int hits /. float_of_int total)
  in
  section "Cache hit rates"
    (Report.Table.of_rows
       ~headers:
         [
           ("cache", Report.Table.Left);
           ("hits", Report.Table.Right);
           ("misses", Report.Table.Right);
           ("hit rate", Report.Table.Right);
         ]
       [
         [
           "nominal observables";
           string_of_int (value "evaluator.nominal_cache.hits");
           string_of_int (value "evaluator.nominal_cache.misses");
           hit_rate
             (value "evaluator.nominal_cache.hits")
             (value "evaluator.nominal_cache.misses");
         ];
         [
           "compiled plans";
           string_of_int (value "evaluator.plan_cache.hits");
           string_of_int (value "evaluator.plan_cache.misses");
           hit_rate
             (value "evaluator.plan_cache.hits")
             (value "evaluator.plan_cache.misses");
         ];
       ]);
  (* config-major batched evaluation: settled vs fallback pairs, and the
     held-factorization panels the settled pairs shared *)
  let batched = value "evaluator.batch.faults_batched" in
  let fallback = value "evaluator.batch.fallback_seq" in
  if batched + fallback > 0 then
    section "Batched evaluation"
      (Report.Table.of_rows
         ~headers:
           [ ("metric", Report.Table.Left); ("value", Report.Table.Right) ]
         [
           [ "pairs batched"; string_of_int batched ];
           [ "pairs fallen back"; string_of_int fallback ];
           [ "factorization panels"; string_of_int (value "evaluator.batch.panels") ];
           [
             "batched share";
             hit_rate batched fallback;
           ];
         ]);
  section "Counters"
    (Report.Table.of_rows
       ~headers:[ ("counter", Report.Table.Left); ("value", Report.Table.Right) ]
       (List.map (fun (name, v) -> [ name; string_of_int v ]) counters));
  (* histograms (e.g. Newton iterations per DC solve) *)
  List.iter
    (fun (name, rows) ->
      section
        (Printf.sprintf "Histogram: %s" name)
        (Report.Table.of_rows
           ~headers:
             [ ("bucket", Report.Table.Left); ("count", Report.Table.Right) ]
           (List.map (fun (label, n) -> [ label; string_of_int n ]) rows)))
    (Obs.histograms ());
  Buffer.contents b

let profile_cmd =
  let run fast macro take jobs trace =
    Obs.enable ?trace ();
    Fun.protect ~finally:Obs.shutdown (fun () ->
        match generation_context ~macro_name:macro ~fast () with
        | Error e ->
            prerr_endline e;
            1
        | Ok (ctx, options) ->
            let ctx =
              match take with
              | Some n -> Experiments.Setup.reduced ctx ~n_faults:n
              | None -> ctx
            in
            let run_result =
              Experiments.Runs.engine_run ~progress ?options ~jobs ctx
            in
            print_string (render_profile run_result);
            print_resilience_summary run_result;
            Engine.exit_status run_result)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run generation on $(b,--macro) with tracing enabled and render           the aggregate profile: per-phase wall clock, top faults by           evaluations, cache hit rates and solver counters. $(b,--trace)           additionally writes the JSONL trace.")
    Term.(const run $ fast_arg $ macro_arg $ take_arg $ jobs_arg $ trace_arg)

let experiment_cmd =
  let run fast which =
    let reports =
      Experiments.Runs.all_reports ~progress ~on_calibrate
        ~profile:(profile_of fast) ()
    in
    let rule = String.make 62 '=' in
    match which with
    | "all" ->
        List.iter
          (fun (id, render) ->
            Printf.printf "%s\n%s\n%s\n%!" rule (String.uppercase_ascii id)
              rule;
            print_string (render ());
            print_newline ())
          reports;
        0
    | id -> (
        match List.assoc_opt id reports with
        | Some render ->
            print_string (render ());
            0
        | None ->
            Printf.eprintf "unknown experiment %S (%s all)\n" id
              (String.concat " " (List.map fst reports));
            1)
  in
  let which_arg =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"ID" ~doc:"Experiment id or $(b,all).")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Reproduce one paper table/figure or extension experiment, or \
          all of them in order from one generation run and one \
          compaction.")
    Term.(const run $ fast_arg $ which_arg)

(* -- fuzz --------------------------------------------------------------- *)

let fuzz_cmd =
  let run campaigns seed jobs inject checks self_test json_out =
    match parse_inject_specs inject with
    | Error e ->
        prerr_endline e;
        1
    | Ok specs ->
        let options =
          {
            Fuzz.Campaign.campaigns;
            seed;
            jobs;
            inject = (if specs = [] then Fuzz.Campaign.default_inject else specs);
            checks = (if checks = [] then None else Some checks);
            self_test;
          }
        in
        let progress ~campaign ~total =
          Printf.eprintf "\rcampaign %d/%d%!" (campaign + 1) total
        in
        let result = Fuzz.Campaign.run ~progress options in
        prerr_newline ();
        (match result with
        | Error m ->
            prerr_endline m;
            1
        | Ok report -> (
            Format.printf "%a" Fuzz.Campaign.pp_report report;
            (match json_out with
            | None -> ()
            | Some path ->
                let oc = open_out path in
                output_string oc (Fuzz.Campaign.report_json report);
                close_out oc;
                Printf.eprintf "report written to %s\n" path);
            match self_test with
            | false -> if Fuzz.Campaign.clean report then 0 else 1
            | true ->
                (* self-test succeeds iff the planted violation was found
                   and shrunk to the minimal scenario that trips it *)
                let expected =
                  { Fuzz.Scenario.minimal with Fuzz.Scenario.fault_count = 2 }
                in
                let found =
                  List.exists
                    (fun v ->
                      String.equal v.Fuzz.Campaign.v_invariant "self-test"
                      && v.Fuzz.Campaign.v_shrunk = expected)
                    report.Fuzz.Campaign.r_violations
                in
                let others =
                  List.exists
                    (fun v ->
                      not (String.equal v.Fuzz.Campaign.v_invariant "self-test"))
                    report.Fuzz.Campaign.r_violations
                in
                if found && not others then begin
                  prerr_endline
                    "self-test: planted violation found and shrunk to the \
                     minimal scenario";
                  0
                end
                else begin
                  prerr_endline
                    (if found then "self-test: unexpected extra violations"
                     else
                       "self-test: planted violation was NOT found and shrunk");
                  1
                end))
  in
  let campaigns_arg =
    let doc = "Number of fuzz campaigns (randomized scenarios) to run." in
    Arg.(
      value
      & opt (bounded_int ~what:"--campaigns" ~min:1 ()) 20
      & info [ "campaigns" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Campaign seed: the whole report is a pure function of the seed and \
       the other options (byte-deterministic, at every $(b,--jobs) value)."
    in
    Arg.(value & opt (seed_conv "--seed") 0L & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let checks_arg =
    let doc =
      Printf.sprintf "Run only the named invariant (repeatable). Known: %s."
        (String.concat ", " Fuzz.Invariants.names)
    in
    Arg.(value & opt_all string [] & info [ "check" ] ~docv:"NAME" ~doc)
  in
  let self_test_arg =
    let doc =
      "Also run a deliberately planted invariant violation and verify the \
       harness finds it and shrinks it to the minimal scenario (exit 0 \
       exactly when it does)."
    in
    Arg.(value & flag & info [ "self-test" ] ~doc)
  in
  let json_arg =
    let doc = "Write the campaign report as deterministic JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Property-based scenario fuzzing: random macro/fault/configuration \
          scenarios checked against engine invariants, with failure \
          injection, crash-safety campaigns and counterexample shrinking.")
    Term.(
      const run $ campaigns_arg $ seed_arg $ jobs_arg $ inject_arg $ checks_arg
      $ self_test_arg $ json_arg)

(* -- serve / client ----------------------------------------------------- *)

let socket_arg =
  let doc = "Unix domain socket path of the daemon." in
  Arg.(
    value
    & opt string Serve.Server.default_options.Serve.Server.socket
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let run socket budget spool trace =
    with_trace trace (fun () ->
        match Serve.Server.start { Serve.Server.socket; budget; spool } with
        | Error m ->
            prerr_endline m;
            1
        | Ok server ->
            Serve.Server.install_sigterm server;
            Printf.eprintf
              "atpg: serving %s on %s (budget %d, spool %s); SIGTERM drains\n%!"
              Serve.Protocol.schema socket budget spool;
            Serve.Server.wait server;
            let s = Serve.Server.stats server in
            Printf.eprintf
              "atpg: drained after %d accepted / %d rejected request(s)\n%!"
              s.Serve.Server.st_accepted s.Serve.Server.st_rejected;
            0)
  in
  let budget_arg =
    let doc =
      "Admission budget: work requests admitted concurrently; requests \
       beyond it are rejected immediately (HTTP-style 429 on the wire, \
       client exit code 6)."
    in
    Arg.(
      value
      & opt
          (bounded_int ~what:"--budget" ~min:1 ())
          Serve.Server.default_options.Serve.Server.budget
      & info [ "budget" ] ~docv:"N" ~doc)
  in
  let spool_arg =
    let doc = "Directory for named session checkpoint files." in
    Arg.(
      value
      & opt string Serve.Server.default_options.Serve.Server.spool
      & info [ "spool" ] ~docv:"DIR" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the ATPG daemon: concurrent generation sessions over a Unix \
          domain socket (JSONL protocol atpg-serve/1).")
    Term.(const run $ socket_arg $ budget_arg $ spool_arg $ trace_arg)

let client_cmd =
  let run socket op req_id macro fast take jobs delta inject
      inject_seed session linger_ms =
    let maybe name v f = match v with Some x -> [ (name, f x) ] | None -> [] in
    let request =
      Serve.Jsonl.Obj
        ([
           ("op", Serve.Jsonl.Str op);
           ("macro", Serve.Jsonl.Str macro);
           ("fast", Serve.Jsonl.Bool fast);
           ("jobs", Serve.Jsonl.Num (float_of_int jobs));
           ("delta", Serve.Jsonl.Num delta);
           ("inject_seed", Serve.Jsonl.Num (Int64.to_float inject_seed));
         ]
        @ maybe "take" take (fun n -> Serve.Jsonl.Num (float_of_int n))
        @ maybe "session" session (fun s -> Serve.Jsonl.Str s)
        @ (if linger_ms > 0 then
             [ ("linger_ms", Serve.Jsonl.Num (float_of_int linger_ms)) ]
           else [])
        @
        match inject with
        | [] -> []
        | specs ->
            [
              ("inject",
               Serve.Jsonl.List
                 (List.map (fun s -> Serve.Jsonl.Str s) specs));
            ])
    in
    match
      Serve.Client.roundtrip
        ~on_event:(fun e -> print_endline (Serve.Jsonl.to_string e))
        ~socket ~req:req_id request
    with
    | Error m ->
        prerr_endline m;
        1
    | Ok reply -> reply.Serve.Client.status
  in
  let op_arg =
    let doc =
      "Operation: $(b,ping), $(b,stats), $(b,profile), $(b,op), \
       $(b,generate), $(b,compact) or $(b,baseline)."
    in
    Arg.(value & pos 0 string "ping" & info [] ~docv:"OP" ~doc)
  in
  let req_arg =
    let doc = "Correlation id stamped on every response line." in
    Arg.(value & opt string "cli" & info [ "req" ] ~docv:"ID" ~doc)
  in
  let session_arg =
    let doc =
      "Named server-side session: the run checkpoints into the daemon's \
       spool under this name, a drain interrupts it cleanly (client exit \
       code 7) and resending the same name resumes it."
    in
    Arg.(value & opt (some string) None & info [ "session" ] ~docv:"NAME" ~doc)
  in
  let delta_arg =
    Arg.(
      value & opt float 0.1
      & info [ "delta" ] ~docv:"D"
          ~doc:"Compaction sensitivity-loss budget (compact op).")
  in
  let client_jobs_arg =
    jobs_opt ~default:1
      ~doc:
        "Worker domains the daemon runs this request on: $(docv)=1 (the \
         default) runs it sequentially, since the daemon already runs \
         concurrent requests in parallel; $(docv)=0 uses one per core."
  in
  let linger_arg =
    let doc =
      "Hold an admission slot for $(docv) milliseconds on a ping \
       (deterministic budget filling for tests)."
    in
    Arg.(
      value
      & opt (bounded_int ~what:"--linger-ms" ~min:0 ()) 0
      & info [ "linger-ms" ] ~docv:"MS" ~doc)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running atpg daemon and stream its \
          response events (exit code mirrors the daemon's verdict: 6 \
          rejected, 7 drained).")
    Term.(
      const run $ socket_arg $ op_arg $ req_arg $ macro_arg $ fast_arg
      $ take_arg $ client_jobs_arg $ delta_arg $ inject_arg $ inject_seed_arg
      $ session_arg $ linger_arg)

let main_cmd =
  let doc =
    "structural test generation for analog macros (Kaal & Kerkhoff, 1997)"
  in
  Cmd.group
    (Cmd.info "atpg" ~version:"1.0.0" ~doc)
    [
      netlist_cmd;
      op_cmd;
      simulate_cmd;
      sweep_cmd;
      noise_cmd;
      faults_cmd;
      tps_cmd;
      generate_cmd;
      compact_cmd;
      diff_cmd;
      baseline_cmd;
      profile_cmd;
      experiment_cmd;
      fuzz_cmd;
      serve_cmd;
      client_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
