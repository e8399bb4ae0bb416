(* The repository benchmark.  Run from the repository root through
   atpgbench/run.sh, which builds it first:

     run.sh --workload iv-paper|rc-ladder|serve-mixed --seed N
            --seconds S --trace 0|1
     run.sh reference --workload iv-paper|rc-ladder
     run.sh reference-compactions --workload iv-paper|rc-ladder
     run.sh smoke

   A run prints its report, then as the last line of standard output one
   JSON object: correct, attempted, failed and the metrics (end-to-end
   ones untraced, per-layer ones traced).  It exits 1 when any output
   fails verification. *)

let workloads = [ "iv-paper"; "rc-ladder"; "serve-mixed" ]

let engine_spec = function
  | "iv-paper" -> Engine_workload.iv_paper
  | "rc-ladder" -> Engine_workload.rc_ladder
  | w -> failwith ("not an engine workload: " ^ w)

let run_workload ~workload ~seed ~seconds ~trace =
  if not (Sys.file_exists Serve_workload.run_dir) then
    Sys.mkdir Serve_workload.run_dir 0o755;
  match (workload, trace) with
  | "serve-mixed", false -> Serve_workload.run ~seed ~seconds
  | "serve-mixed", true -> Serve_workload.traced ~seed ~seconds
  | w, false -> Engine_workload.run (engine_spec w) ~seed ~seconds
  | w, true -> Engine_workload.traced (engine_spec w) ~seed

let result_line ~trace (tally : Tally.t) metrics =
  Metrics.result_json ~correct:(tally.Tally.failed = 0)
    ~attempted:(max 1 tally.Tally.attempted) ~failed:tally.Tally.failed
    ~table:(if trace then Metrics.per_layer else Metrics.end_to_end)
    metrics

let print_metrics ~trace metrics =
  List.iter
    (fun (mt : Metrics.metric) ->
      Printf.printf "  %-32s %14.4f %s\n" mt.Metrics.name
        (List.assoc mt.Metrics.name metrics)
        mt.Metrics.unit_)
    (if trace then Metrics.per_layer else Metrics.end_to_end)

let main ~workload ~seed ~seconds ~trace =
  if not (List.mem workload workloads) then begin
    Printf.eprintf "unknown workload %S (one of %s)\n" workload
      (String.concat ", " workloads);
    exit 2
  end;
  let tally, metrics = run_workload ~workload ~seed ~seconds ~trace in
  Printf.printf "%s, seed %d, %s:\n" workload seed
    (if trace then "traced" else "untraced");
  print_metrics ~trace metrics;
  print_endline (result_line ~trace tally metrics);
  if tally.Tally.failed > 0 then exit 1

let () =
  match Array.to_list Sys.argv with
  | [ _; "reference"; "--workload"; w ] -> Engine_workload.write_reference (engine_spec w)
  | [ _; "reference-compactions"; "--workload"; w ] ->
      Engine_workload.write_compactions (engine_spec w)
  | [ _; "smoke" ] ->
      if not (Sys.file_exists Serve_workload.run_dir) then
        Sys.mkdir Serve_workload.run_dir 0o755;
      if not (Smoke.run ()) then exit 1
  | _ :: args ->
      let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
      (try
         Arg.parse_argv ~current:(ref 0)
        (Array.of_list (Sys.argv.(0) :: args))
        [
          ("--workload", Arg.Set_string workload, "NAME workload to run");
          ("--seed", Arg.Set_int seed, "N input seed");
          ("--seconds", Arg.Set_int seconds, "S seconds to measure");
          ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "main.exe --workload NAME --seed N --seconds S --trace 0|1"
       with Arg.Bad msg | Arg.Help msg ->
         prerr_string msg;
         exit 2);
      main ~workload:!workload ~seed:!seed ~seconds:(float_of_int !seconds)
        ~trace:(!trace = 1)
  | [] -> exit 2
