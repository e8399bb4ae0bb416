(* The benchmark's own test: a seconds-long slice of every workload
   through both the untraced and the traced path, with verification,
   plus checks of the seeded input generation and of BENCHMARK.json's
   metric lists.  Run with `bash atpgbench/run.sh smoke`; exits non-zero
   on any failure. *)

let failures = ref 0

let expect what ok =
  Printf.printf "  %-64s %s\n%!" what (if ok then "ok" else "FAILED");
  if not ok then incr failures

let ids sample = List.map (fun r -> r.Reference.fault_id) sample

let seeded_inputs () =
  List.iter
    (fun (spec : Engine_workload.spec) ->
      let rows = Reference.load spec.Engine_workload.name in
      let draw seed =
        ids
          (Sample.stratified
             ~rng:(Sample.rng ~seed ~key:spec.Engine_workload.name)
             ~n:spec.Engine_workload.sample_size rows)
      in
      let s = draw 7 in
      expect (spec.Engine_workload.name ^ ": same seed, same sample") (s = draw 7);
      expect (spec.Engine_workload.name ^ ": other seed, other sample") (s <> draw 8);
      expect
        (spec.Engine_workload.name ^ ": sample size")
        (List.length s = spec.Engine_workload.sample_size))
    [ Engine_workload.iv_paper; Engine_workload.rc_ladder ];
  let requests seed =
    let next = Sample.stream ~seed in
    List.init 60 (fun _ -> Sample.request_label (next ()))
  in
  expect "serve-mixed: same seed, same requests" (requests 7 = requests 7);
  expect "serve-mixed: other seed, other requests" (requests 7 <> requests 8)

(* BENCHMARK.json, when present, declares exactly Metrics' lists. *)
let declared_metrics () =
  if Sys.file_exists "BENCHMARK.json" then begin
    let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
    let json = Result.get_ok (Serve.Jsonl.of_string text) in
    let names key =
      List.filter_map
        (fun m ->
          match (Serve.Jsonl.str_member "name" m, Serve.Jsonl.str_member "unit" m) with
          | Some n, Some u -> Some (n, u)
          | _ -> None)
        (Option.value ~default:[] (Serve.Jsonl.list_member key json))
    in
    let ours l = List.map (fun m -> (m.Metrics.name, m.Metrics.unit_)) l in
    expect "BENCHMARK.json end_to_end = Metrics.end_to_end"
      (names "end_to_end" = ours Metrics.end_to_end);
    expect "BENCHMARK.json per_layer = Metrics.per_layer"
      (names "per_layer" = ours Metrics.per_layer)
  end

let slice name ~run ~traced =
  let check what (tally : Tally.t) metrics table =
    expect (Printf.sprintf "%s %s: verified (%d attempted)" name what tally.Tally.attempted)
      (tally.Tally.failed = 0 && tally.Tally.attempted > 0);
    expect (Printf.sprintf "%s %s: every metric reported" name what)
      (List.for_all (fun m -> List.mem_assoc m.Metrics.name metrics) table)
  in
  let tally, e2e = run () in
  check "untraced" tally e2e Metrics.end_to_end;
  let tally, layers = traced () in
  check "traced" tally layers Metrics.per_layer;
  layers

let run () =
  Printf.printf "seeded inputs\n";
  seeded_inputs ();
  declared_metrics ();
  let small (spec : Engine_workload.spec) n = { spec with Engine_workload.sample_size = n } in
  (* a seed without a committed compaction (those are for full-size
     samples), so the slice is checked against the committed results *)
  let seed = 1001 in
  let engine spec =
    slice spec.Engine_workload.name
      ~run:(fun () -> Engine_workload.run spec ~seed ~seconds:0.)
      ~traced:(fun () -> Engine_workload.traced spec ~seed)
  in
  let layer l name = List.assoc name l in
  let iv = engine (small Engine_workload.iv_paper 1) in
  let rc = engine (small Engine_workload.rc_ladder 40) in
  let serve =
    slice "serve-mixed"
      ~run:(fun () -> Serve_workload.run ~seed ~seconds:1.)
      ~traced:(fun () -> Serve_workload.traced ~seed ~seconds:1.)
  in
  expect "transient steps on iv-paper only"
    (layer iv "circuit.tran.steps_per_sim" > 0.
    && layer rc "circuit.tran.steps_per_sim" = 0.
    && layer serve "circuit.tran.steps_per_sim" = 0.);
  expect "batch engine declines iv-paper, carries rc-ladder"
    (layer iv "evaluator.batch_ratio" = 0. && layer rc "evaluator.batch_ratio" > 0.);
  expect "serve accept latency has samples" (layer serve "serve.accept_n" > 0.);
  Printf.printf "smoke: %s\n" (if !failures = 0 then "ok" else "FAILED");
  !failures = 0
