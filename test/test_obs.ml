(* Observability contract: counter fork/absorb is a commutative merge,
   aggregate counters are identical between sequential and --jobs N runs
   (tracing isolates each fault on run-start evaluator forks), and the
   JSONL trace is schema-valid and identical across job counts modulo
   elapsed-time fields. *)

open Testgen

let iv_target =
  Experiments.Setup.target_of_macro Macros.Iv_converter.macro
    Macros.Process.nominal

let fresh_dc_evaluator () =
  let config = Experiments.Iv_configs.config1 in
  Evaluator.create config ~nominal:iv_target
    ~box_model:(Tolerance.floor_only config)

let small_faults =
  [
    Faults.Fault.bridge "n1" "vout" ~resistance:10e3;
    Faults.Fault.bridge "n2" "vout" ~resistance:10e3;
    Faults.Fault.bridge "iin" "n1" ~resistance:10e3;
    Faults.Fault.bridge "0" "vdd" ~resistance:10e3;
    Faults.Fault.pinhole "m6" ~r_shunt:2e3;
  ]

let small_dictionary = Faults.Dictionary.of_faults small_faults

(* ------------------------------------------------ counter primitives *)

let test_counter_basics () =
  let c = Obs.Counter.unregistered "t.basics" in
  Alcotest.(check int) "zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  Alcotest.(check int) "incr + add" 5 (Obs.Counter.value c);
  Obs.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Obs.Counter.value c);
  let r1 = Obs.Counter.create "t.registered" in
  let r2 = Obs.Counter.create "t.registered" in
  Obs.Counter.add r1 3;
  Alcotest.(check int) "create is idempotent per name" 3 (Obs.Counter.value r2);
  Obs.Counter.reset r1

let test_bump_respects_enabled () =
  let c = Obs.Counter.unregistered "t.bump" in
  Alcotest.(check bool) "tracing off by default" false (Obs.active ());
  Obs.Counter.bump c 7;
  Alcotest.(check int) "bump is a no-op when disabled" 0 (Obs.Counter.value c);
  Obs.enable ();
  Obs.Counter.bump c 7;
  Obs.shutdown ();
  Alcotest.(check int) "bump counts when enabled" 7 (Obs.Counter.value c)

(* Absorbing any permutation of forks, each carrying an arbitrary share
   of increments, yields the same parent total. *)
let prop_fork_absorb_commutes =
  QCheck.Test.make ~name:"fork/absorb is permutation-invariant" ~count:200
    QCheck.(pair (list (int_range 0 50)) int)
    (fun (shares, seed) ->
      let total_of order =
        let parent = Obs.Counter.unregistered "t.absorb" in
        let forks =
          List.map
            (fun n ->
              let f = Obs.Counter.fork parent in
              Obs.Counter.add f n;
              f)
            order
        in
        List.iter (fun f -> Obs.Counter.absorb ~into:parent f) forks;
        Obs.Counter.value parent
      in
      (* a deterministic pseudo-shuffle driven by the generated seed *)
      let shuffled =
        let tagged =
          List.mapi (fun i x -> ((i * 2654435761) lxor seed, x)) shares
        in
        List.map snd (List.sort compare tagged)
      in
      total_of shares = total_of shuffled
      && total_of shares = List.fold_left ( + ) 0 shares)

let test_absorb_self_noop () =
  let c = Obs.Counter.unregistered "t.self" in
  Obs.Counter.add c 5;
  Obs.Counter.absorb ~into:c c;
  Alcotest.(check int) "self-absorb is a no-op" 5 (Obs.Counter.value c)

let test_histogram_buckets () =
  Obs.enable ();
  let h = Obs.Histogram.create "t.hist" ~bounds:[| 2; 4; 8 |] in
  List.iter (Obs.Histogram.observe h) [ 0; 1; 2; 3; 4; 5; 8; 9; 100 ];
  Obs.shutdown ();
  Alcotest.(check (list (pair string int)))
    "bucket counts"
    [ ("<=2", 3); ("<=4", 2); ("<=8", 2); (">8", 2) ]
    (Obs.Histogram.counts h)

(* ------------------------------------------------------ span capture *)

let test_span_depth_and_aggregate () =
  Obs.enable ();
  let v =
    Obs.Span.timed "t.outer" (fun () ->
        Obs.Span.timed "t.inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "span returns the body's value" 42 v;
  (match
     List.filter
       (fun s -> String.length s.Obs.span_name > 2 && String.sub s.Obs.span_name 0 2 = "t.")
       (Obs.span_stats ())
   with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner name" "t.inner" inner.Obs.span_name;
      Alcotest.(check int) "inner count" 1 inner.Obs.span_count;
      Alcotest.(check string) "outer name" "t.outer" outer.Obs.span_name;
      Alcotest.(check int) "outer count" 1 outer.Obs.span_count
  | other ->
      Alcotest.failf "expected 2 span stats, got %d" (List.length other));
  Obs.shutdown ()

let test_span_records_exceptions () =
  Obs.enable ();
  (match Obs.Span.timed "t.raising" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure m -> Alcotest.(check string) "reraised" "boom" m);
  let stat =
    List.find
      (fun s -> String.equal s.Obs.span_name "t.raising")
      (Obs.span_stats ())
  in
  Alcotest.(check int) "err span still recorded" 1 stat.Obs.span_count;
  Obs.shutdown ()

let test_disabled_paths_are_noops () =
  Alcotest.(check bool) "inactive" false (Obs.active ());
  let v = Obs.Span.timed "t.off" (fun () -> 7) in
  Alcotest.(check int) "span is identity when off" 7 v;
  let x, events = Obs.Task.collect (fun () -> 11) in
  Alcotest.(check int) "collect is identity when off" 11 x;
  Obs.Task.flush events;
  Alcotest.(check bool) "no t.off span recorded" true
    (List.for_all
       (fun s -> not (String.equal s.Obs.span_name "t.off"))
       (Obs.span_stats ()))

(* --------------------------------------- engine counter determinism *)

let run_with_counters jobs =
  Obs.enable ();
  let run =
    Engine.run ~jobs
      ~evaluators:[ fresh_dc_evaluator () ]
      small_dictionary
  in
  let counters = Obs.counters () in
  let histograms = Obs.histograms () in
  Obs.shutdown ();
  (run, counters, histograms)

let test_counters_match_across_jobs () =
  let _, ref_counters, ref_histograms = run_with_counters 1 in
  Alcotest.(check bool)
    "reference run produced solver counters" true
    (match List.assoc_opt "solver.dc.solves" ref_counters with
    | Some n -> n > 0
    | None -> false);
  List.iter
    (fun jobs ->
      let _, counters, histograms = run_with_counters jobs in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "counters at jobs=%d equal sequential" jobs)
        ref_counters counters;
      Alcotest.(check
                  (list (pair string (list (pair string int)))))
        (Printf.sprintf "histograms at jobs=%d equal sequential" jobs)
        ref_histograms histograms)
    [ 2; 4 ]

let test_engine_results_unchanged_by_tracing () =
  let plain =
    Engine.run
      ~evaluators:[ fresh_dc_evaluator () ]
      small_dictionary
  in
  let traced, _, _ = run_with_counters 1 in
  Alcotest.(check string) "session bytes identical with tracing on"
    (Session.to_string plain.Engine.results)
    (Session.to_string traced.Engine.results)

(* ------------------------------------------------------- trace files *)

(* Every trace line must parse as a JSON object carrying an "ev"
   discriminator; returns the discriminator. *)
let event_kind line =
  match Serve.Jsonl.of_string line with
  | Error m -> Alcotest.failf "unparsable trace line (%s): %s" m line
  | Ok json -> (
      match Serve.Jsonl.str_member "ev" json with
      | Some kind -> kind
      | None -> Alcotest.failf "trace line without \"ev\": %s" line)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let with_temp_trace f =
  let path = Filename.temp_file "atpg-obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let traced_run jobs path =
  Obs.enable ~trace:path ();
  let _ =
    Engine.run ~jobs
      ~evaluators:[ fresh_dc_evaluator () ]
      small_dictionary
  in
  Obs.shutdown ();
  read_lines path

(* Strip the (wall-clock) elapsed_ms field, the only permitted
   difference between job counts. *)
let strip_elapsed line =
  let marker = "\"elapsed_ms\":" in
  let mlen = String.length marker in
  let buf = Buffer.create (String.length line) in
  let n = String.length line in
  let i = ref 0 in
  while !i < n do
    if !i + mlen <= n && String.sub line !i mlen = marker then begin
      Buffer.add_string buf marker;
      Buffer.add_char buf '_';
      i := !i + mlen;
      while !i < n && (match line.[!i] with '0' .. '9' | '.' -> true | _ -> false) do
        incr i
      done
    end
    else begin
      Buffer.add_char buf line.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let test_trace_schema_and_determinism () =
  with_temp_trace (fun p1 ->
      with_temp_trace (fun p4 ->
          let l1 = traced_run 1 p1 in
          let l4 = traced_run 4 p4 in
          Alcotest.(check bool) "trace non-empty" true (List.length l1 > 1);
          let kinds = List.map event_kind l1 in
          List.iter
            (fun kind ->
              Alcotest.(check bool)
                (Printf.sprintf "trace has %s events" kind)
                true (List.mem kind kinds))
            [ "meta"; "span"; "counter" ];
          (match l1 with
          | meta :: _ ->
              Alcotest.(check string) "meta line first"
                "{\"ev\":\"meta\",\"schema\":\"atpg-trace/1\"}" meta
          | [] -> Alcotest.fail "empty trace");
          Alcotest.(check (list string))
            "jobs=4 trace identical modulo elapsed_ms"
            (List.map strip_elapsed l1)
            (List.map strip_elapsed l4)))

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "bump honours enable" `Quick
            test_bump_respects_enabled;
          QCheck_alcotest.to_alcotest prop_fork_absorb_commutes;
          Alcotest.test_case "self-absorb no-op" `Quick test_absorb_self_noop;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and aggregate" `Quick
            test_span_depth_and_aggregate;
          Alcotest.test_case "exceptions recorded and reraised" `Quick
            test_span_records_exceptions;
          Alcotest.test_case "disabled paths are no-ops" `Quick
            test_disabled_paths_are_noops;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "counters equal across jobs {1,2,4}" `Slow
            test_counters_match_across_jobs;
          Alcotest.test_case "engine results unchanged by tracing" `Slow
            test_engine_results_unchanged_by_tracing;
          Alcotest.test_case "trace schema + cross-jobs identity" `Slow
            test_trace_schema_and_determinism;
        ] );
    ]
