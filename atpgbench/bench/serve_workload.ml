(* serve-mixed: an in-process daemon driven by a closed loop of two
   clients over its Unix socket.  Each client sends its next request
   only after the previous reply; the seed orders a fixed mix of small
   generate requests, whole-dictionary generate requests and operating
   point requests. *)

open Testgen

let clients = 2
let run_dir = "atpgbench/_run"
let socket = Filename.concat run_dir "serve.sock"
let spool = Filename.concat run_dir "spool"

type sample = {
  req : string;
  request : Sample.request;
  latency_ms : float;  (** send to terminal line *)
  accept_ms : float;  (** send to the [accepted] event *)
  run_ms : float;  (** [accepted] to the terminal line *)
  reply : Serve.Client.reply;
}

let request_json = function
  | Sample.Small { macro; take } ->
      Serve.Jsonl.Obj
        [
          ("op", Serve.Jsonl.Str "generate");
          ("macro", Serve.Jsonl.Str macro);
          ("take", Serve.Jsonl.Num (float_of_int take));
        ]
  | Sample.Medium macro ->
      Serve.Jsonl.Obj
        [ ("op", Serve.Jsonl.Str "generate"); ("macro", Serve.Jsonl.Str macro) ]
  | Sample.Op macro ->
      Serve.Jsonl.Obj
        [ ("op", Serve.Jsonl.Str "op"); ("macro", Serve.Jsonl.Str macro) ]

let ok_or_fail = function Ok v -> v | Error e -> failwith e

(* Server start plus one small request per macro, which builds and caches
   each macro's context, so timed requests see steady state. *)
let start_server () =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let server =
    ok_or_fail (Serve.Server.start { Serve.Server.socket; budget = clients; spool })
  in
  List.iter
    (fun macro ->
      let reply =
        ok_or_fail
          (Serve.Client.roundtrip ~socket ~req:("warm-" ^ macro)
             (request_json (Sample.Small { macro; take = 1 })))
      in
      if reply.Serve.Client.status <> 0 then
        failwith ("warm-up request failed on " ^ macro))
    (Sample.small_macros @ Sample.medium_macros);
  server

type loop = {
  samples : sample list;
  wall : float;
  client_seconds : float;  (** summed over clients, connect to close *)
}

(* The closed loop: each client thread pulls the next request from the
   shared seeded stream until [seconds] have passed. *)
let closed_loop ~seed ~seconds =
  let next = Sample.stream ~seed in
  let lock = Mutex.create () in
  let samples = ref [] in
  let t_end = Measure.now () +. seconds in
  let busy = ref 0. in
  let client c =
    let started = Measure.now () in
    let conn = ok_or_fail (Serve.Client.connect ~socket) in
    let n = ref 0 in
    while Measure.now () < t_end do
      Mutex.lock lock;
      let request = next () in
      Mutex.unlock lock;
      incr n;
      let req = Printf.sprintf "c%d-%d" c !n in
      let t0 = Measure.now () in
      let t_acc = ref nan in
      let on_event e =
        if Serve.Jsonl.str_member "ev" e = Some "accepted" then
          t_acc := Measure.now ()
      in
      let reply =
        Serve.Client.request ~on_event conn ~req (request_json request)
      in
      let t1 = Measure.now () in
      let s =
        {
          req;
          request;
          latency_ms = (t1 -. t0) *. 1000.;
          accept_ms = (!t_acc -. t0) *. 1000.;
          run_ms = (t1 -. !t_acc) *. 1000.;
          reply;
        }
      in
      Mutex.lock lock;
      samples := s :: !samples;
      Mutex.unlock lock
    done;
    Serve.Client.close conn;
    let dt = Measure.now () -. started in
    Mutex.lock lock;
    busy := !busy +. dt;
    Mutex.unlock lock
  in
  let t0 = Measure.now () in
  let threads = List.init clients (Thread.create client) in
  List.iter Thread.join threads;
  { samples = List.rev !samples; wall = Measure.now () -. t0; client_seconds = !busy }

(* -- verification ------------------------------------------------------- *)

let macro name = ok_or_fail (Macros.Registry.find name)

(* What the daemon must answer for each catalogue request, computed
   in-process on a context built the way the daemon builds it.  The
   same pass times that work one-shot: Engine.run for every generate
   request, and Compactor.compact (staged in spans when [traced]) on the
   whole-dictionary ones. *)
type compaction = { c_seconds : float; c_tests : int; c_covered : int; c_total : int }

type expected = {
  exp_request : Sample.request;
  exp_result : string;  (** canonical verdicts, or operating point *)
  exp_gen_s : float;
  exp_compaction : compaction option;
  exp_configs : Test_config.t list;
}

let expected_of ~traced request =
  match request with
  | Sample.Small { macro = m; _ } | Sample.Medium m ->
      let setup = Experiments.Setup.probe ~macro:(macro m) () in
      let setup =
        match request with
        | Sample.Small { take; _ } -> Experiments.Setup.reduced setup ~n_faults:take
        | _ -> setup
      in
      (* timer probes stay out of the traced pass's spans *)
      let run, gen_s =
        Measure.normalised ~sampled:(not traced) (fun () ->
            Experiments.Runs.engine_run ~options:Experiments.Setup.probe_options setup)
      in
      let compaction =
        match request with
        | Sample.Medium _ when traced ->
            let (tests, coverage, _), seconds =
              Measure.timed (fun () -> Engine_workload.staged_compact setup run)
            in
            Some
              {
                c_seconds = seconds;
                c_tests = tests;
                c_covered = coverage.Coverage.covered;
                c_total = coverage.Coverage.total;
              }
        | Sample.Medium _ ->
            let c, seconds = Engine_workload.timed_compaction setup run in
            Some
              {
                c_seconds = seconds;
                c_tests = List.length c.Compactor.compact_tests;
                c_covered = c.Compactor.coverage.Coverage.covered;
                c_total = c.Compactor.coverage.Coverage.total;
              }
        | _ -> None
      in
      {
        exp_request = request;
        exp_result = Serve.Jsonl.to_string (Serve.Protocol.verdicts_of_run run);
        exp_gen_s = gen_s;
        exp_compaction = compaction;
        exp_configs = setup.Experiments.Setup.configs;
      }
  | Sample.Op m ->
      let nl = Macros.Macro.nominal_netlist (macro m) in
      let sys = Circuit.Mna.build nl in
      let x = (Circuit.Dc.solve sys ~time:`Dc).Circuit.Dc.solution in
      let voltages =
        List.map
          (fun n -> (n, Serve.Jsonl.Num (Circuit.Mna.voltage sys x n)))
          (Circuit.Netlist.nodes nl)
      in
      {
        exp_request = request;
        exp_result = Serve.Jsonl.to_string (Serve.Jsonl.Obj voltages);
        exp_gen_s = 0.;
        exp_compaction = None;
        exp_configs = [];
      }

let observed s =
  match Serve.Client.result_event s.reply with
  | None -> None
  | Some r -> (
      let field =
        match s.request with
        | Sample.Op _ -> "voltages"
        | Sample.Small _ | Sample.Medium _ -> "verdicts"
      in
      match Serve.Jsonl.member field r with
      | Some v -> Some (Serve.Jsonl.to_string v)
      | None -> None)

(* A sample fails when the reply was rejected, dropped, or differs from
   the in-process result. *)
let sample_ok expected s =
  s.reply.Serve.Client.status = 0
  && (not (Serve.Client.rejected s.reply))
  &&
  match (observed s, List.find_opt (fun e -> e.exp_request = s.request) expected) with
  | Some got, Some e -> String.equal got e.exp_result
  | _ -> false

(* -- runs ----------------------------------------------------------------- *)

(* Five set-ups (start plus warm-up); the last server stays up.  Set-up
   time is the median of the normalised set-ups, probed before and after
   only: the daemon's threads block in socket calls. *)
let repeated_setup () =
  let rec go times n =
    let server, dt = Measure.normalised ~sampled:false start_server in
    if n = 5 then (server, Measure.median (dt :: times))
    else begin
      Serve.Server.stop server;
      go (dt :: times) (n + 1)
    end
  in
  go [] 1

let latencies samples = List.map (fun s -> s.latency_ms) samples

let verify tally expected samples =
  List.iter
    (fun s ->
      Tally.check tally
        ~what:
          (Printf.sprintf "serve-mixed %s: reply status %d differs from in-process result"
             (Sample.request_label s.request) s.reply.Serve.Client.status)
        (sample_ok expected s))
    samples

(* One in-process pass over the catalogue, while no daemon runs: its
   threads block in socket calls, which the timer probes would
   interrupt. *)
let pass ~traced = List.map (expected_of ~traced) Sample.catalogue

(* The one-shot cost of the catalogue, each metric the median over
   in-process passes. *)
let one_shot_metrics passes =
  let of_pass expected =
    let comps = List.filter_map (fun e -> e.exp_compaction) expected in
    let sum_i f = List.fold_left (fun a c -> a + f c) 0 comps in
    [
      ("generate_s", Measure.sum (List.map (fun e -> e.exp_gen_s) expected));
      ("compact_s", Measure.sum (List.map (fun c -> c.c_seconds) comps));
      ( "coverage_pct",
        100. *. float_of_int (sum_i (fun c -> c.c_covered))
        /. float_of_int (sum_i (fun c -> c.c_total)) );
      ("compact_tests", float_of_int (sum_i (fun c -> c.c_tests)));
    ]
  in
  let per_pass = List.map of_pass passes in
  List.map
    (fun (k, _) -> (k, Measure.median (List.map (List.assoc k) per_pass)))
    (List.hd per_pass)

let report { samples; wall; _ } =
  let by label =
    List.filter (fun s -> Sample.request_label s.request = label) samples
  in
  let labels = List.sort_uniq compare (List.map (fun s -> Sample.request_label s.request) samples) in
  Printf.printf "serve-mixed: %d requests from %d clients in %.2f s\n" (List.length samples)
    clients wall;
  List.iter
    (fun l ->
      let xs = latencies (by l) in
      Printf.printf "  %-24s n=%4d  p50 %9.2f ms  max %9.2f ms\n" l (List.length xs)
        (Measure.median xs) (Measure.quantile 1. xs))
    labels

(* The one-shot passes run first, so peak_rss_mb is their peak.  The
   daemon's own peak depends on how the two clients' requests happen to
   overlap (73 and 89 MB on one seed in two runs), so it is the
   per-layer serve.peak_rss_mb. *)
let run ~seed ~seconds =
  let tally = Tally.create () in
  let passes = List.init 3 (fun _ -> pass ~traced:false) in
  let peak_rss_mb = Measure.peak_rss_mb () in
  let server, setup_s = repeated_setup () in
  let loop = closed_loop ~seed ~seconds in
  Serve.Server.stop server;
  report loop;
  verify tally (List.hd passes) loop.samples;
  let metrics =
    [ ("setup_s", setup_s) ] @ one_shot_metrics passes @ [ ("peak_rss_mb", peak_rss_mb) ]
  in
  (tally, metrics)

(* Request latency and throughput of an untraced loop.  Per-layer, not
   end-to-end: the host's speed changes every few seconds and the loop
   keeps both cores busy, so nothing can normalise them, and over ten
   seeds their spread reached 0.3. *)
let request_metrics loop =
  let lat = latencies loop.samples in
  Printf.printf "  p50/p95 over %d requests (%d beyond p95)\n" (List.length lat)
    (List.length lat / 20);
  [
    ("serve.req_p50_ms", Measure.median lat);
    ("serve.req_p95_ms", Measure.quantile 0.95 lat);
    ("serve.req_per_s", float_of_int (List.length loop.samples) /. loop.wall);
    ("serve.req_n", float_of_int (List.length lat));
  ]

let trace_path = Filename.concat run_dir "trace-serve-mixed.jsonl"

(* An untraced closed loop, then a traced one of the same length (the
   difference in throughput is the tracing overhead), then the
   in-process pass under the same trace.  The layer table covers the
   traced loop: each request's client-side latency is the daemon's own
   time ("serve") plus the spans its request domain recorded. *)
let traced ~seed ~seconds =
  let tally = Tally.create () in
  let server, _ = repeated_setup () in
  let plain = closed_loop ~seed ~seconds in
  let before = Serve.Server.stats server in
  Obs.enable ~trace:trace_path ();
  let loop = closed_loop ~seed ~seconds in
  let samples = loop.samples in
  let after = Serve.Server.stats server in
  (* counters cover the daemon's requests; the in-process pass below
     adds only the compaction spans *)
  let counters = Obs.counters () in
  Serve.Server.stop server;
  let expected = pass ~traced:true in
  Obs.shutdown ();
  report loop;
  verify tally expected plain.samples;
  verify tally expected samples;
  let trace = Layers.read trace_path in
  let daemon = List.filter (fun s -> s.Layers.req <> None) trace in
  let daemon_top = Layers.top_level daemon in
  let request_spans =
    List.map
      (fun s ->
        let inside =
          Layers.sum_seconds
            (fun d -> d.Layers.req = Some s.req)
            daemon_top
        in
        let seconds = s.latency_ms /. 1000. in
        { Layers.name = "serve.request"; key = None; req = Some s.req; depth = 0; seconds; evals = 0;
          self = seconds -. inside })
      samples
  in
  let ok =
    Layers.print_table ~title:"serve-mixed" ~wall:loop.client_seconds
      ~tolerance:0.02 (request_spans @ daemon)
  in
  Tally.check tally ~what:"serve-mixed: layer self times do not sum to the client time" ok;
  Layers.print_slowest_faults daemon;
  let in_process = List.filter (fun s -> s.Layers.req = None) trace in
  let inclusive n = Layers.sum_seconds (Layers.named n) in_process in
  let accepted = List.filter (fun s -> Float.is_finite s.accept_ms) samples in
  let extra =
    [
      ("compactor.members_s", inclusive "compactor.members");
      ("cluster.group_s", inclusive "cluster.group");
      ( "collapse.screen_s",
        (* a difference of two timings: clamp the noise below zero *)
        Float.max 0. (inclusive "collapse.collapse_config" -. inclusive "cluster.group") );
      ("coverage.evaluate_s", inclusive "coverage.evaluate");
      ("serve.accept_ms", Measure.median (List.map (fun s -> s.accept_ms) accepted));
      ("serve.accept_n", float_of_int (List.length accepted));
      ("serve.run_ms", Measure.median (List.map (fun s -> s.run_ms) accepted));
      ("serve.accepted", float_of_int (after.Serve.Server.st_accepted - before.Serve.Server.st_accepted));
      ("serve.rejected", float_of_int (after.Serve.Server.st_rejected - before.Serve.Server.st_rejected));
    ]
    @ request_metrics plain
    @ [
        ( "obs.traced_overhead_pct",
          100.
          *. ((float_of_int (List.length plain.samples) /. plain.wall)
              /. (float_of_int (List.length samples) /. loop.wall)
             -. 1.) );
      ]
  in
  let configs = List.concat_map (fun e -> e.exp_configs) expected in
  let metrics =
    Metrics.of_trace ~spans:daemon ~counters
      ~kind_of_config:(Metrics.kind_of_configs configs)
      ~extra
  in
  (tally, metrics)
