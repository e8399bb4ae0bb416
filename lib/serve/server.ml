open Testgen

(* The daemon: a Unix-domain-socket listener speaking Protocol's JSONL
   framing.  Concurrency model:

   - the accept loop runs on one systhread; each connection gets its own
     systhread that reads requests serially;
   - every admitted work request executes in a freshly spawned Domain.
     Domain-local state is the isolation boundary: the request's --inject
     configuration installs as a Failpoint domain-local override (there
     is no global one), and its Obs request id stamps every span the domain — and,
     via Parallel.fan_out propagation, its worker domains — records;
   - admission is a bounded in-flight budget checked before the spawn:
     over-budget requests get an immediate 429-style rejection, requests
     arriving during drain a 503.  Ping/stats/profile answer inline so
     introspection works while the budget is full;
   - compiled-plan and nominal caches are shared across requests through
     the Evaluator fork/absorb seam: each request forks private
     evaluators off a cached per-(macro, profile) context and
     absorbs them back when done, so later requests warm-start from
     earlier requests' nominal work;
   - named sessions run through Runs.resume_run, the CLI's --resume
     routine, so a spool file holds the bytes `atpg generate --resume`
     writes and a corrupt one is status 5 as on the CLI;
   - graceful drain stops accepting, then interrupts checkpointed
     sessions at their next checkpoint append (the engine's in-order
     emit funnel), closes the checkpoint cleanly and tells the client
     how far it got — a resend with the same session resumes and the
     final session bytes are identical to an uninterrupted run. *)

exception Drained of int

type options = {
  socket : string;
  budget : int;
  spool : string;
}

let default_options =
  { socket = "/tmp/atpg.sock"; budget = 2; spool = "/tmp/atpg-spool" }

type stats = {
  st_in_flight : int;
  st_budget : int;
  st_draining : bool;
  st_accepted : int;
  st_rejected : int;
  st_completed : int;
}

type ctx_key = { ck_macro : string; ck_fast : bool }

type t = {
  opts : options;
  listen_fd : Unix.file_descr;
  started : float;
  draining : bool Atomic.t;
  listener_open : bool Atomic.t;
  in_flight : int ref;
  adm_mutex : Mutex.t;
  accepted_n : int Atomic.t;
  rejected_n : int Atomic.t;
  completed_n : int Atomic.t;
  ctx_mutex : Mutex.t;
  ctx_cache : (ctx_key, Experiments.Setup.t * Generate.options option) Hashtbl.t;
  conn_mutex : Mutex.t;
  mutable conns : Thread.t list;
  mutable accept_thread : Thread.t option;
}

(* -- admission --------------------------------------------------------- *)

let admit t =
  Mutex.lock t.adm_mutex;
  let verdict =
    if Atomic.get t.draining then `Draining
    else if !(t.in_flight) >= t.opts.budget then `Busy
    else begin
      incr t.in_flight;
      `Admitted
    end
  in
  Mutex.unlock t.adm_mutex;
  verdict

let release t =
  Mutex.lock t.adm_mutex;
  decr t.in_flight;
  Mutex.unlock t.adm_mutex

let stats t =
  Mutex.lock t.adm_mutex;
  let in_flight = !(t.in_flight) in
  Mutex.unlock t.adm_mutex;
  {
    st_in_flight = in_flight;
    st_budget = t.opts.budget;
    st_draining = Atomic.get t.draining;
    st_accepted = Atomic.get t.accepted_n;
    st_rejected = Atomic.get t.rejected_n;
    st_completed = Atomic.get t.completed_n;
  }

(* -- shared contexts --------------------------------------------------- *)

(* Expensive to build (the IV context calibrates tolerance boxes over
   process corners), cheap to share: contexts are immutable apart from
   their evaluators' caches, which requests access only through private
   forks.  Built outside the lock; a concurrent duplicate build loses
   the insert race and is dropped. *)
let context t (work : Protocol.work) =
  let key =
    { ck_macro = work.Protocol.w_macro; ck_fast = work.Protocol.w_fast }
  in
  Mutex.lock t.ctx_mutex;
  let cached = Hashtbl.find_opt t.ctx_cache key in
  Mutex.unlock t.ctx_mutex;
  match cached with
  | Some entry -> Ok entry
  | None ->
      Result.map
        (fun built ->
          Mutex.lock t.ctx_mutex;
          let entry =
            match Hashtbl.find_opt t.ctx_cache key with
            | Some racing -> racing
            | None ->
                Hashtbl.replace t.ctx_cache key built;
                built
          in
          Mutex.unlock t.ctx_mutex;
          entry)
        (Experiments.Setup.for_macro ~fast:work.Protocol.w_fast
           work.Protocol.w_macro)

(* Fork private evaluators off the shared context and absorb them back
   (commutative merge) whatever the outcome, so cache warmth and
   counters survive across requests. *)
let with_forked_evaluators t (setup : Experiments.Setup.t) f =
  Mutex.lock t.ctx_mutex;
  let forks = Evaluator.fork setup.Experiments.Setup.evaluators in
  Mutex.unlock t.ctx_mutex;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.ctx_mutex;
      List.iter2
        (fun parent fork -> Evaluator.absorb ~into:parent fork)
        setup.Experiments.Setup.evaluators forks;
      Mutex.unlock t.ctx_mutex)
    (fun () -> f { setup with Experiments.Setup.evaluators = forks })

(* -- request execution ------------------------------------------------- *)

let session_path t name = Filename.concat t.opts.spool (name ^ ".ck")

type run_result =
  | Completed of Engine.run
  | Interrupted of { session : string; completed : int }
  | Unresumable of { status : int; message : string }

(* Run the engine for one work request: session checkpointing when asked
   for, drain interruption at checkpoint granularity.  Runs inside the
   request's domain. *)
let engine_run t ~options setup (work : Protocol.work) =
  let jobs = work.Protocol.w_jobs in
  let setup =
    match work.Protocol.w_take with
    | Some n -> Experiments.Setup.reduced setup ~n_faults:n
    | None -> setup
  in
  match work.Protocol.w_session with
  | None ->
      (* no checkpoint to resume from, so the run is not interruptible:
         a drain waits for it *)
      Completed (Experiments.Runs.engine_run ?options ~jobs setup)
  | Some session -> (
      (* resume salvages a prior drain's prefix; a missing file behaves
         like create *)
      let on_append completed =
        if Atomic.get t.draining then raise (Drained completed)
      in
      match
        Experiments.Runs.resume_run ?options ~jobs ~on_append
          ~path:(session_path t session) setup
      with
      | Ok run -> Completed run
      | Error (status, message) -> Unresumable { status; message }
      | exception Drained completed -> Interrupted { session; completed })

(* Each work request runs in its own domain so Failpoint overrides and
   the Obs request id are scoped to it (and to the worker domains its
   engine spawns), never to the connection thread or other requests. *)
let in_request_domain ~req f =
  let dom =
    Domain.spawn (fun () ->
        Obs.with_request req (fun () ->
            match f () with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())))
  in
  match Domain.join dom with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let float_fields fields = List.map (fun (k, v) -> (k, Jsonl.Num v)) fields

let run_work t ~send ~req (work : Protocol.work) kind =
  match context t work with
  | Error e ->
      send (Protocol.error ~req e);
      1
  | Ok (setup, options) ->
      let outcome =
        in_request_domain ~req (fun () ->
            Numerics.Failpoint.with_config ~seed:work.Protocol.w_inject_seed
              work.Protocol.w_inject (fun () ->
                with_forked_evaluators t setup (fun setup ->
                    let t0 = Unix.gettimeofday () in
                    let r = engine_run t ~options setup work in
                    (r, Unix.gettimeofday () -. t0))))
      in
      let base_fields (run : Engine.run) =
        [
          ("macro", Jsonl.Str work.Protocol.w_macro);
          ("faults", Jsonl.Num (float_of_int (List.length run.Engine.reports)));
          ("quarantined",
           Jsonl.Num (float_of_int (List.length run.Engine.failed_faults)));
          ("verdicts", Protocol.verdicts_of_run run);
        ]
      in
      (match outcome with
      | Unresumable { status; message }, _ ->
          send (Protocol.error ~req message);
          status
      | Interrupted { session; completed }, _ ->
          send (Protocol.drained ~req ~session ~completed);
          Protocol.exit_drained
      | Completed run, wall ->
          let extra =
            match kind with
            | `Generate -> []
            | `Baseline ->
                (* the same run scored against fixed-seed selection *)
                [ ("table", Jsonl.Str (Experiments.Runs.xbase setup run)) ]
            | `Compact ->
                let c =
                  Experiments.Runs.compact_run ~delta:work.Protocol.w_delta
                    setup run
                in
                [
                  ("compact",
                   Jsonl.Obj
                     [
                       ("tests",
                        Jsonl.Num
                          (float_of_int
                             (List.length c.Compactor.compact_tests)));
                       ("original",
                        Jsonl.Num
                          (float_of_int c.Compactor.original_test_count));
                       ("labels",
                        Jsonl.List
                          (List.map
                             (fun ct -> Jsonl.Str ct.Compactor.ct_label)
                             c.Compactor.compact_tests));
                     ]);
                ]
          in
          send
            (Protocol.result ~req
               (base_fields run @ extra
               @ [ ("wall_ms", Jsonl.Num (wall *. 1000.)) ]));
          Engine.exit_status run)

let run_op ~send ~req ~macro_name =
  match Macros.Registry.find macro_name with
  | Error e ->
      send (Protocol.error ~req e);
      1
  | Ok macro ->
      in_request_domain ~req (fun () ->
          let nl = Macros.Macro.nominal_netlist macro in
          let sys = Circuit.Mna.build nl in
          let report = Circuit.Dc.solve sys ~time:`Dc in
          let x = report.Circuit.Dc.solution in
          let voltages =
            List.map
              (fun n -> (n, Jsonl.Num (Circuit.Mna.voltage sys x n)))
              (Circuit.Netlist.nodes nl)
          in
          send
            (Protocol.result ~req
               [
                 ("macro", Jsonl.Str macro_name);
                 ("backend",
                  Jsonl.Str
                    (Circuit.Mna.backend_name (Circuit.Mna.backend sys)));
                 ("newton_iterations",
                  Jsonl.Num (float_of_int report.Circuit.Dc.newton_iterations));
                 ("voltages", Jsonl.Obj voltages);
               ]);
          0)

let stats_fields t =
  let s = stats t in
  let b = Evaluator.batch_stats () in
  [
    ("in_flight", Jsonl.Num (float_of_int s.st_in_flight));
    ("budget", Jsonl.Num (float_of_int s.st_budget));
    ("draining", Jsonl.Bool s.st_draining);
    ("accepted", Jsonl.Num (float_of_int s.st_accepted));
    ("rejected", Jsonl.Num (float_of_int s.st_rejected));
    ("completed", Jsonl.Num (float_of_int s.st_completed));
    ("uptime_s", Jsonl.Num (Unix.gettimeofday () -. t.started));
    (* config-major batching across all served requests: maintained
       unconditionally, so stats see them without tracing enabled *)
    ( "batch_faults_batched",
      Jsonl.Num (float_of_int b.Evaluator.faults_batched) );
    ("batch_fallback_seq", Jsonl.Num (float_of_int b.Evaluator.fallback_seq));
    ("batch_panels", Jsonl.Num (float_of_int b.Evaluator.panels));
  ]

let profile_fields () =
  let spans =
    List.map
      (fun s ->
        Jsonl.Obj
          [
            ("name", Jsonl.Str s.Obs.span_name);
            ("count", Jsonl.Num (float_of_int s.Obs.span_count));
            ("seconds", Jsonl.Num s.Obs.span_seconds);
          ])
      (Obs.span_stats ())
  in
  let counters =
    List.map
      (fun (name, v) -> (name, Jsonl.Num (float_of_int v)))
      (Obs.counters ())
  in
  [ ("spans", Jsonl.List spans); ("counters", Jsonl.Obj counters) ]

(* -- the per-request state machine ------------------------------------- *)

let handle_request t ~send (rq : Protocol.request) =
  let req = rq.Protocol.rq_id in
  match rq.Protocol.rq_op with
  (* introspection answers inline — it must work while the budget is
     full and during drain *)
  | Protocol.Ping { linger_ms = 0 } ->
      send (Protocol.result ~req [ ("pong", Jsonl.Bool true) ]);
      send (Protocol.done_ ~req ~status:0)
  | Protocol.Stats ->
      send (Protocol.result ~req (stats_fields t));
      send (Protocol.done_ ~req ~status:0)
  | Protocol.Profile ->
      send (Protocol.result ~req (profile_fields ()));
      send (Protocol.done_ ~req ~status:0)
  | Protocol.Ping _ | Protocol.Op _ | Protocol.Generate _ | Protocol.Compact _
  | Protocol.Baseline _ -> (
      match admit t with
      | `Draining ->
          Atomic.incr t.rejected_n;
          send
            (Protocol.rejected ~req ~code:503 ~reason:"server is draining")
      | `Busy ->
          Atomic.incr t.rejected_n;
          send
            (Protocol.rejected ~req ~code:429
               ~reason:
                 (Printf.sprintf "budget full (%d in flight)" t.opts.budget))
      | `Admitted ->
          Atomic.incr t.accepted_n;
          send (Protocol.accepted ~req);
          let status =
            Fun.protect
              ~finally:(fun () -> release t)
              (fun () ->
                try
                  match rq.Protocol.rq_op with
                  | Protocol.Ping { linger_ms } ->
                      Thread.delay (float_of_int linger_ms /. 1000.);
                      send
                        (Protocol.result ~req
                           (("pong", Jsonl.Bool true)
                           :: float_fields
                                [ ("linger_ms", float_of_int linger_ms) ]));
                      0
                  | Protocol.Op { macro } -> run_op ~send ~req ~macro_name:macro
                  | Protocol.Generate w -> run_work t ~send ~req w `Generate
                  | Protocol.Compact w -> run_work t ~send ~req w `Compact
                  | Protocol.Baseline w -> run_work t ~send ~req w `Baseline
                  | Protocol.Stats | Protocol.Profile -> assert false
                with e ->
                  send
                    (Protocol.error ~req
                       (Printf.sprintf "request failed: %s"
                          (Printexc.to_string e)));
                  1)
          in
          Atomic.incr t.completed_n;
          send (Protocol.done_ ~req ~status))

(* -- connection & accept loops ----------------------------------------- *)

(* Blocking reads don't wake when another thread sets the drain flag, so
   both loops poll with short selects.  A draining connection stays
   readable for a grace window — long enough for a client that was about
   to send to receive its 503 — then closes. *)
let poll_interval = 0.05
let drain_grace = 0.5

(* Incremental line reader over the raw fd: select / read / split.
   Returns [`Line], [`Eof] (also on reset) or [`Drained] once the drain
   grace expires with no pending input. *)
let make_line_reader t fd =
  let pending = Queue.create () in
  let partial = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let drain_deadline = ref None in
  let rec next () =
    match Queue.take_opt pending with
    | Some line -> `Line line
    | None -> (
        let expired () =
          match !drain_deadline with
          | Some dl -> Unix.gettimeofday () > dl
          | None ->
              if Atomic.get t.draining then begin
                drain_deadline :=
                  Some (Unix.gettimeofday () +. drain_grace);
                false
              end
              else false
        in
        if expired () then `Drained
        else
          match Unix.select [ fd ] [] [] poll_interval with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ()
          | [], _, _ -> next ()
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ()
              | exception Unix.Unix_error _ -> `Eof
              | 0 -> `Eof
              | n ->
                  Buffer.add_subbytes partial chunk 0 n;
                  let s = Buffer.contents partial in
                  Buffer.clear partial;
                  let rec split from =
                    match String.index_from_opt s from '\n' with
                    | Some nl ->
                        Queue.add (String.sub s from (nl - from)) pending;
                        split (nl + 1)
                    | None ->
                        Buffer.add_substring partial s from
                          (String.length s - from)
                  in
                  split 0;
                  next ()))
  in
  next

let connection_loop t fd =
  let oc = Unix.out_channel_of_descr fd in
  let out_mutex = Mutex.create () in
  let send v =
    Mutex.lock out_mutex;
    (try
       output_string oc (Jsonl.to_string v);
       output_char oc '\n';
       flush oc
     with Sys_error _ | Unix.Unix_error _ ->
       (* client went away; keep running so the request's evaluator
          absorb and admission release still happen *)
       ());
    Mutex.unlock out_mutex
  in
  send Protocol.hello;
  let next_line = make_line_reader t fd in
  let counter = ref 0 in
  let rec loop () =
    match next_line () with
    | `Eof | `Drained -> ()
    | `Line line ->
        incr counter;
        let fallback_id = Printf.sprintf "r%d" !counter in
        (if String.trim line <> "" then
           match Jsonl.of_string line with
           | Error m ->
               send (Protocol.error ~req:fallback_id ("bad json: " ^ m));
               send (Protocol.done_ ~req:fallback_id ~status:1)
           | Ok json -> (
               match Protocol.request_of_json ~fallback_id json with
               | Error m ->
                   let req =
                     Option.value ~default:fallback_id
                       (Jsonl.str_member "req" json)
                   in
                   send (Protocol.error ~req m);
                   send (Protocol.done_ ~req ~status:1)
               | Ok rq -> handle_request t ~send rq));
        loop ()
  in
  loop ();
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec loop () =
    if Atomic.get t.draining then ()
    else
      match Unix.select [ t.listen_fd ] [] [] poll_interval with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.accept t.listen_fd with
          | exception Unix.Unix_error _ -> loop ()
          | fd, _ ->
              let th = Thread.create (fun () -> connection_loop t fd) () in
              Mutex.lock t.conn_mutex;
              t.conns <- th :: t.conns;
              Mutex.unlock t.conn_mutex;
              loop ())
  in
  loop ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let start (opts : options) =
  if opts.budget < 1 then Error "serve: budget must be >= 1"
  else if String.length opts.socket > 100 then
    Error
      (Printf.sprintf "serve: socket path %S too long for sun_path"
         opts.socket)
  else begin
    mkdir_p opts.spool;
    (* a dead server's socket file would make bind fail forever *)
    (try Unix.unlink opts.socket with Unix.Unix_error _ -> ());
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.bind fd (Unix.ADDR_UNIX opts.socket) with
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "serve: cannot bind %s: %s" opts.socket
             (Unix.error_message e))
    | () ->
        Unix.listen fd 16;
        let t =
          {
            opts;
            listen_fd = fd;
            started = Unix.gettimeofday ();
            draining = Atomic.make false;
            listener_open = Atomic.make true;
            in_flight = ref 0;
            adm_mutex = Mutex.create ();
            accepted_n = Atomic.make 0;
            rejected_n = Atomic.make 0;
            completed_n = Atomic.make 0;
            ctx_mutex = Mutex.create ();
            ctx_cache = Hashtbl.create 8;
            conn_mutex = Mutex.create ();
            conns = [];
            accept_thread = None;
          }
        in
        t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
        Ok t
  end

let socket t = t.opts.socket

(* Only flips the flag — both loops poll it — so it is safe from a
   signal handler. *)
let drain t = Atomic.set t.draining true

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  if Atomic.compare_and_set t.listener_open true false then
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* connection threads outlive the listener only until their clients
     hang up or their last request finishes; after drain no new ones
     appear, so a snapshot loop terminates *)
  let rec join_all () =
    Mutex.lock t.conn_mutex;
    let pending = t.conns in
    t.conns <- [];
    Mutex.unlock t.conn_mutex;
    match pending with
    | [] -> ()
    | ths ->
        List.iter Thread.join ths;
        join_all ()
  in
  join_all ();
  try Unix.unlink t.opts.socket with Unix.Unix_error _ -> ()

let stop t =
  drain t;
  wait t

let install_sigterm t =
  let handler _ = drain t in
  try
    Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
    Sys.set_signal Sys.sigint (Sys.Signal_handle handler)
  with Invalid_argument _ -> ()
