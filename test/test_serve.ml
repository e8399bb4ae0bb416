(* Contract of the serve daemon: wire framing, admission control,
   graceful drain with byte-identical session resume, serve-vs-one-shot
   verdict parity, and the two concurrency-safety regressions that
   motivated de-globalizing failpoint injection and request-tagging the
   trace sink — concurrent injected sessions must not perturb each
   other, and concurrent requests must not corrupt each other's trace
   attribution. *)

open Testgen
module J = Serve.Jsonl
module P = Serve.Protocol
module Sv = Serve.Server
module Cl = Serve.Client

let next_id = ref 0

(* short /tmp names: sun_path caps the socket path around 100 bytes *)
let fresh_paths () =
  incr next_id;
  let tag = Printf.sprintf "/tmp/atpg-ts%d-%d" (Unix.getpid ()) !next_id in
  (tag ^ ".sock", tag ^ ".spool")

let with_server ?(budget = 2) f =
  let socket, spool = fresh_paths () in
  match Sv.start { Sv.socket; budget; spool } with
  | Error m -> Alcotest.fail m
  | Ok server ->
      Fun.protect
        ~finally:(fun () -> Sv.stop server)
        (fun () -> f server socket spool)

let gen_req ?(macro = "rc10") ?take ?session
    ?(inject = []) ?(seed = 0L) () =
  J.Obj
    ([
       ("op", J.Str "generate");
       ("macro", J.Str macro);
       ("fast", J.Bool true);
       ("jobs", J.Num 1.);
     ]
    @ (match take with
      | Some n -> [ ("take", J.Num (float_of_int n)) ]
      | None -> [])
    @ (match session with
      | Some s -> [ ("session", J.Str s) ]
      | None -> [])
    @
    match inject with
    | [] -> []
    | sp ->
        [
          ("inject", J.List (List.map (fun s -> J.Str s) sp));
          ("inject_seed", J.Num (Int64.to_float seed));
        ])

let ping_req linger_ms =
  J.Obj
    [ ("op", J.Str "ping"); ("linger_ms", J.Num (float_of_int linger_ms)) ]

let roundtrip_ok ~socket ~req json =
  match Cl.roundtrip ~socket ~req json with
  | Ok reply -> reply
  | Error m -> Alcotest.failf "%s: %s" req m

let verdicts_of_reply reply =
  match Cl.result_event reply with
  | None -> Alcotest.fail "no result event"
  | Some r -> (
      match J.member "verdicts" r with
      | Some v -> J.to_string v
      | None -> Alcotest.fail "result event lacks verdicts")

(* the one-shot CLI construction, in-process: identical problems by
   construction (Setup.probe docs) *)
let reference = Hashtbl.create 8

let reference_verdicts (macro_name, take) =
  let key = (macro_name, take) in
  match Hashtbl.find_opt reference key with
  | Some v -> v
  | None ->
      let macro =
        match Macros.Registry.find macro_name with
        | Ok m -> m
        | Error e -> Alcotest.fail e
      in
      let ctx =
        Experiments.Setup.probe ~profile:Execute.fast_profile ~macro ()
      in
      let ctx = Experiments.Setup.reduced ctx ~n_faults:take in
      let run =
        Experiments.Runs.engine_run ~options:Experiments.Setup.probe_options ctx
      in
      let v = J.to_string (P.verdicts_of_run run) in
      Hashtbl.replace reference key v;
      v

(* -- wire format -------------------------------------------------------- *)

let test_jsonl_roundtrip () =
  let values =
    [
      J.Null;
      J.Bool true;
      J.Bool false;
      J.Num 0.;
      J.Num 1.5;
      J.Num (-42.);
      J.Num 1e-9;
      J.Str "";
      J.Str "a\"b\\c\nd\te";
      J.Str "unicode \xc3\xa9";
      J.List [ J.Num 1.; J.Str "x"; J.Null ];
      J.Obj
        [
          ("k", J.Str "v");
          ("nested", J.Obj [ ("l", J.List [ J.Bool true ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = J.to_string v in
      match J.of_string s with
      | Ok v' -> Alcotest.(check string) ("roundtrip " ^ s) s (J.to_string v')
      | Error m -> Alcotest.failf "parse %s: %s" s m)
    values;
  (match J.of_string "{\"a\":1} junk" with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ());
  match J.of_string "{\"a\":1,}" with
  | Ok _ -> Alcotest.fail "accepted trailing comma"
  | Error _ -> ()

let test_request_decode () =
  let decode line =
    match J.of_string line with
    | Error m -> Alcotest.fail m
    | Ok j -> P.request_of_json ~fallback_id:"fb" j
  in
  (* "backend" is what older clients still send: ignored like any other
     unknown member *)
  (match
     decode
       "{\"req\":\"x\",\"op\":\"generate\",\"macro\":\"skc8\",\
        \"backend\":\"sparse\",\"take\":3,\
        \"inject\":[\"dc.no_convergence=0.5@2\"],\"session\":\"s-1\"}"
   with
  | Error m -> Alcotest.fail m
  | Ok rq -> (
      Alcotest.(check string) "req id" "x" rq.P.rq_id;
      match rq.P.rq_op with
      | P.Generate w ->
          Alcotest.(check string) "macro" "skc8" w.P.w_macro;
          Alcotest.(check (option int)) "take" (Some 3) w.P.w_take;
          Alcotest.(check int) "inject" 1 (List.length w.P.w_inject);
          Alcotest.(check (option string)) "session" (Some "s-1") w.P.w_session
      | _ -> Alcotest.fail "decoded wrong op"));
  (match decode "{\"op\":\"bogus\"}" with
  | Ok _ -> Alcotest.fail "accepted unknown op"
  | Error _ -> ());
  (match decode "{\"op\":\"generate\",\"session\":\"../evil\"}" with
  | Ok _ -> Alcotest.fail "accepted path-escaping session name"
  | Error _ -> ());
  match decode "{\"op\":\"ping\"}" with
  | Ok { P.rq_id = "fb"; rq_op = P.Ping { linger_ms = 0 } } -> ()
  | _ -> Alcotest.fail "fallback id / plain ping decode"

let test_framing () =
  with_server (fun _server socket _spool ->
      let reply = roundtrip_ok ~socket ~req:"p1" (ping_req 0) in
      Alcotest.(check int) "ping status" 0 reply.Cl.status;
      (match Cl.result_event reply with
      | Some r -> Alcotest.(check (option bool)) "pong" (Some true)
                    (J.bool_member "pong" r)
      | None -> Alcotest.fail "ping: no result");
      let stats =
        roundtrip_ok ~socket ~req:"s1" (J.Obj [ ("op", J.Str "stats") ])
      in
      (match Cl.result_event stats with
      | Some r ->
          Alcotest.(check (option int)) "budget" (Some 2)
            (J.int_member "budget" r)
      | None -> Alcotest.fail "stats: no result");
      (* unknown op answers error + done(1) and keeps the connection
         usable for the next request *)
      match Cl.connect ~socket with
      | Error m -> Alcotest.fail m
      | Ok conn ->
          Fun.protect
            ~finally:(fun () -> Cl.close conn)
            (fun () ->
              let bad =
                Cl.request conn ~req:"b1" (J.Obj [ ("op", J.Str "bogus") ])
              in
              Alcotest.(check int) "bad op status" 1 bad.Cl.status;
              let again = Cl.request conn ~req:"p2" (ping_req 0) in
              Alcotest.(check int) "conn survives" 0 again.Cl.status))

(* -- admission ---------------------------------------------------------- *)

let test_admission () =
  with_server ~budget:1 (fun server socket _spool ->
      (* a lingering ping occupies the only slot... *)
      let holder =
        Thread.create
          (fun () -> ignore (Cl.roundtrip ~socket ~req:"hold" (ping_req 1000)))
          ()
      in
      let rec await_busy n =
        if n > 200 then Alcotest.fail "holder never occupied the slot";
        if (Sv.stats server).Sv.st_in_flight < 1 then begin
          Thread.delay 0.01;
          await_busy (n + 1)
        end
      in
      await_busy 0;
      (* ...so the next work request bounces with 429 *)
      let over = roundtrip_ok ~socket ~req:"over" (ping_req 100) in
      Alcotest.(check int) "429 status" P.exit_rejected over.Cl.status;
      (match over.Cl.events with
      | [ e ] ->
          Alcotest.(check (option int)) "429 code" (Some 429)
            (J.int_member "code" e)
      | _ -> Alcotest.fail "429: expected exactly the rejected event");
      (* introspection is never rejected *)
      let stats =
        roundtrip_ok ~socket ~req:"s" (J.Obj [ ("op", J.Str "stats") ])
      in
      Alcotest.(check int) "stats while full" 0 stats.Cl.status;
      Thread.join holder;
      (* during drain an established connection gets 503 *)
      match Cl.connect ~socket with
      | Error m -> Alcotest.fail m
      | Ok conn ->
          Fun.protect
            ~finally:(fun () -> Cl.close conn)
            (fun () ->
              Sv.drain server;
              let late = Cl.request conn ~req:"late" (ping_req 10) in
              Alcotest.(check int) "503 status" P.exit_rejected late.Cl.status;
              match late.Cl.events with
              | [ e ] ->
                  Alcotest.(check (option int)) "503 code" (Some 503)
                    (J.int_member "code" e)
              | _ -> Alcotest.fail "503: expected exactly the rejected event"))

(* -- graceful drain + resume -------------------------------------------- *)

(* A session big enough that the drain flag lands mid-run once the first
   checkpoint block is on disk. *)
let drain_macro = "rc16"
let drain_take = 40

(* The drain test reads its replies through a socket with a receive
   deadline, so a daemon that stalls fails the test — naming the last
   line the client saw and the server's admission counters — instead of
   hanging the suite.  The whole test takes well under a second. *)
let reply_deadline_s = 60.

let stats_line server =
  let s = Sv.stats server in
  Printf.sprintf
    "in_flight %d/%d, draining %b, accepted %d, rejected %d, completed %d"
    s.Sv.st_in_flight s.Sv.st_budget s.Sv.st_draining s.Sv.st_accepted
    s.Sv.st_rejected s.Sv.st_completed

(* {!Cl.roundtrip} over a socket with [SO_RCVTIMEO] *)
let roundtrip_within_deadline server ~socket ~req json =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_deadline_s;
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let oc = Unix.out_channel_of_descr fd in
      (match json with
      | J.Obj fields ->
          output_string oc (J.to_string (J.Obj (("req", J.Str req) :: fields)))
      | other -> output_string oc (J.to_string other));
      output_char oc '\n';
      flush oc;
      let ic = Unix.in_channel_of_descr fd in
      let rec read last acc =
        match input_line ic with
        | exception End_of_file -> Ok { Cl.events = List.rev acc; status = 1 }
        | exception (Sys_blocked_io | Sys_error _ | Unix.Unix_error _) ->
            Error
              (Printf.sprintf "%s: no line within %.0f s after %s; server: %s"
                 req reply_deadline_s last (stats_line server))
        | line -> (
            match J.of_string line with
            | Error _ -> read last acc
            | Ok event -> (
                let ev = Option.value ~default:"?" (J.str_member "ev" event) in
                let last = Printf.sprintf "the %S line" ev in
                if J.str_member "req" event <> Some req then read last acc
                else
                  let events = List.rev (event :: acc) in
                  match ev with
                  | "done" ->
                      Ok
                        {
                          Cl.events;
                          status =
                            Option.value ~default:1 (J.int_member "status" event);
                        }
                  | "rejected" -> Ok { Cl.events; status = P.exit_rejected }
                  | _ -> read last (event :: acc)))
      in
      read "connecting" [])

let test_drain_resume () =
  let socket1, spool = fresh_paths () in
  let session = "drainy" in
  let server1 =
    match Sv.start { Sv.socket = socket1; budget = 1; spool } with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let reply1 = ref (Error "no reply") in
  let th =
    Thread.create
      (fun () ->
        reply1 :=
          roundtrip_within_deadline server1 ~socket:socket1 ~req:"d1"
            (gen_req ~macro:drain_macro ~take:drain_take ~session ()))
      ()
  in
  (* wait for the first checkpointed block, then drain: the engine's
     checkpoint hook observes the flag on the next append *)
  let path = Sv.session_path server1 session in
  let rec await_block n =
    if n > 4000 then Alcotest.fail "no checkpoint block appeared";
    let sz = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
    if sz < 200 then begin
      Thread.delay 0.002;
      await_block (n + 1)
    end
  in
  await_block 0;
  Sv.drain server1;
  Thread.join th;
  let reply1 = match !reply1 with Ok r -> r | Error m -> Alcotest.fail m in
  Sv.stop server1;
  let completed =
    match Cl.drained_event reply1 with
    | Some e -> Option.value ~default:(-1) (J.int_member "completed" e)
    | None ->
        Alcotest.failf
          "run was not drained (status %d) — drain landed too late"
          reply1.Cl.status
  in
  Alcotest.(check int) "drained status" P.exit_drained reply1.Cl.status;
  if completed < 1 || completed >= drain_take then
    Alcotest.failf "drained after %d of %d faults" completed drain_take;
  (* resume on a fresh server over the same spool: the rerun completes
     and the finished session file is byte-identical to an
     uninterrupted run's *)
  let socket2, _ = fresh_paths () in
  let server2 =
    match Sv.start { Sv.socket = socket2; budget = 1; spool } with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let roundtrip_ok ~req json =
    match roundtrip_within_deadline server2 ~socket:socket2 ~req json with
    | Ok reply -> reply
    | Error m -> Alcotest.fail m
  in
  Fun.protect
    ~finally:(fun () -> Sv.stop server2)
    (fun () ->
      let resumed =
        roundtrip_ok ~req:"d2"
          (gen_req ~macro:drain_macro ~take:drain_take ~session ())
      in
      Alcotest.(check int) "resumed status" 0 resumed.Cl.status;
      let uninterrupted =
        roundtrip_ok ~req:"d3"
          (gen_req ~macro:drain_macro ~take:drain_take ~session:"fresh" ())
      in
      Alcotest.(check int) "uninterrupted status" 0 uninterrupted.Cl.status;
      Alcotest.(check string)
        "same verdicts" (verdicts_of_reply uninterrupted)
        (verdicts_of_reply resumed);
      let read_file p =
        let ic = open_in_bin p in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      Alcotest.(check bool)
        "session bytes identical to uninterrupted run" true
        (String.equal (read_file path)
           (read_file (Sv.session_path server2 "fresh"))))

(* -- serve vs one-shot parity ------------------------------------------- *)

(* rc10 (11 nodes) runs on dense LU, skc8 (25 nodes) on sparse *)
let test_parity () =
  with_server (fun _server socket _spool ->
      List.iter
        (fun macro ->
          let reply =
            roundtrip_ok ~socket ~req:macro (gen_req ~macro ~take:3 ())
          in
          Alcotest.(check int) (macro ^ " status") 0 reply.Cl.status;
          Alcotest.(check string) (macro ^ " verdicts")
            (reference_verdicts (macro, 3))
            (verdicts_of_reply reply))
        [ "rc10"; "skc8" ])

(* The op reply names the backend Mna.build chose from the netlist size. *)
let test_op_backend () =
  with_server (fun _server socket _spool ->
      List.iter
        (fun (macro, expected) ->
          let reply =
            roundtrip_ok ~socket ~req:macro
              (J.Obj [ ("op", J.Str "op"); ("macro", J.Str macro) ])
          in
          Alcotest.(check int) (macro ^ " status") 0 reply.Cl.status;
          match Cl.result_event reply with
          | None -> Alcotest.failf "%s: no result" macro
          | Some r ->
              Alcotest.(check (option string)) (macro ^ " backend")
                (Some expected) (J.str_member "backend" r))
        [ ("rc10", "dense"); ("otac16", "sparse") ])

(* -- concurrency-safety regressions ------------------------------------- *)

(* Two sessions in flight, one injecting failures: the injected config
   must stay scoped to its own request (domain-local override + fan_out
   snapshot), leaving the clean session's verdicts untouched. *)
let test_injected_isolation () =
  with_server (fun _server socket _spool ->
      let clean = ref None and injected = ref None in
      let threads =
        [
          Thread.create
            (fun () ->
              injected :=
                Result.to_option
                  (Cl.roundtrip ~socket ~req:"inj"
                     (gen_req ~take:4
                        ~inject:[ "dc.no_convergence=0.5@3" ]
                        ~seed:7L ())))
            ();
          Thread.create
            (fun () ->
              clean :=
                Result.to_option
                  (Cl.roundtrip ~socket ~req:"cln" (gen_req ~take:4 ())))
            ();
        ]
      in
      List.iter Thread.join threads;
      let clean =
        match !clean with Some r -> r | None -> Alcotest.fail "clean died"
      in
      let injected =
        match !injected with
        | Some r -> r
        | None -> Alcotest.fail "injected died"
      in
      Alcotest.(check string)
        "clean verdicts unperturbed"
        (reference_verdicts ("rc10", 4))
        (verdicts_of_reply clean);
      if injected.Cl.status <> 0 && injected.Cl.status <> Engine.exit_quarantined
      then
        Alcotest.failf "injected session exited %d (want 0 or %d)"
          injected.Cl.status Engine.exit_quarantined)

(* Two concurrent requests under an enabled trace sink: every
   request-tagged span line must carry the id of the request whose
   domain recorded it, and both requests must appear. *)
let test_trace_integrity () =
  let trace = Filename.temp_file "atpg-serve" ".trace" in
  Obs.enable ~trace ();
  let run () =
    with_server (fun _server socket _spool ->
        let a = ref None and b = ref None in
        let threads =
          [
            Thread.create
              (fun () ->
                a :=
                  Result.to_option
                    (Cl.roundtrip ~socket ~req:"tA" (gen_req ~take:3 ())))
              ();
            Thread.create
              (fun () ->
                b :=
                  Result.to_option
                    (Cl.roundtrip ~socket ~req:"tB"
                       (gen_req ~macro:"skc4" ~take:3 ())))
              ();
          ]
        in
        List.iter Thread.join threads;
        (match (!a, !b) with
        | Some a, Some b ->
            Alcotest.(check int) "tA status" 0 a.Cl.status;
            Alcotest.(check int) "tB status" 0 b.Cl.status
        | _ -> Alcotest.fail "a request died"))
  in
  Fun.protect ~finally:Obs.shutdown run;
  let seen = Hashtbl.create 4 in
  let ic = open_in trace in
  (try
     while true do
       let line = input_line ic in
       match J.of_string line with
       | Ok json -> (
           match J.str_member "req" json with
           | Some ("tA" | "tB") as r -> Hashtbl.replace seen (Option.get r) ()
           | Some other -> Alcotest.failf "foreign request id %S in trace" other
           | None -> ())
       | Error _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove trace;
  Alcotest.(check bool)
    "both requests left tagged spans" true
    (Hashtbl.mem seen "tA" && Hashtbl.mem seen "tB")

let () =
  Alcotest.run "serve"
    [
      ("wire",
       [
         Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
         Alcotest.test_case "request decode" `Quick test_request_decode;
         Alcotest.test_case "framing" `Quick test_framing;
         Alcotest.test_case "op reports the selected backend" `Quick
           test_op_backend;
       ]);
      ("admission",
       [ Alcotest.test_case "budget and drain rejections" `Quick test_admission ]);
      ("drain",
       [
         Alcotest.test_case "graceful drain resumes byte-identical" `Slow
           test_drain_resume;
       ]);
      ("parity",
       [
         Alcotest.test_case "serve matches one-shot verdicts" `Slow test_parity;
       ]);
      ("concurrency",
       [
         Alcotest.test_case "injected sessions are isolated" `Slow
           test_injected_isolation;
         Alcotest.test_case "trace attribution stays per-request" `Slow
           test_trace_integrity;
       ]);
    ]
