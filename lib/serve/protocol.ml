open Testgen

let schema = "atpg-serve/1"

(* Client exit codes for daemon-mediated failures, continuing the CLI's
   contract (0 clean, 1 IO/usage, 3 quarantined, 4 fail-fast, 5 corrupt
   session). *)
let exit_rejected = 6
let exit_drained = 7

type work = {
  w_macro : string;
  w_fast : bool;
  w_take : int option;
  w_jobs : int;
  w_delta : float;
  w_inject : Numerics.Failpoint.spec list;
  w_inject_seed : int64;
  w_session : string option;
}

let default_work =
  {
    w_macro = "iv";
    w_fast = true;
    w_take = None;
    w_jobs = 1;
    w_delta = 0.1;
    w_inject = [];
    w_inject_seed = 0L;
    w_session = None;
  }

type op =
  | Ping of { linger_ms : int }
  | Stats
  | Profile
  | Op of { macro : string }
  | Generate of work
  | Compact of work
  | Baseline of work

type request = { rq_id : string; rq_op : op }

(* Session names become spool file names; reject anything that could
   escape the spool directory or collide with checkpoint suffixes. *)
let valid_session_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       s
  && s.[0] <> '.'

let ( let* ) = Result.bind

let work_of_json json =
  let* inject =
    match Jsonl.list_member "inject" json with
    | None -> Ok []
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match Jsonl.to_str item with
            | None -> Error "inject entries must be strings"
            | Some s ->
                let* spec = Numerics.Failpoint.spec_of_string s in
                Ok (acc @ [ spec ]))
          (Ok []) items
  in
  let* session =
    match Jsonl.str_member "session" json with
    | None -> Ok None
    | Some s ->
        if valid_session_name s then Ok (Some s)
        else Error (Printf.sprintf "invalid session name %S" s)
  in
  let* take =
    match Jsonl.member "take" json with
    | None -> Ok None
    | Some v -> (
        match Jsonl.to_int v with
        | Some n when n >= 1 -> Ok (Some n)
        | _ -> Error "take must be a positive integer")
  in
  let* jobs =
    match Jsonl.member "jobs" json with
    | None -> Ok default_work.w_jobs
    | Some v -> (
        match Jsonl.to_int v with
        | Some n when n >= 0 -> Ok n
        | _ -> Error "jobs must be a non-negative integer")
  in
  Ok
    {
      w_macro =
        Option.value ~default:default_work.w_macro
          (Jsonl.str_member "macro" json);
      w_fast = Option.value ~default:true (Jsonl.bool_member "fast" json);
      w_take = take;
      w_jobs = jobs;
      w_delta =
        Option.value ~default:default_work.w_delta
          (Jsonl.num_member "delta" json);
      w_inject = inject;
      w_inject_seed =
        (match Jsonl.num_member "inject_seed" json with
        | Some f -> Int64.of_float f
        | None -> 0L);
      w_session = session;
    }

let request_of_json ~fallback_id json =
  let rq_id =
    match Jsonl.str_member "req" json with
    | Some id when id <> "" -> id
    | _ -> fallback_id
  in
  let* rq_op =
    match Jsonl.str_member "op" json with
    | None -> Error "missing \"op\""
    | Some "ping" ->
        let linger_ms =
          Option.value ~default:0 (Jsonl.int_member "linger_ms" json)
        in
        Ok (Ping { linger_ms = max 0 linger_ms })
    | Some "stats" -> Ok Stats
    | Some "profile" -> Ok Profile
    | Some "op" ->
        Ok
          (Op
             {
               macro =
                 Option.value ~default:"iv" (Jsonl.str_member "macro" json);
             })
    | Some "generate" ->
        let* w = work_of_json json in
        Ok (Generate w)
    | Some "compact" ->
        let* w = work_of_json json in
        Ok (Compact w)
    | Some "baseline" ->
        let* w = work_of_json json in
        Ok (Baseline w)
    | Some other -> Error (Printf.sprintf "unknown op %S" other)
  in
  Ok { rq_id; rq_op }

(* -- response lines ---------------------------------------------------- *)

let line ~req ~ev fields =
  Jsonl.Obj (("req", Jsonl.Str req) :: ("ev", Jsonl.Str ev) :: fields)

let hello =
  Jsonl.Obj
    [ ("ev", Jsonl.Str "hello"); ("schema", Jsonl.Str schema) ]

let accepted ~req = line ~req ~ev:"accepted" []

let rejected ~req ~code ~reason =
  line ~req ~ev:"rejected"
    [ ("code", Jsonl.Num (float_of_int code)); ("reason", Jsonl.Str reason) ]

let error ~req message =
  line ~req ~ev:"error" [ ("message", Jsonl.Str message) ]

let result ~req fields = line ~req ~ev:"result" fields

let drained ~req ~session ~completed =
  line ~req ~ev:"drained"
    [
      ("session", Jsonl.Str session);
      ("completed", Jsonl.Num (float_of_int completed));
    ]

let done_ ~req ~status =
  line ~req ~ev:"done" [ ("status", Jsonl.Num (float_of_int status)) ]

(* -- verdict encoding --------------------------------------------------- *)

(* One canonical JSON verdict per dictionary fault, in dictionary order:
   the unit the serve tests and the benchmark's serve workload compare
   between the daemon and the one-shot CLI path.  Pure function of the
   run record, so byte-compatible whenever the runs are result-identical. *)
let verdict_of_outcome (outcome : Generate.result Resilience.outcome) =
  let of_result (r : Generate.result) =
    match r.Generate.outcome with
    | Generate.Unique { config_id; critical_impact; dictionary_sensitivity; _ }
      ->
        [
          ("status", Jsonl.Str "unique");
          ("config", Jsonl.Num (float_of_int config_id));
          ("critical_impact", Jsonl.Num critical_impact);
          ("dictionary_sensitivity", Jsonl.Num dictionary_sensitivity);
        ]
    | Generate.Undetectable { most_sensitive_config; best_sensitivity; _ } ->
        [
          ("status", Jsonl.Str "undetectable");
          ("config", Jsonl.Num (float_of_int most_sensitive_config));
          ("best_sensitivity", Jsonl.Num best_sensitivity);
        ]
  in
  match outcome with
  | Resilience.Ok r -> of_result r
  | Resilience.Recovered (r, _) -> of_result r
  | Resilience.Failed _ -> [ ("status", Jsonl.Str "failed") ]

let verdicts_of_run (run : Engine.run) =
  Jsonl.List
    (List.map
       (fun report ->
         Jsonl.Obj
           (("fault", Jsonl.Str report.Engine.report_fault_id)
           :: verdict_of_outcome report.Engine.report_outcome))
       run.Engine.reports)
