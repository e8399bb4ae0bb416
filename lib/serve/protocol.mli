(** Wire protocol of the ATPG serve daemon ([atpg-serve/1]).

    Framing: newline-delimited JSON in both directions over a Unix
    domain socket.  On connect the server sends one [hello] line
    carrying the schema name.  Each client line is one request object;
    the server streams zero or more event lines for it — every one
    tagged with the request's ["req"] id — and always terminates the
    request with a ["done"] or ["rejected"] line, in request order per
    connection.  Concurrency comes from multiple connections, bounded
    by the server's admission budget.

    Request object fields: ["req"] (client-chosen correlation id),
    ["op"] (one of [ping], [stats], [profile], [op], [generate],
    [compact], [baseline]), and for the work ops ["macro"], ["fast"],
    ["take"], ["jobs"], ["delta"], ["inject"] (array of failpoint
    specs), ["inject_seed"], ["session"] (checkpoint name for
    drain/resume).  Unknown members are ignored — among them
    ["backend"], which older clients send: {!Circuit.Mna.build} picks
    the backend from the netlist size, and results are bit-identical
    across backends.

    Event lines: ["accepted"], ["rejected"] (with [code] 429 = budget
    full, 503 = draining), ["result"], ["drained"] (run interrupted by
    graceful drain after [completed] checkpointed faults — resend with
    the same [session] to resume), ["error"], ["done"] (with the request's
    [status], mirroring CLI exit codes).  A ["done"] status of 5 means a
    corrupt session: the named [session]'s spool checkpoint exists but
    cannot be resumed (an ["error"] line says why), exactly as
    [atpg generate --resume] exits 5 on a corrupt checkpoint. *)

open Testgen

val schema : string

val exit_rejected : int
(** Client exit code 6: the daemon rejected the request (429/503). *)

val exit_drained : int
(** Client exit code 7: the run was interrupted by a graceful drain;
    the session checkpoint holds the completed prefix. *)

type work = {
  w_macro : string;
  w_fast : bool;
  w_take : int option;
  w_jobs : int;
      (** worker domains for the run; default 1, since the daemon
          already runs concurrent requests in parallel *)
  w_delta : float;  (** compaction sensitivity-loss budget *)
  w_inject : Numerics.Failpoint.spec list;
  w_inject_seed : int64;
  w_session : string option;
}

val default_work : work

type op =
  | Ping of { linger_ms : int }
      (** liveness probe; [linger_ms > 0] holds an admission slot for
          that long — the deterministic way to fill the budget in
          tests *)
  | Stats  (** admission counters and server state *)
  | Profile  (** Obs span/counter aggregate of the server process *)
  | Op of { macro : string }
      (** DC operating point; the result names the backend
          {!Circuit.Mna.build} chose *)
  | Generate of work
  | Compact of work
  | Baseline of work

type request = { rq_id : string; rq_op : op }

val valid_session_name : string -> bool

val request_of_json :
  fallback_id:string -> Jsonl.t -> (request, string) result
(** Decode a request line.  [fallback_id] names the request when the
    client did not send a ["req"] field. *)

(** {2 Response lines} *)

val hello : Jsonl.t
val accepted : req:string -> Jsonl.t
val rejected : req:string -> code:int -> reason:string -> Jsonl.t
val error : req:string -> string -> Jsonl.t
val result : req:string -> (string * Jsonl.t) list -> Jsonl.t
val drained : req:string -> session:string -> completed:int -> Jsonl.t
val done_ : req:string -> status:int -> Jsonl.t

val verdicts_of_run : Engine.run -> Jsonl.t
(** Canonical per-fault verdict array, in dictionary order — the unit
    of the serve-vs-CLI verdict-compatibility comparison.  A pure
    function of the run record: result-identical runs produce
    byte-identical verdicts. *)
