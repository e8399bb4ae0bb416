(* Process-global tracing/metrics sink.  See obs.mli for the contract:
   disabled path = one Atomic.get; counters are atomic cells (commutative
   under any interleaving); span events inside Task.collect buffer in
   domain-local state so the engine can flush them in task order. *)

type value = Int of int | Float of float | Str of string

let enabled : bool Atomic.t = Atomic.make false
let active () = Atomic.get enabled

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = { cname : string; cell : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32
  let registry_mutex = Mutex.create ()

  let unregistered name = { cname = name; cell = Atomic.make 0 }

  let create name =
    Mutex.lock registry_mutex;
    let c =
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let c = unregistered name in
          Hashtbl.add registry name c;
          c
    in
    Mutex.unlock registry_mutex;
    c

  let name c = c.cname
  let incr c = ignore (Atomic.fetch_and_add c.cell 1)
  let add c n = ignore (Atomic.fetch_and_add c.cell n)
  let bump c n = if active () then add c n
  let value c = Atomic.get c.cell
  let reset c = Atomic.set c.cell 0
  let fork c = unregistered c.cname

  let absorb ~into c =
    if into != c then ignore (Atomic.fetch_and_add into.cell (Atomic.get c.cell))

  let registered () =
    Mutex.lock registry_mutex;
    let all = Hashtbl.fold (fun _ c acc -> c :: acc) registry [] in
    Mutex.unlock registry_mutex;
    List.sort (fun a b -> compare a.cname b.cname) all
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  type t = { hname : string; bounds : int array; buckets : int Atomic.t array }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 8
  let registry_mutex = Mutex.create ()

  let create name ~bounds =
    Mutex.lock registry_mutex;
    let h =
      match Hashtbl.find_opt registry name with
      | Some h -> h
      | None ->
          let h =
            {
              hname = name;
              bounds = Array.copy bounds;
              buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            }
          in
          Hashtbl.add registry name h;
          h
    in
    Mutex.unlock registry_mutex;
    h

  let bucket_of h v =
    let n = Array.length h.bounds in
    let rec find i = if i >= n then n else if v <= h.bounds.(i) then i else find (i + 1) in
    find 0

  let observe h v =
    if active () then ignore (Atomic.fetch_and_add h.buckets.(bucket_of h v) 1)

  let label h i =
    if i < Array.length h.bounds then Printf.sprintf "<=%d" h.bounds.(i)
    else Printf.sprintf ">%d" h.bounds.(Array.length h.bounds - 1)

  let counts h =
    Array.to_list (Array.mapi (fun i b -> (label h i, Atomic.get b)) h.buckets)

  let reset h = Array.iter (fun b -> Atomic.set b 0) h.buckets

  let registered () =
    Mutex.lock registry_mutex;
    let all = Hashtbl.fold (fun _ h acc -> h :: acc) registry [] in
    Mutex.unlock registry_mutex;
    List.sort (fun a b -> compare a.hname b.hname) all
end

(* ------------------------------------------------------------------ *)
(* Sink: trace file + in-memory span aggregate                         *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_name : string;
  ev_key : string option;
  ev_depth : int;
  ev_elapsed : float; (* seconds *)
  ev_err : bool;
  ev_req : string option; (* owning request, stamped at record time *)
  ev_attrs : (string * value) list;
}

type span_stat = { span_name : string; span_count : int; span_seconds : float }

type agg_stat = { mutable a_count : int; mutable a_seconds : float }

let sink_mutex = Mutex.create ()
let trace_chan : out_channel option ref = ref None
let span_tbl : (string, agg_stat) Hashtbl.t = Hashtbl.create 16
let fault_tbl : (string, int) Hashtbl.t = Hashtbl.create 64

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_value = function
  | Int n -> string_of_int n
  | Float f ->
      if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)

let event_line ev =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"ev\":\"span\",\"name\":\"%s\"" (json_escape ev.ev_name));
  (match ev.ev_key with
  | Some k -> Buffer.add_string buf (Printf.sprintf ",\"key\":\"%s\"" (json_escape k))
  | None -> ());
  (match ev.ev_req with
  | Some r -> Buffer.add_string buf (Printf.sprintf ",\"req\":\"%s\"" (json_escape r))
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf ",\"depth\":%d,\"elapsed_ms\":%.3f,\"err\":%b" ev.ev_depth
       (ev.ev_elapsed *. 1000.) ev.ev_err);
  (match ev.ev_attrs with
  | [] -> ()
  | attrs ->
      Buffer.add_string buf ",\"attrs\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":%s" (json_escape k) (json_of_value v)))
        attrs;
      Buffer.add_char buf '}');
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Caller holds [sink_mutex]. *)
let sink_event_locked ev =
  (let stat =
     match Hashtbl.find_opt span_tbl ev.ev_name with
     | Some s -> s
     | None ->
         let s = { a_count = 0; a_seconds = 0. } in
         Hashtbl.add span_tbl ev.ev_name s;
         s
   in
   stat.a_count <- stat.a_count + 1;
   stat.a_seconds <- stat.a_seconds +. ev.ev_elapsed);
  (if ev.ev_name = "engine.fault" then
     match ev.ev_key with
     | Some fid ->
         let evals =
           match List.assoc_opt "evals" ev.ev_attrs with
           | Some (Int n) -> n
           | _ -> 0
         in
         Hashtbl.replace fault_tbl fid evals
     | None -> ());
  match !trace_chan with
  | Some oc ->
      output_string oc (event_line ev);
      output_char oc '\n'
  | None -> ()

let sink_events evs =
  match evs with
  | [] -> ()
  | _ ->
      Mutex.lock sink_mutex;
      List.iter sink_event_locked evs;
      (match !trace_chan with Some oc -> flush oc | None -> ());
      Mutex.unlock sink_mutex

(* ------------------------------------------------------------------ *)
(* Per-domain span state                                               *)
(* ------------------------------------------------------------------ *)

type domain_state = {
  mutable depth : int;
  mutable buffering : bool;
  mutable buf : event list; (* reversed *)
  mutable req : string option; (* request this domain is working for *)
}

let dls : domain_state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { depth = 0; buffering = false; buf = []; req = None })

let record st ev =
  if st.buffering then st.buf <- ev :: st.buf else sink_events [ ev ]

(* Request correlation: a server handling concurrent requests brackets
   each one in [with_request], and every span its domain (and, via
   Parallel.fan_out's propagation, its worker domains) records carries
   the request id.  Spans are attributed at record time from the
   recording domain's slot, so interleaved requests cannot steal each
   other's events; the trace file stays one JSONL stream, with the [req]
   field as the demultiplexer. *)
let current_request () = (Domain.DLS.get dls).req

let with_request req f =
  let st = Domain.DLS.get dls in
  let saved = st.req in
  st.req <- Some req;
  Fun.protect ~finally:(fun () -> st.req <- saved) f

module Span = struct
  let timed ?key ?attrs name f =
    if not (active ()) then f ()
    else
      let st = Domain.DLS.get dls in
      let d = st.depth in
      st.depth <- d + 1;
      let t0 = Unix.gettimeofday () in
      match f () with
      | v ->
          let dt = Unix.gettimeofday () -. t0 in
          st.depth <- d;
          let ev_attrs =
            match attrs with None -> [] | Some g -> ( try g () with _ -> [])
          in
          record st
            {
              ev_name = name;
              ev_key = key;
              ev_depth = d;
              ev_elapsed = dt;
              ev_err = false;
              ev_req = st.req;
              ev_attrs;
            };
          v
      | exception e ->
          let dt = Unix.gettimeofday () -. t0 in
          st.depth <- d;
          record st
            {
              ev_name = name;
              ev_key = key;
              ev_depth = d;
              ev_elapsed = dt;
              ev_err = true;
              ev_req = st.req;
              ev_attrs = [];
            };
          raise e
end

module Task = struct
  type events = event list (* emission order *)

  let none = []

  let collect f =
    if not (active ()) then (f (), none)
    else
      let st = Domain.DLS.get dls in
      let saved_buffering = st.buffering
      and saved_buf = st.buf
      and saved_depth = st.depth in
      st.buffering <- true;
      st.buf <- [];
      (* Depth restarts at 0 inside a task so a task records the same
         depth fields whether it runs on the main domain (a jobs = 1
         run, inside the engine.run span) or on a worker domain
         with a fresh depth counter — a requirement for traces being
         identical across job counts. *)
      st.depth <- 0;
      match f () with
      | v ->
          let evs = List.rev st.buf in
          st.buffering <- saved_buffering;
          st.buf <- saved_buf;
          st.depth <- saved_depth;
          (v, evs)
      | exception e ->
          st.buffering <- saved_buffering;
          st.buf <- saved_buf;
          st.depth <- saved_depth;
          raise e

  let flush evs = sink_events evs
end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let reset () =
  List.iter Counter.reset (Counter.registered ());
  List.iter Histogram.reset (Histogram.registered ());
  Mutex.lock sink_mutex;
  Hashtbl.reset span_tbl;
  Hashtbl.reset fault_tbl;
  Mutex.unlock sink_mutex

let close_trace_locked () =
  match !trace_chan with
  | Some oc ->
      (try close_out oc with Sys_error _ -> ());
      trace_chan := None
  | None -> ()

let enable ?trace () =
  reset ();
  Mutex.lock sink_mutex;
  close_trace_locked ();
  (match trace with
  | Some path ->
      let oc = open_out path in
      output_string oc "{\"ev\":\"meta\",\"schema\":\"atpg-trace/1\"}\n";
      flush oc;
      trace_chan := Some oc
  | None -> ());
  Mutex.unlock sink_mutex;
  Atomic.set enabled true

let summary_lines () =
  let counter_lines =
    List.map
      (fun c ->
        Printf.sprintf "{\"ev\":\"counter\",\"name\":\"%s\",\"value\":%d}"
          (json_escape (Counter.name c))
          (Counter.value c))
      (Counter.registered ())
  in
  let histogram_lines =
    List.map
      (fun h ->
        let buf = Buffer.create 128 in
        Buffer.add_string buf
          (Printf.sprintf "{\"ev\":\"histogram\",\"name\":\"%s\",\"buckets\":{"
             (json_escape h.Histogram.hname));
        List.iteri
          (fun i (label, n) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "\"%s\":%d" (json_escape label) n))
          (Histogram.counts h);
        Buffer.add_string buf "}}";
        Buffer.contents buf)
      (Histogram.registered ())
  in
  counter_lines @ histogram_lines

let shutdown () =
  if active () then begin
    Atomic.set enabled false;
    let lines = summary_lines () in
    Mutex.lock sink_mutex;
    (match !trace_chan with
    | Some oc ->
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines;
        flush oc
    | None -> ());
    close_trace_locked ();
    Mutex.unlock sink_mutex
  end

(* ------------------------------------------------------------------ *)
(* Aggregate accessors                                                 *)
(* ------------------------------------------------------------------ *)

let counters () =
  List.map (fun c -> (Counter.name c, Counter.value c)) (Counter.registered ())

let histograms () =
  List.map
    (fun h -> (h.Histogram.hname, Histogram.counts h))
    (Histogram.registered ())

let span_stats () =
  Mutex.lock sink_mutex;
  let all =
    Hashtbl.fold
      (fun name s acc ->
        { span_name = name; span_count = s.a_count; span_seconds = s.a_seconds }
        :: acc)
      span_tbl []
  in
  Mutex.unlock sink_mutex;
  List.sort (fun a b -> compare a.span_name b.span_name) all

let fault_evals () =
  Mutex.lock sink_mutex;
  let all = Hashtbl.fold (fun fid n acc -> (fid, n) :: acc) fault_tbl [] in
  Mutex.unlock sink_mutex;
  List.sort
    (fun (fa, na) (fb, nb) -> if na <> nb then compare nb na else compare fa fb)
    all
