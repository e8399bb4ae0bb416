type spec = {
  point : string;
  probability : float;
  max_triggers : int option;
}

let fail_always ?max_triggers point = { point; probability = 1.; max_triggers }

(* The failure points instrumented across the solver stack, kept here so
   the CLI help, the fuzz campaign generator and the documentation all
   name the same set. *)
let known_points =
  [
    "dc.no_convergence";
    "dc.singular";
    "dc.nan_solution";
    "tran.step_failure";
    "execute.observables";
    "session.torn_write";
  ]

(* NAME[=PROB][@MAX], e.g. dc.no_convergence=0.2@3 *)
let spec_of_string s =
  let split c str =
    match String.index_opt str c with
    | None -> (str, None)
    | Some i ->
        ( String.sub str 0 i,
          Some (String.sub str (i + 1) (String.length str - i - 1)) )
  in
  let name_prob, max_s = split '@' s in
  let name, prob_s = split '=' name_prob in
  if String.equal name "" then Error (Printf.sprintf "bad inject spec %S" s)
  else
    match
      ( (match prob_s with None -> Some 1. | Some p -> float_of_string_opt p),
        match max_s with
        | None -> Some None
        | Some m -> Option.map Option.some (int_of_string_opt m) )
    with
    | Some p, Some mt when p >= 0. && p <= 1. ->
        Ok { point = name; probability = p; max_triggers = mt }
    | _ -> Error (Printf.sprintf "bad inject spec %S" s)

let spec_to_string spec =
  Printf.sprintf "%s=%g%s" spec.point spec.probability
    (match spec.max_triggers with
    | None -> ""
    | Some m -> Printf.sprintf "@%d" m)

(* A configuration is an immutable value installed as a domain-local
   override (there is no process-global slot): domains never share
   mutable site state.  Each domain keeps its own site table (per-point
   Rng stream + counters) built from its override, so query traffic on
   one domain cannot perturb the draws seen by another. *)
type config = { seed : int64; specs : spec list }

(* Number of domains currently carrying an override.  The production fast
   path checks this one atomic before touching any domain-local state, so
   a process that never injects pays nothing for injection. *)
let local_overrides = Atomic.make 0

type site = {
  spec : spec;
  rng : Rng.t;
  mutable queries : int;
  mutable triggers : int;
}

type state = {
  mutable st_scope : string option;
  mutable st_sites : (string, site) Hashtbl.t;
  mutable st_local : config option;
}

let dls : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { st_scope = None; st_sites = Hashtbl.create 8; st_local = None })

(* Distinct points get distinct Rng streams for any seed; inside a scope
   the stream additionally depends on the scope key, so the failure
   pattern seen by one unit of work (one fault) is a pure function of
   (seed, scope key, point, query index) — independent of every other
   unit of work and of any scheduling. *)
let stream_key ~scope point =
  match scope with None -> point | Some key -> key ^ "\x00" ^ point

let build_sites cfg scope =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun spec ->
      let rng = Rng.of_key ~seed:cfg.seed ~key:(stream_key ~scope spec.point) in
      Hashtbl.replace tbl spec.point { spec; rng; queries = 0; triggers = 0 })
    cfg.specs;
  tbl

(* Run [f] with [cfg] as this domain's override, restoring the whole
   previous slot (override, scope, sites) on exit. *)
let with_cfg cfg f =
  let st = Domain.DLS.get dls in
  let saved_local = st.st_local
  and saved_scope = st.st_scope
  and saved_sites = st.st_sites in
  if Option.is_none saved_local then Atomic.incr local_overrides;
  st.st_local <- Some cfg;
  st.st_scope <- None;
  st.st_sites <- build_sites cfg None;
  Fun.protect
    ~finally:(fun () ->
      if Option.is_none saved_local then Atomic.decr local_overrides;
      st.st_local <- saved_local;
      st.st_scope <- saved_scope;
      st.st_sites <- saved_sites)
    f

(* An empty list on a domain without an override installs nothing: both
   states inject nothing, and this one keeps the one-load fast path. *)
let with_config ?(seed = 0L) specs f =
  List.iter
    (fun spec ->
      if spec.probability < 0. || spec.probability > 1. then
        invalid_arg
          (Printf.sprintf
             "Failpoint.with_config: %s: probability %g outside [0, 1]"
             spec.point spec.probability))
    specs;
  if specs = [] && Option.is_none (Domain.DLS.get dls).st_local then f ()
  else with_cfg { seed; specs } f

type snapshot = config option

let snapshot () =
  if Atomic.get local_overrides = 0 then None
  else (Domain.DLS.get dls).st_local

let with_snapshot snap f =
  match snap with None -> f () | Some cfg -> with_cfg cfg f

(* Any injection might be installed on some domain: the one atomic load
   every query checks before touching domain-local state. *)
let maybe_active () = Atomic.get local_overrides > 0

let active () =
  maybe_active ()
  &&
  match (Domain.DLS.get dls).st_local with
  | Some cfg -> cfg.specs <> []
  | None -> false

(* Per-domain injection mask: queries inside [without] never fail and
   never consume draws, so the draw sequence seen by surrounding scopes
   is independent of how often (or whether) masked work runs — the seam
   that keeps cache-dependent nominal simulations out of the injection
   budget. *)
let masked : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let without f =
  let m = Domain.DLS.get masked in
  if !m then f ()
  else begin
    m := true;
    Fun.protect ~finally:(fun () -> m := false) f
  end

(* Per-domain count of injections that actually fired.  Callers that must
   swallow genuine failures (a faulty circuit that cannot converge is
   trivially detected) sample the epoch around the risky call and
   re-raise when it moved: an injected failure is an infrastructure
   event for the recovery ladder, never evidence of detection. *)
let epoch_cell : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let epoch () = !(Domain.DLS.get epoch_cell)

let should_fail point =
  maybe_active ()
  && (not !(Domain.DLS.get masked))
  &&
  match Hashtbl.find_opt (Domain.DLS.get dls).st_sites point with
  | None -> false
  | Some s ->
      s.queries <- s.queries + 1;
      (* always draw, so the decision at query [n] does not depend on how
         many earlier queries were capped away *)
      let draw = Rng.float s.rng in
      let capped =
        match s.spec.max_triggers with
        | Some m -> s.triggers >= m
        | None -> false
      in
      if (not capped) && draw < s.spec.probability then begin
        s.triggers <- s.triggers + 1;
        incr (Domain.DLS.get epoch_cell);
        true
      end
      else false

let with_scope ~key f =
  if not (maybe_active ()) then f ()
  else begin
    let st = Domain.DLS.get dls in
    let saved_scope = st.st_scope and saved_sites = st.st_sites in
    st.st_scope <- Some key;
    st.st_sites <-
      (match st.st_local with
      | Some cfg -> build_sites cfg (Some key)
      | None -> Hashtbl.create 8);
    Fun.protect
      ~finally:(fun () ->
        st.st_scope <- saved_scope;
        st.st_sites <- saved_sites)
      f
  end

let find_site point = Hashtbl.find_opt (Domain.DLS.get dls).st_sites point

let query_count point =
  match find_site point with Some s -> s.queries | None -> 0

let trigger_count point =
  match find_site point with Some s -> s.triggers | None -> 0

