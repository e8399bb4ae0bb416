(* A cached nominal response and the lookups of its key since the last
   {!retain_reused} (this evaluator's own, plus those absorbed). *)
type nominal = { obs : float array; mutable lookups : int }

(* Per-evaluator accounting lives in unregistered Obs counters: the same
   atomic cells whether tracing is on or off, with fork/absorb giving the
   commutative merge Parallel relies on.  The registered globals below
   additionally accumulate the process-wide profile (active-only bumps,
   so the disabled path costs one atomic load per site). *)
type t = {
  config : Test_config.t;
  profile : Execute.profile;
  nominal : Execute.target;
  box_model : Tolerance.t;
  backend : Circuit.Mna.backend option;
  nominal_cache : (string, nominal) Hashtbl.t;
  topologies : (string, Execute.topology) Hashtbl.t;
      (* shared by every evaluator of one context (and by their forks
         within one domain) *)
  evals : Obs.Counter.t;
  budget : int option ref;
  cache_hits : Obs.Counter.t;
  cache_misses : Obs.Counter.t;
}

let g_evals = Obs.Counter.create "evaluator.fault_evaluations"
let g_cache_hits = Obs.Counter.create "evaluator.nominal_cache.hits"
let g_cache_misses = Obs.Counter.create "evaluator.nominal_cache.misses"
let g_plan_hits = Obs.Counter.create "evaluator.plan_cache.hits"
let g_plan_misses = Obs.Counter.create "evaluator.plan_cache.misses"

exception Budget_exhausted of { config_id : int; budget : int }

(* One topology table for the whole context: every configuration
   injects faults into the same nominal netlist, so a fault site's
   compiled topology is the same whichever configuration asks for it. *)
let create_all ?(profile = Execute.default_profile) ?backend ~nominal configs =
  let topologies = Hashtbl.create 16 in
  List.map
    (fun (config, box_model) ->
      {
        config;
        profile;
        nominal;
        box_model;
        backend;
        nominal_cache = Hashtbl.create 64;
        topologies;
        evals = Obs.Counter.unregistered "evaluator.evals";
        budget = ref None;
        cache_hits = Obs.Counter.unregistered "evaluator.cache_hits";
        cache_misses = Obs.Counter.unregistered "evaluator.cache_misses";
      })
    configs

let create ?profile ?backend config ~nominal ~box_model =
  List.hd (create_all ?profile ?backend ~nominal [ (config, box_model) ])

(* Same configuration, target and calibrated box, different execution
   profile — the retry ladder's escalated view of an evaluator.  The
   evaluation counter and budget cell are shared so accounting spans all
   derived copies; the nominal cache is fresh because cached observables
   are profile-dependent.  Compiled plans are shared: they capture
   topology only, not profile, and the derived evaluator runs in the
   same domain as its parent (the retry ladder is sequential). *)
let with_profile t profile =
  { t with profile; nominal_cache = Hashtbl.create 64 }

(* The entries with their lookup counts at zero, in records of their own. *)
let uncounted cache =
  let c = Hashtbl.copy cache in
  Hashtbl.filter_map_inplace (fun _ e -> Some { e with lookups = 0 }) c;
  c

(* A worker's private view of a set of evaluators: same (immutable)
   configuration, target, box model and profile, but its own caches and
   its own counters, so domains never contend on shared mutable state.
   The parent's cached observables are copied in as a warm start — safe
   because cache keys are exact and values are deterministic, so any
   domain recomputing an entry would produce the same bits.  Compiled
   plans are NOT warm-started: they own mutable solver workspaces, so
   each domain compiles its own — once per fault site for all forks that
   shared a topology table, which get one fresh table between them. *)
let fork ts =
  let tables = ref [] in
  let table_for parent =
    match List.assq_opt parent !tables with
    | Some fresh -> fresh
    | None ->
        let fresh = Hashtbl.create 16 in
        tables := (parent, fresh) :: !tables;
        fresh
  in
  List.map
    (fun t ->
      {
        t with
        nominal_cache = uncounted t.nominal_cache;
        topologies = table_for t.topologies;
        evals = Obs.Counter.fork t.evals;
        budget = ref None;
        cache_hits = Obs.Counter.fork t.cache_hits;
        cache_misses = Obs.Counter.fork t.cache_misses;
      })
    ts

(* Deterministic merge of a fork back into its parent.  Counters and
   per-key lookup counts are summed (addition commutes, so the merged
   totals are independent of worker scheduling and merge order); cache
   entries are unioned, which is order-independent because equal keys
   always map to equal values.  Compiled plans are deliberately not
   merged: their workspaces were mutated by the child's domain and stay
   with it. *)
let absorb ~into child =
  if into != child then begin
    Obs.Counter.absorb ~into:into.evals child.evals;
    Obs.Counter.absorb ~into:into.cache_hits child.cache_hits;
    Obs.Counter.absorb ~into:into.cache_misses child.cache_misses;
    Hashtbl.iter
      (fun key e ->
        match Hashtbl.find_opt into.nominal_cache key with
        | Some mine -> mine.lookups <- mine.lookups + e.lookups
        | None ->
            Hashtbl.replace into.nominal_cache key
              { obs = e.obs; lookups = e.lookups })
      child.nominal_cache
  end

(* A key's lookup total is a sum over the faults and compactions that
   made them — each looks its points up whether they hit or miss — so
   which keys reach two does not depend on [--jobs] or on scheduling.
   Lattice seeds and each fault's candidate points are looked up again
   (by other faults, by the walk back to the critical impact, by
   compaction); a one-off optimizer probe is not. *)
let retain_reused ts =
  List.iter
    (fun t ->
      Hashtbl.filter_map_inplace
        (fun _ e ->
          if e.lookups >= 2 then begin
            e.lookups <- 0;
            Some e
          end
          else None)
        t.nominal_cache)
    ts

let config t = t.config
let config_id t = t.config.Test_config.config_id
let find ts id = List.find (fun t -> config_id t = id) ts
let profile t = t.profile

let set_budget t budget = t.budget := budget

let charge t =
  (match !(t.budget) with
  | Some b when Obs.Counter.value t.evals >= b ->
      raise (Budget_exhausted { config_id = config_id t; budget = b })
  | Some _ | None -> ());
  Obs.Counter.incr t.evals;
  Obs.Counter.bump g_evals 1

(* Exact (hex-float) keys: a rounded key would let parameter points that
   differ only in the last bits share an entry, making the memoized
   nominal depend on which point was evaluated first — and a resumed run
   would then diverge from the uninterrupted one in the last digits. *)
let cache_key values =
  String.concat ","
    (Array.to_list (Array.map (Printf.sprintf "%h") values))

(* Compiled plans are cached per topology.  Faults at the same site
   share a topology (the injected device names and node numbering do not
   depend on the impact resistance), so [Fault.id] — which excludes the
   resistance — is exactly the right key; the resistance itself is a
   value-phase override applied at stamp time.  The nominal topology
   lives under a key no fault id can collide with.  The table is the
   context's, so a site is compiled once whichever configuration asks
   first (a plan-cache miss). *)
let nominal_plan_key = "@nominal"

let compiled_plan t ~key target =
  match Hashtbl.find_opt t.topologies key with
  | Some topo ->
      Obs.Counter.bump g_plan_hits 1;
      topo
  | None ->
      Obs.Counter.bump g_plan_misses 1;
      let topo = Execute.topology ?backend:t.backend (target ()) in
      Hashtbl.replace t.topologies key topo;
      topo

let release_sites ts =
  List.iter
    (fun t ->
      Hashtbl.filter_map_inplace
        (fun key v -> if key = nominal_plan_key then Some v else None)
        t.topologies)
    ts

let nominal_observables t values =
  let key = cache_key values in
  match Hashtbl.find_opt t.nominal_cache key with
  | Some e ->
      e.lookups <- e.lookups + 1;
      Obs.Counter.incr t.cache_hits;
      Obs.Counter.bump g_cache_hits 1;
      e.obs
  | None ->
      Obs.Counter.incr t.cache_misses;
      Obs.Counter.bump g_cache_misses 1;
      (* injection is masked here: whether this nominal computation runs
         at all depends on cache state (cold per-worker caches under
         --jobs, one warm cache sequentially), so letting it consume
         failure draws would break per-fault injection determinism.  The
         entry is a copy: the plan may return its own sample buffer. *)
      let obs =
        Numerics.Failpoint.without (fun () ->
            Array.copy
              (Execute.compiled_observables ~profile:t.profile
                 (compiled_plan t ~key:nominal_plan_key (fun () -> t.nominal))
                 t.config values))
      in
      Hashtbl.replace t.nominal_cache key { obs; lookups = 1 };
      obs

let box t values = Tolerance.box t.box_model values

let detected_sentinel = -1e6

let faulty_target t fault =
  {
    t.nominal with
    Execute.netlist = Faults.Inject.apply t.nominal.Execute.netlist fault;
  }

(* The site plan's own result: a step-train configuration returns the
   plan's sample buffer, valid until the site's next transient, so
   callers here consume it before evaluating anything else. *)
let measure_faulty t fault values =
  let key = Faults.Fault.id fault in
  let plan = compiled_plan t ~key (fun () -> faulty_target t fault) in
  Execute.compiled_observables ~profile:t.profile
    ~impact:(Faults.Inject.impact_override fault) plan t.config values

let faulty_observables t fault values =
  charge t;
  Array.copy (measure_faulty t fault values)

(* One charged measurement scored against the nominal response and box.
   A circuit that genuinely cannot be simulated is trivially detected
   (the sentinel below) — but a failure *injected* by the chaos harness
   is an infrastructure event that belongs to the retry ladder, not
   evidence of detection.  The failpoint epoch distinguishes the two:
   when it moved across the measurement, re-raise. *)
let scored t values measure =
  let nominal = nominal_observables t values in
  charge t;
  let epoch = Numerics.Failpoint.epoch () in
  match measure () with
  | faulty ->
      let dev = Execute.deviations t.config ~nominal ~faulty in
      let s =
        Sensitivity.compute t.config ~box:(box t values) ~nominal ~faulty
      in
      (s, dev)
  | exception Execute.Execution_failure _
    when Numerics.Failpoint.epoch () = epoch ->
      (detected_sentinel, [||])

let sensitivity_and_deviation t fault values =
  scored t values (fun () -> measure_faulty t fault values)

let sensitivity t fault values = fst (sensitivity_and_deviation t fault values)

let sensitivity_at t topo values =
  fst
    (scored t values (fun () ->
         Execute.compiled_observables ~profile:t.profile topo t.config
           values))

let evaluation_count t = Obs.Counter.value t.evals

type cache_stats = { hits : int; misses : int; entries : int }

let cache_stats t =
  {
    hits = Obs.Counter.value t.cache_hits;
    misses = Obs.Counter.value t.cache_misses;
    entries = Hashtbl.length t.nominal_cache;
  }

let nominal_keys t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.nominal_cache [])
