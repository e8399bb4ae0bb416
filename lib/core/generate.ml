open Numerics

type options = {
  soft_factor : float;
  optimizer_tol : float;
  powell_max_iter : int;
  bracket_points : int;
  impact_span : float;
  max_impact_steps : int;
}

let default_options =
  {
    soft_factor = 3.;
    optimizer_tol = 1e-3;
    powell_max_iter = 6;
    bracket_points = 8;
    impact_span = 1e3;
    max_impact_steps = 48;
  }

type candidate = {
  cand_config_id : int;
  cand_params : Vec.t;
  low_impact_sensitivity : float;
  optimizer_evaluations : int;
}

type outcome =
  | Unique of {
      config_id : int;
      params : Vec.t;
      critical_impact : float;
      dictionary_sensitivity : float;
    }
  | Undetectable of {
      most_sensitive_config : int;
      params : Vec.t;
      best_sensitivity : float;
      strongest_impact : float;
    }

type trace_step = { impact : float; detecting : int list }

type result = {
  fault_id : string;
  dictionary_fault : Faults.Fault.t;
  candidates : candidate list;
  outcome : outcome;
  trace : trace_step list;
}

let best_config_id r =
  match r.outcome with
  | Unique { config_id; _ } -> config_id
  | Undetectable { most_sensitive_config; _ } -> most_sensitive_config

let best_params r =
  match r.outcome with
  | Unique { params; _ } -> params
  | Undetectable { params; _ } -> params

(* Coarse global view of a box of two or more parameters, from which
   the Powell oracle takes its start: the best of the seed and these
   points.  Two-parameter boxes get the full three-level-per-axis
   product — bounds included, because detecting basins sit in the
   corners where axis sweeps through the seed never look — and wider
   boxes fall back to per-axis sweeps, where the full product would
   rival the optimizer's own cost. *)
let lattice_starts ~lower ~upper seeds =
  let np = Array.length seeds in
  let at_frac i frac = lower.(i) +. (frac *. (upper.(i) -. lower.(i))) in
  let levels = [ 0.; 0.5; 1. ] in
  if np = 2 then
    List.fold_left
      (fun acc i ->
        List.concat_map
          (fun x ->
            List.map
              (fun frac ->
                let x = Array.copy x in
                x.(i) <- at_frac i frac;
                x)
              levels)
          acc)
      [ seeds ]
      (List.init np Fun.id)
  else
    List.concat_map
      (fun frac ->
        List.init np (fun i ->
            let x = Array.copy seeds in
            x.(i) <- at_frac i frac;
            x))
      levels

let optimize_candidate ?(options = default_options) evaluator fault_low =
  let config = Evaluator.config evaluator in
  let before = Evaluator.evaluation_count evaluator in
  let cost values = Evaluator.sensitivity evaluator fault_low values in
  let opt_iterations = ref 0 and opt_evals = ref 0 in
  let run_optimizer () =
    match config.Test_config.params with
    | [ p ] ->
        let cost1 v = cost [| v |] in
        let a = p.Test_param.lower and b = p.Test_param.upper in
        let lo, hi =
          Brent.bracket_scan ~f:cost1 ~a ~b ~n:options.bracket_points
        in
        let r =
          Brent.minimize ~tol:options.optimizer_tol ~f:cost1 ~a:lo ~b:hi ()
        in
        opt_iterations := r.Brent.iterations;
        opt_evals := r.Brent.evals + options.bracket_points + 1;
        ([| r.Brent.xmin |], r.Brent.fmin)
    | _ :: _ :: _ as ps ->
        let lower, upper = Test_param.bounds_of ps in
        let seed = Test_param.seeds_of ps in
        (* The Brent arm opens with a global bracket scan; give Powell
           the same global view — the best point of the coarse box
           lattice becomes its start — so detecting basins in corners
           the seed's descent path never reaches stay findable. *)
        let scan = lattice_starts ~lower ~upper seed in
        (* The seed + lattice sweep is a (1 fault x points) cross-product
           over one configuration, settled by one {!Evaluator.sweep} (one
           held factorization, all points solved against it, when the
           plan admits it).  The fold reads the costs seed first, then in
           scan order, with a strict [<] tie-break, so the winning start
           (and with it the whole optimizer trajectory) does not depend
           on whether the sweep batched. *)
        let start, start_cost =
          let sw =
            Evaluator.sweep evaluator ~faults:[| fault_low |]
              ~points:(Array.of_list (seed :: scan))
          in
          let cost_at p = fst (Evaluator.cell sw 0 p) in
          let best = ref (seed, cost_at 0) in
          List.iteri
            (fun i x ->
              let f = cost_at (i + 1) in
              if f < snd !best then best := (x, f))
            scan;
          !best
        in
        let r =
          Powell.minimize ~tol:options.optimizer_tol
            ~max_iter:options.powell_max_iter ~f:cost ~lower ~upper ~start ()
        in
        opt_iterations := r.Powell.iterations;
        opt_evals := r.Powell.evaluations + List.length scan + 1;
        if start_cost < r.Powell.fmin then (start, start_cost)
        else (r.Powell.xmin, r.Powell.fmin)
    | [] -> invalid_arg "Generate.optimize_candidate: configuration without parameters"
  in
  let span name f =
    if not (Obs.active ()) then f ()
    else
      Obs.Span.timed
        ~key:(string_of_int (Evaluator.config_id evaluator))
        ~attrs:(fun () ->
          [
            ("iterations", Obs.Int !opt_iterations);
            ("evals", Obs.Int !opt_evals);
          ])
        name f
  in
  let params, fmin = span "generate.optimizer" run_optimizer in
  (* The designer's seed is a "promising test value" (sec. 2.2): when the
     weakened model leaves the cost surface flat, a local optimizer can
     wander to a point that is worse than the seed itself — never accept
     that. *)
  let params, fmin =
    let seeds = Test_param.seeds_of config.Test_config.params in
    let seed_cost = cost seeds in
    if seed_cost < fmin then (seeds, seed_cost) else (params, fmin)
  in
  {
    cand_config_id = Evaluator.config_id evaluator;
    cand_params = params;
    low_impact_sensitivity = fmin;
    optimizer_evaluations = Evaluator.evaluation_count evaluator - before;
  }

(* Impact-convergence machinery ------------------------------------- *)

(* Evaluators and their optimized candidates are paired once at machine
   construction; every walk/bisect/refine step then indexes the same
   association instead of rebuilding [List.combine] per probe. *)
type machine = {
  pairs : (Evaluator.t * candidate) list;
  base_fault : Faults.Fault.t;
  cache : (int * float, float) Hashtbl.t;
  mutable steps : trace_step list;
  mutable budget : int;
}

let sensitivity_at m (ev, cand) impact =
  let key = (cand.cand_config_id, impact) in
  match Hashtbl.find_opt m.cache key with
  | Some s -> s
  | None ->
      let f = Faults.Fault.with_impact m.base_fault impact in
      let s = Evaluator.sensitivity ev f cand.cand_params in
      Hashtbl.replace m.cache key s;
      s

let detecting_at m impact =
  m.budget <- m.budget - 1;
  let det =
    List.filter_map
      (fun (ev, cand) ->
        if Sensitivity.detects (sensitivity_at m (ev, cand) impact) then
          Some cand.cand_config_id
        else None)
      m.pairs
  in
  m.steps <- { impact; detecting = det } :: m.steps;
  det

let most_sensitive m impact =
  List.fold_left
    (fun (best_pair, best_s) (ev, cand) ->
      let s = sensitivity_at m (ev, cand) impact in
      match best_pair with
      | None -> (Some (ev, cand), s)
      | Some _ when s < best_s -> (Some (ev, cand), s)
      | Some _ -> (best_pair, best_s))
    (None, infinity) m.pairs
  |> fun (pair, s) ->
  match pair with
  | Some (_, cand) -> (cand, s)
  | None -> invalid_arg "Generate: no candidates"

let pair_by_id m id =
  List.find (fun (_, c) -> c.cand_config_id = id) m.pairs

let critical_resolution = 1.1

(* Find the impact where the given candidate stops detecting:
   lo detects, hi does not; log-space bisection. *)
let refine_critical m cand ~lo ~hi =
  let ev, _ = pair_by_id m cand.cand_config_id in
  let lo = ref lo and hi = ref hi in
  let rounds = ref 0 in
  while !hi /. !lo > critical_resolution && !rounds < 16 && m.budget > 0 do
    incr rounds;
    m.budget <- m.budget - 1;
    let mid = sqrt (!lo *. !hi) in
    if Sensitivity.detects (sensitivity_at m (ev, cand) mid) then lo := mid
    else hi := mid
  done;
  sqrt (!lo *. !hi)

(* Walk impacts geometrically in the given direction (weaken: r *= 2;
   intensify: r /= 2) until the detection count crosses the target of
   exactly one, then settle a survivor. *)

(* Between r_many (>=2 detecting) and r_none (0 detecting), bisect for a
   point with exactly one detector. *)
let rec bisect_for_unique m ~r_many ~r_none =
  if r_none /. r_many <= 1.05 || m.budget <= 0 then None
  else begin
    let mid = sqrt (r_many *. r_none) in
    match detecting_at m mid with
    | [ only ] -> Some (only, mid)
    | [] -> bisect_for_unique m ~r_many ~r_none:mid
    | _ :: _ :: _ -> bisect_for_unique m ~r_many:mid ~r_none
  end

(* Per-configuration span around one candidate optimization.  The nested
   [generate.optimizer] span carries iteration/eval attributes; this one
   carries the whole configuration's wall time (bracket scan + optimizer
   + seed guard). *)
let traced_candidate ~options ev fault =
  if not (Obs.active ()) then optimize_candidate ~options ev fault
  else
    Obs.Span.timed
      ~key:(string_of_int (Evaluator.config_id ev))
      "generate.configuration"
      (fun () -> optimize_candidate ~options ev fault)

let generate ?(options = default_options) ~evaluators entry =
  if evaluators = [] then invalid_arg "Generate.generate: no evaluators";
  let fault = entry.Faults.Dictionary.fault in
  let r_dict = Faults.Fault.impact_resistance fault in
  let fault_low = Faults.Fault.weaken fault ~factor:options.soft_factor in
  let candidates =
    List.map (fun ev -> traced_candidate ~options ev fault_low) evaluators
  in
  (* Sec. 2.2's extension for hard-to-see faults: when the weakened model
     produced no detection signal at all (flat cost surface), the
     optimized point is arbitrary — re-optimize that configuration against
     the dictionary-impact model and keep whichever point is more
     sensitive at the dictionary impact. *)
  let candidates =
    List.map2
      (fun ev cand ->
        if cand.low_impact_sensitivity <= 0. then cand
        else begin
          let cand_dict = traced_candidate ~options ev fault in
          let s_old = Evaluator.sensitivity ev fault cand.cand_params in
          if cand_dict.low_impact_sensitivity < s_old then
            {
              cand_dict with
              optimizer_evaluations =
                cand.optimizer_evaluations + cand_dict.optimizer_evaluations;
            }
          else cand
        end)
      evaluators candidates
  in
  let m =
    {
      pairs = List.combine evaluators candidates;
      base_fault = fault;
      cache = Hashtbl.create 64;
      steps = [];
      budget = options.max_impact_steps;
    }
  in
  let r_min = r_dict /. options.impact_span in
  let r_max = r_dict *. options.impact_span in
  let unique_outcome config_id r_detect =
    (* push the survivor to its own detection boundary *)
    let ev, cand = pair_by_id m config_id in
    let rec death r =
      if r >= r_max || m.budget <= 0 then r
      else begin
        let r' = r *. 2. in
        m.budget <- m.budget - 1;
        if Sensitivity.detects (sensitivity_at m (ev, cand) r') then death r'
        else r'
      end
    in
    let r_dead = death r_detect in
    let critical =
      if r_dead <= r_detect then r_detect
      else if
        Sensitivity.detects (sensitivity_at m (ev, cand) r_dead)
      then r_dead (* survives even at the weakest impact tried *)
      else refine_critical m cand ~lo:(r_dead /. 2.) ~hi:r_dead
    in
    Unique
      {
        config_id;
        params = cand.cand_params;
        critical_impact = critical;
        dictionary_sensitivity = sensitivity_at m (ev, cand) r_dict;
      }
  in
  let tie_break r =
    let cand, _ = most_sensitive m r in
    unique_outcome cand.cand_config_id r
  in
  let search_outcome () =
    match detecting_at m r_dict with
    | [ only ] -> unique_outcome only r_dict
    | _ :: _ :: _ -> begin
        (* relax the impact *)
        let rec walk_up r_prev r =
          if r > r_max || m.budget <= 0 then tie_break r_prev
          else
            match detecting_at m r with
            | [ only ] -> unique_outcome only r
            | [] -> begin
                match bisect_for_unique m ~r_many:r_prev ~r_none:r with
                | Some (only, r1) -> unique_outcome only r1
                | None -> tie_break r_prev
              end
            | _ :: _ :: _ -> walk_up r (r *. 2.)
        in
        walk_up r_dict (r_dict *. 2.)
      end
    | [] -> begin
        (* intensify the impact *)
        let rec walk_down r_prev r =
          if r < r_min || m.budget <= 0 then begin
            let cand, s = most_sensitive m (Float.max r r_min) in
            Undetectable
              {
                most_sensitive_config = cand.cand_config_id;
                params = cand.cand_params;
                best_sensitivity = s;
                strongest_impact = Float.max r r_min;
              }
          end
          else
            match detecting_at m r with
            | [ only ] -> unique_outcome only r
            | _ :: _ :: _ -> begin
                (* overshot: between r (many) and r_prev (none) *)
                match bisect_for_unique m ~r_many:r ~r_none:r_prev with
                | Some (only, r1) -> unique_outcome only r1
                | None -> tie_break r
              end
            | [] -> walk_down r (r /. 2.)
        in
        walk_down r_dict (r_dict /. 2.)
      end
  in
  let outcome =
    if not (Obs.active ()) then search_outcome ()
    else
      Obs.Span.timed
        ~key:entry.Faults.Dictionary.fault_id
        ~attrs:(fun () -> [ ("steps", Obs.Int (List.length m.steps)) ])
        "generate.impact" search_outcome
  in
  {
    fault_id = entry.Faults.Dictionary.fault_id;
    dictionary_fault = fault;
    candidates;
    outcome;
    trace = List.rev m.steps;
  }
