open Numerics

exception No_convergence of string

type options = {
  abstol : float;
  reltol : float;
  max_newton : int;
  gmin : float;
  vlimit : float;
}

let default_options =
  { abstol = 1e-9; reltol = 1e-6; max_newton = 150; gmin = 1e-12; vlimit = 0.6 }

type report = {
  solution : Vec.t;
  newton_iterations : int;
  gmin_steps : int;
  source_steps : int;
}

(* A solution containing NaN or infinite node voltages must never count
   as converged: NaN compares false against every bound, so an unguarded
   check would either spin the full Newton budget or accept the garbage
   iterate silently. *)
let finite_solution x ~n_nodes =
  let ok = ref true in
  for i = 0 to n_nodes - 1 do
    if not (Float.is_finite x.(i)) then ok := false
  done;
  !ok

exception Diverged

(* One damped Newton update from iterate [x] toward the raw solve [s],
   written into [x_new]: the step is scaled so no node voltage moves by
   more than [vlimit], and the update keeps the
   [x +. alpha *. (s -. x)] form even at [alpha = 1.], where it is not a
   bitwise no-op.  Converged means an undamped step whose node updates
   all sit inside the abstol/reltol band.  [s] may alias [x_new] (each
   entry is read before it is overwritten), which is how the Newton
   loop below calls it on a nonlinear plan; on a linear plan [s] is the
   attempt's one fixed solve. *)
let damped_step ~options ~n_nodes ~x ~s ~x_new =
  let dv_max = ref 0. in
  for i = 0 to n_nodes - 1 do
    dv_max := Float.max !dv_max (Float.abs (s.(i) -. x.(i)))
  done;
  let alpha =
    if !dv_max > options.vlimit then options.vlimit /. !dv_max else 1.
  in
  for i = 0 to Array.length x - 1 do
    x_new.(i) <- x.(i) +. (alpha *. (s.(i) -. x.(i)))
  done;
  if alpha = 1. then begin
    let ok = ref true in
    for i = 0 to n_nodes - 1 do
      let dx = Float.abs (x_new.(i) -. x.(i)) in
      if dx > options.abstol +. (options.reltol *. Float.abs x_new.(i)) then
        ok := false
    done;
    !ok
  end
  else false

(* Solver counters, bumped once per [solve] from a per-solve tally —
   never inside the Newton loop — so the hot path stays allocation-free
   and branch-light with tracing off.  The tally covers every attempt
   of the solve: budget-exhausted plain attempts, every gmin and source
   stage, and the attempts of a solve that fails altogether. *)
let c_solves = Obs.Counter.create "solver.dc.solves"
let c_newton = Obs.Counter.create "solver.dc.newton_iterations"
let c_lu = Obs.Counter.create "solver.dc.lu_factorizations"
let c_gmin = Obs.Counter.create "solver.dc.gmin_steps"
let c_src = Obs.Counter.create "solver.dc.source_steps"
let c_fail = Obs.Counter.create "solver.dc.failures"
let c_exhausted = Obs.Counter.create "solver.dc.budget_exhausted"
let c_memo_hits = Obs.Counter.create "solver.dc.op_memo_hits"

let h_newton =
  Obs.Histogram.create "solver.dc.newton_per_solve"
    ~bounds:[| 1; 2; 4; 8; 16; 32; 64 |]

let c_reuse = Obs.Counter.create "solver.dc.pattern_reuses"

type tally = {
  mutable iterations : int;
  mutable factorizations : int;
  mutable reuses : int;
  mutable exhausted : int;
  mutable recalled : bool;  (* answered by the operating-point memo *)
}

(* One Newton attempt at fixed gmin and source scale, restamping a
   workspace: the system is assembled into the preallocated matrix,
   factored in place, solved into the swap buffer, and the damped update
   ({!damped_step}) overwrites it — no per-iteration allocation.  A
   linear plan's system does not depend on the iterate, so its first
   iteration's solve serves the whole attempt: it assembles, factors
   (not at all when the workspace already holds a factorization of the
   same matrix bits, {!Mna.ws_holds}) and solves once, into the spent
   right-hand side, and every iteration steps toward that fixed solve —
   the same bits, iteration count and outcome as refactoring every
   iteration.  Under failure injection every iteration draws
   ["dc.singular"] and then ["dc.nan_solution"], whichever the plan.
   Returns the solution and iteration count, or None on failure; every
   iteration and factorization lands in [tally]. *)
let newton_ws ~options ~companions ~source_scale ~restamp ~gmin ~tally sys ws
    ~time ~start =
  let n_nodes = Mna.n_nodes sys in
  let size = Vec.dim start in
  let linear = Mna.linear sys in
  let injected = Failpoint.active () in
  (* boxed once per attempt, not once per iteration *)
  let source_scale = Some source_scale in
  Array.blit start 0 ws.Mna.w_x 0 size;
  let converged = ref false in
  let iters = ref 0 in
  (try
     while (not !converged) && !iters < options.max_newton do
       incr iters;
       tally.iterations <- tally.iterations + 1;
       if injected && Failpoint.should_fail "dc.singular" then
         raise (Mat.Singular 0);
       let fresh = !iters = 1 || not linear in
       if fresh then begin
         Mna.assemble_into sys ws ~x:ws.Mna.w_x ~time ?companions
           ?source_scale ?restamp ~gmin ();
         (* the stimulus only enters the right-hand side, so a fault's
            points and levels, and a gmin stage, meet a linear plan's
            held matrix again *)
         if not (linear && Mna.ws_holds ws) then begin
           if Mna.ws_factor ~hold:linear ws then
             tally.reuses <- tally.reuses + 1;
           tally.factorizations <- tally.factorizations + 1
         end;
         Mna.ws_solve_into ws ws.Mna.w_z ws.Mna.w_x_new;
         if linear then Array.blit ws.Mna.w_x_new 0 ws.Mna.w_z 0 size
       end;
       let x = ws.Mna.w_x and x_new = ws.Mna.w_x_new in
       let s = if linear then ws.Mna.w_z else x_new in
       if injected && Failpoint.should_fail "dc.nan_solution" then
         Array.fill s 0 size Float.nan;
       if (fresh || injected) && not (finite_solution s ~n_nodes) then
         raise Diverged;
       converged := damped_step ~options ~n_nodes ~x ~s ~x_new;
       ws.Mna.w_x <- x_new;
       ws.Mna.w_x_new <- x
     done;
     if not !converged then tally.exhausted <- tally.exhausted + 1
   with Mat.Singular _ | Diverged -> converged := false);
  if !converged then Some (Vec.copy ws.Mna.w_x, !iters) else None

let ladder ~options ~companions ~source_scale ~restamp ~tally sys ws ~time
    ~start =
  let attempt ~gmin ~scale ~start =
    let source_scale = scale *. source_scale in
    newton_ws ~options ~companions ~source_scale ~restamp ~gmin ~tally sys ws
      ~time ~start
  in
  let finish ~x ~it ~gmin_steps ~source_steps =
    { solution = x; newton_iterations = it; gmin_steps; source_steps }
  in
  match attempt ~gmin:options.gmin ~scale:1. ~start with
  | Some (x, it) -> finish ~x ~it ~gmin_steps:0 ~source_steps:0
  | None -> begin
      (* gmin stepping: relax then tighten *)
      let gmins = [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-8; 1e-10; options.gmin ] in
      let rec gmin_walk x_opt steps = function
        | [] -> (x_opt, steps)
        | g :: rest -> begin
            let start =
              match x_opt with Some (x, _) -> x | None -> start
            in
            match attempt ~gmin:g ~scale:1. ~start with
            | Some r -> gmin_walk (Some r) (steps + 1) rest
            | None -> (None, steps)  (* chain broken: give up on this path *)
          end
      in
      match gmin_walk None 0 gmins with
      | Some (x, it), steps -> finish ~x ~it ~gmin_steps:steps ~source_steps:0
      | None, _ -> begin
          (* source stepping at final gmin *)
          let scales = [ 0.; 0.1; 0.2; 0.35; 0.5; 0.65; 0.8; 0.9; 1. ] in
          let rec src_walk x_opt steps = function
            | [] -> (x_opt, steps)
            | s :: rest -> begin
                let start =
                  match x_opt with Some (x, _) -> x | None -> start
                in
                match attempt ~gmin:options.gmin ~scale:s ~start with
                | Some r -> src_walk (Some r) (steps + 1) rest
                | None -> (None, steps)
              end
          in
          match src_walk None 0 scales with
          | Some (x, it), steps ->
              finish ~x ~it ~gmin_steps:(List.length gmins)
                ~source_steps:steps
          | None, _ ->
              raise
                (No_convergence
                   (Printf.sprintf
                      "DC analysis of %S failed (newton, gmin stepping and \
                       source stepping all diverged)"
                      (Netlist.title (Mna.netlist sys))))
        end
    end

(* The operating-point memo.  A solve from the zero guess, without
   companions and at full source scale is a pure function of the
   topology, the options and {!Mna.op_inputs_into}'s values; a workspace
   remembers the outcomes of its last two such solves, failures
   included, keyed on those values' bits.  Options compare field by
   field on bits as well, so an escalated profile sharing the workspace
   never meets an entry of the base profile. *)
type entry = {
  mutable e_sys : Mna.t option;  (* None: an empty slot *)
  mutable e_options : options;
  e_key : float array;
  mutable e_outcome : (report, string) result;
}

type memo = {
  m_key : float array;  (* the current solve's inputs *)
  mutable m_recent : entry;
  mutable m_older : entry;
}

type Mna.solver_state += Op_memo of memo

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_options a b =
  a == b
  || same_bits a.abstol b.abstol
     && same_bits a.reltol b.reltol
     && a.max_newton = b.max_newton
     && same_bits a.gmin b.gmin
     && same_bits a.vlimit b.vlimit

(* The workspace's memo, made for [sys] on first use (and again should
   the workspace meet a topology with a different input count). *)
let memo_of sys (ws : Mna.workspace) =
  let n = Mna.op_inputs sys in
  match ws.Mna.w_solver with
  | Op_memo m when Array.length m.m_key = n -> m
  | _ ->
      let empty () =
        {
          e_sys = None;
          e_options = default_options;
          e_key = Array.make n 0.;
          e_outcome = Error "";
        }
      in
      let m =
        { m_key = Array.make n 0.; m_recent = empty (); m_older = empty () }
      in
      ws.Mna.w_solver <- Op_memo m;
      m

let matches ~options sys m e =
  match e.e_sys with
  | Some s when s == sys && same_options options e.e_options ->
      let key = m.m_key and k = e.e_key in
      let i = ref 0 in
      while !i < Array.length key && same_bits key.(!i) k.(!i) do
        incr i
      done;
      !i = Array.length key
  | Some _ | None -> false

let replay = function
  | Ok r -> { r with solution = Vec.copy r.solution }
  | Error msg -> raise (No_convergence msg)

(* [Some outcome] on a hit, promoted to most recent; [None] on a miss,
   with the memo's key buffer holding this solve's inputs for
   {!remember}. *)
let recall ~options ~restamp sys m ~time =
  Mna.op_inputs_into sys ~time ?restamp m.m_key;
  if matches ~options sys m m.m_recent then Some m.m_recent.e_outcome
  else if matches ~options sys m m.m_older then begin
    let e = m.m_older in
    m.m_older <- m.m_recent;
    m.m_recent <- e;
    Some e.e_outcome
  end
  else None

(* Overwrite the older entry with the missed solve's outcome. *)
let remember ~options sys m outcome =
  let e = m.m_older in
  Array.blit m.m_key 0 e.e_key 0 (Array.length m.m_key);
  e.e_sys <- Some sys;
  e.e_options <- options;
  e.e_outcome <- outcome;
  m.m_older <- m.m_recent;
  m.m_recent <- e

let solve_u ~options ?guess ?companions ?(source_scale = 1.) ?workspace
    ?restamp ~tally sys ~time =
  if Failpoint.should_fail "dc.no_convergence" then
    raise
      (No_convergence
         (Printf.sprintf "injected failure at dc.no_convergence (%S)"
            (Netlist.title (Mna.netlist sys))));
  let start =
    match guess with
    | Some g ->
        if Vec.dim g <> Mna.size sys then
          invalid_arg "Dc.solve: guess has wrong dimension";
        g
    | None -> Vec.create (Mna.size sys) 0.
  in
  let ws =
    match workspace with
    | Some ws ->
        if ws.Mna.w_size <> Mna.size sys then
          invalid_arg "Dc.solve: workspace size mismatch";
        ws
    | None -> Mna.workspace sys
  in
  (* a hit skips the failpoint queries a solve makes, so injection
     bypasses the memo; a linear plan re-solves against its held
     factorization, cheaper than the memo's entries are in memory *)
  let memoizable =
    Option.is_some workspace && Option.is_none guess
    && Option.is_none companions && source_scale = 1.
    && (not (Mna.linear sys))
    && not (Failpoint.active ())
  in
  if not memoizable then
    ladder ~options ~companions ~source_scale ~restamp ~tally sys ws ~time
      ~start
  else
    let m = memo_of sys ws in
    match recall ~options ~restamp sys m ~time with
    | Some outcome ->
        tally.recalled <- true;
        replay outcome
    | None -> (
        match
          ladder ~options ~companions ~source_scale ~restamp ~tally sys ws
            ~time ~start
        with
        | report ->
            remember ~options sys m
              (Ok { report with solution = Vec.copy report.solution });
            report
        | exception No_convergence msg ->
            remember ~options sys m (Error msg);
            raise (No_convergence msg))

let count_attempts tally =
  Obs.Counter.add c_newton tally.iterations;
  Obs.Counter.add c_lu tally.factorizations;
  Obs.Counter.add c_reuse tally.reuses;
  Obs.Counter.add c_exhausted tally.exhausted

let solve ?(options = default_options) ?guess ?companions ?source_scale
    ?workspace ?restamp sys ~time =
  let tally =
    { iterations = 0; factorizations = 0; reuses = 0; exhausted = 0;
      recalled = false }
  in
  (* a memo hit is neither a solve nor a failure: no attempt ran *)
  match
    solve_u ~options ?guess ?companions ?source_scale ?workspace ?restamp
      ~tally sys ~time
  with
  | exception (No_convergence _ as e) ->
      if Obs.active () then
        if tally.recalled then Obs.Counter.add c_memo_hits 1
        else begin
          Obs.Counter.add c_fail 1;
          count_attempts tally
        end;
      raise e
  | report ->
      if Obs.active () then
        if tally.recalled then Obs.Counter.add c_memo_hits 1
        else begin
          Obs.Counter.add c_solves 1;
          count_attempts tally;
          Obs.Counter.add c_gmin report.gmin_steps;
          Obs.Counter.add c_src report.source_steps;
          Obs.Histogram.observe h_newton tally.iterations
        end;
      report

let operating_point ?options ?guess sys ~time =
  (solve ?options ?guess sys ~time).solution
