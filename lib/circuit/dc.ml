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
  pattern_reuses : int;
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
   loop below calls it; the batch engine's replay of a linear plan calls
   it with a fixed [s], so the two walks share every expression. *)
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

(* Solver counters, bumped once per [solve] from the finished report —
   never inside the Newton loop — so the hot path stays allocation-free
   and branch-light with tracing off.  One LU factorization happens per
   Newton iteration, so the factorization counter mirrors the iteration
   counter of the attempts that produced the report. *)
let c_solves = Obs.Counter.create "solver.dc.solves"
let c_newton = Obs.Counter.create "solver.dc.newton_iterations"
let c_lu = Obs.Counter.create "solver.dc.lu_factorizations"
let c_gmin = Obs.Counter.create "solver.dc.gmin_steps"
let c_src = Obs.Counter.create "solver.dc.source_steps"
let c_fail = Obs.Counter.create "solver.dc.failures"

let h_newton =
  Obs.Histogram.create "solver.dc.newton_per_solve"
    ~bounds:[| 2; 4; 8; 16; 32; 64 |]

let c_reuse = Obs.Counter.create "solver.dc.pattern_reuses"

(* One Newton attempt at fixed gmin and source scale, restamping a
   workspace: the system is assembled into the preallocated matrix,
   factored in place, solved into the swap buffer, and the damped update
   ({!damped_step}) overwrites it — no per-iteration allocation.
   Returns the solution, iteration count and pattern reuses, or None on
   failure. *)
let newton_ws ~options ~companions ~source_scale ~restamp ~gmin sys ws ~time
    ~start =
  let n_nodes = Mna.n_nodes sys in
  let size = Vec.dim start in
  (* boxed once per attempt, not once per iteration *)
  let source_scale = Some source_scale in
  Array.blit start 0 ws.Mna.w_x 0 size;
  let converged = ref false in
  let iters = ref 0 in
  let reuses = ref 0 in
  (try
     while (not !converged) && !iters < options.max_newton do
       incr iters;
       if Failpoint.should_fail "dc.singular" then raise (Mat.Singular 0);
       Mna.assemble_into sys ws ~x:ws.Mna.w_x ~time ?companions ?source_scale
         ?restamp ~gmin ();
       if Mna.ws_factor ws then incr reuses;
       Mna.ws_solve_into ws ws.Mna.w_z ws.Mna.w_x_new;
       let x = ws.Mna.w_x and x_new = ws.Mna.w_x_new in
       if Failpoint.should_fail "dc.nan_solution" then
         Array.fill x_new 0 size Float.nan;
       if not (finite_solution x_new ~n_nodes) then raise Diverged;
       converged := damped_step ~options ~n_nodes ~x ~s:x_new ~x_new;
       ws.Mna.w_x <- x_new;
       ws.Mna.w_x_new <- x
     done
   with Mat.Singular _ | Diverged -> converged := false);
  if !converged then Some (Vec.copy ws.Mna.w_x, !iters, !reuses)
  else None

let solve_u ?(options = default_options) ?guess ?companions
    ?(source_scale = 1.) ?workspace ?restamp sys ~time =
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
  let attempt ~gmin ~scale ~start =
    let source_scale = scale *. source_scale in
    newton_ws ~options ~companions ~source_scale ~restamp ~gmin sys ws ~time
      ~start
  in
  let finish ~x ~it ~reuses ~gmin_steps ~source_steps =
    {
      solution = x;
      newton_iterations = it;
      pattern_reuses = reuses;
      gmin_steps;
      source_steps;
    }
  in
  match attempt ~gmin:options.gmin ~scale:1. ~start with
  | Some (x, it, reuses) ->
      finish ~x ~it ~reuses ~gmin_steps:0 ~source_steps:0
  | None -> begin
      (* gmin stepping: relax then tighten *)
      let gmins = [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-8; 1e-10; options.gmin ] in
      let rec gmin_walk x_opt steps = function
        | [] -> (x_opt, steps)
        | g :: rest -> begin
            let start =
              match x_opt with Some (x, _, _) -> x | None -> start
            in
            match attempt ~gmin:g ~scale:1. ~start with
            | Some r -> gmin_walk (Some r) (steps + 1) rest
            | None -> (None, steps)  (* chain broken: give up on this path *)
          end
      in
      match gmin_walk None 0 gmins with
      | Some (x, it, reuses), steps ->
          finish ~x ~it ~reuses ~gmin_steps:steps ~source_steps:0
      | None, _ -> begin
          (* source stepping at final gmin *)
          let scales = [ 0.; 0.1; 0.2; 0.35; 0.5; 0.65; 0.8; 0.9; 1. ] in
          let rec src_walk x_opt steps = function
            | [] -> (x_opt, steps)
            | s :: rest -> begin
                let start =
                  match x_opt with Some (x, _, _) -> x | None -> start
                in
                match attempt ~gmin:options.gmin ~scale:s ~start with
                | Some r -> src_walk (Some r) (steps + 1) rest
                | None -> (None, steps)
              end
          in
          match src_walk None 0 scales with
          | Some (x, it, reuses), steps ->
              finish ~x ~it ~reuses ~gmin_steps:(List.length gmins)
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

let solve ?options ?guess ?companions ?source_scale ?workspace ?restamp sys
    ~time =
  if not (Obs.active ()) then
    solve_u ?options ?guess ?companions ?source_scale ?workspace ?restamp sys
      ~time
  else
    match
      solve_u ?options ?guess ?companions ?source_scale ?workspace ?restamp sys
        ~time
    with
    | report ->
        Obs.Counter.add c_solves 1;
        Obs.Counter.add c_newton report.newton_iterations;
        Obs.Counter.add c_lu report.newton_iterations;
        Obs.Counter.add c_reuse report.pattern_reuses;
        Obs.Counter.add c_gmin report.gmin_steps;
        Obs.Counter.add c_src report.source_steps;
        Obs.Histogram.observe h_newton report.newton_iterations;
        report
    | exception (No_convergence _ as e) ->
        Obs.Counter.add c_fail 1;
        raise e

let operating_point ?options ?guess sys ~time =
  (solve ?options ?guess sys ~time).solution
