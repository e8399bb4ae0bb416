(* Reference DC solver for the parity tests: the build-per-iteration
   Newton loop that {!Circuit.Dc.solve} replaced with its in-place
   workspace loop.  Every iteration assembles a fresh dense system
   ({!Circuit.Mna.assemble}) and factors it with {!Numerics.Mat.solve};
   the damping, convergence test, homotopy ladders and failpoint sites
   are the solver's, expression for expression, so the two must agree
   bit for bit — solution, iteration counts and ladder stages. *)

open Circuit
open Numerics

exception Diverged

let finite_solution x ~n_nodes =
  let ok = ref true in
  for i = 0 to n_nodes - 1 do
    if not (Float.is_finite x.(i)) then ok := false
  done;
  !ok

(* One Newton attempt at fixed gmin and source scale. *)
let newton_alloc ~(options : Dc.options) ~companions ~source_scale ~restamp
    ~gmin sys ~time ~start =
  let n_nodes = Mna.n_nodes sys in
  let x = ref (Vec.copy start) in
  let converged = ref false in
  let iters = ref 0 in
  (try
     while (not !converged) && !iters < options.max_newton do
       incr iters;
       if Failpoint.should_fail "dc.singular" then raise (Mat.Singular 0);
       let a, z =
         Mna.assemble sys ~x:!x ~time ?companions ~source_scale ?restamp ~gmin
           ()
       in
       let x_new = Mat.solve a z in
       let x_new =
         if Failpoint.should_fail "dc.nan_solution" then
           Vec.create (Vec.dim x_new) Float.nan
         else x_new
       in
       if not (finite_solution x_new ~n_nodes) then raise Diverged;
       (* damping: bound the node-voltage update *)
       let dv_max = ref 0. in
       for i = 0 to n_nodes - 1 do
         dv_max := Float.max !dv_max (Float.abs (x_new.(i) -. !x.(i)))
       done;
       let alpha =
         if !dv_max > Dc.vlimit then Dc.vlimit /. !dv_max else 1.
       in
       let x_next =
         Vec.init (Vec.dim x_new) (fun i ->
             !x.(i) +. (alpha *. (x_new.(i) -. !x.(i))))
       in
       if alpha = 1. then begin
         (* convergence is judged on node voltages of a full step *)
         let ok = ref true in
         for i = 0 to n_nodes - 1 do
           let dx = Float.abs (x_next.(i) -. !x.(i)) in
           if dx > Dc.abstol +. (options.reltol *. Float.abs x_next.(i))
           then ok := false
         done;
         converged := !ok
       end;
       x := x_next
     done
   with Mat.Singular _ | Diverged -> converged := false);
  if !converged then Some (!x, !iters) else None

(* {!Circuit.Dc.solve}'s ladder over [newton_alloc]: direct attempt,
   then gmin stepping, then source stepping at the final gmin. *)
let solve ?(options = Dc.default_options) ?guess ?companions
    ?(source_scale = 1.) ?restamp sys ~time =
  if Failpoint.should_fail "dc.no_convergence" then
    raise (Dc.No_convergence "injected failure at dc.no_convergence");
  let start =
    match guess with Some g -> g | None -> Vec.create (Mna.size sys) 0.
  in
  let attempt ~gmin ~scale ~start =
    newton_alloc ~options ~companions ~source_scale:(scale *. source_scale)
      ~restamp ~gmin sys ~time ~start
  in
  let report (x, it) ~gmin_steps ~source_steps =
    { Dc.solution = x; newton_iterations = it; gmin_steps; source_steps }
  in
  let rec walk ~gmin_of ~scale_of prev steps = function
    | [] -> (prev, steps)
    | v :: rest -> (
        let start = match prev with Some (x, _) -> x | None -> start in
        match attempt ~gmin:(gmin_of v) ~scale:(scale_of v) ~start with
        | Some r -> walk ~gmin_of ~scale_of (Some r) (steps + 1) rest
        | None -> (None, steps))
  in
  match attempt ~gmin:options.gmin ~scale:1. ~start with
  | Some r -> report r ~gmin_steps:0 ~source_steps:0
  | None -> (
      let gmins = [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-8; 1e-10; options.gmin ] in
      match walk ~gmin_of:Fun.id ~scale_of:(fun _ -> 1.) None 0 gmins with
      | Some r, steps -> report r ~gmin_steps:steps ~source_steps:0
      | None, _ -> (
          let scales = [ 0.; 0.1; 0.2; 0.35; 0.5; 0.65; 0.8; 0.9; 1. ] in
          match
            walk ~gmin_of:(fun _ -> options.gmin) ~scale_of:Fun.id None 0 scales
          with
          | Some r, steps ->
              report r ~gmin_steps:(List.length gmins) ~source_steps:steps
          | None, _ -> raise (Dc.No_convergence "oracle: all ladders failed")))
