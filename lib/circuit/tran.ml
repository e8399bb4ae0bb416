exception Step_failure of { time : float; reason : string }

(* A reactive element resolved once per simulation: the first of its two
   companion slots, its terminal unknowns (-1 for ground) and its value.
   No step looks a name up. *)
type reactive =
  | Cap of { slot : int; a : int; b : int; c : float }
  | Ind of { slot : int; br : int; l : float }

(* @raise Not_found for an unknown node name *)
let node_unknown sys n =
  match Mna.node_index sys n with Some i -> i | None -> -1

let reactives sys =
  let node = node_unknown sys and slot = Mna.companion_slot sys in
  Netlist.devices (Mna.netlist sys)
  |> List.filter_map (fun d ->
         match d with
         | Device.Capacitor { name; a; b; farads } ->
             Some (Cap { slot = slot name; a = node a; b = node b; c = farads })
         | Device.Inductor { name; henries; _ } ->
             Some
               (Ind
                  { slot = slot name; br = Mna.branch_index sys name; l = henries })
         | Device.Resistor _ | Device.Vsource _ | Device.Isource _
         | Device.Vcvs _ | Device.Vccs _ | Device.Mosfet _ -> None)
  |> Array.of_list

let[@inline] volt x i = if i < 0 then 0. else x.(i)

(* Voltage across (a, b) in a solution. *)
let[@inline] vab x a b = volt x a -. volt x b

(* Overwrite every reactive element's backward-Euler companion for a
   step of length [h] from the previous solution. *)
let fill_companions comp ~h ~x_prev reactives =
  for r = 0 to Array.length reactives - 1 do
    match reactives.(r) with
    | Cap { slot; a; b; c } ->
        let geq = c /. h in
        comp.(slot) <- geq;
        comp.(slot + 1) <- geq *. vab x_prev a b
    | Ind { slot; br; l } ->
        let req = l /. h in
        comp.(slot) <- req;
        comp.(slot + 1) <- -.req *. x_prev.(br)
  done

(* Bumped once per simulation (accepted top-level steps; local refinement
   shows up through the halvings counter and the DC solver counters). *)
let c_simulations = Obs.Counter.create "solver.tran.simulations"
let c_steps = Obs.Counter.create "solver.tran.steps"
let c_halvings = Obs.Counter.create "solver.tran.halvings"
let c_fallbacks = Obs.Counter.create "solver.tran.predictor_fallbacks"

(* Newton's start for a top-level step: the polynomial extrapolation of
   the last [order + 1] accepted solutions [x] (newest), [x1], [x2],
   [x3] at the fixed step, written into [guess] — linear
   [2x - x1], quadratic [3x - 3x1 + x2], cubic [4x - 6x1 + 4x2 - x3].
   A prediction that moves any node more than {!Dc.vlimit} (the damping
   threshold) from [x] overshoots an edge of the stimulus: [false]
   tells the caller to start from [x] instead. *)
let predict ~order ~n_nodes ~guess x x1 x2 x3 =
  for i = 0 to Array.length x - 1 do
    guess.(i) <-
      (match order with
      | 1 -> (2. *. x.(i)) -. x1.(i)
      | 2 -> (3. *. x.(i)) -. (3. *. x1.(i)) +. x2.(i)
      | _ -> (4. *. x.(i)) -. (6. *. x1.(i)) +. (4. *. x2.(i)) -. x3.(i))
  done;
  let ok = ref true in
  for i = 0 to n_nodes - 1 do
    if Float.abs (guess.(i) -. x.(i)) > Dc.vlimit then ok := false
  done;
  !ok

let simulate ?options ?workspace ?restamp sys ~tstop ~dt ~observe =
  if tstop <= 0. then invalid_arg "Tran.simulate: tstop must be > 0";
  if dt <= 0. then invalid_arg "Tran.simulate: dt must be > 0";
  let reactives = reactives sys in
  let n_steps = int_of_float (Float.round (tstop /. dt)) in
  let n_steps = Int.max n_steps 1 in
  let out = node_unknown sys observe in
  (* a caller's workspace lends its buffer: the engine's simulations
     then allocate no sample array per run *)
  let samples =
    match workspace with
    | Some ws -> Mna.sample_buffer ws (n_steps + 1)
    | None -> Array.make (n_steps + 1) 0.
  in
  (* one workspace and one companion array serve every step; the option
     wrappers are built once here, not per solve *)
  let workspace =
    match workspace with Some _ -> workspace | None -> Some (Mna.workspace sys)
  in
  let comp = Array.make (Mna.companion_slots sys) 0. in
  let companions = Some comp in
  let x0 =
    (Dc.solve ?options ?workspace ?restamp sys ~time:(`Time 0.)).Dc.solution
  in
  samples.(0) <- volt x0 out;
  (* advance from t_prev to t_next, Newton starting from [start]; on
     Newton failure, refine locally, each half starting from its own
     previous solution *)
  let rec advance ~depth ~t_prev ~t_next ~start x_prev =
    let h = t_next -. t_prev in
    fill_companions comp ~h ~x_prev reactives;
    match
      Dc.solve ?options ~guess:start ?companions ?workspace ?restamp sys
        ~time:(`Time t_next)
    with
    | report -> report.Dc.solution
    | exception Dc.No_convergence reason ->
        if depth >= 4 then raise (Step_failure { time = t_next; reason })
        else begin
          if Obs.active () then Obs.Counter.add c_halvings 1;
          let t_mid = 0.5 *. (t_prev +. t_next) in
          let x_mid =
            advance ~depth:(depth + 1) ~t_prev ~t_next:t_mid ~start:x_prev
              x_prev
          in
          advance ~depth:(depth + 1) ~t_prev:t_mid ~t_next ~start:x_mid x_mid
        end
  in
  let n_nodes = Mna.n_nodes sys in
  let guess = Array.make (Mna.size sys) 0. in
  let fallbacks = ref 0 in
  (* the last four accepted solutions, newest first: every [Dc.solve]
     returns a fresh array, so the history holds them without copying *)
  let x = ref x0 and x1 = ref x0 and x2 = ref x0 and x3 = ref x0 in
  for k = 1 to n_steps do
    let t_prev = dt *. float_of_int (k - 1) in
    let t_next = dt *. float_of_int k in
    if Numerics.Failpoint.should_fail "tran.step_failure" then
      raise
        (Step_failure
           { time = t_next; reason = "injected failure at tran.step_failure" });
    let start =
      if k = 1 then !x
      else if
        predict ~order:(Int.min (k - 1) 3) ~n_nodes ~guess !x !x1 !x2 !x3
      then guess
      else begin
        incr fallbacks;
        !x
      end
    in
    let x_next = advance ~depth:0 ~t_prev ~t_next ~start !x in
    x3 := !x2;
    x2 := !x1;
    x1 := !x;
    x := x_next;
    samples.(k) <- volt x_next out
  done;
  if Obs.active () then begin
    Obs.Counter.add c_simulations 1;
    Obs.Counter.add c_steps n_steps;
    Obs.Counter.add c_fallbacks !fallbacks
  end;
  samples
