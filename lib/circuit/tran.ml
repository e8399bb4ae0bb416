type method_ = Backward_euler | Trapezoidal

type probe = { node : string; values : float array }

type result = { probes : probe list }

let probe_values r node =
  match List.find_opt (fun p -> String.equal p.node node) r.probes with
  | Some p -> p.values
  | None -> raise Not_found

exception Step_failure of { time : float; reason : string }

(* A reactive element resolved once per simulation: the first of its two
   companion slots, its terminal unknowns (-1 for ground) and its value.
   No step looks a name up. *)
type reactive =
  | Cap of { slot : int; a : int; b : int; c : float }
  | Ind of { slot : int; a : int; b : int; br : int; l : float }

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
         | Device.Inductor { name; a; b; henries } ->
             Some
               (Ind
                  {
                    slot = slot name;
                    a = node a;
                    b = node b;
                    br = Mna.branch_index sys name;
                    l = henries;
                  })
         | Device.Resistor _ | Device.Vsource _ | Device.Isource _
         | Device.Vcvs _ | Device.Vccs _ | Device.Mosfet _ -> None)
  |> Array.of_list

let[@inline] volt x i = if i < 0 then 0. else x.(i)

(* Voltage across (a, b) in a solution. *)
let[@inline] vab x a b = volt x a -. volt x b

(* Overwrite every reactive element's companion for a step of length [h]
   from the previous solution.  [cap_currents.(r)] is the current of the
   [r]-th reactive element (a capacitor) at [x_prev] — trapezoidal
   integration needs it; it is 0 before the first step. *)
let fill_companions comp ~method_ ~h ~x_prev ~cap_currents reactives =
  for r = 0 to Array.length reactives - 1 do
    match reactives.(r) with
    | Cap { slot; a; b; c } -> begin
        let v_prev = vab x_prev a b in
        match method_ with
        | Backward_euler ->
            let geq = c /. h in
            comp.(slot) <- geq;
            comp.(slot + 1) <- geq *. v_prev
        | Trapezoidal ->
            let geq = 2. *. c /. h in
            comp.(slot) <- geq;
            comp.(slot + 1) <- (geq *. v_prev) +. cap_currents.(r)
      end
    | Ind { slot; a; b; br; l } -> begin
        let i_prev = x_prev.(br) in
        match method_ with
        | Backward_euler ->
            let req = l /. h in
            comp.(slot) <- req;
            comp.(slot + 1) <- -.req *. i_prev
        | Trapezoidal ->
            let req = 2. *. l /. h in
            let v_prev = vab x_prev a b in
            comp.(slot) <- req;
            comp.(slot + 1) <- (-.req *. i_prev) -. v_prev
      end
  done

(* Capacitor currents at an accepted solution, under the companions that
   produced it: [geq*(va - vb) - ieq]. *)
let update_cap_currents comp ~cap_currents ~x reactives =
  for r = 0 to Array.length reactives - 1 do
    match reactives.(r) with
    | Cap { slot; a; b; _ } ->
        cap_currents.(r) <- (comp.(slot) *. vab x a b) -. comp.(slot + 1)
    | Ind _ -> ()
  done

let record observed k x =
  for o = 0 to Array.length observed - 1 do
    let i, values = observed.(o) in
    values.(k) <- volt x i
  done

(* Bumped once per simulation (accepted top-level steps; local refinement
   shows up through the halvings counter and the DC solver counters). *)
let c_simulations = Obs.Counter.create "solver.tran.simulations"
let c_steps = Obs.Counter.create "solver.tran.steps"
let c_halvings = Obs.Counter.create "solver.tran.halvings"

let simulate ?options ?(method_ = Backward_euler) ?workspace ?restamp sys
    ~tstop ~dt ~observe =
  if tstop <= 0. then invalid_arg "Tran.simulate: tstop must be > 0";
  if dt <= 0. then invalid_arg "Tran.simulate: dt must be > 0";
  let reactives = reactives sys in
  let n_steps = int_of_float (Float.round (tstop /. dt)) in
  let n_steps = Int.max n_steps 1 in
  (* a caller's workspace lends its buffer to a one-node observation:
     the engine's simulations then allocate no sample array per run *)
  let buffer n =
    match (workspace, observe) with
    | Some ws, [ _ ] -> Mna.sample_buffer ws n
    | _ -> Array.make n 0.
  in
  let observed =
    Array.of_list
      (List.map (fun n -> (node_unknown sys n, buffer (n_steps + 1))) observe)
  in
  (* one workspace and one companion array serve every step; the option
     wrappers are built once here, not per solve *)
  let workspace =
    match workspace with Some _ -> workspace | None -> Some (Mna.workspace sys)
  in
  let comp = Array.make (Mna.companion_slots sys) 0. in
  let companions = Some comp in
  let cap_currents = Array.make (Array.length reactives) 0. in
  let x0 =
    (Dc.solve ?options ?workspace ?restamp sys ~time:(`Time 0.)).Dc.solution
  in
  record observed 0 x0;
  (* advance from t_prev to t_next; on Newton failure, refine locally *)
  let rec advance ~depth ~t_prev ~t_next x_prev =
    let h = t_next -. t_prev in
    fill_companions comp ~method_ ~h ~x_prev ~cap_currents reactives;
    match
      Dc.solve ?options ~guess:x_prev ?companions ?workspace ?restamp sys
        ~time:(`Time t_next)
    with
    | report ->
        update_cap_currents comp ~cap_currents ~x:report.Dc.solution reactives;
        report.Dc.solution
    | exception Dc.No_convergence reason ->
        if depth >= 4 then raise (Step_failure { time = t_next; reason })
        else begin
          if Obs.active () then Obs.Counter.add c_halvings 1;
          let t_mid = 0.5 *. (t_prev +. t_next) in
          let x_mid = advance ~depth:(depth + 1) ~t_prev ~t_next:t_mid x_prev in
          advance ~depth:(depth + 1) ~t_prev:t_mid ~t_next x_mid
        end
  in
  let x = ref x0 in
  for k = 1 to n_steps do
    let t_prev = dt *. float_of_int (k - 1) in
    let t_next = dt *. float_of_int k in
    if Numerics.Failpoint.should_fail "tran.step_failure" then
      raise
        (Step_failure
           { time = t_next; reason = "injected failure at tran.step_failure" });
    x := advance ~depth:0 ~t_prev ~t_next !x;
    record observed k !x
  done;
  if Obs.active () then begin
    Obs.Counter.add c_simulations 1;
    Obs.Counter.add c_steps n_steps
  end;
  {
    probes =
      List.mapi (fun o node -> { node; values = snd observed.(o) }) observe;
  }
