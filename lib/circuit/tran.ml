type method_ = Backward_euler | Trapezoidal

type probe = { node : string; values : float array }

type result = { times : float array; probes : probe list }

let probe_values r node =
  match List.find_opt (fun p -> String.equal p.node node) r.probes with
  | Some p -> p.values
  | None -> raise Not_found

exception Step_failure of { time : float; reason : string }

type reactive =
  | Cap of { name : string; a : string; b : string; c : float }
  | Ind of { name : string; a : string; b : string; l : float }

let reactives sys =
  Netlist.devices (Mna.netlist sys)
  |> List.filter_map (fun d ->
         match d with
         | Device.Capacitor { name; a; b; farads } ->
             Some (Cap { name; a; b; c = farads })
         | Device.Inductor { name; a; b; henries } ->
             Some (Ind { name; a; b; l = henries })
         | Device.Resistor _ | Device.Vsource _ | Device.Isource _
         | Device.Vcvs _ | Device.Vccs _ | Device.Mosfet _ -> None)

(* Voltage across (a, b) in a solution. *)
let vab sys x a b = Mna.voltage sys x a -. Mna.voltage sys x b

(* With [into], the companion table is refilled in place — every key is
   overwritten on every call (the reactive list is fixed), so reuse is
   indistinguishable from a fresh table. *)
let build_companions ?into sys ~method_ ~h ~x_prev ~cap_currents reactive_list
    =
  let tbl = match into with Some t -> t | None -> Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r with
      | Cap { name; a; b; c } ->
          let v_prev = vab sys x_prev a b in
          let geq, ieq =
            match method_ with
            | Backward_euler ->
                let geq = c /. h in
                (geq, geq *. v_prev)
            | Trapezoidal ->
                let geq = 2. *. c /. h in
                let i_prev =
                  Option.value ~default:0. (Hashtbl.find_opt cap_currents name)
                in
                (geq, (geq *. v_prev) +. i_prev)
          in
          Hashtbl.replace tbl name (Mna.Cap_companion { geq; ieq })
      | Ind { name; a; b; l } ->
          let i_prev = Mna.branch_current sys x_prev name in
          let req, veq =
            match method_ with
            | Backward_euler ->
                let req = l /. h in
                (req, -.req *. i_prev)
            | Trapezoidal ->
                let req = 2. *. l /. h in
                let v_prev = vab sys x_prev a b in
                (req, (-.req *. i_prev) -. v_prev)
          in
          Hashtbl.replace tbl name (Mna.Ind_companion { req; veq }))
    reactive_list;
  tbl

let update_cap_currents sys ~cap_currents ~companions ~x reactive_list =
  List.iter
    (fun r ->
      match r with
      | Cap { name; a; b; _ } -> begin
          match Hashtbl.find_opt companions name with
          | Some (Mna.Cap_companion { geq; ieq }) ->
              let i_now = (geq *. vab sys x a b) -. ieq in
              Hashtbl.replace cap_currents name i_now
          | Some (Mna.Ind_companion _) | None -> ()
        end
      | Ind _ -> ())
    reactive_list

(* Bumped once per simulation (accepted top-level steps; local refinement
   shows up through the DC solver counters instead). *)
let c_simulations = Obs.Counter.create "solver.tran.simulations"
let c_steps = Obs.Counter.create "solver.tran.steps"

let simulate ?(options = Dc.default_options) ?(method_ = Backward_euler)
    ?workspace ?restamp sys ~tstop ~dt ~observe =
  if tstop <= 0. then invalid_arg "Tran.simulate: tstop must be > 0";
  if dt <= 0. then invalid_arg "Tran.simulate: dt must be > 0";
  let reactive_list = reactives sys in
  let n_steps = int_of_float (Float.round (tstop /. dt)) in
  let n_steps = Int.max n_steps 1 in
  let observe_idx = List.map (fun n -> n) observe in
  let records = List.map (fun n -> (n, Array.make (n_steps + 1) 0.)) observe_idx in
  let cap_currents = Hashtbl.create 8 in
  (* on the compiled path one companion table is refilled per step
     instead of allocated per step *)
  let companion_tbl =
    match workspace with Some _ -> Some (Hashtbl.create 8) | None -> None
  in
  let x0 =
    (Dc.solve ~options ?workspace ?restamp sys ~time:(`Time 0.)).Dc.solution
  in
  List.iter (fun (n, arr) -> arr.(0) <- Mna.voltage sys x0 n) records;
  let x = ref x0 in
  (* advance from t_prev to t_next; on Newton failure, refine locally *)
  let rec advance ~depth ~t_prev ~t_next x_prev =
    let h = t_next -. t_prev in
    let companions =
      build_companions ?into:companion_tbl sys ~method_ ~h ~x_prev
        ~cap_currents reactive_list
    in
    match
      Dc.solve ~options ~guess:x_prev ~companions ?workspace ?restamp sys
        ~time:(`Time t_next)
    with
    | report ->
        update_cap_currents sys ~cap_currents ~companions
          ~x:report.Dc.solution reactive_list;
        report.Dc.solution
    | exception Dc.No_convergence reason ->
        if depth >= 4 then raise (Step_failure { time = t_next; reason })
        else begin
          let t_mid = 0.5 *. (t_prev +. t_next) in
          let x_mid = advance ~depth:(depth + 1) ~t_prev ~t_next:t_mid x_prev in
          advance ~depth:(depth + 1) ~t_prev:t_mid ~t_next x_mid
        end
  in
  let times = Array.make (n_steps + 1) 0. in
  for k = 1 to n_steps do
    let t_prev = dt *. float_of_int (k - 1) in
    let t_next = dt *. float_of_int k in
    times.(k) <- t_next;
    if Numerics.Failpoint.should_fail "tran.step_failure" then
      raise
        (Step_failure
           { time = t_next; reason = "injected failure at tran.step_failure" });
    x := advance ~depth:0 ~t_prev ~t_next !x;
    List.iter (fun (n, arr) -> arr.(k) <- Mna.voltage sys !x n) records
  done;
  if Obs.active () then begin
    Obs.Counter.add c_simulations 1;
    Obs.Counter.add c_steps n_steps
  end;
  {
    times;
    probes = List.map (fun (n, arr) -> { node = n; values = arr }) records;
  }
