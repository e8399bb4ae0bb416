type rung = {
  rung_label : string;
  newton_scale : float;
  gmin_floor : float;
  reltol_scale : float;
  dt_divisor : int;
}

let baseline_label = "baseline"

let default_ladder =
  [
    {
      rung_label = "more-newton";
      newton_scale = 4.;
      gmin_floor = 0.;
      reltol_scale = 1.;
      dt_divisor = 1;
    };
    {
      rung_label = "raise-gmin";
      newton_scale = 4.;
      gmin_floor = 1e-9;
      reltol_scale = 1.;
      dt_divisor = 1;
    };
    {
      rung_label = "relax-reltol";
      newton_scale = 4.;
      gmin_floor = 1e-9;
      reltol_scale = 100.;
      dt_divisor = 2;
    };
    {
      rung_label = "brute-force";
      newton_scale = 8.;
      gmin_floor = 1e-8;
      reltol_scale = 100.;
      dt_divisor = 4;
    };
  ]

let c_escalations = Obs.Counter.create "resilience.escalations"
let c_recovered = Obs.Counter.create "resilience.recovered"
let c_quarantined = Obs.Counter.create "resilience.quarantined"

(* One counter per ladder rung (plus baseline), so the profile shows how
   far up the ladder runs actually climb.  [Obs.Counter.create] is
   idempotent per name, so looking the counter up on each attempt is
   just a registry probe — and it only happens when tracing is active. *)
let rung_counter label =
  Obs.Counter.create ("resilience.rung_attempts." ^ label)

let escalate rung (p : Execute.profile) =
  Obs.Counter.bump c_escalations 1;
  let o = p.Execute.dc_options in
  {
    p with
    Execute.dc_options =
      {
        o with
        Circuit.Dc.max_newton =
          int_of_float (Float.round (float_of_int o.Circuit.Dc.max_newton *. rung.newton_scale));
        gmin = Float.max o.Circuit.Dc.gmin rung.gmin_floor;
        reltol = o.Circuit.Dc.reltol *. rung.reltol_scale;
      };
    dt_divisor = p.Execute.dt_divisor * rung.dt_divisor;
  }

type policy = {
  ladder : rung list;
  max_retries : int;
  attempt_budget : int option;
  fail_fast : bool;
}

let default_policy =
  {
    ladder = default_ladder;
    max_retries = List.length default_ladder;
    attempt_budget = Some 4000;
    fail_fast = false;
  }

type attempt = { attempt_rung : string; attempt_error : string option }

type diagnosis = {
  diag_fault_id : string;
  diag_attempts : attempt list;
  diag_error : string;
}

let pp_diagnosis fmt d =
  Format.fprintf fmt "@[<v 2>%s: unrecoverable after %d attempt(s):"
    d.diag_fault_id
    (List.length d.diag_attempts);
  List.iter
    (fun a ->
      Format.fprintf fmt "@,%-12s %s" a.attempt_rung
        (Option.value ~default:"ok" a.attempt_error))
    d.diag_attempts;
  Format.fprintf fmt "@]"

type 'a outcome = Ok of 'a | Recovered of 'a * attempt list | Failed of diagnosis

let succeeded = function
  | Ok v | Recovered (v, _) -> Some v
  | Failed _ -> None

let recovery_rung = function
  | Recovered (_, attempts) -> begin
      match List.rev attempts with
      | { attempt_rung; attempt_error = None } :: _ -> Some attempt_rung
      | _ -> None
    end
  | Ok _ | Failed _ -> None

let recoverable_error = function
  | Execute.Execution_failure m -> Some m
  | Circuit.Dc.No_convergence m -> Some (Printf.sprintf "DC non-convergence: %s" m)
  | Circuit.Tran.Step_failure { time; reason } ->
      Some (Printf.sprintf "transient step failure at t=%g: %s" time reason)
  | Numerics.Mat.Singular k ->
      Some (Printf.sprintf "singular MNA matrix (elimination step %d)" k)
  | Numerics.Cmat.Singular k ->
      Some (Printf.sprintf "singular small-signal system (elimination step %d)" k)
  | Evaluator.Budget_exhausted { config_id; budget } ->
      Some
        (Printf.sprintf "evaluation budget exhausted (configuration %d, cap %d)"
           config_id budget)
  | _ -> None

(* Rungs actually used under a policy: at most [max_retries] of them. *)
let rungs_of policy =
  List.filteri (fun i _ -> i < policy.max_retries) policy.ladder

let protect ~policy ~fault_id f =
  let run rung =
    match f rung with
    | v -> Stdlib.Ok v
    | exception e -> begin
        match recoverable_error e with
        | Some msg -> Stdlib.Error msg
        | None -> raise e
      end
  in
  let label = function None -> baseline_label | Some r -> r.rung_label in
  let rec walk failed = function
    | [] ->
        let attempts = List.rev failed in
        Obs.Counter.bump c_quarantined 1;
        Failed
          {
            diag_fault_id = fault_id;
            diag_attempts = attempts;
            diag_error =
              (match List.rev attempts with
              | { attempt_error = Some m; _ } :: _ -> m
              | _ -> "no attempts made");
          }
    | rung :: rest -> begin
        if Obs.active () then Obs.Counter.add (rung_counter (label rung)) 1;
        match run rung with
        | Stdlib.Ok v ->
            if failed = [] then Ok v
            else begin
              Obs.Counter.bump c_recovered 1;
              Recovered
                ( v,
                  List.rev
                    ({ attempt_rung = label rung; attempt_error = None } :: failed) )
            end
        | Stdlib.Error msg ->
            walk ({ attempt_rung = label rung; attempt_error = Some msg } :: failed) rest
      end
  in
  walk [] (None :: List.map Option.some (rungs_of policy))
