(* Test-parameter sensitivity explorer: renders tps-graphs (paper
   Figs. 2-4) for a chosen fault under the THD configuration and shows
   the hard-fault / soft-fault region dichotomy of sec. 3.2.

   Run with:  dune exec examples/tps_explorer.exe [-- fault-id [impacts...]]
   e.g.       dune exec examples/tps_explorer.exe -- bridge:iin-vref 500 2000 4000 *)

open Testgen

let default_fault = "bridge:n1-vout"
let default_impacts = [ 10e3; 75e3; 150e3 ]

let () =
  let args = Array.to_list Sys.argv in
  let fault_id, impacts =
    match args with
    | _ :: fid :: (_ :: _ as rest) ->
        (fid, List.filter_map float_of_string_opt rest)
    | _ :: fid :: [] -> (fid, default_impacts)
    | _ -> (default_fault, default_impacts)
  in
  prerr_endline "calibrating tolerance boxes (a few seconds)...";
  let ctx = Experiments.Setup.iv () in
  let entry =
    match Faults.Dictionary.find ctx.Experiments.Setup.dictionary fault_id with
    | Some e -> e
    | None ->
        Printf.eprintf "unknown fault %S -- try e.g. %s\n" fault_id default_fault;
        exit 1
  in
  let ev = Evaluator.find ctx.Experiments.Setup.evaluators 3 in
  let graphs =
    List.map
      (fun r ->
        let fault =
          Faults.Fault.with_impact entry.Faults.Dictionary.fault r
        in
        (r, Tps.sweep ev fault ~grid:9 ()))
      impacts
  in
  List.iter
    (fun (r, g) ->
      let arg, s = Tps.argmin g in
      Printf.printf "\n--- %s at impact %s ---\n" fault_id
        (Circuit.Units.format_eng ~unit_symbol:"Ohm" r);
      Printf.printf "argmin: Iin_dc=%s freq=%s   S=%.4g   detected %.0f%% of the plane\n"
        (Circuit.Units.format_eng ~unit_symbol:"A" arg.(0))
        (Circuit.Units.format_eng ~unit_symbol:"Hz" arg.(1))
        s
        (100. *. Tps.detection_fraction g);
      match g.Tps.axes with
      | [ (xn, xs); (yn, ys) ] ->
          print_string
            (Report.Heatmap.render ~x_axis:(xn, xs) ~y_axis:(yn, ys)
               ~values:(fun xi yi -> g.Tps.values.((xi * Array.length ys) + yi))
               ())
      | _ -> ())
    graphs;
  (* quantify the sec. 3.2 claim over consecutive impact pairs *)
  let rec pairs = function
    | (r1, g1) :: ((r2, g2) :: _ as rest) ->
        Printf.printf "argmin shift %s -> %s: %.2f\n"
          (Circuit.Units.format_eng r1) (Circuit.Units.format_eng r2)
          (Tps.normalized_argmin_shift g1 g2);
        pairs rest
    | [ _ ] | [] -> ()
  in
  print_newline ();
  pairs graphs
