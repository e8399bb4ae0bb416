open Circuit

(* Ladders of 24+ sections (25+ nodes) cross Mna.sparse_above_nodes and
   are solved on the sparse backend, which handles them well, so the cap
   only bounds the quadratic fault-dictionary growth. *)
let max_sections = 64

let node i = if i = 0 then "in" else Printf.sprintf "n%d" i

let section_r = 10e3
let section_c = 1e-9

let cutoff_hz ~sections =
  ignore sections;
  1. /. (2. *. Float.pi *. section_r *. section_c)

let fault_nodes ~sections =
  "0" :: List.init sections (fun i -> node i) @ [ "out" ]

let build ~sections (p : Process.point) =
  let r = Process.scale_res p in
  let c = Process.scale_cap p in
  let devices =
    Device.Vsource
      { name = "vin_src"; plus = "in"; minus = "0"; wave = Waveform.Dc 2.5 }
    :: List.concat
         (List.init sections (fun i ->
              let a = node i in
              let b = if i = sections - 1 then "out" else node (i + 1) in
              [
                Device.Resistor
                  { name = Printf.sprintf "r%d" (i + 1); a; b; ohms = r section_r };
                Device.Capacitor
                  {
                    name = Printf.sprintf "c%d" (i + 1);
                    a = b;
                    b = "0";
                    farads = c section_c;
                  };
              ]))
  in
  Netlist.empty ~title:(Printf.sprintf "RC ladder (%d sections)" sections)
  |> Fun.flip Netlist.add_all devices

let macro ~sections =
  if sections < 1 || sections > max_sections then
    invalid_arg
      (Printf.sprintf "Rc_ladder.macro: sections %d outside [1, %d]" sections
         max_sections);
  {
    Macro.macro_name = Printf.sprintf "rc_ladder%d" sections;
    macro_type = "RC-ladder";
    description =
      Printf.sprintf
        "Passive %d-section RC low-pass ladder (R = 10 kOhm, C = 1 nF per \
         section)"
        sections;
    build = build ~sections;
    fault_nodes = fault_nodes ~sections;
    stimulus_source = "vin_src";
    observe_node = "out";
  }
