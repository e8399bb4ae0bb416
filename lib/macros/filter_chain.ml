open Circuit

let max_stages = 40
let max_ota_stages = 64

let stage_r = 10e3
let stage_c1 = 200e-12
let stage_c2 = 100e-12
let ota_gm = 1e-4
let ota_r = 10e3
let ota_c = 1e-9

(* -- Sallen-Key chain ---------------------------------------------------- *)

(* Stage s of the chain: input node [p] (the previous stage's output),
   internal nodes [a] and [b], buffered output [o].  The unity buffer is
   an ideal VCVS, keeping the whole chain linear: its DC levels share
   one held factorization, and the stage still has the Sallen-Key shape
   (series R1-R2, feedback C1 to the buffered output, C2 to ground). *)

let sk_out ~stages s = if s = stages then "out" else Printf.sprintf "s%do" s

let sk_stage_nodes ~stages s =
  let a = Printf.sprintf "s%da" s and b = Printf.sprintf "s%db" s in
  (a, b, sk_out ~stages s)

let sk_fault_nodes ~stages =
  "0" :: "in" :: List.init stages (fun i -> sk_out ~stages (i + 1))

let sk_build ~stages (p : Process.point) =
  let r = Process.scale_res p in
  let c = Process.scale_cap p in
  let devices =
    Device.Vsource
      { name = "vin_src"; plus = "in"; minus = "0"; wave = Waveform.Dc 2.5 }
    :: List.concat
         (List.init stages (fun i ->
              let s = i + 1 in
              let input = if s = 1 then "in" else sk_out ~stages (s - 1) in
              let a, b, o = sk_stage_nodes ~stages s in
              [
                Device.Resistor
                  { name = Printf.sprintf "r%da" s; a = input; b = a;
                    ohms = r stage_r };
                Device.Resistor
                  { name = Printf.sprintf "r%db" s; a; b; ohms = r stage_r };
                Device.Capacitor
                  { name = Printf.sprintf "c%da" s; a; b = o;
                    farads = c stage_c1 };
                Device.Capacitor
                  { name = Printf.sprintf "c%db" s; a = b; b = "0";
                    farads = c stage_c2 };
                Device.Vcvs
                  { name = Printf.sprintf "buf%d" s; plus = o; minus = "0";
                    ctrl_plus = b; ctrl_minus = "0"; gain = 1.0 };
              ]))
  in
  Netlist.empty
    ~title:(Printf.sprintf "Sallen-Key filter chain (%d stages)" stages)
  |> Fun.flip Netlist.add_all devices

let sk_chain ~stages =
  if stages < 1 || stages > max_stages then
    invalid_arg
      (Printf.sprintf "Filter_chain.sk_chain: stages %d outside [1, %d]"
         stages max_stages);
  {
    Macro.macro_name = Printf.sprintf "sk_chain%d" stages;
    macro_type = "SK-filter-chain";
    description =
      Printf.sprintf
        "%d-stage Sallen-Key low-pass chain with ideal unity buffers \
         (R = 10 kOhm, C1 = 200 pF, C2 = 100 pF per stage)"
        stages;
    build = sk_build ~stages;
    fault_nodes = sk_fault_nodes ~stages;
    stimulus_source = "vin_src";
    observe_node = "out";
  }

(* -- OTA cascade --------------------------------------------------------- *)

(* Stage s: a transconductor (VCCS, gm = 100 uS) from the previous
   stage's output into a 10 kOhm load at node [g<s>], then an RC
   post-filter to the stage output [f<s>].  gm * R = 1, so the DC gain
   magnitude is 1 per stage and the cascaded operating point stays in
   range at any depth. *)

let ota_out ~stages s = if s = stages then "out" else Printf.sprintf "f%d" s

(* Bridges grow quadratically in the fault-node list, so deep cascades
   subsample their stage outputs — about thirty sites keeps the
   exhaustive universe in the hundreds rather than the thousands. *)
let ota_fault_nodes ~stages =
  let stride = max 1 ((stages + 29) / 30) in
  let picks =
    List.filteri (fun i _ -> (i + 1) mod stride = 0 || i + 1 = stages)
      (List.init stages (fun i -> ota_out ~stages (i + 1)))
  in
  "0" :: "in" :: List.sort_uniq compare picks

let ota_build ~stages (p : Process.point) =
  let r = Process.scale_res p in
  let c = Process.scale_cap p in
  let devices =
    Device.Vsource
      { name = "vin_src"; plus = "in"; minus = "0"; wave = Waveform.Dc 2.5 }
    :: List.concat
         (List.init stages (fun i ->
              let s = i + 1 in
              let input = if s = 1 then "in" else ota_out ~stages (s - 1) in
              let g = Printf.sprintf "g%d" s in
              let f = ota_out ~stages s in
              [
                Device.Vccs
                  { name = Printf.sprintf "gm%d" s; plus = g; minus = "0";
                    ctrl_plus = input; ctrl_minus = "0"; gm = ota_gm };
                Device.Resistor
                  { name = Printf.sprintf "rl%d" s; a = g; b = "0";
                    ohms = r ota_r };
                Device.Resistor
                  { name = Printf.sprintf "rf%d" s; a = g; b = f;
                    ohms = r ota_r };
                Device.Capacitor
                  { name = Printf.sprintf "cf%d" s; a = f; b = "0";
                    farads = c ota_c };
              ]))
  in
  Netlist.empty ~title:(Printf.sprintf "OTA cascade (%d stages)" stages)
  |> Fun.flip Netlist.add_all devices

let ota_cascade ~stages =
  if stages < 1 || stages > max_ota_stages then
    invalid_arg
      (Printf.sprintf "Filter_chain.ota_cascade: stages %d outside [1, %d]"
         stages max_ota_stages);
  {
    Macro.macro_name = Printf.sprintf "ota_cascade%d" stages;
    macro_type = "OTA-cascade";
    description =
      Printf.sprintf
        "%d-stage gm-RC cascade (gm = 100 uS into 10 kOhm, unity DC gain \
         per stage, RC post-filter)"
        stages;
    build = ota_build ~stages;
    fault_nodes = ota_fault_nodes ~stages;
    stimulus_source = "vin_src";
    observe_node = "out";
  }
