type t =
  | Resistor of { name : string; a : string; b : string; ohms : float }
  | Capacitor of { name : string; a : string; b : string; farads : float }
  | Inductor of { name : string; a : string; b : string; henries : float }
  | Vsource of {
      name : string;
      plus : string;
      minus : string;
      wave : Waveform.t;
    }
  | Isource of {
      name : string;
      from_node : string;
      to_node : string;
      wave : Waveform.t;
    }
  | Vcvs of {
      name : string;
      plus : string;
      minus : string;
      ctrl_plus : string;
      ctrl_minus : string;
      gain : float;
    }
  | Vccs of {
      name : string;
      plus : string;
      minus : string;
      ctrl_plus : string;
      ctrl_minus : string;
      gm : float;
    }
  | Mosfet of {
      name : string;
      drain : string;
      gate : string;
      source : string;
      model : Mos_model.t;
      w : float;
      l : float;
    }

let name = function
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Inductor { name; _ }
  | Vsource { name; _ }
  | Isource { name; _ }
  | Vcvs { name; _ }
  | Vccs { name; _ }
  | Mosfet { name; _ } -> name

let raw_nodes = function
  | Resistor { a; b; _ } | Capacitor { a; b; _ } | Inductor { a; b; _ } ->
      [ a; b ]
  | Vsource { plus; minus; _ } -> [ plus; minus ]
  | Isource { from_node; to_node; _ } -> [ from_node; to_node ]
  | Vcvs { plus; minus; ctrl_plus; ctrl_minus; _ }
  | Vccs { plus; minus; ctrl_plus; ctrl_minus; _ } ->
      [ plus; minus; ctrl_plus; ctrl_minus ]
  | Mosfet { drain; gate; source; _ } -> [ drain; gate; source ]

let nodes d = List.sort_uniq String.compare (raw_nodes d)

let is_ground n =
  match String.lowercase_ascii n with "0" | "gnd" -> true | _ -> false

let has_branch_current = function
  | Vsource _ | Vcvs _ | Inductor _ -> true
  | Resistor _ | Capacitor _ | Isource _ | Vccs _ | Mosfet _ -> false

let validate d =
  match d with
  | Resistor { ohms; name; _ } ->
      if ohms <= 0. then Error (name ^ ": resistance must be > 0") else Ok ()
  | Capacitor { farads; name; _ } ->
      if farads <= 0. then Error (name ^ ": capacitance must be > 0") else Ok ()
  | Inductor { henries; name; _ } ->
      if henries <= 0. then Error (name ^ ": inductance must be > 0") else Ok ()
  | Vsource { wave; name; _ } | Isource { wave; name; _ } -> begin
      match Waveform.validate wave with
      | Ok () -> Ok ()
      | Error e -> Error (name ^ ": " ^ e)
    end
  | Vcvs _ | Vccs _ -> Ok ()
  | Mosfet { w; l; name; _ } ->
      if w <= 0. || l <= 0. then Error (name ^ ": W and L must be > 0")
      else Ok ()

let to_spice d =
  let wv w = Format.asprintf "%a" Waveform.pp w in
  match d with
  | Resistor { name; a; b; ohms } ->
      Printf.sprintf "R%s %s %s %s" name a b (Units.format_eng ohms)
  | Capacitor { name; a; b; farads } ->
      Printf.sprintf "C%s %s %s %s" name a b (Units.format_eng farads)
  | Inductor { name; a; b; henries } ->
      Printf.sprintf "L%s %s %s %s" name a b (Units.format_eng henries)
  | Vsource { name; plus; minus; wave } ->
      Printf.sprintf "V%s %s %s %s" name plus minus (wv wave)
  | Isource { name; from_node; to_node; wave } ->
      Printf.sprintf "I%s %s %s %s" name from_node to_node (wv wave)
  | Vcvs { name; plus; minus; ctrl_plus; ctrl_minus; gain } ->
      Printf.sprintf "E%s %s %s %s %s %g" name plus minus ctrl_plus ctrl_minus
        gain
  | Vccs { name; plus; minus; ctrl_plus; ctrl_minus; gm } ->
      Printf.sprintf "G%s %s %s %s %s %g" name plus minus ctrl_plus ctrl_minus
        gm
  | Mosfet { name; drain; gate; source; model; w; l } ->
      Printf.sprintf "M%s %s %s %s %s W=%s L=%s" name drain gate source
        model.Mos_model.model_name (Units.format_eng w) (Units.format_eng l)
