(** Circuit elements.

    Node names are free-form strings; ["0"] and ["gnd"] denote ground.
    Current-direction conventions:
    - a resistor/capacitor/inductor carries current from [a] to [b];
    - an independent current source drives current from [from_node]
      to [to_node] (it leaves [from_node] and enters [to_node]);
    - a voltage source's branch current flows from [plus] through the
      source to [minus];
    - a MOSFET's channel current [ids] flows from [drain] to [source]. *)

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

val name : t -> string

val nodes : t -> string list
(** All node names the device touches (with duplicates removed). *)

val is_ground : string -> bool
(** ["0"] and ["gnd"] (case-insensitive) are ground. *)

val has_branch_current : t -> bool
(** True for elements that add a branch-current unknown to the MNA system
    (voltage sources, VCVS, inductors). *)

val validate : t -> (unit, string) result
(** Structural checks: positive R/C/L values, positive MOS geometry,
    well-formed waveforms. *)

val to_spice : t -> string
(** One SPICE-deck-style line describing the device. *)
