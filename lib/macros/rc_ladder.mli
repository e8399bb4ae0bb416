(** Parametric passive RC low-pass ladder macro.

    A chain of [sections] identical R-C sections (R = 10 kOhm, C = 1 nF,
    per-section pole ~ 15.9 kHz) between the stimulus at ["in"] and the
    observation node ["out"].  Purely passive, so it solves fast and
    scales linearly in node count — the size knob the fuzz harness turns
    to sweep scenario complexity, and a macro whose fault universe
    (bridges over every ladder node) grows quadratically with
    [sections]. *)

val max_sections : int
(** Upper bound on [sections] (64), keeping fault universes tractable —
    the quadratic bridge dictionary, not the linear solve, is the cost
    that grows. *)

val fault_nodes : sections:int -> string list

val build : sections:int -> Process.point -> Circuit.Netlist.t

val macro : sections:int -> Macro.t
(** [macro_type = "RC-ladder"], stimulus ["vin_src"] at node ["in"],
    observation ["out"].
    @raise Invalid_argument when [sections] is outside [1, max_sections]. *)
