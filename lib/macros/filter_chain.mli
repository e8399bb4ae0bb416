(** Large parametric filter-chain macro families.

    Two linear (MOSFET-free) chains sized for the sparse MNA backend:
    cascades deep enough to produce 100+-node netlists and bridge
    universes in the hundreds, while staying exactly solvable in one
    factorization: a linear plan ({!Circuit.Mna.linear}), whose
    workspace keeps its factorization across the DC levels and points
    of a fault ({!Circuit.Dc.solve}).

    Unknown counts: a Sallen-Key chain contributes 4 unknowns per stage
    (three nodes plus the buffer's branch current), an OTA cascade 2
    nodes per stage; both add the ["in"] node and the stimulus source's
    branch on top.  The DC transfer of either chain is unity in
    magnitude, so operating points remain in the stimulus range at any
    depth. *)

val max_stages : int
(** Upper bound on Sallen-Key [stages] (40 — a 162-unknown system). *)

val max_ota_stages : int
(** Upper bound on OTA-cascade [stages] (64 — a 130-unknown system). *)

val sk_fault_nodes : stages:int -> string list
(** Ground, ["in"], and every stage's buffered output. *)

val sk_build : stages:int -> Process.point -> Circuit.Netlist.t

val sk_chain : stages:int -> Macro.t
(** [macro_type = "SK-filter-chain"], stimulus ["vin_src"] at ["in"],
    observation ["out"]: [stages] second-order R-R-C1-C2 sections, each
    buffered by an ideal unity VCVS.
    @raise Invalid_argument when [stages] is outside [1, max_stages]. *)

val ota_fault_nodes : stages:int -> string list
(** Ground, ["in"], and stage outputs subsampled to about thirty sites
    (the final ["out"] always included), keeping the quadratic bridge
    universe in the hundreds at full depth. *)

val ota_build : stages:int -> Process.point -> Circuit.Netlist.t

val ota_cascade : stages:int -> Macro.t
(** [macro_type = "OTA-cascade"], stimulus ["vin_src"] at ["in"],
    observation ["out"]: [stages] transconductor stages (VCCS into a
    resistive load, RC post-filter), unity DC gain magnitude per stage.
    @raise Invalid_argument when [stages] is outside
    [1, max_ota_stages]. *)
