(* Reference assembly for the slot-table parity test: the per-stamp
   pattern search that {!Circuit.Mna.assemble_into} replaced with a slot
   table recorded once per sparse workspace.  The pattern is declared
   from the device list (every index pair a stamp can touch, ground
   dropped, plus the full diagonal), and every stamp finds its slot by
   binary search ({!Numerics.Smat.add_to}).  Devices stamp in netlist
   order with the library's expressions, so each slot receives the same
   additions in the same order: values and right-hand side must agree
   bit for bit. *)

open Circuit
open Numerics

let index sys n =
  match Mna.node_index sys n with Some i -> i | None -> -1

let pattern sys =
  let acc = ref [] in
  let p i j = if i >= 0 && j >= 0 then acc := (i, j) :: !acc in
  let conductance i j =
    p i i;
    p j j;
    p i j;
    p j i
  in
  for i = 0 to Mna.size sys - 1 do
    p i i
  done;
  let node = index sys in
  List.iter
    (fun d ->
      match d with
      | Device.Resistor { a; b; _ } | Device.Capacitor { a; b; _ } ->
          conductance (node a) (node b)
      | Device.Inductor { name; a; b; _ } ->
          let i = node a and j = node b and br = Mna.branch_index sys name in
          p i br;
          p j br;
          p br i;
          p br j;
          p br br
      | Device.Vsource { name; plus; minus; _ } ->
          let i = node plus and j = node minus in
          let br = Mna.branch_index sys name in
          p i br;
          p j br;
          p br i;
          p br j
      | Device.Isource _ -> ()
      | Device.Vcvs { name; plus; minus; ctrl_plus; ctrl_minus; _ } ->
          let i = node plus and j = node minus in
          let br = Mna.branch_index sys name in
          p i br;
          p j br;
          p br i;
          p br j;
          p br (node ctrl_plus);
          p br (node ctrl_minus)
      | Device.Vccs { plus; minus; ctrl_plus; ctrl_minus; _ } ->
          let i = node plus and j = node minus in
          let cp = node ctrl_plus and cn = node ctrl_minus in
          p i cp;
          p i cn;
          p j cp;
          p j cn
      | Device.Mosfet { drain; gate; source; _ } ->
          let di = node drain and gi = node gate and si = node source in
          p di gi;
          p di di;
          p di si;
          p si gi;
          p si di;
          p si si)
    (Netlist.devices (Mna.netlist sys));
  !acc

(* The system [Mna.assemble_into] builds, on a matrix with [pattern]'s
   slots: the values in CSR order, and the right-hand side. *)
let assemble sys ~x ~time ?companions ?(source_scale = 1.) ?restamp ~gmin () =
  let m = Smat.create (Mna.size sys) (pattern sys) in
  let z = Vec.create (Mna.size sys) 0. in
  let stamp i j v = if i >= 0 && j >= 0 then Smat.add_to m i j v in
  let inject i v = if i >= 0 then z.(i) <- z.(i) +. v in
  let volt i = if i < 0 then 0. else x.(i) in
  let wave_value w =
    match time with
    | `Dc -> Waveform.dc_value w
    | `Time t -> Waveform.value w t
  in
  let conductance i j g =
    stamp i i g;
    stamp j j g;
    stamp i j (-.g);
    stamp j i (-.g)
  in
  for i = 0 to Mna.n_nodes sys - 1 do
    Smat.add_to m i i gmin
  done;
  let node = index sys in
  List.iteri
    (fun k d ->
      match d with
      | Device.Resistor { name; a; b; ohms } ->
          conductance (node a) (node b)
            (1. /. Mna.restamp_ohms restamp name ohms)
      | Device.Capacitor { a; b; _ } -> begin
          match companions with
          | Some c ->
              let i = node a and j = node b in
              let geq = c.(2 * k) and ieq = c.((2 * k) + 1) in
              conductance i j geq;
              inject i ieq;
              inject j (-.ieq)
          | None -> ()
        end
      | Device.Inductor { name; a; b; _ } -> begin
          let i = node a and j = node b and br = Mna.branch_index sys name in
          stamp i br 1.;
          stamp j br (-1.);
          stamp br i 1.;
          stamp br j (-1.);
          match companions with
          | Some c ->
              let req = c.(2 * k) and veq = c.((2 * k) + 1) in
              Smat.add_to m br br (-.req);
              z.(br) <- z.(br) +. veq
          | None -> ()
        end
      | Device.Vsource { name; plus; minus; wave } ->
          let i = node plus and j = node minus in
          let br = Mna.branch_index sys name in
          let wave = Mna.restamp_wave restamp name wave in
          stamp i br 1.;
          stamp j br (-1.);
          stamp br i 1.;
          stamp br j (-1.);
          z.(br) <- z.(br) +. (source_scale *. wave_value wave)
      | Device.Isource { name; from_node; to_node; wave } ->
          let wave = Mna.restamp_wave restamp name wave in
          let value = source_scale *. wave_value wave in
          inject (node from_node) (-.value);
          inject (node to_node) value
      | Device.Vcvs { name; plus; minus; ctrl_plus; ctrl_minus; gain } ->
          let i = node plus and j = node minus in
          let br = Mna.branch_index sys name in
          stamp i br 1.;
          stamp j br (-1.);
          stamp br i 1.;
          stamp br j (-1.);
          stamp br (node ctrl_plus) (-.gain);
          stamp br (node ctrl_minus) gain
      | Device.Vccs { plus; minus; ctrl_plus; ctrl_minus; gm; _ } ->
          let i = node plus and j = node minus in
          let cp = node ctrl_plus and cn = node ctrl_minus in
          stamp i cp gm;
          stamp i cn (-.gm);
          stamp j cp (-.gm);
          stamp j cn gm
      | Device.Mosfet { drain; gate; source; model; w; l; _ } ->
          let di = node drain and gi = node gate and si = node source in
          let vd = volt di and vg = volt gi and vs = volt si in
          let op = Mos_model.eval model ~w ~l ~vg ~vd ~vs in
          let i0 =
            op.Mos_model.ids -. (op.Mos_model.d_gate *. vg)
            -. (op.Mos_model.d_drain *. vd) -. (op.Mos_model.d_source *. vs)
          in
          stamp di gi op.Mos_model.d_gate;
          stamp di di op.Mos_model.d_drain;
          stamp di si op.Mos_model.d_source;
          stamp si gi (-.op.Mos_model.d_gate);
          stamp si di (-.op.Mos_model.d_drain);
          stamp si si (-.op.Mos_model.d_source);
          inject di (-.i0);
          inject si i0)
    (Netlist.devices (Mna.netlist sys));
  (m, z)
