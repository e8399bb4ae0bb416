type polarity = Nmos | Pmos

type t = {
  model_name : string;
  polarity : polarity;
  vt0 : float;
  kp : float;
  lambda : float;
}

let nmos_default =
  { model_name = "nmos1"; polarity = Nmos; vt0 = 0.7; kp = 120e-6; lambda = 0.05 }

let pmos_default =
  { model_name = "pmos1"; polarity = Pmos; vt0 = -0.8; kp = 40e-6; lambda = 0.08 }

let with_variation m ~dvt0 ~dkp ~dlambda =
  {
    m with
    vt0 = m.vt0 *. (1. +. dvt0);
    kp = m.kp *. (1. +. dkp);
    lambda = m.lambda *. (1. +. dlambda);
  }

type operating_point = {
  ids : float;
  d_gate : float;
  d_drain : float;
  d_source : float;
  region : [ `Cutoff | `Triode | `Saturation ];
}

(* The kernel works in a caller-owned float array so that no float
   crosses a function boundary boxed and no tuple or record is built:
   [eval_into] reads vg, vd, vs from slots 0-2 and leaves ids and its
   partials with respect to (vg, vd, vs) in slots 0-3. *)

(* NMOS square law in the normal frame: vds >= 0.
   Writes (id, d id/d vgs, d id/d vds) into o.(0..2), returns the region. *)
let[@inline] nmos_normal o ~beta ~vt ~lambda ~vgs ~vds =
  let vgst = vgs -. vt in
  if vgst <= 0. then begin
    o.(0) <- 0.;
    o.(1) <- 0.;
    o.(2) <- 0.;
    `Cutoff
  end
  else begin
    let clm = 1. +. (lambda *. vds) in
    if vds < vgst then begin
      (* triode *)
      let core = (vgst *. vds) -. (0.5 *. vds *. vds) in
      o.(0) <- beta *. core *. clm;
      o.(1) <- beta *. vds *. clm;
      o.(2) <- beta *. (((vgst -. vds) *. clm) +. (core *. lambda));
      `Triode
    end
    else begin
      let core = 0.5 *. vgst *. vgst in
      o.(0) <- beta *. core *. clm;
      o.(1) <- beta *. vgst *. clm;
      o.(2) <- beta *. core *. lambda;
      `Saturation
    end
  end

(* NMOS channel current from pin D to pin S at absolute voltages,
   handling drain/source inversion.  Writes the current and its partials
   with respect to (vg, vd, vs) into o.(0..3). *)
let[@inline] nmos_channel o ~beta ~vt ~lambda ~vg ~vd ~vs =
  if vd >= vs then begin
    let region =
      nmos_normal o ~beta ~vt ~lambda ~vgs:(vg -. vs) ~vds:(vd -. vs)
    in
    let gm = o.(1) and gds = o.(2) in
    o.(3) <- -.gm -. gds;
    region
  end
  else begin
    (* inverted: physical source is the D pin *)
    let region =
      nmos_normal o ~beta ~vt ~lambda ~vgs:(vg -. vd) ~vds:(vs -. vd)
    in
    (* current from pin D to pin S is -id; partials by the chain rule *)
    let id = o.(0) and gm = o.(1) and gds = o.(2) in
    o.(0) <- -.id;
    o.(1) <- -.gm;
    o.(2) <- gm +. gds;
    o.(3) <- -.gds;
    region
  end

let eval_into m ~w ~l o =
  if w <= 0. || l <= 0. then invalid_arg "Mos_model.eval: w, l must be > 0";
  if Array.length o < 4 then invalid_arg "Mos_model.eval_into: short buffer";
  let beta = m.kp *. w /. l in
  let vg = o.(0) and vd = o.(1) and vs = o.(2) in
  match m.polarity with
  | Nmos -> nmos_channel o ~beta ~vt:m.vt0 ~lambda:m.lambda ~vg ~vd ~vs
  | Pmos ->
      (* mirror: I_p(vg, vd, vs) = -I_n(-vg, -vd, -vs) with vt_n = -vt0.
         The partials keep their sign through the double negation. *)
      let region =
        nmos_channel o ~beta ~vt:(-.m.vt0) ~lambda:m.lambda ~vg:(-.vg)
          ~vd:(-.vd) ~vs:(-.vs)
      in
      o.(0) <- -.o.(0);
      region

let eval m ~w ~l ~vg ~vd ~vs =
  let o = [| vg; vd; vs; 0. |] in
  let region = eval_into m ~w ~l o in
  { ids = o.(0); d_gate = o.(1); d_drain = o.(2); d_source = o.(3); region }
