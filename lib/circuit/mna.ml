open Numerics

(* A device with its matrix indices resolved at build time (-1 encodes
   ground).  Assembly over this "stamp plan" performs the same float
   operations in the same order as stamping straight off the device
   list, but without any per-iteration name hashing — the compile phase
   of the compile-once/restamp-many hot path. *)
type rstamp =
  | R_resistor of { name : string; i : int; j : int; ohms : float }
  | R_capacitor of { name : string; i : int; j : int }
  | R_inductor of { name : string; i : int; j : int; br : int }
  | R_vsource of { name : string; i : int; j : int; br : int; wave : Waveform.t }
  | R_isource of { name : string; i : int; j : int; wave : Waveform.t }
  | R_vcvs of { i : int; j : int; cp : int; cn : int; br : int; gain : float }
  | R_vccs of { i : int; j : int; cp : int; cn : int; gm : float }
  | R_mosfet of {
      di : int;
      gi : int;
      si : int;
      model : Mos_model.t;
      w : float;
      l : float;
    }

(* Linear-algebra backend of a compiled topology.  Both factorize with
   the same pivot rule and per-entry update sequence ({!Smat} skips only
   structurally-zero work), so detect verdicts and session bytes are
   bit-identical across backends — the backend is a pure time/space
   trade, invisible to results. *)
type backend = Dense | Sparse

type t = {
  netlist : Netlist.t;
  node_tbl : (string, int) Hashtbl.t;  (* non-ground nodes -> 0..n-1 *)
  branch_tbl : (string, int) Hashtbl.t;  (* device name -> absolute index *)
  n_nodes : int;
  size : int;
  device_array : Device.t array;
  stamp_plan : rstamp array;
  backend : backend;
  linear : bool;
}

(* Above this node count the sparse backend wins: a dense factorization
   pays O(n^3) per Newton step for a matrix that is almost all structural
   zeros.  Below it dense wins (the 10-node IV-converter) or the gap is a
   fraction of a second per run, so small netlists stay dense. *)
let sparse_above_nodes = 24

(* Whether a stamp reads the iterate: only a MOSFET's Newton companion
   does.  No wildcard, so a new device kind must be classified here. *)
let reads_iterate = function
  | R_mosfet _ -> true
  | R_resistor _ | R_capacitor _ | R_inductor _ | R_vsource _ | R_isource _
  | R_vcvs _ | R_vccs _ ->
      false

let build ?backend nl =
  (match Netlist.connectivity_check nl with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mna.build: " ^ e));
  let node_tbl = Hashtbl.create 32 in
  List.iteri (fun i n -> Hashtbl.replace node_tbl n i) (Netlist.nodes nl);
  let n_nodes = Hashtbl.length node_tbl in
  let backend =
    match backend with
    | Some b -> b
    | None -> if n_nodes > sparse_above_nodes then Sparse else Dense
  in
  let branch_tbl = Hashtbl.create 8 in
  let next = ref n_nodes in
  List.iter
    (fun d ->
      if Device.has_branch_current d then begin
        Hashtbl.replace branch_tbl (Device.name d) !next;
        incr next
      end)
    (Netlist.devices nl);
  let node n =
    if Device.is_ground n then -1
    else
      match Hashtbl.find_opt node_tbl n with
      | Some i -> i
      | None -> raise Not_found
  in
  let resolve d =
    match d with
    | Device.Resistor { name; a; b; ohms } ->
        R_resistor { name; i = node a; j = node b; ohms }
    | Device.Capacitor { name; a; b; _ } ->
        R_capacitor { name; i = node a; j = node b }
    | Device.Inductor { name; a; b; _ } ->
        R_inductor { name; i = node a; j = node b; br = Hashtbl.find branch_tbl name }
    | Device.Vsource { name; plus; minus; wave } ->
        R_vsource
          { name; i = node plus; j = node minus;
            br = Hashtbl.find branch_tbl name; wave }
    | Device.Isource { name; from_node; to_node; wave } ->
        R_isource { name; i = node from_node; j = node to_node; wave }
    | Device.Vcvs { name; plus; minus; ctrl_plus; ctrl_minus; gain } ->
        R_vcvs
          { i = node plus; j = node minus; cp = node ctrl_plus;
            cn = node ctrl_minus; br = Hashtbl.find branch_tbl name; gain }
    | Device.Vccs { plus; minus; ctrl_plus; ctrl_minus; gm; _ } ->
        R_vccs
          { i = node plus; j = node minus; cp = node ctrl_plus;
            cn = node ctrl_minus; gm }
    | Device.Mosfet { drain; gate; source; model; w; l; _ } ->
        R_mosfet { di = node drain; gi = node gate; si = node source; model; w; l }
  in
  let device_array = Array.of_list (Netlist.devices nl) in
  let stamp_plan = Array.map resolve device_array in
  {
    netlist = nl;
    node_tbl;
    branch_tbl;
    n_nodes;
    size = !next;
    device_array;
    stamp_plan;
    backend;
    linear = not (Array.exists reads_iterate stamp_plan);
  }

let netlist t = t.netlist
let backend t = t.backend
let linear t = t.linear
let backend_name = function Dense -> "dense" | Sparse -> "sparse"
let n_nodes t = t.n_nodes
let size t = t.size

let node_index t n =
  if Device.is_ground n then None
  else
    match Hashtbl.find_opt t.node_tbl n with
    | Some i -> Some i
    | None -> raise Not_found

let voltage t x n =
  match node_index t n with None -> 0. | Some i -> x.(i)

let branch_index t name =
  match Hashtbl.find_opt t.branch_tbl name with
  | Some i -> i
  | None -> raise Not_found

let branch_current t x name = x.(branch_index t name)

(* Companion values of the reactive elements, two slots per plan entry:
   slots [2k] and [2k+1] hold (geq, ieq) when plan entry [k] is a
   capacitor and (req, veq) when it is an inductor.  Position-keyed, so
   stamping reads them without a name lookup. *)
let companion_slots t = 2 * Array.length t.stamp_plan

let companion_slot t name =
  let rec find k =
    if k = Array.length t.stamp_plan then raise Not_found
    else
      match t.stamp_plan.(k) with
      | (R_capacitor { name = n; _ } | R_inductor { name = n; _ })
        when String.equal n name ->
          2 * k
      | _ -> find (k + 1)
  in
  find 0

type source_time = [ `Dc | `Time of float ]

(* Value-phase overrides: a compiled topology is assembled with the
   probe's stimulus wave and fault-impact resistance substituted at stamp
   time, instead of rewriting the netlist and re-indexing it.  The stamp
   sequence is unchanged, so the assembled system is bit-identical to
   one built from a netlist that carries the overridden values. *)
type restamp = {
  stimulus : (string * Waveform.t) option;
  impact : (string * float) option;
}

let[@inline] restamp_wave restamp name wave =
  match restamp with
  | Some { stimulus = Some (s, w); _ } when String.equal s name -> w
  | Some _ | None -> wave

let[@inline] restamp_ohms restamp name ohms =
  match restamp with
  | Some { impact = Some (d, r); _ } when String.equal d name -> r
  | Some _ | None -> ohms

let[@inline] wave_value time w =
  match time with
  | `Dc -> Waveform.dc_value w
  | `Time t -> Waveform.value w t

(* index helpers: -1 encodes ground *)
let idx t n =
  if Device.is_ground n then -1
  else
    match Hashtbl.find_opt t.node_tbl n with
    | Some i -> i
    | None -> raise Not_found

let[@inline] inject z i v = if i >= 0 then z.(i) <- z.(i) +. v
let[@inline] volt x i = if i < 0 then 0. else x.(i)

(* What a recording sink saw: every stamp's (row, column), most recent
   first, and at each group mark the number of stamps before it. *)
type recorder = {
  mutable stamps : (int * int) list;
  mutable count : int;
  marks : int array;
}

(* Where stamps accumulate.  Assembly is a sequence of groups — group 0
   is the gmin diagonal, group [k + 1] plan entry [k] — and
   [sink_seek] opens each one.  The dense arm writes the row-major
   storage of a {!Mat.t} at [i*n+j].  The sparse arm writes the value
   slot its workspace recorded for this stamp: [slots] lists the slot of
   every stamp of a recorded assembly, [bases] where each group starts
   in it, and [cur] is the next stamp — the same additions in the same
   order as a per-stamp pattern search, without the search.  The
   recording arm notes each stamp's (row, column); it is run once per
   sparse workspace.  A value rather than an [add] closure, so that
   with the helpers below inlined no stamp boxes its float.  The dense
   arm indexes unchecked: [i] and [j] come from the resolved plan
   (unknowns below [size], ground filtered out by [stamp]), and a dense
   sink is only ever made over a [size] x [size] matrix — [assemble]
   creates one, [assemble_into] checks the workspace's size first. *)
type sink =
  | S_dense of { data : float array; n : int }
  | S_sparse of {
      vx : float array;
      slots : int array;
      bases : int array;
      mutable cur : int;
      plan : rstamp array;  (* the plan the slots were recorded from *)
    }
  | S_record of recorder

let[@inline] sink_seek s g =
  match s with
  | S_dense _ -> ()
  | S_sparse r -> r.cur <- r.bases.(g)
  | S_record r -> r.marks.(g) <- r.count

let[@inline] sink_add s i j v =
  match s with
  | S_dense { data; n } ->
      let k = (i * n) + j in
      Array.unsafe_set data k (Array.unsafe_get data k +. v)
  | S_sparse r ->
      let k = r.slots.(r.cur) in
      r.cur <- r.cur + 1;
      r.vx.(k) <- r.vx.(k) +. v
  | S_record r ->
      r.stamps <- (i, j) :: r.stamps;
      r.count <- r.count + 1

let[@inline] stamp s i j v = if i >= 0 && j >= 0 then sink_add s i j v

let[@inline] stamp_conductance s i j g =
  stamp s i i g;
  stamp s j j g;
  stamp s i j (-.g);
  stamp s j i (-.g)

(* Stamping walks the resolved plan in device order — the same float
   operations, in the same order, as stamping straight off the device
   records, so the assembled system is bit-identical whichever value
   overrides are active.  Both backends go through [sink_add], which is
   what keeps them on one stamp sequence.  Each plan entry seeks its
   group first: without companions a capacitor stamps nothing and an
   inductor one stamp fewer than recorded, and the seek keeps the
   entries after them on their own slots.  [mos] is the 4-slot scratch
   {!Mos_model.eval_into} works in. *)
let assemble_core t ~sink ~mos ~z ~x ~time ~companions ~source_scale ~restamp
    ~gmin =
  sink_seek sink 0;
  for i = 0 to t.n_nodes - 1 do
    sink_add sink i i gmin
  done;
  let plan = t.stamp_plan in
  for k = 0 to Array.length plan - 1 do
    sink_seek sink (k + 1);
    match plan.(k) with
    | R_resistor { name; i; j; ohms } ->
        let ohms = restamp_ohms restamp name ohms in
        stamp_conductance sink i j (1. /. ohms)
    | R_capacitor { i; j; _ } -> begin
        match companions with
        | Some c ->
            let geq = c.(2 * k) and ieq = c.((2 * k) + 1) in
            stamp_conductance sink i j geq;
            inject z i ieq;
            inject z j (-.ieq)
        | None -> ()  (* open in DC *)
      end
    | R_inductor { i; j; br; _ } -> begin
        (* branch current contribution to KCL *)
        stamp sink i br 1.;
        stamp sink j br (-1.);
        (* branch equation: va - vb - req*i = veq (req = 0 in DC) *)
        stamp sink br i 1.;
        stamp sink br j (-1.);
        match companions with
        | Some c ->
            let req = c.(2 * k) and veq = c.((2 * k) + 1) in
            sink_add sink br br (-.req);
            z.(br) <- z.(br) +. veq
        | None -> ()
      end
    | R_vsource { name; i; j; br; wave } ->
        let wave = restamp_wave restamp name wave in
        stamp sink i br 1.;
        stamp sink j br (-1.);
        stamp sink br i 1.;
        stamp sink br j (-1.);
        z.(br) <- z.(br) +. (source_scale *. wave_value time wave)
    | R_isource { name; i; j; wave } ->
        let wave = restamp_wave restamp name wave in
        let value = source_scale *. wave_value time wave in
        inject z i (-.value);
        inject z j value
    | R_vcvs { i; j; cp; cn; br; gain } ->
        stamp sink i br 1.;
        stamp sink j br (-1.);
        stamp sink br i 1.;
        stamp sink br j (-1.);
        stamp sink br cp (-.gain);
        stamp sink br cn gain
    | R_vccs { i; j; cp; cn; gm } ->
        stamp sink i cp gm;
        stamp sink i cn (-.gm);
        stamp sink j cp (-.gm);
        stamp sink j cn gm
    | R_mosfet { di; gi; si; model; w; l } ->
        let vd = volt x di and vg = volt x gi and vs = volt x si in
        mos.(0) <- vg;
        mos.(1) <- vd;
        mos.(2) <- vs;
        let (_ : [ `Cutoff | `Triode | `Saturation ]) =
          Mos_model.eval_into model ~w ~l mos
        in
        let ids = mos.(0)
        and d_gate = mos.(1)
        and d_drain = mos.(2)
        and d_source = mos.(3) in
        (* Newton companion: ids ~ i0 + dG*vg + dD*vd + dS*vs *)
        let i0 =
          ids -. (d_gate *. vg) -. (d_drain *. vd) -. (d_source *. vs)
        in
        stamp sink di gi d_gate;
        stamp sink di di d_drain;
        stamp sink di si d_source;
        stamp sink si gi (-.d_gate);
        stamp sink si di (-.d_drain);
        stamp sink si si (-.d_source);
        inject z di (-.i0);
        inject z si i0
  done

(* The backend's system-matrix and factorization state, paired so a
   mismatch cannot be constructed through {!workspace}. *)
type engine =
  | E_dense of { ea : Mat.t; elu : Mat.lu }
  | E_sparse of { es : Smat.t; eslu : Smat.lu }

(* State the solvers layered on this module keep per workspace (the DC
   operating-point memo); opaque here. *)
type solver_state = ..
type solver_state += No_solver_state

(* Preallocated per-analysis solve state: system matrix, right-hand
   side, LU workspace, and the two Newton iterate buffers.  One
   workspace is owned by exactly one running analysis at a time — under
   parallel execution each domain compiles (or forks) its own. *)
type workspace = {
  w_size : int;
  w_eng : engine;
  w_sink : sink;  (* stamping view of the engine's system matrix *)
  w_mos : float array;  (* MOSFET evaluation scratch *)
  w_z : Vec.t;
  mutable w_x : Vec.t;
  mutable w_x_new : Vec.t;
  mutable w_solver : solver_state;
  mutable w_samples : float array list;
      (* transient observation buffers, one per length, most recently
         created first *)
  w_snapshot : float array;
      (* the matrix values the held factorization was made from *)
  mutable w_held : bool;
}

let matrix_values = function
  | E_dense { ea; _ } -> Mat.data ea
  | E_sparse { es; _ } -> Smat.values es

let dense_sink a = S_dense { data = Mat.data a; n = Mat.cols a }

(* The symbolic half of the sparse backend, made once per workspace:
   assemble once through a recording sink, with companions so that every
   capacitor and inductor stamps all it can — a companion-free assembly
   stamps a prefix of each entry's group.  The recorded (row, column)
   pairs plus the full diagonal are the matrix pattern: gmin lands on
   the node diagonal, and branch rows need their structurally-zero
   diagonal present so sparse elimination visits the same slots dense
   partial pivoting can reach.  Each recorded stamp is then resolved to
   its value slot, once. *)
let sparse_engine t =
  let marks = Array.make (Array.length t.stamp_plan + 1) 0 in
  let r = { stamps = []; count = 0; marks } in
  assemble_core t ~sink:(S_record r) ~mos:(Array.make 4 0.)
    ~z:(Vec.create t.size 0.) ~x:(Vec.create t.size 0.) ~time:`Dc
    ~companions:(Some (Array.make (companion_slots t) 0.)) ~source_scale:1.
    ~restamp:None ~gmin:0.;
  let stamps = List.rev r.stamps in
  let es = Smat.create t.size (List.init t.size (fun i -> (i, i)) @ stamps) in
  let slots =
    Array.of_list (List.map (fun (i, j) -> Smat.slot es i j) stamps)
  in
  ( E_sparse { es; eslu = Smat.lu_workspace t.size },
    S_sparse
      { vx = Smat.values es; slots; bases = marks; cur = 0; plan = t.stamp_plan }
  )

let workspace t =
  let w_eng, w_sink =
    match t.backend with
    | Dense ->
        let ea = Mat.create t.size t.size in
        (E_dense { ea; elu = Mat.lu_workspace t.size }, dense_sink ea)
    | Sparse -> sparse_engine t
  in
  {
    w_size = t.size;
    w_eng;
    w_sink;
    w_mos = Array.make 4 0.;
    w_z = Vec.create t.size 0.;
    w_x = Vec.create t.size 0.;
    w_x_new = Vec.create t.size 0.;
    w_solver = No_solver_state;
    w_samples = [];
    w_snapshot = Array.copy (matrix_values w_eng);
    w_held = false;
  }

(* A simulation's length is fixed by its configuration and profile, so
   a workspace meets few distinct lengths; keeping the last few bounds
   the buffers whatever a caller does. *)
let max_sample_buffers = 4

let sample_buffer ws len =
  match List.find_opt (fun b -> Array.length b = len) ws.w_samples with
  | Some b -> b
  | None ->
      let b = Array.make len 0. in
      ws.w_samples <-
        b :: List.filteri (fun i _ -> i < max_sample_buffers - 1) ws.w_samples;
      b

let ws_matrix ws = matrix_values ws.w_eng

(* Both backends factor a copy of the matrix, so the snapshot could be
   taken after factoring too; taking it first keeps [w_held] false
   until a factorization of exactly those values has completed, and a
   [Singular] leaves it false. *)
let ws_factor ?(hold = false) ws =
  ws.w_held <- false;
  if hold then begin
    let a = ws_matrix ws in
    Array.blit a 0 ws.w_snapshot 0 (Array.length a)
  end;
  let reused =
    match ws.w_eng with
    | E_dense { ea; elu } ->
        Mat.factor_in_place ea elu;
        false
    | E_sparse { es; eslu } ->
        (* numeric replay on the held pattern when the pivot guard
           admits it; the fallback is the full symbolic pass.  Both
           produce the same factorization bit for bit, so which one ran
           is observable only through the stats. *)
        if Smat.refactor es eslu then true
        else begin
          Smat.factor_in_place es eslu;
          false
        end
  in
  ws.w_held <- hold;
  reused

(* Bits, not [=]: [-0. = 0.], yet factors made from one need not carry
   the other's bits. *)
let ws_holds ws =
  ws.w_held
  &&
  let a = ws_matrix ws and h = ws.w_snapshot in
  let i = ref 0 in
  while
    !i < Array.length a
    && Int64.bits_of_float (Array.unsafe_get a !i)
       = Int64.bits_of_float (Array.unsafe_get h !i)
  do
    incr i
  done;
  !i = Array.length a

let ws_solve_into ws b x =
  match ws.w_eng with
  | E_dense { elu; _ } -> Mat.solve_into elu b x
  | E_sparse { eslu; _ } -> Smat.solve_into eslu b x

let check_companions t = function
  | Some c when Array.length c <> companion_slots t ->
      invalid_arg "Mna.assemble: companion array size"
  | Some _ | None -> ()

let assemble t ~x ~time ?companions ?(source_scale = 1.) ?restamp ~gmin () =
  if Vec.dim x <> t.size then invalid_arg "Mna.assemble: bad iterate size";
  check_companions t companions;
  let a = Mat.create t.size t.size in
  let z = Vec.create t.size 0. in
  assemble_core t ~sink:(dense_sink a) ~mos:(Array.make 4 0.) ~z ~x ~time
    ~companions ~source_scale ~restamp ~gmin;
  (a, z)

let assemble_into t ws ~x ~time ?companions ?(source_scale = 1.) ?restamp ~gmin
    () =
  if Vec.dim x <> t.size then invalid_arg "Mna.assemble_into: bad iterate size";
  if ws.w_size <> t.size then invalid_arg "Mna.assemble_into: workspace size";
  (match ws.w_sink with
  | S_sparse { plan; _ } when plan != t.stamp_plan ->
      invalid_arg "Mna.assemble_into: sparse workspace of another plan"
  | S_sparse _ | S_dense _ | S_record _ -> ());
  check_companions t companions;
  (match ws.w_eng with
  | E_dense { ea; _ } -> Mat.fill ea 0.
  | E_sparse { es; _ } -> Smat.clear es);
  Array.fill ws.w_z 0 (Vec.dim ws.w_z) 0.;
  assemble_core t ~sink:ws.w_sink ~mos:ws.w_mos ~z:ws.w_z ~x ~time ~companions
    ~source_scale ~restamp ~gmin

(* The inputs an operating point depends on besides the topology and
   the fixed device values: every independent source's value at [time]
   as the restamp substitutes it, in plan order, then the plan position
   of the resistor the restamp's impact overrides (-1 for none) and its
   resistance (0 for none). *)
let op_inputs t =
  Array.fold_left
    (fun n r ->
      match r with
      | R_vsource _ | R_isource _ -> n + 1
      | R_resistor _ | R_capacitor _ | R_inductor _ | R_vcvs _ | R_vccs _
      | R_mosfet _ -> n)
    2 t.stamp_plan

let op_inputs_into t ~time ?restamp buf =
  let n = Array.length buf in
  if n <> op_inputs t then invalid_arg "Mna.op_inputs_into: buffer size";
  buf.(n - 2) <- -1.;
  buf.(n - 1) <- 0.;
  let slot = ref 0 in
  let plan = t.stamp_plan in
  for k = 0 to Array.length plan - 1 do
    match plan.(k) with
    | R_vsource { name; wave; _ } | R_isource { name; wave; _ } ->
        buf.(!slot) <- wave_value time (restamp_wave restamp name wave);
        incr slot
    | R_resistor { name; _ } -> begin
        match restamp with
        | Some { impact = Some (d, r); _ }
          when String.equal d name && buf.(n - 2) < 0. ->
            buf.(n - 2) <- float_of_int k;
            buf.(n - 1) <- r
        | Some _ | None -> ()
      end
    | R_capacitor _ | R_inductor _ | R_vcvs _ | R_vccs _ | R_mosfet _ -> ()
  done

let mosfet_operating_points t ~x =
  Array.to_list t.device_array
  |> List.filter_map (fun d ->
         match d with
         | Device.Mosfet { name; drain; gate; source; model; w; l } ->
             let vd = volt x (idx t drain)
             and vg = volt x (idx t gate)
             and vs = volt x (idx t source) in
             Some (name, Mos_model.eval model ~w ~l ~vg ~vd ~vs)
         | Device.Resistor _ | Device.Capacitor _ | Device.Inductor _
         | Device.Vsource _ | Device.Isource _ | Device.Vcvs _
         | Device.Vccs _ -> None)
