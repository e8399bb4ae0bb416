(* Parity suite for the sparse backend.

   The load-bearing property is stronger than tolerance agreement: the
   sparse factorization replicates the dense pivot rule and update
   sequence, so factors, solves and Singular payloads are
   bit-identical to [Mat] on any pattern.  The QCheck properties pin
   that bitwise, on randomized MNA-shaped systems (node conductance
   blocks plus zero-diagonal branch rows, which force pivoting); the
   1e-10 agreement of a tolerance check follows a fortiori.  The
   numeric refactorization is checked bitwise against a fresh factor,
   on the matrix it was compiled for and on one it compiles for on
   demand. *)

open Numerics

let bits = Int64.bits_of_float

let vec_bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if bits x <> bits b.(i) then ok := false) a;
      !ok)

(* A randomized MNA-shaped system: [nodes] voltage unknowns carrying a
   tiny gmin diagonal plus random two-terminal conductance stamps (some
   terminals grounded), and [branches] voltage-source rows with the
   classic +-1 incidence stamps and a structurally zero diagonal.  The
   same stamp sequence is replayed into a dense matrix and a sparse one,
   so the two hold identical values over the identical pattern. *)
let random_mna_pair rng ~nodes ~branches =
  let n = nodes + branches in
  let stamps = ref [] in
  let add i j v = stamps := (i, j, v) :: !stamps in
  for i = 0 to nodes - 1 do
    add i i 1e-12
  done;
  for _ = 1 to 2 * nodes do
    let i = Rng.int rng ~bound:(nodes + 1) - 1 in
    let j = Rng.int rng ~bound:(nodes + 1) - 1 in
    if i <> j then begin
      let g = Rng.uniform rng ~lo:0.1 ~hi:10. in
      if i >= 0 then add i i g;
      if j >= 0 then add j j g;
      if i >= 0 && j >= 0 then begin
        add i j (-.g);
        add j i (-.g)
      end
    end
  done;
  for b = 0 to branches - 1 do
    let br = nodes + b in
    let i = Rng.int rng ~bound:nodes in
    let j = Rng.int rng ~bound:(nodes + 1) - 1 in
    add i br 1.;
    add br i 1.;
    if j >= 0 && j <> i then begin
      add j br (-1.);
      add br j (-1.)
    end
  done;
  let stamps = List.rev !stamps in
  let dense = Mat.create n n in
  List.iter (fun (i, j, v) -> Mat.add_to dense i j v) stamps;
  let pattern = List.map (fun (i, j, _) -> (i, j)) stamps in
  (* the MNA plan compiles the full diagonal into the pattern *)
  let pattern = List.init n (fun i -> (i, i)) @ pattern in
  let sparse = Smat.create n pattern in
  List.iter (fun (i, j, v) -> Smat.add_to sparse i j v) stamps;
  (dense, sparse)

let random_rhs rng n = Array.init n (fun _ -> Rng.uniform rng ~lo:(-5.) ~hi:5.)

let size_gen = QCheck.(pair (pair (int_range 2 14) (int_range 0 4)) (int_range 0 20_000))

(* Outcome of a factor+solve through either backend: either the solved
   vector or the Singular payload, compared structurally. *)
let dense_outcome a b =
  let n = Mat.rows a in
  let ws = Mat.lu_workspace n in
  match Mat.factor_in_place a ws with
  | exception Mat.Singular k -> Error k
  | () ->
      let x = Vec.create n 0. in
      Mat.solve_into ws b x;
      Ok x

let sparse_outcome a b =
  let n = Smat.size a in
  let ws = Smat.lu_workspace n in
  match Smat.factor_in_place a ws with
  | exception Mat.Singular k -> Error k
  | () ->
      let x = Vec.create n 0. in
      Smat.solve_into ws b x;
      Ok x

let prop_factor_solve_parity =
  QCheck.Test.make
    ~name:"Smat factor/solve bit-identical to Mat on MNA patterns"
    ~count:300 size_gen
    (fun ((nodes, branches), seed) ->
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let dense, sparse = random_mna_pair rng ~nodes ~branches in
      let b = random_rhs rng (Mat.rows dense) in
      match (dense_outcome dense b, sparse_outcome sparse b) with
      | Error kd, Error ks -> kd = ks
      | Ok xd, Ok xs -> vec_bits_equal xd xs
      | Error _, Ok _ | Ok _, Error _ -> false)

let prop_pivot_parity =
  QCheck.Test.make ~name:"Smat pivot permutation matches Mat" ~count:200
    size_gen
    (fun ((nodes, branches), seed) ->
      let rng = Rng.create (Int64.of_int (seed + 11)) in
      let dense, sparse = random_mna_pair rng ~nodes ~branches in
      let n = Mat.rows dense in
      let wd = Mat.lu_workspace n and ws = Smat.lu_workspace n in
      match (Mat.factor_in_place dense wd, Smat.factor_in_place sparse ws) with
      | (), () -> Mat.lu_pivots wd = Smat.lu_pivots ws
      | exception Mat.Singular _ -> QCheck.assume_fail ())

let prop_refactor_bit_exact =
  QCheck.Test.make
    ~name:"refactor after a value change is bit-identical to a fresh factor"
    ~count:200 size_gen
    (fun ((nodes, branches), seed) ->
      let rng = Rng.create (Int64.of_int (seed + 23)) in
      let dense, sparse = random_mna_pair rng ~nodes ~branches in
      let n = Mat.rows dense in
      let held = Smat.lu_workspace n in
      (match Smat.factor_in_place sparse held with
      | exception Mat.Singular _ -> QCheck.assume_fail ()
      | () -> ());
      (* perturb one conductance the way a fault-impact restamp does:
         a symmetric delta on an existing node block *)
      let i = Rng.int rng ~bound:nodes in
      let dg = Rng.uniform rng ~lo:0.01 ~hi:1. in
      Smat.add_to sparse i i dg;
      Mat.add_to dense i i dg;
      let b = random_rhs rng n in
      let x_re = Vec.create n 0. and x_fresh = Vec.create n 0. in
      let used_replay = Smat.refactor sparse held in
      (match
         if not used_replay then Smat.factor_in_place sparse held
       with
      | exception Mat.Singular _ ->
          (* perturbation made it singular — parity of that case is
             covered by the dedicated singular tests *)
          QCheck.assume_fail ()
      | () -> ());
      Smat.solve_into held b x_re;
      let fresh = Smat.lu_workspace n in
      Smat.factor_in_place sparse fresh;
      Smat.solve_into fresh b x_fresh;
      let xd = Vec.create n 0. in
      let wd = Mat.lu_workspace n in
      Mat.factor_in_place dense wd;
      Mat.solve_into wd b xd;
      vec_bits_equal x_re x_fresh && vec_bits_equal x_re xd)

(* The same property through a second matrix object with the same
   pattern: the held factor's replay schedule belongs to the matrix it
   was factored from, so [refactor] compiles one for the new matrix on
   demand before replaying. *)
let prop_refactor_compiles_on_demand =
  QCheck.Test.make
    ~name:"refactor of a same-pattern matrix compiles its own schedule"
    ~count:200 size_gen
    (fun ((nodes, branches), seed) ->
      let pair () =
        random_mna_pair (Rng.create (Int64.of_int (seed + 29))) ~nodes ~branches
      in
      let _, first = pair () and dense, second = pair () in
      let n = Mat.rows dense in
      let held = Smat.lu_workspace n in
      (match Smat.factor_in_place first held with
      | exception Mat.Singular _ -> QCheck.assume_fail ()
      | () -> ());
      let rng = Rng.create (Int64.of_int seed) in
      let i = Rng.int rng ~bound:nodes in
      let dg = Rng.uniform rng ~lo:0.01 ~hi:1. in
      Smat.add_to second i i dg;
      Mat.add_to dense i i dg;
      let b = random_rhs rng n in
      let x_re = Vec.create n 0. and xd = Vec.create n 0. in
      (match
         if not (Smat.refactor second held) then
           Smat.factor_in_place second held
       with
      | exception Mat.Singular _ -> QCheck.assume_fail ()
      | () -> ());
      Smat.solve_into held b x_re;
      let wd = Mat.lu_workspace n in
      Mat.factor_in_place dense wd;
      Mat.solve_into wd b xd;
      vec_bits_equal x_re xd)

(* ------------------------------------------------------------- units *)

let test_pattern_basics () =
  let a = Smat.create 3 [ (0, 0); (0, 2); (1, 1); (2, 0); (2, 2) ] in
  Alcotest.(check int) "size" 3 (Smat.size a);
  Alcotest.(check int) "nnz" 5 (Smat.nnz a);
  Smat.add_to a 0 2 4.5;
  Smat.add_to a 0 2 0.5;
  Alcotest.(check (float 0.)) "accumulated" 5. (Smat.get a 0 2);
  Alcotest.(check (float 0.)) "absent reads zero" 0. (Smat.get a 1 0);
  (match Smat.add_to a 1 0 1. with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument outside the pattern");
  Smat.clear a;
  Alcotest.(check (float 0.)) "cleared" 0. (Smat.get a 0 2);
  Alcotest.(check int) "pattern survives clear" 5 (Smat.nnz a)

let test_dense_roundtrip () =
  let m = Mat.of_rows [| [| 2.; 0.; 1. |]; [| 0.; 3.; 0. |]; [| -1.; 0.; 4. |] |] in
  let s = Smat.of_dense m in
  let m' = Smat.to_dense s in
  for i = 0 to 2 do
    for j = 0 to 2 do
      Alcotest.(check (float 0.))
        (Printf.sprintf "(%d,%d)" i j)
        (Mat.get m i j) (Mat.get m' i j)
    done
  done;
  let v = [| 1.; -2.; 3. |] in
  Alcotest.(check (array (float 1e-15)))
    "mul_vec" (Mat.mul_vec m v) (Smat.mul_vec s v)

let test_singular_parity () =
  (* two identical voltage-source branch rows: structurally fine,
     numerically rank-deficient — both backends must report the same
     elimination step *)
  let stamps =
    [
      (0, 0, 1e-12); (1, 1, 1e-12);
      (0, 0, 0.5); (1, 1, 0.5); (0, 1, -0.5); (1, 0, -0.5);
      (0, 2, 1.); (2, 0, 1.); (1, 2, -1.); (2, 1, -1.);
      (0, 3, 1.); (3, 0, 1.); (1, 3, -1.); (3, 1, -1.);
    ]
  in
  let n = 4 in
  let dense = Mat.create n n in
  List.iter (fun (i, j, v) -> Mat.add_to dense i j v) stamps;
  let sparse =
    Smat.create n
      (List.init n (fun i -> (i, i)) @ List.map (fun (i, j, _) -> (i, j)) stamps)
  in
  List.iter (fun (i, j, v) -> Smat.add_to sparse i j v) stamps;
  let kd =
    match Mat.factor_in_place dense (Mat.lu_workspace n) with
    | exception Mat.Singular k -> k
    | () -> Alcotest.fail "dense: expected Singular"
  in
  let ks =
    match Smat.factor_in_place sparse (Smat.lu_workspace n) with
    | exception Mat.Singular k -> k
    | () -> Alcotest.fail "sparse: expected Singular"
  in
  Alcotest.(check int) "Singular payloads agree" kd ks

let test_refactor_guard_falls_back () =
  (* first factor swaps rows 0/1 (3 > 1); the new values put the pivot
     back on row 0, so the held order is stale and the guard must
     refuse the replay *)
  let s = Smat.create 2 [ (0, 0); (0, 1); (1, 0); (1, 1) ] in
  Smat.set s 0 0 1.;
  Smat.set s 0 1 2.;
  Smat.set s 1 0 3.;
  Smat.set s 1 1 4.;
  let ws = Smat.lu_workspace 2 in
  Smat.factor_in_place s ws;
  Alcotest.(check (array int)) "swapped pivots" [| 1; 0 |] (Smat.lu_pivots ws);
  Smat.set s 0 0 50.;
  Alcotest.(check bool) "guard refuses stale pivot order" false
    (Smat.refactor s ws);
  Smat.factor_in_place s ws;
  Alcotest.(check (array int)) "fresh pivots" [| 0; 1 |] (Smat.lu_pivots ws);
  let st = Smat.stats ws in
  Alcotest.(check int) "full factorizations" 2 st.Smat.full_factorizations;
  Alcotest.(check int) "no reuse" 0 st.Smat.pattern_reuses;
  (* a tie is stale too: the dense scan keeps the first row of its
     current order (row 0), not the held pivot (row 1) *)
  Smat.set s 0 0 1.;
  let ws = Smat.lu_workspace 2 in
  Smat.factor_in_place s ws;
  Smat.set s 0 0 3.;
  Alcotest.(check bool) "guard refuses a tied pivot" false (Smat.refactor s ws);
  Smat.factor_in_place s ws;
  Alcotest.(check (array int)) "tie keeps row 0" [| 0; 1 |] (Smat.lu_pivots ws);
  let dense = Mat.lu_workspace 2 in
  Mat.factor_in_place (Smat.to_dense s) dense;
  Alcotest.(check (array int)) "as the dense sweep" (Mat.lu_pivots dense)
    (Smat.lu_pivots ws)

let test_refactor_reuses_pattern () =
  let rng = Rng.create 77L in
  let _, sparse = random_mna_pair rng ~nodes:8 ~branches:2 in
  let ws = Smat.lu_workspace (Smat.size sparse) in
  Smat.factor_in_place sparse ws;
  Smat.add_to sparse 0 0 0.25;
  Alcotest.(check bool) "replay accepted" true (Smat.refactor sparse ws);
  let st = Smat.stats ws in
  Alcotest.(check int) "one full" 1 st.Smat.full_factorizations;
  Alcotest.(check int) "one reuse" 1 st.Smat.pattern_reuses;
  Alcotest.(check bool) "factor holds fill" true (st.Smat.factor_nnz > 0)

let test_refactor_incompatible_pattern () =
  (* a matrix with an entry the held factor lacks cannot replay: the
     refactor declines and the full pass takes the new pattern *)
  let diag = Smat.create 2 [ (0, 0); (1, 1) ] in
  Smat.set diag 0 0 2.;
  Smat.set diag 1 1 4.;
  let ws = Smat.lu_workspace 2 in
  Smat.factor_in_place diag ws;
  let full = Smat.create 2 [ (0, 0); (0, 1); (1, 0); (1, 1) ] in
  Smat.set full 0 0 2.;
  Smat.set full 0 1 1.;
  Smat.set full 1 0 1.;
  Smat.set full 1 1 4.;
  Alcotest.(check bool) "incompatible pattern refused" false
    (Smat.refactor full ws);
  Alcotest.(check bool) "pattern dropped" false (Smat.refactor diag ws);
  Smat.factor_in_place full ws;
  Smat.set full 1 1 5.;
  Alcotest.(check bool) "new pattern replays" true (Smat.refactor full ws);
  let x = Vec.create 2 0. in
  Smat.solve_into ws [| 3.; 6. |] x;
  Alcotest.(check (float 1e-12)) "x0" 1. x.(0);
  Alcotest.(check (float 1e-12)) "x1" 1. x.(1)

let test_workspace_validation () =
  let s = Smat.create 2 [ (0, 0); (1, 1) ] in
  Smat.set s 0 0 1.;
  Smat.set s 1 1 1.;
  let ws = Smat.lu_workspace 2 in
  let b = [| 1.; 2. |] in
  (match Smat.solve_into ws b (Vec.create 2 0.) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected unfactored rejection");
  Smat.factor_in_place s ws;
  (match Smat.solve_into ws b b with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected aliasing rejection");
  match Smat.solve_into ws [| 1. |] (Vec.create 2 0.) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected dimension rejection"

(* --------------------------------------------------------- backend seam *)

(* End-to-end identity across the Mna backend seam: the same macro
   solved through [Mna.build ~backend] on both backends — nominal and
   with a fault impact restamped into the compiled workspace — must
   produce bit-identical operating points and identical Newton
   trajectories, and a reduced IV generation run must write the same
   session bytes on either backend. *)
let test_backend_end_to_end_identity () =
  (* the report, and the pattern reuses the traced solve counted *)
  let solve backend nl restamp =
    let sys = Circuit.Mna.build ~backend nl in
    let ws = Circuit.Mna.workspace sys in
    Obs.enable ();
    Fun.protect ~finally:Obs.shutdown (fun () ->
        let r = Circuit.Dc.solve ~workspace:ws ?restamp sys ~time:`Dc in
        ( r,
          Option.value ~default:0
            (List.assoc_opt "solver.dc.pattern_reuses" (Obs.counters ())) ))
  in
  let check ?restamp name nl =
    let d, d_reuses = solve Circuit.Mna.Dense nl restamp in
    let s, _ = solve Circuit.Mna.Sparse nl restamp in
    let label suffix = name ^ " " ^ suffix in
    Alcotest.(check bool)
      (label "operating points bit-identical")
      true
      (vec_bits_equal d.Circuit.Dc.solution s.Circuit.Dc.solution);
    Alcotest.(check int)
      (label "newton iterations agree")
      d.Circuit.Dc.newton_iterations s.Circuit.Dc.newton_iterations;
    Alcotest.(check int)
      (label "dense path never replays a pattern")
      0 d_reuses
  in
  let check_macro ?restamp (macro : Macros.Macro.t) =
    check ?restamp macro.Macros.Macro.macro_name
      (macro.Macros.Macro.build Macros.Process.nominal)
  in
  check_macro (Macros.Filter_chain.sk_chain ~stages:8);
  check_macro (Macros.Filter_chain.ota_cascade ~stages:8);
  check_macro
    ~restamp:{ Circuit.Mna.stimulus = None; impact = Some ("r1a", 470.) }
    (Macros.Filter_chain.sk_chain ~stages:8);
  (* gmin stepping on this faulty IV-converter replays patterns across
     rungs into an exact pivot tie, which the refactor guard must
     refuse *)
  let iv = Macros.Iv_converter.macro in
  let fault =
    List.find
      (fun f -> Faults.Fault.id f = "bridge:iin-nbias")
      (Macros.Macro.fault_universe iv)
  in
  check "IV bridge:iin-nbias at -33.8 uA"
    (Testgen.Execute.with_stimulus
       (Faults.Inject.apply (Macros.Macro.nominal_netlist iv) fault)
       ~source:iv.Macros.Macro.stimulus_source
       (Circuit.Waveform.Dc (-0x1.1b1e34b171b52p-15)));
  (* the whole generation pipeline, transient configurations included:
     3 IV faults at the fast profile on one domain *)
  let session backend =
    let ctx =
      Experiments.Setup.reduced ~n_faults:3
        (Experiments.Setup.iv ~profile:Testgen.Execute.fast_profile ~backend
           ())
    in
    Testgen.Session.to_string
      (Experiments.Runs.engine_run ~jobs:1 ctx).Testgen.Engine.results
  in
  Alcotest.(check string)
    "IV generation session bytes identical across backends"
    (session Circuit.Mna.Dense) (session Circuit.Mna.Sparse)

(* Without [~backend], Mna.build picks dense LU up to
   [sparse_above_nodes] nodes and sparse above; [~backend] still forces
   either one. *)
let test_backend_selection () =
  let nominal name =
    match Macros.Registry.find name with
    | Ok m -> Macros.Macro.nominal_netlist m
    | Error e -> Alcotest.fail e
  in
  let show b = Circuit.Mna.backend_name b in
  List.iter
    (fun (name, expected) ->
      let nl = nominal name in
      Alcotest.(check string)
        (Printf.sprintf "%s (%d nodes) selects %s" name
           (List.length (Circuit.Netlist.nodes nl)) (show expected))
        (show expected)
        (show (Circuit.Mna.backend (Circuit.Mna.build nl)));
      List.iter
        (fun forced ->
          Alcotest.(check string)
            (Printf.sprintf "%s forced to %s" name (show forced))
            (show forced)
            (show (Circuit.Mna.backend (Circuit.Mna.build ~backend:forced nl))))
        [ Circuit.Mna.Dense; Circuit.Mna.Sparse ])
    [
      ("iv", Circuit.Mna.Dense);
      ("rc10", Circuit.Mna.Dense);
      ("rc16", Circuit.Mna.Dense);
      ("skc4", Circuit.Mna.Dense);
      ("rc24", Circuit.Mna.Sparse);
      ("skc8", Circuit.Mna.Sparse);
      ("otac16", Circuit.Mna.Sparse);
      ("rc48", Circuit.Mna.Sparse);
      ("skc32", Circuit.Mna.Sparse);
    ];
  Alcotest.(check int) "crossover" 24 Circuit.Mna.sparse_above_nodes

let () =
  Alcotest.run "sparse"
    [
      ( "smat",
        [
          Alcotest.test_case "pattern basics" `Quick test_pattern_basics;
          Alcotest.test_case "dense roundtrip" `Quick test_dense_roundtrip;
          Alcotest.test_case "singular parity" `Quick test_singular_parity;
          Alcotest.test_case "workspace validation" `Quick
            test_workspace_validation;
          QCheck_alcotest.to_alcotest prop_factor_solve_parity;
          QCheck_alcotest.to_alcotest prop_pivot_parity;
        ] );
      ( "refactor",
        [
          Alcotest.test_case "guard falls back" `Quick
            test_refactor_guard_falls_back;
          Alcotest.test_case "pattern reuse" `Quick test_refactor_reuses_pattern;
          Alcotest.test_case "incompatible pattern" `Quick
            test_refactor_incompatible_pattern;
          QCheck_alcotest.to_alcotest prop_refactor_bit_exact;
          QCheck_alcotest.to_alcotest prop_refactor_compiles_on_demand;
        ] );
      ( "backend",
        [
          Alcotest.test_case "end-to-end identity" `Quick
            test_backend_end_to_end_identity;
          Alcotest.test_case "backend selection" `Quick test_backend_selection;
        ] );
    ]
