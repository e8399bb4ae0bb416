(* Reference dense LU for the kernel tests: the bounds-checked
   partial-pivoting Crout elimination and substitutions that
   {!Numerics.Mat.factor_in_place} and {!Numerics.Mat.solve_into} run
   unchecked, with the row offsets hoisted.  Same arithmetic in the
   same order, so the two must agree bit for bit — factors, pivots,
   permutation sign, [Singular] payload and solutions. *)

open Numerics

type t = { n : int; lu : float array; piv : int array; sign : int }

(* @raise Mat.Singular at the elimination step whose pivot column is
   numerically zero *)
let factor m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Lu_oracle.factor: not square";
  let a = Array.copy (Mat.data m) in
  let piv = Array.init n (fun i -> i) in
  let sign = ref 1 in
  for k = 0 to n - 1 do
    let p = ref k in
    let best = ref (Float.abs a.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs a.((i * n) + k) in
      if v > !best then begin
        best := v;
        p := i
      end
    done;
    if !best < 1e-300 then raise (Mat.Singular k);
    if !p <> k then begin
      for j = 0 to n - 1 do
        let t = a.((k * n) + j) in
        a.((k * n) + j) <- a.((!p * n) + j);
        a.((!p * n) + j) <- t
      done;
      let t = piv.(k) in
      piv.(k) <- piv.(!p);
      piv.(!p) <- t;
      sign := - !sign
    end;
    let akk = a.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let lik = a.((i * n) + k) /. akk in
      a.((i * n) + k) <- lik;
      if lik <> 0. then
        for j = k + 1 to n - 1 do
          a.((i * n) + j) <- a.((i * n) + j) -. (lik *. a.((k * n) + j))
        done
    done
  done;
  { n; lu = a; piv; sign = !sign }

let solve { n; lu = a; piv; _ } b =
  if Vec.dim b <> n then invalid_arg "Lu_oracle.solve: dimension mismatch";
  let x = Array.init n (fun i -> b.(piv.(i))) in
  (* forward substitution, unit lower triangle *)
  for i = 1 to n - 1 do
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := !s -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s
  done;
  (* backward substitution *)
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s /. a.((i * n) + i)
  done;
  x

let bits = Array.map Int64.bits_of_float

(* What a factorization and one solve produce, in comparable form:
   the factors' and solution's bits, pivots and sign, or the [Singular]
   step. *)
type outcome =
  | Factored of {
      factors : int64 array;
      pivots : int array;
      sign : int;
      solution : int64 array;
    }
  | Singular of int

let reference m b =
  match factor m with
  | exception Mat.Singular k -> Singular k
  | f ->
      Factored
        {
          factors = bits f.lu;
          pivots = f.piv;
          sign = f.sign;
          solution = bits (solve f b);
        }

(* The kernel's outcome through a caller's workspace, which may hold a
   previous factorization. *)
let kernel ws m b =
  match Mat.factor_in_place m ws with
  | exception Mat.Singular k -> Singular k
  | () ->
      let x = Vec.create (Vec.dim b) Float.nan in
      Mat.solve_into ws b x;
      Factored
        {
          factors = bits (Mat.lu_factors ws);
          pivots = Mat.lu_pivots ws;
          sign = Mat.lu_sign ws;
          solution = bits x;
        }
