type t = { r : int; c : int; a : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Mat.create";
  { r; c; a = Array.make (r * c) 0. }

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.a.((i * n) + i) <- 1.
  done;
  m

let of_rows rows =
  let r = Array.length rows in
  if r = 0 then create 0 0
  else begin
    let c = Array.length rows.(0) in
    let m = create r c in
    Array.iteri
      (fun i row ->
        if Array.length row <> c then invalid_arg "Mat.of_rows: ragged rows";
        Array.blit row 0 m.a (i * c) c)
      rows;
    m
  end

let rows m = m.r
let cols m = m.c
let get m i j = m.a.((i * m.c) + j)
let set m i j x = m.a.((i * m.c) + j) <- x
let add_to m i j x = m.a.((i * m.c) + j) <- m.a.((i * m.c) + j) +. x
let data m = m.a
let copy m = { m with a = Array.copy m.a }
let fill m x = Array.fill m.a 0 (Array.length m.a) x

let mul_vec m v =
  if Vec.dim v <> m.c then invalid_arg "Mat.mul_vec: dimension mismatch";
  Vec.init m.r (fun i ->
      let s = ref 0. in
      for j = 0 to m.c - 1 do
        s := !s +. (m.a.((i * m.c) + j) *. v.(j))
      done;
      !s)

let mul x y =
  if x.c <> y.r then invalid_arg "Mat.mul: dimension mismatch";
  let z = create x.r y.c in
  for i = 0 to x.r - 1 do
    for k = 0 to x.c - 1 do
      let xik = x.a.((i * x.c) + k) in
      if xik <> 0. then
        for j = 0 to y.c - 1 do
          z.a.((i * z.c) + j) <- z.a.((i * z.c) + j) +. (xik *. y.a.((k * y.c) + j))
        done
    done
  done;
  z

let transpose m =
  let t = create m.c m.r in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      t.a.((j * t.c) + i) <- m.a.((i * m.c) + j)
    done
  done;
  t

exception Singular of int

type lu = {
  n : int;
  lu : float array;
  piv : int array;
  mutable sign : int;  (* +1 or -1; an int so a row swap boxes nothing *)
  mutable factored : bool;
}

(* Caller-owned factorization workspace for the restamp-many hot path:
   [factor_in_place] overwrites it without allocating, so one workspace
   serves every Newton iteration of an analysis.  {!lu_factor} is a
   fresh workspace factored once. *)
let lu_workspace n =
  if n < 0 then invalid_arg "Mat.lu_workspace";
  {
    n;
    lu = Array.make (n * n) 0.;
    piv = Array.init n (fun i -> i);
    sign = 1;
    factored = false;
  }

let factored name ws =
  if not ws.factored then invalid_arg (name ^ ": workspace not factored")

let lu_pivots ws =
  factored "Mat.lu_pivots" ws;
  Array.copy ws.piv

let lu_sign ws =
  factored "Mat.lu_sign" ws;
  ws.sign

let lu_factors ws =
  factored "Mat.lu_factors" ws;
  Array.copy ws.lu

(* Crout-style in-place LU with partial pivoting.  The entry checks
   establish every bound the loops rely on: [ws.lu] holds [n * n]
   entries and [ws.piv] [n] (fixed at {!lu_workspace}), and every index
   below is a row offset [r * n] with [r < n] plus a column [< n].  So
   the loops read and write unchecked, with each row offset computed
   once per row; the arithmetic and its order are those of the checked
   reference kept with the tests. *)
let factor_in_place m ws =
  if m.r <> m.c then invalid_arg "Mat.factor_in_place: not square";
  if m.r <> ws.n then invalid_arg "Mat.factor_in_place: size mismatch";
  let n = ws.n in
  let a = ws.lu in
  Array.blit m.a 0 a 0 (n * n);
  let piv = ws.piv in
  for i = 0 to n - 1 do
    Array.unsafe_set piv i i
  done;
  ws.sign <- 1;
  ws.factored <- false;
  for k = 0 to n - 1 do
    let kn = k * n in
    let p = ref k in
    let best = ref (Float.abs (Array.unsafe_get a (kn + k))) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (Array.unsafe_get a ((i * n) + k)) in
      if v > !best then begin
        best := v;
        p := i
      end
    done;
    if !best < 1e-300 then raise (Singular k);
    let p = !p in
    if p <> k then begin
      let pn = p * n in
      for j = 0 to n - 1 do
        let t = Array.unsafe_get a (kn + j) in
        Array.unsafe_set a (kn + j) (Array.unsafe_get a (pn + j));
        Array.unsafe_set a (pn + j) t
      done;
      let t = Array.unsafe_get piv k in
      Array.unsafe_set piv k (Array.unsafe_get piv p);
      Array.unsafe_set piv p t;
      ws.sign <- -ws.sign
    end;
    let akk = Array.unsafe_get a (kn + k) in
    for i = k + 1 to n - 1 do
      let row = i * n in
      let lik = Array.unsafe_get a (row + k) /. akk in
      Array.unsafe_set a (row + k) lik;
      if lik <> 0. then
        for j = k + 1 to n - 1 do
          Array.unsafe_set a (row + j)
            (Array.unsafe_get a (row + j) -. (lik *. Array.unsafe_get a (kn + j)))
        done
    done
  done;
  ws.factored <- true

let lu_factor m =
  if m.r <> m.c then invalid_arg "Mat.lu_factor: not square";
  let ws = lu_workspace m.r in
  factor_in_place m ws;
  ws

(* Forward then backward substitution.  [b] and [x] hold [n] entries
   (checked), and a factored workspace's pivots are a permutation of
   [0, n), so the loops index unchecked like the factorization's. *)
let solve_into ws b x =
  factored "Mat.solve_into" ws;
  let { n; lu = a; piv; _ } = ws in
  if Vec.dim b <> n then invalid_arg "Mat.solve_into: dimension mismatch";
  if Vec.dim x <> n then invalid_arg "Mat.solve_into: bad output dimension";
  if b == x then invalid_arg "Mat.solve_into: aliased input and output";
  for i = 0 to n - 1 do
    Array.unsafe_set x i (Array.unsafe_get b (Array.unsafe_get piv i))
  done;
  (* forward substitution, unit lower triangle *)
  for i = 1 to n - 1 do
    let row = i * n in
    let s = ref (Array.unsafe_get x i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get a (row + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i !s
  done;
  (* backward substitution *)
  for i = n - 1 downto 0 do
    let row = i * n in
    let s = ref (Array.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get a (row + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!s /. Array.unsafe_get a (row + i))
  done

let lu_solve ws b =
  if Vec.dim b <> ws.n then invalid_arg "Mat.lu_solve: dimension mismatch";
  let x = Vec.create ws.n 0. in
  solve_into ws b x;
  x

let solve m b = lu_solve (lu_factor m) b

let det m =
  match lu_factor m with
  | exception Singular _ -> 0.
  | { n; lu; sign; _ } ->
      let d = ref (float_of_int sign) in
      for i = 0 to n - 1 do
        d := !d *. lu.((i * n) + i)
      done;
      !d

