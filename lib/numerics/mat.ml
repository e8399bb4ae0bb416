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

(* Crout-style in-place LU with partial pivoting. *)
let lu_factor m =
  if m.r <> m.c then invalid_arg "Mat.lu_factor: not square";
  let n = m.r in
  let a = Array.copy m.a in
  let piv = Array.init n (fun i -> i) in
  let sign = ref 1 in
  for k = 0 to n - 1 do
    (* pivot search in column k *)
    let p = ref k in
    let best = ref (Float.abs a.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs a.((i * n) + k) in
      if v > !best then begin
        best := v;
        p := i
      end
    done;
    if !best < 1e-300 then raise (Singular k);
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
  { n; lu = a; piv; sign = !sign; factored = true }

(* Caller-owned factorization workspace for the restamp-many hot path:
   [factor_in_place] overwrites it without allocating, so one workspace
   serves every Newton iteration of an analysis.  The elimination is the
   same partial-pivoting Crout sweep as {!lu_factor} — identical
   arithmetic, identical pivot choices, identical [Singular] payloads —
   a contract pinned by the QCheck parity properties in the test suite. *)
let lu_workspace n =
  if n < 0 then invalid_arg "Mat.lu_workspace";
  {
    n;
    lu = Array.make (n * n) 0.;
    piv = Array.init n (fun i -> i);
    sign = 1;
    factored = false;
  }

let lu_size ws = ws.n

let lu_pivots ws =
  if not ws.factored then invalid_arg "Mat.lu_pivots: workspace not factored";
  Array.copy ws.piv

let factor_in_place m ws =
  if m.r <> m.c then invalid_arg "Mat.factor_in_place: not square";
  if m.r <> ws.n then invalid_arg "Mat.factor_in_place: size mismatch";
  let n = ws.n in
  let a = ws.lu in
  Array.blit m.a 0 a 0 (n * n);
  let piv = ws.piv in
  for i = 0 to n - 1 do
    piv.(i) <- i
  done;
  ws.sign <- 1;
  ws.factored <- false;
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
    if !best < 1e-300 then raise (Singular k);
    if !p <> k then begin
      for j = 0 to n - 1 do
        let t = a.((k * n) + j) in
        a.((k * n) + j) <- a.((!p * n) + j);
        a.((!p * n) + j) <- t
      done;
      let t = piv.(k) in
      piv.(k) <- piv.(!p);
      piv.(!p) <- t;
      ws.sign <- -ws.sign
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
  ws.factored <- true

let solve_into ws b x =
  if not ws.factored then invalid_arg "Mat.solve_into: workspace not factored";
  let { n; lu = a; piv; _ } = ws in
  if Vec.dim b <> n then invalid_arg "Mat.solve_into: dimension mismatch";
  if Vec.dim x <> n then invalid_arg "Mat.solve_into: bad output dimension";
  if b == x then invalid_arg "Mat.solve_into: aliased input and output";
  for i = 0 to n - 1 do
    x.(i) <- b.(piv.(i))
  done;
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
  done

let lu_solve { n; lu = a; piv; _ } b =
  if Vec.dim b <> n then invalid_arg "Mat.lu_solve: dimension mismatch";
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

let norm_inf m =
  let best = ref 0. in
  for i = 0 to m.r - 1 do
    let s = ref 0. in
    for j = 0 to m.c - 1 do
      s := !s +. Float.abs m.a.((i * m.c) + j)
    done;
    best := Float.max !best !s
  done;
  !best

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.r - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.c - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%10.4g" (get m i j)
    done;
    Format.fprintf ppf "]";
    if i < m.r - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
