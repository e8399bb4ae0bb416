open Complex

type t = { r : int; c : int; a : Complex.t array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Cmat.create";
  { r; c; a = Array.make (r * c) Complex.zero }

let set m i j x = m.a.((i * m.c) + j) <- x
let add_to m i j x = m.a.((i * m.c) + j) <- Complex.add m.a.((i * m.c) + j) x
let fill m x = Array.fill m.a 0 (Array.length m.a) x

let mul_vec m v =
  if Array.length v <> m.c then invalid_arg "Cmat.mul_vec";
  Array.init m.r (fun i ->
      let s = ref Complex.zero in
      for j = 0 to m.c - 1 do
        s := add !s (mul m.a.((i * m.c) + j) v.(j))
      done;
      !s)

let transpose m =
  let t = create m.c m.r in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      t.a.((j * t.c) + i) <- m.a.((i * m.c) + j)
    done
  done;
  t

exception Singular of int

let solve m b =
  if m.r <> m.c then invalid_arg "Cmat.solve: not square";
  if Array.length b <> m.r then invalid_arg "Cmat.solve: dimension mismatch";
  let n = m.r in
  let a = Array.copy m.a in
  let x = Array.copy b in
  for k = 0 to n - 1 do
    let p = ref k in
    let best = ref (norm a.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let v = norm a.((i * n) + k) in
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
      let t = x.(k) in
      x.(k) <- x.(!p);
      x.(!p) <- t
    end;
    let akk = a.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let lik = div a.((i * n) + k) akk in
      if norm lik > 0. then begin
        for j = k + 1 to n - 1 do
          a.((i * n) + j) <- sub a.((i * n) + j) (mul lik a.((k * n) + j))
        done;
        x.(i) <- sub x.(i) (mul lik x.(k))
      end;
      a.((i * n) + k) <- Complex.zero
    done
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := sub !s (mul a.((i * n) + j) x.(j))
    done;
    x.(i) <- div !s a.((i * n) + i)
  done;
  x
