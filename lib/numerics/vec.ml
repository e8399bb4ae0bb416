type t = float array

let create n x = Array.make n x
let init = Array.init
let copy = Array.copy
let dim = Array.length

let check_dims a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vec: dimension mismatch"

let map2 f a b =
  check_dims a b;
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let scale k v = Array.map (fun x -> k *. x) v

let axpy a x y =
  check_dims x y;
  Array.init (Array.length x) (fun i -> (a *. x.(i)) +. y.(i))

let dot a b =
  check_dims a b;
  let s = ref 0. in
  for i = 0 to Array.length a - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

let norm2 v = sqrt (dot v v)

(* [Float.max m d] for a running maximum [m] of absolute values: [m] is
   never [-0.], so the sign-bit tie-break [Float.max] settles with two
   calls to the C primitive [caml_signbit] never decides, and the
   comparison alone gives the same bits, a NaN [d] included. *)
let[@inline] max_abs m d = if d > m || Float.is_nan d then d else m

let norm_inf v =
  let m = ref 0. in
  for i = 0 to Array.length v - 1 do
    m := max_abs !m (Float.abs v.(i))
  done;
  !m

let dist_inf_prefix ~len a b =
  let m = ref 0. in
  for i = 0 to len - 1 do
    m := max_abs !m (Float.abs (a.(i) -. b.(i)))
  done;
  !m

let dist_inf a b =
  check_dims a b;
  dist_inf_prefix ~len:(Array.length a) a b

let clamp ~lower ~upper v =
  check_dims lower v;
  check_dims upper v;
  Array.init (Array.length v) (fun i ->
      Float.min upper.(i) (Float.max lower.(i) v.(i)))

let pp ppf v =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf x -> Format.fprintf ppf "%.6g" x))
    (Array.to_list v)
