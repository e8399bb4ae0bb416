let of_deviation ~deviation ~box =
  if box <= 0. then invalid_arg "Sensitivity.of_deviation: box <= 0";
  1. -. (Float.abs deviation /. box)

let combine per_return =
  if Array.length per_return = 0 then
    invalid_arg "Sensitivity.combine: no return values";
  Array.fold_left Float.min per_return.(0) per_return

let compute config ~box ~nominal ~faulty =
  let dev = Execute.deviations config ~nominal ~faulty in
  if Array.length dev <> Array.length box then
    invalid_arg "Sensitivity.compute: box length mismatch";
  combine
    (Array.mapi (fun i d -> of_deviation ~deviation:d ~box:box.(i)) dev)

let detects s = s < 0.
