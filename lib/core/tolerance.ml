open Numerics

type t = {
  config : Test_config.t;
  axes : float array array;  (* per param: grid coordinates *)
  values : float array array;  (* per lattice point (row-major): box per return *)
  floors : float array;
}

let config t = t.config

let floors_of config =
  Array.of_list config.Test_config.accuracy_floor

(* enumerate lattice indices in row-major order *)
let lattice_indices axes =
  let dims = Array.map Array.length axes in
  let n = Array.fold_left ( * ) 1 dims in
  List.init n (fun flat ->
      let idx = Array.make (Array.length dims) 0 in
      let rem = ref flat in
      for d = Array.length dims - 1 downto 0 do
        idx.(d) <- !rem mod dims.(d);
        rem := !rem / dims.(d)
      done;
      idx)

let point_of_indices axes idx =
  Array.mapi (fun d i -> axes.(d).(i)) idx

(* inflation of the raw corner envelope *)
let guardband = 1.25

let calibrate ?(profile = Execute.default_profile) ?(grid = 3) config ~nominal
    ~corners () =
  if grid < 2 then invalid_arg "Tolerance.calibrate: grid < 2";
  if corners = [] then invalid_arg "Tolerance.calibrate: no process points";
  let params = Array.of_list config.Test_config.params in
  let axes =
    Array.map
      (fun (p : Test_param.t) ->
        Array.init grid (fun i ->
            p.Test_param.lower
            +. ((p.Test_param.upper -. p.Test_param.lower)
                *. float_of_int i
                /. float_of_int (grid - 1))))
      params
  in
  let p_returns = Test_config.return_count config in
  let floors = floors_of config in
  (* one compiled plan per process point, restamped across the grid *)
  let nominal = Execute.topology nominal in
  let corners = List.map Execute.topology corners in
  let values =
    lattice_indices axes
    |> List.map (fun idx ->
           let values_at = point_of_indices axes idx in
           (* a copy: a step train comes back in the plan's own buffer *)
           let nominal_obs =
             Array.copy (Execute.compiled_observables ~profile nominal config values_at)
           in
           let per_return = Array.make p_returns [] in
           List.iter
             (fun corner ->
               match
                 Execute.compiled_observables ~profile corner config values_at
               with
               | corner_obs ->
                   let dev =
                     Execute.deviations config ~nominal:nominal_obs
                       ~faulty:corner_obs
                   in
                   Array.iteri
                     (fun i d ->
                       per_return.(i) <- Float.abs d :: per_return.(i))
                     dev
               | exception Execute.Execution_failure _ -> ())
             corners;
           Array.map
             (function
               | [] -> 0.
               | devs -> guardband *. Stats.max_abs (Array.of_list devs))
             per_return)
    |> Array.of_list
  in
  { config; axes; values; floors }

(* multilinear interpolation on the lattice, clamped to its hull *)
let box t values_at =
  let n_axes = Array.length t.axes in
  if Vec.dim values_at <> n_axes then
    invalid_arg "Tolerance.box: parameter count mismatch";
  (* per axis: surrounding grid cell and interpolation weight *)
  let cell = Array.make n_axes 0 in
  let weight = Array.make n_axes 0. in
  for d = 0 to n_axes - 1 do
    let axis = t.axes.(d) in
    let g = Array.length axis in
    let v = Float.min axis.(g - 1) (Float.max axis.(0) values_at.(d)) in
    (* find the cell [i, i+1] containing v *)
    let i = ref 0 in
    while !i < g - 2 && axis.(!i + 1) < v do
      incr i
    done;
    cell.(d) <- !i;
    let span = axis.(!i + 1) -. axis.(!i) in
    weight.(d) <- if span <= 0. then 0. else (v -. axis.(!i)) /. span
  done;
  let dims = Array.map Array.length t.axes in
  let flat_of idx =
    let f = ref 0 in
    for d = 0 to n_axes - 1 do
      f := (!f * dims.(d)) + idx.(d)
    done;
    !f
  in
  let p = Array.length t.floors in
  let acc = Array.make p 0. in
  (* iterate over the 2^n cell corners *)
  let n_corners = 1 lsl n_axes in
  for corner = 0 to n_corners - 1 do
    let idx = Array.make n_axes 0 in
    let w = ref 1. in
    for d = 0 to n_axes - 1 do
      let hi = corner land (1 lsl d) <> 0 in
      idx.(d) <- cell.(d) + if hi then 1 else 0;
      w := !w *. (if hi then weight.(d) else 1. -. weight.(d))
    done;
    if !w > 0. then begin
      let v = t.values.(flat_of idx) in
      for i = 0 to p - 1 do
        acc.(i) <- acc.(i) +. (!w *. v.(i))
      done
    end
  done;
  Array.mapi (fun i x -> Float.max x t.floors.(i)) acc

let lattice_points t =
  lattice_indices t.axes |> List.map (point_of_indices t.axes)

let floor_only config =
  let params = Array.of_list config.Test_config.params in
  let axes =
    Array.map
      (fun (p : Test_param.t) -> [| p.Test_param.lower; p.Test_param.upper |])
      params
  in
  let n_lattice =
    Array.fold_left (fun acc a -> acc * Array.length a) 1 axes
  in
  let p_returns = Test_config.return_count config in
  {
    config;
    axes;
    values = Array.init n_lattice (fun _ -> Array.make p_returns 0.);
    floors = floors_of config;
  }
