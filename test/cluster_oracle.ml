(* Reference clustering for the parity tests: the list-rebuilding
   complete-linkage loop that {!Testgen.Cluster.group} replaced with its
   in-place array merge.  Each pass copies the clusters into a fresh
   array, scans every pair [i < j] for the closest one within the
   threshold (the first found wins a tie), and rebuilds the list with
   [arr.(i) @ arr.(j)] at [i] and [j] dropped — the same scan order,
   tie-break and merge rule, so the two must return equal groups. *)

open Testgen

let group ~params ?(threshold = 0.15) items =
  let normalized =
    List.map
      (fun (it : Cluster.item) ->
        { it with location = Cluster.normalize params it.location })
      items
  in
  let clusters = ref (List.map (fun it -> [ it ]) normalized) in
  let merged = ref true in
  while !merged do
    merged := false;
    let arr = Array.of_list !clusters in
    let best = ref None in
    for i = 0 to Array.length arr - 1 do
      for j = i + 1 to Array.length arr - 1 do
        (* complete linkage: the largest pairwise member distance *)
        let d =
          List.fold_left
            (fun acc (x : Cluster.item) ->
              List.fold_left
                (fun acc (y : Cluster.item) ->
                  Float.max acc (Cluster.distance x.location y.location))
                acc arr.(j))
            0. arr.(i)
        in
        if d <= threshold then
          match !best with
          | Some (_, _, d') when d' <= d -> ()
          | Some _ | None -> best := Some (i, j, d)
      done
    done;
    match !best with
    | Some (i, j, _) ->
        clusters :=
          Array.to_list arr
          |> List.filteri (fun k _ -> k <> j)
          |> List.mapi (fun k c -> if k = i then arr.(i) @ arr.(j) else c);
        merged := true
    | None -> ()
  done;
  let arr_params = Array.of_list params in
  let denormalize (it : Cluster.item) =
    {
      it with
      location =
        Array.mapi
          (fun i n -> Test_param.denormalize arr_params.(i) n)
          it.location;
    }
  in
  List.map (List.map denormalize) !clusters
