(* Seeded input generation.  Every input a run feeds the library comes
   from the benchmark's --seed through these functions: the same seed
   gives the same inputs, different seeds different ones. *)

let rng ~seed ~key = Numerics.Rng.of_key ~seed:(Int64.of_int seed) ~key

(* Largest-remainder apportionment of [n] slots over groups of the given
   sizes, proportional to size; ties go to the earlier group. *)
let apportion n sizes =
  let total = Array.fold_left ( + ) 0 sizes in
  let quota = Array.map (fun s -> float_of_int (n * s) /. float_of_int total) sizes in
  let alloc = Array.map truncate quota in
  let left = ref (n - Array.fold_left ( + ) 0 alloc) in
  let order =
    List.stable_sort
      (fun i j ->
        compare
          (quota.(j) -. float_of_int alloc.(j))
          (quota.(i) -. float_of_int alloc.(i)))
      (List.init (Array.length sizes) Fun.id)
  in
  List.iter
    (fun i ->
      if !left > 0 && alloc.(i) < sizes.(i) then begin
        alloc.(i) <- alloc.(i) + 1;
        decr left
      end)
    order;
  alloc

let groups_by key rows =
  let keys = List.sort_uniq compare (Array.to_list (Array.map key rows)) in
  List.map
    (fun k -> (k, List.filter (fun r -> key r = k) (Array.to_list rows)))
    keys

(* A stratified sample of [n] faults: slots are apportioned first over
   fault kinds, so the dictionary's bridge:pinhole proportion holds,
   then within each kind over the reference verdict strata; the seed
   picks the faults inside each stratum.  Returned in dictionary order. *)
let stratified ~rng ~n (rows : Reference.row array) =
  let by_kind = groups_by (fun r -> r.Reference.kind) rows in
  let kind_alloc =
    apportion n (Array.of_list (List.map (fun (_, g) -> List.length g) by_kind))
  in
  let picked = Hashtbl.create n in
  List.iteri
    (fun ki (_, kind_rows) ->
      let strata = groups_by Reference.stratum (Array.of_list kind_rows) in
      let alloc =
        apportion kind_alloc.(ki)
          (Array.of_list (List.map (fun (_, g) -> List.length g) strata))
      in
      List.iteri
        (fun si (_, members) ->
          let a = Array.of_list members in
          Numerics.Rng.shuffle rng a;
          for i = 0 to alloc.(si) - 1 do
            Hashtbl.replace picked a.(i).Reference.fault_id ()
          done)
        strata)
    by_kind;
  List.filter (fun r -> Hashtbl.mem picked r.Reference.fault_id) (Array.to_list rows)

(* -- the serve request mix -------------------------------------------- *)

type request =
  | Small of { macro : string; take : int }
      (** generate over the first [take] faults *)
  | Medium of string  (** generate over the whole dictionary *)
  | Op of string  (** DC operating point *)

let small_macros = [ "rc10"; "otac8" ]
let medium_macros = [ "rc16"; "otac16" ]
let max_take = 8

(* Every distinct request the mix can draw: the verification reference
   computes each once, so its cost does not depend on the seed. *)
let catalogue =
  List.concat_map
    (fun macro -> List.init max_take (fun i -> Small { macro; take = i + 1 }))
    small_macros
  @ List.map (fun m -> Medium m) medium_macros
  @ List.map (fun m -> Op m) (small_macros @ medium_macros)

(* One block of the mix: a fixed composition in seeded order.  It holds
   every small request once, every operating point twice, and three
   whole-dictionary requests, two of them on otac16: those are 7% of the
   mix, so the 95th latency percentile falls inside the otac16 requests
   rather than on the edge between two request kinds. *)
let block_requests =
  List.filter (function Small _ -> true | _ -> false) catalogue
  @ List.concat_map (fun m -> [ Op m; Op m ]) (small_macros @ medium_macros)
  @ List.map (fun m -> Medium m) [ "otac16"; "otac16"; "rc16" ]

let block rng =
  let b = Array.of_list block_requests in
  Numerics.Rng.shuffle rng b;
  b

(* An endless request stream: block after block from one generator. *)
let stream ~seed =
  let rng = rng ~seed ~key:"serve-mixed" in
  let pending = Queue.create () in
  fun () ->
    if Queue.is_empty pending then Array.iter (fun r -> Queue.add r pending) (block rng);
    Queue.pop pending

let request_label = function
  | Small { macro; take } -> Printf.sprintf "generate %s take %d" macro take
  | Medium m -> Printf.sprintf "generate %s" m
  | Op m -> Printf.sprintf "op %s" m
