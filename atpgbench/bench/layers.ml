(* The traced run's analysis: read the JSONL trace the program writes
   under Obs, compute each span's self time, and roll self times up into
   a per-layer table.

   The stream is depth-ordered with children written before their
   parent, so a span's self time is its duration minus the durations of
   the spans one level deeper that were written since the last span at
   its own depth.  One exception: the engine buffers each fault's spans
   as a task whose depths restart at 0 and flushes them inside its
   [engine.run] span, so a depth-0 [engine.fault] is a child of the next
   [engine.run] of the same request, whatever their depths say.  Spans
   of concurrent requests interleave in the file and are separated by
   their [req] field. *)

type span = {
  name : string;
  key : string option;
  req : string option;
  depth : int;
  seconds : float;
  evals : int;  (** the [evals] attribute ([engine.fault] spans), else 0 *)
  mutable self : float;
}


let read path =
  let ic = open_in path in
  let spans = ref [] in
  (try
     while true do
       match Serve.Jsonl.of_string (input_line ic) with
       | Error e -> failwith (path ^ ": " ^ e)
       | Ok j -> (
           let str k = Serve.Jsonl.str_member k j in
           match str "ev" with
           | Some "span" ->
               spans :=
                 {
                   name = Option.get (str "name");
                   key = str "key";
                   req = str "req";
                   depth = Option.get (Serve.Jsonl.int_member "depth" j);
                   seconds =
                     Option.get (Serve.Jsonl.num_member "elapsed_ms" j) /. 1000.;
                   evals =
                     Option.value ~default:0
                       (Option.bind (Serve.Jsonl.member "attrs" j)
                          (Serve.Jsonl.int_member "evals"));
                   self = 0.;
                 }
                 :: !spans
           | _ -> ())
     done
   with End_of_file -> close_in ic);
  let spans = List.rev !spans in
  let by_req = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace by_req s.req
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_req s.req)))
    spans;
  Hashtbl.iter
    (fun _ rev_spans ->
      (* [children.(d)]: summed durations of finished spans at depth [d]
         not yet claimed by a parent; [tasks]: finished fault tasks not
         yet claimed by their engine.run *)
      let children = Hashtbl.create 8 and tasks = ref 0. in
      let take d =
        let v = Option.value ~default:0. (Hashtbl.find_opt children d) in
        Hashtbl.replace children d 0.;
        v
      in
      List.iter
        (fun s ->
          let claimed =
            take (s.depth + 1)
            +.
            if s.name = "engine.run" then begin
              let t = !tasks in
              tasks := 0.;
              t
            end
            else 0.
          in
          s.self <- s.seconds -. claimed;
          if s.name = "engine.fault" && s.depth = 0 then tasks := !tasks +. s.seconds
          else
            Hashtbl.replace children s.depth
              (s.seconds +. Option.value ~default:0. (Hashtbl.find_opt children s.depth)))
        (List.rev rev_spans))
    by_req;
  spans

(* Spans that nothing else contains, one request (or the benchmark's own
   thread) at a time: their durations sum to the traced wall clock. *)
let top_level spans =
  List.filter (fun s -> s.depth = 0 && s.name <> "engine.fault") spans

(* A span's layer is the module its name starts with; the benchmark's
   own spans are named "bench.*". *)
let layer_of_span name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self seconds per layer, largest first. *)
let layer_table spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let l = layer_of_span s.name in
      Hashtbl.replace tbl l (s.self +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
    spans;
  List.sort (fun (_, a) (_, b) -> compare b a) (Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl [])

let sum_seconds f spans =
  List.fold_left (fun acc s -> if f s then acc +. s.seconds else acc) 0. spans

let sum_self f spans =
  List.fold_left (fun acc s -> if f s then acc +. s.self else acc) 0. spans

let named n s = s.name = n

(* Print the layer table of [spans] against the independently measured
   [wall] seconds; true when the self times sum to it within
   [tolerance] (a fraction). *)
let print_table ~title ~wall ~tolerance spans =
  let rows = layer_table spans in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. rows in
  Printf.printf "\n%s: layer self time (traced)\n" title;
  List.iter
    (fun (l, v) -> Printf.printf "  %-12s %10.3f s  %5.1f%%\n" l v (100. *. v /. total))
    rows;
  let gap = Float.abs (total -. wall) /. wall in
  Printf.printf "  %-12s %10.3f s  vs wall clock %.3f s (off by %.2f%%, tolerance %.0f%%)\n"
    "sum" total wall (100. *. gap) (100. *. tolerance);
  gap <= tolerance

let print_slowest_faults ?(n = 5) spans =
  let faults = List.filter (named "engine.fault") spans in
  let sorted = List.sort (fun a b -> compare b.seconds a.seconds) faults in
  Printf.printf "  slowest faults:\n";
  List.iteri
    (fun i s ->
      if i < n then
        Printf.printf "    %-24s %8.1f ms%s\n"
          (Option.value ~default:"?" s.key)
          (s.seconds *. 1000.)
          (match s.req with Some r -> "  (" ^ r ^ ")" | None -> ""))
    sorted
