(* Per-fault reference tables of the engine workloads.

   One row per fault of the macro's whole dictionary: its kind, its
   verdict (the winning configuration plus unique or undetectable) and
   the seconds its generation took in the run that wrote the table.
   Verdicts verify every sampled run; kinds and verdicts define the
   sampling strata; seconds are the fixed cost weights that scale a
   sample's generate time up to the whole dictionary.

   Regenerate with `bash atpgbench/run.sh reference --workload NAME` after a change
   that is meant to move verdicts. *)

type row = {
  fault_id : string;
  kind : string;  (** ["bridge"] or ["pinhole"] *)
  status : string;  (** ["unique"], ["undetectable"] or ["failed"] *)
  config : int;  (** winning (or most sensitive) configuration; 0 if failed *)
  seconds : float;
}

let path workload = Filename.concat "atpgbench/ref" (workload ^ ".tsv")

let verdict (outcome : Testgen.Generate.result Testgen.Resilience.outcome) =
  match Testgen.Resilience.succeeded outcome with
  | None -> ("failed", 0)
  | Some r -> (
      match r.Testgen.Generate.outcome with
      | Testgen.Generate.Unique { config_id; _ } -> ("unique", config_id)
      | Testgen.Generate.Undetectable { most_sensitive_config; _ } ->
          ("undetectable", most_sensitive_config))

let kind_of_fault f =
  match Faults.Fault.kind f with `Bridge -> "bridge" | `Pinhole -> "pinhole"

(* The stratum a fault is sampled from: kind plus reference verdict, so
   every sample carries the dictionary's mix of fault kinds, winning
   configurations and undetectable faults. *)
let stratum r = Printf.sprintf "%s/%s/%d" r.kind r.status r.config

let load workload =
  let ic = open_in (path workload) in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char '\t' line with
         | [ fault_id; kind; status; config; seconds ] ->
             rows :=
               {
                 fault_id;
                 kind;
                 status;
                 config = int_of_string config;
                 seconds = float_of_string seconds;
               }
               :: !rows
         | _ -> failwith (path workload ^ ": malformed row: " ^ line)
     done
   with End_of_file -> close_in ic);
  Array.of_list (List.rev !rows)

let save workload ~header rows =
  let oc = open_out (path workload) in
  Printf.fprintf oc "# %s\n" header;
  Array.iter
    (fun r ->
      Printf.fprintf oc "%s\t%s\t%s\t%d\t%.4f\n" r.fault_id r.kind r.status
        r.config r.seconds)
    rows;
  close_out oc

(* Committed compactions: per seed, the compact-test count and covered
   fault ids of the seed's first sample. *)
let compactions_path workload = Filename.concat "atpgbench/ref" (workload ^ ".compact.tsv")

let save_compactions workload rows =
  let oc = open_out (compactions_path workload) in
  Printf.fprintf oc "# %s: seed, compact tests, covered fault ids\n" workload;
  List.iter
    (fun (seed, tests, covered) ->
      Printf.fprintf oc "%d\t%d\t%s\n" seed tests (String.concat "," covered))
    rows;
  close_out oc

let load_compactions workload =
  In_channel.with_open_text (compactions_path workload) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char '\t' line with
         | [ seed; tests; covered ] ->
             Some
               ( int_of_string seed,
                 ( int_of_string tests,
                   if covered = "" then [] else String.split_on_char ',' covered ) )
         | _ -> None)
