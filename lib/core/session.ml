let format_version = 1

let float_str x = Printf.sprintf "%.17g" x

let vec_str v =
  String.concat " " (Array.to_list (Array.map float_str v))

let fault_str = function
  | Faults.Fault.Bridge { node_a; node_b; resistance } ->
      Printf.sprintf "bridge %s %s %s" node_a node_b (float_str resistance)
  | Faults.Fault.Pinhole { mosfet; r_shunt } ->
      Printf.sprintf "pinhole %s %s" mosfet (float_str r_shunt)

let header_line = Printf.sprintf "atpg-session %d\n" format_version

let add_result b (r : Generate.result) =
  begin
      Buffer.add_string b
        (Printf.sprintf "result %s\n" r.Generate.fault_id);
      Buffer.add_string b
        (Printf.sprintf "fault %s\n" (fault_str r.Generate.dictionary_fault));
      List.iter
        (fun (c : Generate.candidate) ->
          Buffer.add_string b
            (Printf.sprintf "candidate %d %s %d | %s\n" c.Generate.cand_config_id
               (float_str c.Generate.low_impact_sensitivity)
               c.Generate.optimizer_evaluations
               (vec_str c.Generate.cand_params)))
        r.Generate.candidates;
      (match r.Generate.outcome with
      | Generate.Unique { config_id; params; critical_impact; dictionary_sensitivity } ->
          Buffer.add_string b
            (Printf.sprintf "unique %d %s %s | %s\n" config_id
               (float_str critical_impact)
               (float_str dictionary_sensitivity)
               (vec_str params))
      | Generate.Undetectable
          { most_sensitive_config; params; best_sensitivity; strongest_impact } ->
          Buffer.add_string b
            (Printf.sprintf "undetectable %d %s %s | %s\n" most_sensitive_config
               (float_str best_sensitivity)
               (float_str strongest_impact)
               (vec_str params)));
      List.iter
        (fun (s : Generate.trace_step) ->
          Buffer.add_string b
            (Printf.sprintf "trace %s |%s\n"
               (float_str s.Generate.impact)
               (String.concat ""
                  (List.map (Printf.sprintf " %d") s.Generate.detecting))))
        r.Generate.trace;
      Buffer.add_string b "end\n"
  end

let to_string results =
  let b = Buffer.create 4096 in
  Buffer.add_string b header_line;
  List.iter (add_result b) results;
  Buffer.contents b

exception Bad of string

let failf fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let parse_float s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> failf "bad float %S" s

let parse_int s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> failf "bad int %S" s

let words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let split_bar line =
  match String.index_opt line '|' with
  | None -> failf "missing '|' separator in %S" line
  | Some i ->
      ( String.trim (String.sub line 0 i),
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let parse_vec s = Array.of_list (List.map parse_float (words s))

let parse_fault = function
  | [ "bridge"; a; b; r ] -> Faults.Fault.bridge a b ~resistance:(parse_float r)
  | [ "pinhole"; m; r ] -> Faults.Fault.pinhole m ~r_shunt:(parse_float r)
  | other -> failf "bad fault line: %s" (String.concat " " other)

type partial = {
  mutable p_fault : Faults.Fault.t option;
  mutable p_candidates : Generate.candidate list;
  mutable p_outcome : Generate.outcome option;
  mutable p_trace : Generate.trace_step list;
}

let of_string text =
  if String.length text = 0 then Error "empty session file (0 bytes)"
  else
  let lines = String.split_on_char '\n' text in
  match lines with
  | [] -> Error "empty session"
  | header :: rest -> begin
      match words header with
      | [ "atpg-session"; v ] when int_of_string_opt v = Some format_version
        -> begin
          try
            let results = ref [] in
            let current = ref None in
            let current_id = ref "" in
            let finish () =
              match !current with
              | None -> ()
              | Some p ->
                  let fault =
                    match p.p_fault with
                    | Some f -> f
                    | None -> failf "result %s: missing fault" !current_id
                  in
                  let outcome =
                    match p.p_outcome with
                    | Some o -> o
                    | None -> failf "result %s: missing outcome" !current_id
                  in
                  results :=
                    {
                      Generate.fault_id = !current_id;
                      dictionary_fault = fault;
                      candidates = List.rev p.p_candidates;
                      outcome;
                      trace = List.rev p.p_trace;
                    }
                    :: !results;
                  current := None
            in
            List.iter
              (fun line ->
                let line = String.trim line in
                if line = "" then ()
                else if line.[0] = '#' then
                  (* checkpoint trailers and comments; integrity is
                     checked byte-exactly by [scan_trailers], not here *)
                  ()
                else
                  match (words line, !current) with
                  | "result" :: id :: [], _ ->
                      finish ();
                      current_id := String.concat "" [ id ];
                      current :=
                        Some
                          {
                            p_fault = None;
                            p_candidates = [];
                            p_outcome = None;
                            p_trace = [];
                          }
                  | "fault" :: spec, Some p -> p.p_fault <- Some (parse_fault spec)
                  | "candidate" :: _, Some p -> begin
                      let head, tail = split_bar line in
                      match words head with
                      | [ _; cid; s; evals ] ->
                          p.p_candidates <-
                            {
                              Generate.cand_config_id = parse_int cid;
                              cand_params = parse_vec tail;
                              low_impact_sensitivity = parse_float s;
                              optimizer_evaluations = parse_int evals;
                            }
                            :: p.p_candidates
                      | _ -> failf "bad candidate line %S" line
                    end
                  | "unique" :: _, Some p -> begin
                      let head, tail = split_bar line in
                      match words head with
                      | [ _; cid; crit; s ] ->
                          p.p_outcome <-
                            Some
                              (Generate.Unique
                                 {
                                   config_id = parse_int cid;
                                   params = parse_vec tail;
                                   critical_impact = parse_float crit;
                                   dictionary_sensitivity = parse_float s;
                                 })
                      | _ -> failf "bad unique line %S" line
                    end
                  | "undetectable" :: _, Some p -> begin
                      let head, tail = split_bar line in
                      match words head with
                      | [ _; cid; s; impact ] ->
                          p.p_outcome <-
                            Some
                              (Generate.Undetectable
                                 {
                                   most_sensitive_config = parse_int cid;
                                   params = parse_vec tail;
                                   best_sensitivity = parse_float s;
                                   strongest_impact = parse_float impact;
                                 })
                      | _ -> failf "bad undetectable line %S" line
                    end
                  | "trace" :: _, Some p -> begin
                      let head, tail = split_bar line in
                      match words head with
                      | [ _; impact ] ->
                          p.p_trace <-
                            {
                              Generate.impact = parse_float impact;
                              detecting = List.map parse_int (words tail);
                            }
                            :: p.p_trace
                      | _ -> failf "bad trace line %S" line
                    end
                  | [ "end" ], Some _ -> finish ()
                  | _, None -> failf "line outside a result block: %S" line
                  | other, Some _ ->
                      failf "unknown line: %S" (String.concat " " other))
              rest;
            finish ();
            Ok (List.rev !results)
          with Bad m | Invalid_argument m -> Error m
        end
      | [ "atpg-session"; v ] ->
          Error (Printf.sprintf "unsupported session version %s" v)
      | _ -> Error "not an atpg session file"
    end

(* -- crash-safe writes -------------------------------------------------- *)

(* Whole-file writes go through a temporary sibling, an fsync and an
   atomic rename, so a crash mid-save leaves either the old file or the
   new one — never a torn hybrid. *)
let write_atomic ~path text =
  let tmp = path ^ ".tmp" in
  match open_out_bin tmp with
  | exception Sys_error m -> Error m
  | oc -> begin
      match
        output_string oc text;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc);
        close_out oc;
        Sys.rename tmp path
      with
      | () -> Ok ()
      | exception Sys_error m ->
          (try close_out_noerr oc with _ -> ());
          (try Sys.remove tmp with Sys_error _ -> ());
          Error m
      | exception Unix.Unix_error (e, fn, _) ->
          (try close_out_noerr oc with _ -> ());
          (try Sys.remove tmp with Sys_error _ -> ());
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
    end

let save ~path results = write_atomic ~path (to_string results)

let read_file path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      Ok text

(* -- checkpoint trailers ------------------------------------------------ *)

(* Every block a checkpoint appends is followed by a one-line trailer
   recording the block's byte length and CRC-32:

     result ...
     ...
     end
     #ck <len> <crc32-hex>

   Recovery walks the trailers byte-exactly: a block counts as durable
   only when its trailer is complete and both the length and the checksum
   verify, so a torn write (kill mid-[write]) or a corrupted byte is
   detected instead of being parsed as a shorter-but-valid session. *)

let trailer_of_block block =
  Printf.sprintf "#ck %d %08lx\n" (String.length block)
    (Numerics.Checksum.crc32 block)

let block_of_result r =
  let b = Buffer.create 1024 in
  add_result b r;
  Buffer.contents b

let to_checkpoint_string results =
  let b = Buffer.create 4096 in
  Buffer.add_string b header_line;
  List.iter
    (fun r ->
      let block = block_of_result r in
      Buffer.add_string b block;
      Buffer.add_string b (trailer_of_block block))
    results;
  Buffer.contents b

type scan = {
  scan_verified : int;  (** bytes of the longest verified prefix *)
  scan_blocks : int;  (** blocks covered by that prefix *)
  scan_anomaly : string option;
      (** first integrity violation (bad checksum, malformed or torn
          trailer); [None] when the scan ended at EOF or at a trailerless
          tail *)
}

let scan_trailers text =
  let len = String.length text in
  let find_trailer from =
    let rec go i =
      if i < 0 || i >= len then None
      else
        match String.index_from_opt text i '#' with
        | None -> None
        | Some j ->
            if
              j > 0
              && text.[j - 1] = '\n'
              && j + 4 <= len
              && String.equal (String.sub text j 4) "#ck "
            then Some j
            else go (j + 1)
    in
    go from
  in
  let rec walk pos blocks =
    if pos >= len then { scan_verified = pos; scan_blocks = blocks; scan_anomaly = None }
    else
      match find_trailer pos with
      | None ->
          (* a trailerless tail: either a block torn before its trailer
             was written, or a legacy (pre-trailer) checkpoint *)
          { scan_verified = pos; scan_blocks = blocks; scan_anomaly = None }
      | Some t -> begin
          match String.index_from_opt text t '\n' with
          | None ->
              {
                scan_verified = pos;
                scan_blocks = blocks;
                scan_anomaly =
                  Some (Printf.sprintf "torn checkpoint trailer at byte %d" t);
              }
          | Some nl -> begin
              let fields =
                String.split_on_char ' '
                  (String.sub text (t + 4) (nl - t - 4))
                |> List.filter (fun w -> w <> "")
              in
              match fields with
              | [ len_s; crc_s ] -> begin
                  match
                    ( int_of_string_opt len_s,
                      try Some (Int32.of_string ("0x" ^ crc_s))
                      with Failure _ -> None )
                  with
                  | Some blen, Some crc
                    when blen = t - pos
                         && Int32.equal crc
                              (Numerics.Checksum.crc32_sub text ~pos
                                 ~len:(t - pos)) ->
                      walk (nl + 1) (blocks + 1)
                  | Some blen, Some _ when blen <> t - pos ->
                      {
                        scan_verified = pos;
                        scan_blocks = blocks;
                        scan_anomaly =
                          Some
                            (Printf.sprintf
                               "checkpoint length mismatch at byte %d \
                                (trailer says %s, block is %d bytes)"
                               t len_s (t - pos));
                      }
                  | Some _, Some _ ->
                      {
                        scan_verified = pos;
                        scan_blocks = blocks;
                        scan_anomaly =
                          Some
                            (Printf.sprintf
                               "checkpoint checksum mismatch at byte %d \
                                (torn or corrupted block)"
                               pos);
                      }
                  | _ ->
                      {
                        scan_verified = pos;
                        scan_blocks = blocks;
                        scan_anomaly =
                          Some
                            (Printf.sprintf "malformed checkpoint trailer at byte %d" t);
                      }
                end
              | _ ->
                  {
                    scan_verified = pos;
                    scan_blocks = blocks;
                    scan_anomaly =
                      Some
                        (Printf.sprintf "malformed checkpoint trailer at byte %d" t);
                  }
            end
        end
  in
  walk (String.length header_line) 0

let header_ok text =
  String.length text >= String.length header_line
  && String.equal (String.sub text 0 (String.length header_line)) header_line

(* Keep the header plus every complete result block: everything up to and
   including the last "end" line.  The legacy salvage for pre-trailer
   checkpoint files, and for a trailerless tail behind the last verified
   trailer. *)
let truncate_to_complete text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | [] -> text
  | header :: rest ->
      let kept =
        let rec keep acc pending = function
          | [] -> List.rev acc
          | line :: tl ->
              if String.equal (String.trim line) "end" then
                keep (line :: (pending @ acc)) [] tl
              else keep acc (line :: pending) tl
        in
        keep [] [] rest
      in
      String.concat "\n" ((header :: kept) @ [ "" ])

(* The longest prefix of [text] recovery trusts: every trailer-verified
   block and, when the file carries no trailers at all (a legacy
   checkpoint), every syntactically complete block. *)
let salvage text =
  if not (header_ok text) then
    (* a torn header (prefix of the real one) salvages to an empty
       session; anything else is not ours to rewrite *)
    if
      String.length text < String.length header_line
      && String.equal text (String.sub header_line 0 (String.length text))
    then Ok header_line
    else
      match of_string text with
      | Error m -> Error m
      | Ok _ -> Error "unexpected session header"
  else
    let scan = scan_trailers text in
    if scan.scan_blocks = 0 && scan.scan_anomaly = None then
      (* no usable trailer: legacy file (or header-only) — salvage
         complete blocks syntactically *)
      Ok (truncate_to_complete text)
    else Ok (String.sub text 0 scan.scan_verified)

let load ~path =
  match read_file path with
  | Error m -> Error m
  | Ok text ->
      if String.length text = 0 then Error "empty session file (0 bytes)"
      else if not (header_ok text) then of_string text
      else
        let scan = scan_trailers text in
        if scan.scan_blocks = 0 && scan.scan_anomaly = None then
          of_string text
        else begin
          match scan.scan_anomaly with
          | Some m -> Error m
          | None ->
              if scan.scan_verified < String.length text then
                Error
                  (Printf.sprintf
                     "torn checkpoint: %d bytes of unverified data after \
                      block %d (use --resume to salvage)"
                     (String.length text - scan.scan_verified)
                     scan.scan_blocks)
              else of_string text
        end

let load_partial ~path =
  match read_file path with
  | Error m -> Error m
  | Ok text -> begin
      match salvage text with
      | Error m -> Error m
      | Ok prefix -> of_string prefix
    end

(* -- incremental checkpointing ---------------------------------------- *)

exception Torn_write

type checkpoint = { ck_oc : out_channel }

let fsync_channel oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

let checkpoint_create ~path =
  match open_out_bin path with
  | exception Sys_error m -> Error m
  | oc ->
      output_string oc header_line;
      fsync_channel oc;
      Ok { ck_oc = oc }

let checkpoint_resume ~path =
  if not (Sys.file_exists path) then
    match checkpoint_create ~path with
    | Error m -> Error m
    | Ok ck -> Ok (ck, [])
  else
    match read_file path with
    | Error m -> Error m
    | Ok text -> begin
        match salvage text with
        | Error m -> Error m
        | Ok prefix -> begin
            match of_string prefix with
            | Error m -> Error m
            | Ok results -> begin
                (* rewrite the salvaged prefix atomically — in canonical
                   trailered form, so a legacy or torn file never carries
                   its tail (or its trailerless blocks) forward — then
                   reopen for appending *)
                match write_atomic ~path (to_checkpoint_string results) with
                | Error m -> Error m
                | Ok () -> begin
                    match
                      open_out_gen [ Open_wronly; Open_append; Open_binary ]
                        0o644 path
                    with
                    | exception Sys_error m -> Error m
                    | oc -> Ok ({ ck_oc = oc }, results)
                  end
              end
          end
      end

let checkpoint_append ck r =
  let block = block_of_result r in
  let payload = block ^ trailer_of_block block in
  if Numerics.Failpoint.should_fail "session.torn_write" then begin
    (* simulate a kill mid-write: half the payload reaches the file, the
       trailer (or its tail) does not, and the writer dies *)
    output_string ck.ck_oc
      (String.sub payload 0 (String.length payload / 2));
    flush ck.ck_oc;
    raise Torn_write
  end;
  output_string ck.ck_oc payload;
  fsync_channel ck.ck_oc

let checkpoint_close ck = close_out ck.ck_oc
let checkpoint_abort ck = close_out_noerr ck.ck_oc

(* -- verdict-level comparison ------------------------------------------ *)

type verdict = {
  winner : int;
  detectable : bool;
  impact : float;
  sensitivity : float;
}

type change = { fault_id : string; before : verdict option; after : verdict option }

type diff = {
  changes : change list;
  faults : int;
  agreeing : int;
  winner_moves : int;
  flips : int;
  missing : int;
  worst_ratio : float;
  worst_fault : string option;
}

let exit_verdict_drift = 8

let verdict_of (r : Generate.result) =
  match r.Generate.outcome with
  | Generate.Unique { config_id; critical_impact; dictionary_sensitivity; _ } ->
      {
        winner = config_id;
        detectable = true;
        impact = critical_impact;
        sensitivity = dictionary_sensitivity;
      }
  | Generate.Undetectable
      { most_sensitive_config; strongest_impact; best_sensitivity; _ } ->
      {
        winner = most_sensitive_config;
        detectable = false;
        impact = strongest_impact;
        sensitivity = best_sensitivity;
      }

(* The symmetric critical-impact ratio (>= 1) of two verdicts of the
   same detectability; a flip has none. *)
let impact_ratio a b =
  if a.detectable <> b.detectable then None
  else
    let r = b.impact /. a.impact in
    Some (Float.max r (1. /. r))

let sign x = if x < 0. then '-' else if x > 0. then '+' else '0'

let diff before after =
  let verdicts results =
    List.map (fun r -> (r.Generate.fault_id, verdict_of r)) results
  in
  let va = verdicts before and vb = verdicts after in
  let ids =
    List.map fst va
    @ List.filter (fun id -> not (List.mem_assoc id va)) (List.map fst vb)
  in
  let step d id =
    let a = List.assoc_opt id va and b = List.assoc_opt id vb in
    let change = { fault_id = id; before = a; after = b } in
    match (a, b) with
    | Some a, Some b ->
        let moved = a.winner <> b.winner
        and flipped = a.detectable <> b.detectable in
        let changed =
          moved || flipped
          || (not (Int64.equal (Int64.bits_of_float a.impact)
                     (Int64.bits_of_float b.impact)))
          || sign a.sensitivity <> sign b.sensitivity
        in
        let worse =
          match impact_ratio a b with
          | Some r when r > d.worst_ratio -> Some r
          | Some _ | None -> None
        in
        {
          d with
          changes = (if changed then change :: d.changes else d.changes);
          agreeing = d.agreeing + Bool.to_int (not (moved || flipped));
          winner_moves = d.winner_moves + Bool.to_int moved;
          flips = d.flips + Bool.to_int flipped;
          worst_ratio = Option.value worse ~default:d.worst_ratio;
          worst_fault = (if Option.is_some worse then Some id else d.worst_fault);
        }
    | _ -> { d with changes = change :: d.changes; missing = d.missing + 1 }
  in
  let d =
    List.fold_left step
      {
        changes = [];
        faults = List.length ids;
        agreeing = 0;
        winner_moves = 0;
        flips = 0;
        missing = 0;
        worst_ratio = 1.;
        worst_fault = None;
      }
      ids
  in
  { d with changes = List.rev d.changes }

let diff_ok d =
  d.winner_moves = 0 && d.flips = 0 && d.missing = 0
  && d.worst_ratio <= Generate.critical_resolution

let render_diff d =
  let b = Buffer.create 1024 in
  let describe = function
    | None -> "missing"
    | Some v ->
        Printf.sprintf "%s #%d sens %c"
          (if v.detectable then "detectable" else "undetectable")
          v.winner (sign v.sensitivity)
  in
  List.iter
    (fun c ->
      let notes =
        match (c.before, c.after) with
        | Some a, Some b ->
            List.filter_map Fun.id
              [
                (if a.winner <> b.winner then Some "WINNER MOVED" else None);
                (if a.detectable <> b.detectable then Some "FLIP" else None);
                Option.map (Printf.sprintf "ratio %.4f") (impact_ratio a b);
                (if sign a.sensitivity <> sign b.sensitivity then
                   Some "SIGN CHANGED"
                 else None);
              ]
        | _ -> []
      in
      Buffer.add_string b
        (Printf.sprintf "%-20s %s -> %s  %s\n" c.fault_id (describe c.before)
           (describe c.after) (String.concat ", " notes)))
    d.changes;
  Buffer.add_string b
    (Printf.sprintf
       "verdicts: compat %.3f (%d/%d), winner moves %d, flips %d, missing %d, \
        worst critical-impact ratio %.4f%s, %d changed\n"
       (if d.faults = 0 then 1. else float_of_int d.agreeing /. float_of_int d.faults)
       d.agreeing d.faults d.winner_moves d.flips d.missing d.worst_ratio
       (match d.worst_fault with Some id -> " (" ^ id ^ ")" | None -> "")
       (List.length d.changes));
  Buffer.contents b
