open Testgen

type outcome = Pass | Skip of string | Fail of string

type ctx = {
  built : Scenario.built;
  run : Engine.run;  (** the base sequential, injection-free run *)
  jobs : int;
  inject : Numerics.Failpoint.spec list;
  inject_seed : int64;
}

(* Sequential unless an invariant asks for a pool: the campaign is
   itself the unit of work, so no run fans out on its own. *)
let base_run ?(jobs = 1) ?resume ?checkpoint built =
  Engine.run ~options:Scenario.generate_options ~jobs ?resume ?checkpoint
    ~evaluators:built.Scenario.evaluators built.Scenario.dictionary

let make_ctx ~jobs ~inject ~inject_seed spec =
  let built = Scenario.build spec in
  { built; run = base_run built; jobs; inject; inject_seed }

let fail fmt = Printf.ksprintf (fun m -> Fail m) fmt

(* engine runs compare equal when their persisted form, their rung
   statistics and their quarantine reports all agree *)
let runs_agree label (a : Engine.run) (b : Engine.run) =
  let ids r =
    List.map (fun d -> d.Resilience.diag_fault_id) r.Engine.failed_faults
  in
  if not (String.equal (Session.to_string a.results) (Session.to_string b.results))
  then fail "%s: session bytes differ" label
  else if a.rung_stats <> b.rung_stats then
    fail "%s: rung stats differ" label
  else if ids a <> ids b then
    fail "%s: quarantine reports differ (%s vs %s)" label
      (String.concat "," (ids a)) (String.concat "," (ids b))
  else Pass

(* -- session-roundtrip -------------------------------------------------- *)

let session_roundtrip ctx =
  let text = Session.to_string ctx.run.Engine.results in
  match Session.of_string text with
  | Error m -> fail "plain form does not parse back: %s" m
  | Ok rt ->
      if not (String.equal (Session.to_string rt) text) then
        Fail "plain roundtrip is not byte-stable"
      else begin
        let ck = Session.to_checkpoint_string ctx.run.Engine.results in
        match Session.of_string ck with
        | Error m -> fail "checkpoint form does not parse back: %s" m
        | Ok rt ->
            if not (String.equal (Session.to_string rt) text) then
              Fail "checkpoint roundtrip changes the results"
            else Pass
      end

(* -- parallel-merge ----------------------------------------------------- *)

let parallel_merge ctx =
  let jobs = if ctx.jobs > 1 then ctx.jobs else 2 in
  let prun = base_run ~jobs ctx.built in
  runs_agree (Printf.sprintf "jobs=%d vs sequential" jobs) ctx.run prun

(* -- compaction-no-loss ------------------------------------------------- *)

let compaction_no_loss ctx =
  let result =
    Compactor.compact ~delta:0.1 ~evaluators:ctx.built.Scenario.evaluators
      ctx.built.Scenario.dictionary ctx.run
  in
  let detected_before =
    List.filter_map
      (fun r ->
        match r.Generate.outcome with
        | Generate.Unique { dictionary_sensitivity; _ }
          when dictionary_sensitivity < 0. ->
            Some r.Generate.fault_id
        | _ -> None)
      ctx.run.Engine.results
  in
  let lost =
    List.filter
      (fun fid ->
        List.exists
          (fun d ->
            String.equal d.Coverage.det_fault_id fid && d.Coverage.detected_by = [])
          result.Compactor.coverage.Coverage.detections)
      detected_before
  in
  if lost <> [] then
    fail "compaction at delta 0.1 lost detection of: %s"
      (String.concat ", " lost)
  else if
    List.length result.Compactor.compact_tests > result.Compactor.original_test_count
  then Fail "compact set larger than the original test set"
  else Pass

(* -- coverage-monotone -------------------------------------------------- *)

let coverage_monotone ctx =
  let violations, checked =
    List.fold_left
      (fun (bad, n) r ->
        match r.Generate.outcome with
        | Generate.Unique { config_id; params; dictionary_sensitivity; _ }
          when dictionary_sensitivity < 0. -> begin
            match Evaluator.find ctx.built.Scenario.evaluators config_id with
            | exception Not_found -> (bad, n)
            | ev -> begin
                let harder =
                  Faults.Fault.intensify r.Generate.dictionary_fault ~factor:4.
                in
                match Evaluator.sensitivity ev harder params with
                | s when s < 0. -> (bad, n + 1)
                | s ->
                    ( Printf.sprintf "%s: S=%.3g at dictionary impact but S=%.3g at 4x intensity"
                        r.Generate.fault_id dictionary_sensitivity s
                      :: bad,
                      n + 1 )
                | exception Execute.Execution_failure _ ->
                    (* vacuous: the intensified circuit does not simulate;
                       the sentinel path inside [sensitivity] already
                       covers the common case *)
                    (bad, n)
              end
          end
        | _ -> (bad, n))
      ([], 0) ctx.run.Engine.results
  in
  if violations <> [] then
    fail "detection not monotone in fault impact: %s"
      (String.concat "; " (List.rev violations))
  else if checked = 0 then Skip "no detected fault to intensify"
  else Pass

(* -- inject-contract ---------------------------------------------------- *)

let injected_run ?jobs ctx =
  Numerics.Failpoint.with_config ~seed:ctx.inject_seed ctx.inject
    (fun () -> base_run ?jobs ctx.built)

let inject_contract ctx =
  if ctx.inject = [] then Skip "no failure sites configured"
  else begin
    let size = Faults.Dictionary.size ctx.built.Scenario.dictionary in
    let r = injected_run ctx in
    let n_results = List.length r.Engine.results in
    let n_failed = List.length r.Engine.failed_faults in
    let dict_ids =
      List.map
        (fun e -> e.Faults.Dictionary.fault_id)
        (Faults.Dictionary.entries ctx.built.Scenario.dictionary)
    in
    let failed_ids =
      List.map (fun d -> d.Resilience.diag_fault_id) r.Engine.failed_faults
    in
    if List.length r.Engine.reports <> size then
      fail "%d reports for %d dictionary faults" (List.length r.Engine.reports) size
    else if n_results + n_failed <> size then
      fail "results (%d) + quarantined (%d) != dictionary size (%d)" n_results
        n_failed size
    else if List.exists (fun id -> not (List.mem id dict_ids)) failed_ids then
      Fail "quarantine names a fault outside the dictionary"
    else if List.sort_uniq compare failed_ids <> List.sort compare failed_ids
    then Fail "duplicate quarantine reports"
    else begin
      let expected = if n_failed = 0 then 0 else Engine.exit_quarantined in
      if Engine.exit_status r <> expected then
        fail "exit status %d, expected %d (quarantined %d)"
          (Engine.exit_status r) expected n_failed
      else Pass
    end
  end

(* -- inject-parity ------------------------------------------------------ *)

let inject_parity ctx =
  if ctx.inject = [] then Skip "no failure sites configured"
  else begin
    let jobs = if ctx.jobs > 1 then ctx.jobs else 2 in
    let seq = injected_run ctx in
    let par = injected_run ~jobs ctx in
    runs_agree (Printf.sprintf "injected jobs=%d vs sequential" jobs) seq par
  end

(* -- crash-safety ------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "atpg_fuzz" ".session" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

(* Kill-mid-write campaign: run with a checkpoint that tears (via the
   session.torn_write failpoint) while appending block [tear_at], recover
   with checkpoint_resume, finish the dictionary, and require the
   recovered file to be byte-identical to an uninterrupted run's. *)
let crash_safety ctx =
  let size = Faults.Dictionary.size ctx.built.Scenario.dictionary in
  (* vary the tear point across scenarios, deterministically *)
  let tear_rng =
    Numerics.Rng.of_key
      ~seed:(Int64.of_int ctx.built.Scenario.spec.Scenario.value_seed)
      ~key:"fuzz.tear"
  in
  let tear_at = Numerics.Rng.int tear_rng ~bound:(size + 1) in
  with_temp_file (fun ref_path ->
      with_temp_file (fun torn_path ->
          (* uninterrupted reference *)
          let reference =
            match Session.checkpoint_create ~path:ref_path with
            | Error m -> Error m
            | Ok ck ->
                let _run =
                  base_run ~checkpoint:(Session.checkpoint_append ck) ctx.built
                in
                Session.checkpoint_close ck;
                Ok (read_file ref_path)
          in
          match reference with
          | Error m -> fail "reference checkpoint failed: %s" m
          | Ok reference -> begin
              (* torn run: arm the failpoint just before block [tear_at] *)
              match Session.checkpoint_create ~path:torn_path with
              | Error m -> fail "torn checkpoint create failed: %s" m
              | Ok ck -> begin
                  let count = ref 0 in
                  let checkpoint r =
                    let armed = !count = tear_at in
                    incr count;
                    if armed then
                      Numerics.Failpoint.with_config ~seed:ctx.inject_seed
                        [ Numerics.Failpoint.fail_always "session.torn_write" ]
                        (fun () -> Session.checkpoint_append ck r)
                    else Session.checkpoint_append ck r
                  in
                  let torn =
                    match base_run ~checkpoint ctx.built with
                    | (_ : Engine.run) -> false
                    | exception Session.Torn_write -> true
                  in
                  if torn then Session.checkpoint_abort ck
                  else Session.checkpoint_close ck;
                  if (not torn) && tear_at < size then
                    fail "torn_write failpoint armed at block %d never fired"
                      tear_at
                  else begin
                    (* recover and finish *)
                    match Session.checkpoint_resume ~path:torn_path with
                    | Error m -> fail "resume after tear failed: %s" m
                    | Ok (ck, salvaged) ->
                        if List.length salvaged <> min tear_at size then begin
                          Session.checkpoint_close ck;
                          fail "salvaged %d blocks, expected %d"
                            (List.length salvaged) (min tear_at size)
                        end
                        else begin
                          let (_ : Engine.run) =
                            base_run ~resume:salvaged
                              ~checkpoint:(Session.checkpoint_append ck)
                              ctx.built
                          in
                          Session.checkpoint_close ck;
                          let recovered = read_file torn_path in
                          if String.equal recovered reference then Pass
                          else
                            fail
                              "recovered checkpoint differs from the \
                               uninterrupted run (tear at block %d: %d vs %d \
                               bytes)"
                              tear_at
                              (String.length recovered)
                              (String.length reference)
                        end
                  end
                end
            end))

(* -- backend-parity ------------------------------------------------------- *)

(* Everything a compaction reports, floats in exact hex form. *)
let compaction_fingerprint (r : Compactor.result) =
  let hex v =
    String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") v))
  in
  let tests =
    List.map
      (fun t ->
        Printf.sprintf "%s #%d [%s] {%s}" t.Compactor.ct_label
          t.Compactor.ct_config_id (hex t.Compactor.ct_params)
          (String.concat "," t.Compactor.ct_fault_ids))
      r.Compactor.compact_tests
  in
  let detections =
    List.map
      (fun d ->
        Printf.sprintf "%s <- {%s} %h" d.Coverage.det_fault_id
          (String.concat "," d.Coverage.detected_by)
          d.Coverage.best_sensitivity)
      r.Compactor.coverage.Coverage.detections
  in
  String.concat "\n" (tests @ detections)

(* Two builds of one scenario that a bitwise contract says are
   interchangeable: nothing observable may differ — not the generation
   run, and not the compaction of it, whose coverage, collapse and
   member checks reach every backend solve. *)
let paths_agree label (a_built, (a : Engine.run)) (b_built, (b : Engine.run)) =
  let report_shape (r : Engine.fault_report) =
    match r.Engine.report_outcome with
    | Resilience.Ok _ -> r.Engine.report_fault_id ^ ":ok"
    | Resilience.Recovered _ as o ->
        r.Engine.report_fault_id ^ ":recovered:"
        ^ Option.value ~default:"?" (Resilience.recovery_rung o)
    | Resilience.Failed _ -> r.Engine.report_fault_id ^ ":failed"
  in
  let compaction (built : Scenario.built) run =
    compaction_fingerprint
      (Compactor.compact ~delta:0.1 ~evaluators:built.Scenario.evaluators
         built.Scenario.dictionary run)
  in
  match runs_agree label a b with
  | (Skip _ | Fail _) as o -> o
  | Pass ->
      if List.map report_shape a.Engine.reports
         <> List.map report_shape b.Engine.reports
      then fail "%s: fault reports differ" label
      else if a.Engine.total_fault_simulations <> b.Engine.total_fault_simulations
      then
        fail "%s: %d vs %d fault simulations" label
          a.Engine.total_fault_simulations b.Engine.total_fault_simulations
      else if
        not (String.equal (compaction a_built a) (compaction b_built b))
      then fail "%s: compaction reports differ" label
      else Pass

(* The same scenario forced onto the backend Mna.build did not choose for
   its nominal netlist: dense and sparse LU share pivot choices and
   per-entry update order, so the two runs must agree to the bit. *)
let backend_parity ctx =
  let selected =
    Circuit.Mna.backend
      (Circuit.Mna.build
         (Macros.Macro.nominal_netlist ctx.built.Scenario.macro))
  in
  let other =
    match selected with
    | Circuit.Mna.Dense -> Circuit.Mna.Sparse
    | Circuit.Mna.Sparse -> Circuit.Mna.Dense
  in
  let other_built = Scenario.build ~backend:other ctx.built.Scenario.spec in
  paths_agree
    (Printf.sprintf "%s vs %s" (Circuit.Mna.backend_name selected)
       (Circuit.Mna.backend_name other))
    (ctx.built, ctx.run)
    (other_built, base_run other_built)

(* -- self-test ----------------------------------------------------------- *)

(* A deliberately planted violation: fails on every scenario with more
   than one fault.  Campaigns run it only in self-test mode, to prove
   end-to-end that a violated invariant is caught and shrunk to the
   minimal scenario that still trips it (fault_count = 2, everything
   else at its floor). *)
let self_test ctx =
  let s = ctx.built.Scenario.spec in
  if s.Scenario.fault_count >= 2 then
    fail "planted violation: fault_count = %d >= 2" s.Scenario.fault_count
  else Pass

type t = { name : string; check : ctx -> outcome }

let all =
  [
    { name = "session-roundtrip"; check = session_roundtrip };
    { name = "parallel-merge"; check = parallel_merge };
    { name = "compaction-no-loss"; check = compaction_no_loss };
    { name = "coverage-monotone"; check = coverage_monotone };
    { name = "inject-contract"; check = inject_contract };
    { name = "inject-parity"; check = inject_parity };
    { name = "crash-safety"; check = crash_safety };
    { name = "backend-parity"; check = backend_parity };
  ]

let self_test_invariant = { name = "self-test"; check = self_test }

let names = List.map (fun i -> i.name) all
