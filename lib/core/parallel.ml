(* Domain-based fan-out with deterministic, in-order collection.

   Shape: [jobs] worker domains pull task indices from an atomic
   counter and deposit results into a slot array; the calling thread is
   the single collector, walking the slots in index order and handing
   each result to [emit].  The atomic counter makes task *starts*
   monotone — whenever any index has been fetched, every lower index has
   also been fetched — so the collector can always make progress waiting
   on the next slot: the worker that fetched it will fill it with a
   value or an error.

   Determinism: tasks must be independent (Engine.run's per-fault tasks
   are pure functions of their index), so the only scheduling freedom is
   completion order, and the slot array erases it.  When several tasks
   raise, the collector re-raises the one with the lowest index; when
   [emit] itself raises (fail-fast), the bracket cancels outstanding
   work, joins every domain and re-raises — so failures too are
   independent of scheduling. *)

let default_jobs () = Domain.recommended_domain_count ()

let fan_out ~jobs ~make_ctx ~f ~emit n =
  let jobs = if jobs <= 0 then default_jobs () else jobs in
  if n = 0 then ()
  else if jobs = 1 then begin
    let ctx = make_ctx () in
    for i = 0 to n - 1 do
      emit i (f ctx i)
    done
  end
  else begin
    let jobs = min jobs n in
    let next = Atomic.make 0 in
    let cancelled = Atomic.make false in
    let mutex = Mutex.create () in
    let filled = Condition.create () in
    let slots = Array.make n None in
    (* Session context crosses the spawn: worker domains obey the
       spawning domain's injection override (the --inject config of a
       CLI run or of a served session) and stamp their spans with its
       request id.  With no override and no request both wrappers are
       identity. *)
    let fp_snapshot = Numerics.Failpoint.snapshot () in
    let req = Obs.current_request () in
    let in_session body =
      Numerics.Failpoint.with_snapshot fp_snapshot (fun () ->
          match req with
          | None -> body ()
          | Some id -> Obs.with_request id body)
    in
    let worker () =
      in_session @@ fun () ->
      let ctx = make_ctx () in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && not (Atomic.get cancelled) then begin
          let cell =
            match f ctx i with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          Mutex.lock mutex;
          slots.(i) <- Some cell;
          Condition.broadcast filled;
          Mutex.unlock mutex;
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init jobs (fun _ -> Domain.spawn worker) in
    let join_all () = List.iter Domain.join domains in
    let collect () =
      for i = 0 to n - 1 do
        Mutex.lock mutex;
        while slots.(i) = None do
          Condition.wait filled mutex
        done;
        let cell = Option.get slots.(i) in
        slots.(i) <- None;
        Mutex.unlock mutex;
        match cell with
        | Ok v -> emit i v
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      done
    in
    match collect () with
    | () -> join_all ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Atomic.set cancelled true;
        join_all ();
        Printexc.raise_with_backtrace e bt
  end
