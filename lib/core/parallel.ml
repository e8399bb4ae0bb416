(* Domain-based fan-out with deterministic, in-order emission.

   Shape: the calling domain and [jobs - 1] spawned domains pull task
   indices from one atomic counter and deposit results into a slot
   array.  The caller is also the single emitter: between its own tasks
   it walks the slots in index order and hands every finished prefix to
   [emit]; once the counter runs dry it waits for the slots still being
   filled by the other domains.  The atomic counter makes task *starts*
   monotone — whenever any index has been fetched, every lower index has
   also been fetched — so the caller can always make progress waiting on
   the next slot: the domain that fetched it will fill it with a value
   or an error.

   Latency: while the caller runs a task of its own, finished slots wait
   for it, so [emit] (checkpoints, progress, fail-fast) may see a result
   up to one task after it is finished.

   Determinism: tasks must be independent (Engine.run's per-fault tasks
   are pure functions of their index), so the only scheduling freedom is
   completion order, and the slot array erases it.  When several tasks
   raise, the exception of the lowest index is re-raised; when [emit]
   itself raises (fail-fast), the bracket cancels outstanding work,
   joins every domain and re-raises — so failures too are independent of
   scheduling. *)

let default_jobs () = Domain.recommended_domain_count ()

let fan_out ~jobs ~make_ctx ~f ~emit n =
  let jobs = if jobs <= 0 then default_jobs () else jobs in
  if n = 0 then ()
  else if jobs = 1 || n = 1 then begin
    let ctx = make_ctx () in
    for i = 0 to n - 1 do
      emit i (f ctx i)
    done
  end
  else begin
    let next = Atomic.make 0 in
    let cancelled = Atomic.make false in
    let mutex = Mutex.create () in
    let filled = Condition.create () in
    let slots = Array.make n None in
    (* Session context crosses the spawn: spawned domains obey the
       caller's injection override (the --inject config of a CLI run or
       of a served session) and stamp their spans with its request id.
       With no override and no request both wrappers are identity. *)
    let fp_snapshot = Numerics.Failpoint.snapshot () in
    let req = Obs.current_request () in
    let in_session body =
      Numerics.Failpoint.with_snapshot fp_snapshot (fun () ->
          match req with
          | None -> body ()
          | Some id -> Obs.with_request id body)
    in
    (* Run tasks until the counter runs dry (or the fan-out is
       cancelled), calling [between] after each one. *)
    let work ctx ~between =
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
          between ();
          loop ()
        end
      in
      loop ()
    in
    (* Collect the caller's garbage (the previous phase's, typically a
       compaction) before the workers start, so the freed heap is there
       for the spawned domains to reuse.  Without it each fan-out on a
       long-lived context grew the heap afresh: a second benchmark round
       on the IV context raised peak RSS from ~18 to 23.3 MB; with it,
       to 18.5-19.3 MB. *)
    Gc.full_major ();
    let domains =
      List.init (min jobs n - 1) (fun _ ->
          Domain.spawn (fun () ->
              in_session (fun () -> work (make_ctx ()) ~between:ignore)))
    in
    (* [emitted] is the next index to hand to [emit].  [take ~wait] pops
       that slot, blocking until it is filled when [wait] is set. *)
    let emitted = ref 0 in
    let take ~wait =
      Mutex.lock mutex;
      if wait then
        while slots.(!emitted) = None do
          Condition.wait filled mutex
        done;
      let cell = slots.(!emitted) in
      slots.(!emitted) <- None;
      Mutex.unlock mutex;
      cell
    in
    let emit_cell = function
      | Ok v ->
          let i = !emitted in
          incr emitted;
          emit i v
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
    in
    (* Emit the finished prefix; with [wait], every remaining slot. *)
    let rec drain ~wait =
      if !emitted < n then
        match take ~wait with
        | Some cell ->
            emit_cell cell;
            drain ~wait
        | None -> ()
    in
    let caller () =
      work (make_ctx ()) ~between:(fun () -> drain ~wait:false);
      drain ~wait:true
    in
    match caller () with
    | () ->
        List.iter Domain.join domains;
        (* The joined domains leave their share of the heap to the
           caller; collecting it here charges the fan-out's garbage to
           the fan-out.  Left to the caller's next phase, it made a
           sequential compaction after a pooled generation run ~7-11%
           slower. *)
        Gc.full_major ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Atomic.set cancelled true;
        List.iter Domain.join domains;
        Printexc.raise_with_backtrace e bt
  end
