(* Sparse MNA matrices: fixed CSR pattern with precompiled stamp slots,
   and a right-looking row-major sparse LU whose pivot choices and
   per-entry update sequence replicate the dense Crout sweep of
   [Mat.factor_in_place] exactly.  Skipping structurally-zero work is a
   bitwise no-op (subtracting an exact zero product never changes a
   finite accumulator), so factors and solves are bit-identical to the
   dense backend — the property that lets the two backends produce
   identical verdicts and session bytes, pinned by the parity suite. *)

type t = {
  n : int;
  rp : int array;  (* row pointers, n+1 *)
  ci : int array;  (* column indices, sorted within each row *)
  vx : float array;  (* values, one per pattern slot *)
}

let create n entries =
  if n < 0 then invalid_arg "Smat.create";
  List.iter
    (fun (i, j) ->
      if i < 0 || j < 0 || i >= n || j >= n then
        invalid_arg "Smat.create: entry out of range")
    entries;
  let sorted =
    List.sort_uniq
      (fun (a1, b1) (a2, b2) ->
        if a1 <> a2 then compare a1 a2 else compare b1 b2)
      entries
  in
  let nnz = List.length sorted in
  let rp = Array.make (n + 1) 0 in
  List.iter (fun (i, _) -> rp.(i + 1) <- rp.(i + 1) + 1) sorted;
  for i = 1 to n do
    rp.(i) <- rp.(i) + rp.(i - 1)
  done;
  let ci = Array.make nnz 0 in
  (* row-major sorted order lays entries out exactly in CSR order *)
  List.iteri (fun s (_, j) -> ci.(s) <- j) sorted;
  { n; rp; ci; vx = Array.make nnz 0. }

let size a = a.n
let nnz a = Array.length a.ci
let clear a = Array.fill a.vx 0 (Array.length a.vx) 0.
let values a = a.vx

(* Binary search for (i, j) within row i's sorted column segment. *)
let slot a i j =
  let lo = ref a.rp.(i) and hi = ref (a.rp.(i + 1) - 1) in
  let res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = a.ci.(mid) in
    if c = j then res := mid else if c < j then lo := mid + 1 else hi := mid - 1
  done;
  !res

let add_to a i j x =
  if i < 0 || j < 0 || i >= a.n || j >= a.n then
    invalid_arg "Smat.add_to: index out of range";
  let s = slot a i j in
  if s < 0 then invalid_arg "Smat.add_to: entry outside the pattern";
  a.vx.(s) <- a.vx.(s) +. x

let set a i j x =
  if i < 0 || j < 0 || i >= a.n || j >= a.n then
    invalid_arg "Smat.set: index out of range";
  let s = slot a i j in
  if s < 0 then invalid_arg "Smat.set: entry outside the pattern";
  a.vx.(s) <- x

let get a i j =
  if i < 0 || j < 0 || i >= a.n || j >= a.n then
    invalid_arg "Smat.get: index out of range";
  let s = slot a i j in
  if s < 0 then 0. else a.vx.(s)

let mul_vec a v =
  if Vec.dim v <> a.n then invalid_arg "Smat.mul_vec: dimension mismatch";
  Vec.init a.n (fun i ->
      let s = ref 0. in
      for t = a.rp.(i) to a.rp.(i + 1) - 1 do
        s := !s +. (a.vx.(t) *. v.(a.ci.(t)))
      done;
      !s)

let to_dense a =
  let m = Mat.create a.n a.n in
  for i = 0 to a.n - 1 do
    for t = a.rp.(i) to a.rp.(i + 1) - 1 do
      Mat.set m i a.ci.(t) a.vx.(t)
    done
  done;
  m

let of_dense m =
  if Mat.rows m <> Mat.cols m then invalid_arg "Smat.of_dense: not square";
  let n = Mat.rows m in
  let entries = ref [] in
  for i = 0 to n - 1 do
    entries := (i, i) :: !entries;
    for j = 0 to n - 1 do
      if Mat.get m i j <> 0. then entries := (i, j) :: !entries
    done
  done;
  let a = create n !entries in
  for i = 0 to n - 1 do
    for t = a.rp.(i) to a.rp.(i + 1) - 1 do
      a.vx.(t) <- Mat.get m i a.ci.(t)
    done
  done;
  a

(* The factor workspace holds one packed L\U row per pivot position:
   sorted column indices, the slot of the diagonal, and the row's
   current length.  Row storage grows on demand and is reused across
   factorizations, so the restamp-many loop settles into steady state
   with no allocation.  [cl_*] is a column view of L (the slots below
   the diagonal), rebuilt per fresh factor and replayed by [refactor]. *)
type lu = {
  ln : int;
  mutable factored : bool;
  mutable has_pattern : bool;
  piv : int array;
  r_len : int array;
  r_ci : int array array;
  r_vx : float array array;
  r_diag : int array;
  mutable cl_ptr : int array;
  mutable cl_row : int array;
  mutable cl_slot : int array;
  cur : int array;  (* per-row cursor of the fresh elimination *)
  s_ci : int array;  (* merge scratch *)
  s_vx : float array;
  (* Replay schedule compiled against one A pattern (identified
     physically by [pat_rp]/[pat_ci]): per factor row the source slot in
     [a.vx] of each entry (-1 = fill), and per L column entry the row
     slots its U-suffix update lands in.  Turns [refactor] into a flat
     arithmetic replay with no merge scans — the same operations in the
     same order, so still bit-identical to the fresh factorization. *)
  mutable pat_rp : int array;
  mutable pat_ci : int array;
  mutable scat_src : int array array;
  mutable upd : int array array;
  mutable sched_valid : bool;
  mutable n_full : int;
  mutable n_reuse : int;
}

let lu_workspace n =
  if n < 0 then invalid_arg "Smat.lu_workspace";
  {
    ln = n;
    factored = false;
    has_pattern = false;
    piv = Array.init n (fun i -> i);
    r_len = Array.make n 0;
    r_ci = Array.init n (fun _ -> [||]);
    r_vx = Array.init n (fun _ -> [||]);
    r_diag = Array.make n 0;
    cl_ptr = Array.make (n + 1) 0;
    cl_row = [||];
    cl_slot = [||];
    cur = Array.make n 0;
    s_ci = Array.make n 0;
    s_vx = Array.make n 0.;
    pat_rp = [||];
    pat_ci = [||];
    scat_src = [||];
    upd = [||];
    sched_valid = false;
    n_full = 0;
    n_reuse = 0;
  }

let lu_pivots ws =
  if not ws.factored then invalid_arg "Smat.lu_pivots: workspace not factored";
  Array.copy ws.piv

(* Grow row [i] to at least [cap] slots, preserving the first [keep]. *)
let ensure_row ws i cap ~keep =
  if Array.length ws.r_ci.(i) < cap then begin
    let nc = max cap ((2 * Array.length ws.r_ci.(i)) + 8) in
    let nci = Array.make nc 0 and nvx = Array.make nc 0. in
    if keep > 0 then begin
      Array.blit ws.r_ci.(i) 0 nci 0 keep;
      Array.blit ws.r_vx.(i) 0 nvx 0 keep
    end;
    ws.r_ci.(i) <- nci;
    ws.r_vx.(i) <- nvx
  end

let build_columns ws =
  let n = ws.ln in
  let lp = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let ci_ = ws.r_ci.(i) in
    for s = 0 to ws.r_diag.(i) - 1 do
      lp.(ci_.(s) + 1) <- lp.(ci_.(s) + 1) + 1
    done
  done;
  for c = 1 to n do
    lp.(c) <- lp.(c) + lp.(c - 1)
  done;
  let ltot = lp.(n) in
  if Array.length ws.cl_row < ltot then begin
    ws.cl_row <- Array.make ltot 0;
    ws.cl_slot <- Array.make ltot 0
  end;
  let lpos = Array.copy lp in
  for i = 0 to n - 1 do
    let ci_ = ws.r_ci.(i) in
    for s = 0 to ws.r_diag.(i) - 1 do
      let c = ci_.(s) in
      ws.cl_row.(lpos.(c)) <- i;
      ws.cl_slot.(lpos.(c)) <- s;
      lpos.(c) <- lpos.(c) + 1
    done
  done;
  ws.cl_ptr <- lp

(* Compile [refactor]'s replay schedule against the pattern of [a].  For
   the matrix just factored, every entry of pivoted row [piv i] appears
   in factor row [i] (elimination only adds entries), so the scatter
   walk always consumes the whole row; a matrix with an entry the held
   factor lacks leaves the schedule invalid. *)
let compile_schedule a ws =
  let n = ws.ln in
  let ok = ref true in
  ws.scat_src <-
    Array.init n (fun i ->
        let r = ws.piv.(i) in
        let ci_ = ws.r_ci.(i) and len = ws.r_len.(i) in
        let map = Array.make len (-1) in
        let sa = ref a.rp.(r) in
        let stop = a.rp.(r + 1) in
        for s = 0 to len - 1 do
          if !sa < stop && a.ci.(!sa) = ci_.(s) then begin
            map.(s) <- !sa;
            incr sa
          end
        done;
        if !sa <> stop then ok := false;
        map);
  if !ok then begin
    let total = ws.cl_ptr.(n) in
    let upd = Array.make total [||] in
    for k = 0 to n - 1 do
      let dk = ws.r_diag.(k) in
      let kci = ws.r_ci.(k) and klen = ws.r_len.(k) in
      for s = ws.cl_ptr.(k) to ws.cl_ptr.(k + 1) - 1 do
        let i = ws.cl_row.(s) and c0 = ws.cl_slot.(s) in
        let ci_ = ws.r_ci.(i) in
        let m = klen - dk - 1 in
        let slots = Array.make m 0 in
        let sa = ref (c0 + 1) in
        for t = 0 to m - 1 do
          let cb = kci.(dk + 1 + t) in
          while ci_.(!sa) < cb do
            incr sa
          done;
          slots.(t) <- !sa
        done;
        upd.(s) <- slots
      done
    done;
    ws.upd <- upd;
    ws.pat_rp <- a.rp;
    ws.pat_ci <- a.ci;
    ws.sched_valid <- true
  end
  else ws.sched_valid <- false

(* Full symbolic + numeric factorization.  At step k the candidate
   value of row i is its structural col-k entry (rows without one hold
   an exact zero there, which strict-max pivoting can never select), so
   the pivot scan makes the same choices as the dense sweep.  Fill is
   purely structural: every pivot-row U column is merged into every
   candidate row even when the multiplier is an exact zero — the extra
   subtractions are bitwise no-ops, and they guarantee the held pattern
   depends only on the stamp pattern and the pivot sequence, which is
   what makes [refactor]'s replay exact. *)
let factor_in_place a ws =
  if a.n <> ws.ln then invalid_arg "Smat.factor_in_place: size mismatch";
  let n = a.n in
  ws.factored <- false;
  ws.has_pattern <- false;
  for i = 0 to n - 1 do
    ws.piv.(i) <- i;
    ws.cur.(i) <- 0;
    let len = a.rp.(i + 1) - a.rp.(i) in
    ensure_row ws i len ~keep:0;
    Array.blit a.ci a.rp.(i) ws.r_ci.(i) 0 len;
    Array.blit a.vx a.rp.(i) ws.r_vx.(i) 0 len;
    ws.r_len.(i) <- len
  done;
  let cand i k =
    if ws.cur.(i) < ws.r_len.(i) && ws.r_ci.(i).(ws.cur.(i)) = k then
      ws.r_vx.(i).(ws.cur.(i))
    else 0.
  in
  for k = 0 to n - 1 do
    let p = ref k in
    let best = ref (Float.abs (cand k k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (cand i k) in
      if v > !best then begin
        best := v;
        p := i
      end
    done;
    if !best < 1e-300 then raise (Mat.Singular k);
    if !p <> k then begin
      let p = !p in
      let tc = ws.r_ci.(k) in
      ws.r_ci.(k) <- ws.r_ci.(p);
      ws.r_ci.(p) <- tc;
      let tv = ws.r_vx.(k) in
      ws.r_vx.(k) <- ws.r_vx.(p);
      ws.r_vx.(p) <- tv;
      let t = ws.r_len.(k) in
      ws.r_len.(k) <- ws.r_len.(p);
      ws.r_len.(p) <- t;
      let t = ws.cur.(k) in
      ws.cur.(k) <- ws.cur.(p);
      ws.cur.(p) <- t;
      let t = ws.piv.(k) in
      ws.piv.(k) <- ws.piv.(p);
      ws.piv.(p) <- t
    end;
    let dk = ws.cur.(k) in
    ws.r_diag.(k) <- dk;
    let akk = ws.r_vx.(k).(dk) in
    let kci = ws.r_ci.(k) and kvx = ws.r_vx.(k) and klen = ws.r_len.(k) in
    for i = k + 1 to n - 1 do
      if ws.cur.(i) < ws.r_len.(i) && ws.r_ci.(i).(ws.cur.(i)) = k then begin
        let ci_ = ws.r_ci.(i) and vx_ = ws.r_vx.(i) and ilen = ws.r_len.(i) in
        let c0 = ws.cur.(i) in
        let lik = vx_.(c0) /. akk in
        vx_.(c0) <- lik;
        (* merge the two sorted suffixes into scratch; fill entries
           compute [0. -. lik *. u] so they match the dense
           [a_ij -. lik *. a_kj] with [a_ij = 0.] bit for bit *)
        let sci = ws.s_ci and svx = ws.s_vx in
        let sa = ref (c0 + 1) and sb = ref (dk + 1) and m = ref 0 in
        while !sa < ilen && !sb < klen do
          let ca = ci_.(!sa) and cb = kci.(!sb) in
          if ca < cb then begin
            sci.(!m) <- ca;
            svx.(!m) <- vx_.(!sa);
            incr sa;
            incr m
          end
          else if ca > cb then begin
            sci.(!m) <- cb;
            svx.(!m) <- 0. -. (lik *. kvx.(!sb));
            incr sb;
            incr m
          end
          else begin
            sci.(!m) <- ca;
            svx.(!m) <- vx_.(!sa) -. (lik *. kvx.(!sb));
            incr sa;
            incr sb;
            incr m
          end
        done;
        while !sa < ilen do
          sci.(!m) <- ci_.(!sa);
          svx.(!m) <- vx_.(!sa);
          incr sa;
          incr m
        done;
        while !sb < klen do
          sci.(!m) <- kci.(!sb);
          svx.(!m) <- 0. -. (lik *. kvx.(!sb));
          incr sb;
          incr m
        done;
        let new_len = c0 + 1 + !m in
        ensure_row ws i new_len ~keep:(c0 + 1);
        Array.blit sci 0 ws.r_ci.(i) (c0 + 1) !m;
        Array.blit svx 0 ws.r_vx.(i) (c0 + 1) !m;
        ws.r_len.(i) <- new_len;
        ws.cur.(i) <- c0 + 1
      end
    done
  done;
  build_columns ws;
  compile_schedule a ws;
  ws.factored <- true;
  ws.has_pattern <- true;
  ws.n_full <- ws.n_full + 1

(* Numeric-only replay on the held pattern and pivot order.  The guard
   re-runs the dense pivot scan against the current values at every
   step: success means fresh partial pivoting would have made exactly
   the held choices, so the replay's arithmetic is the fresh
   factorization's arithmetic — refactorization can never change a
   result, only skip the symbolic bookkeeping.  The held pivot must be
   the strict maximum of its column: on a tie the dense scan keeps the
   first row in its current order, which the held order need not match,
   so a candidate equal in magnitude fails the guard too.

   The replay runs through the schedule: scatter A's values through the
   precompiled source map (fill restarts at zero), then per pivot run
   the guard scan and the scheduled updates.  A matrix other than the
   one the schedule was compiled against gets a schedule of its own
   first; one with an entry the held pattern lacks cannot replay. *)
let refactor a ws =
  if a.n <> ws.ln then invalid_arg "Smat.refactor: size mismatch";
  if not ws.has_pattern then false
  else begin
    ws.factored <- false;
    if not (ws.sched_valid && a.rp == ws.pat_rp && a.ci == ws.pat_ci) then
      compile_schedule a ws;
    if not ws.sched_valid then begin
      ws.has_pattern <- false;
      false
    end
    else begin
      let n = a.n in
      for i = 0 to n - 1 do
        let map = Array.unsafe_get ws.scat_src i in
        let vx_ = Array.unsafe_get ws.r_vx i in
        let len = Array.unsafe_get ws.r_len i in
        for s = 0 to len - 1 do
          let src = Array.unsafe_get map s in
          Array.unsafe_set vx_ s
            (if src >= 0 then Array.unsafe_get a.vx src else 0.)
        done
      done;
      let guard_ok = ref true in
      let k = ref 0 in
      while !guard_ok && !k < n do
        let kk = !k in
        let dk = Array.unsafe_get ws.r_diag kk in
        let kvx = Array.unsafe_get ws.r_vx kk in
        let best = ref (Float.abs (Array.unsafe_get kvx dk)) in
        let p = ref kk in
        let cl0 = Array.unsafe_get ws.cl_ptr kk in
        let cl1 = Array.unsafe_get ws.cl_ptr (kk + 1) in
        for s = cl0 to cl1 - 1 do
          let row = Array.unsafe_get ws.cl_row s in
          let v =
            Float.abs
              (Array.unsafe_get
                 (Array.unsafe_get ws.r_vx row)
                 (Array.unsafe_get ws.cl_slot s))
          in
          if v >= !best then begin
            best := v;
            p := row
          end
        done;
        if !p <> kk || !best < 1e-300 then guard_ok := false
        else begin
          let akk = Array.unsafe_get kvx dk in
          for s = cl0 to cl1 - 1 do
            let i = Array.unsafe_get ws.cl_row s in
            let c0 = Array.unsafe_get ws.cl_slot s in
            let vx_ = Array.unsafe_get ws.r_vx i in
            let lik = Array.unsafe_get vx_ c0 /. akk in
            Array.unsafe_set vx_ c0 lik;
            let slots = Array.unsafe_get ws.upd s in
            let m = Array.length slots in
            for t = 0 to m - 1 do
              let dst = Array.unsafe_get slots t in
              Array.unsafe_set vx_ dst
                (Array.unsafe_get vx_ dst
                -. (lik *. Array.unsafe_get kvx (dk + 1 + t)))
            done
          done
        end;
        incr k
      done;
      if !guard_ok then begin
        ws.factored <- true;
        ws.n_reuse <- ws.n_reuse + 1;
        true
      end
      else begin
        (* values partially overwritten and the held pivot order is
           stale: discard the pattern *)
        ws.has_pattern <- false;
        ws.sched_valid <- false;
        false
      end
    end
  end

let solve_into ws b x =
  if not ws.factored then invalid_arg "Smat.solve_into: workspace not factored";
  let n = ws.ln in
  if Vec.dim b <> n then invalid_arg "Smat.solve_into: dimension mismatch";
  if Vec.dim x <> n then invalid_arg "Smat.solve_into: bad output dimension";
  if b == x then invalid_arg "Smat.solve_into: aliased input and output";
  for i = 0 to n - 1 do
    x.(i) <- b.(ws.piv.(i))
  done;
  (* forward substitution, unit lower triangle *)
  for i = 1 to n - 1 do
    let ci_ = ws.r_ci.(i) and vx_ = ws.r_vx.(i) in
    let s = ref x.(i) in
    for t = 0 to ws.r_diag.(i) - 1 do
      s := !s -. (vx_.(t) *. x.(ci_.(t)))
    done;
    x.(i) <- !s
  done;
  (* backward substitution *)
  for i = n - 1 downto 0 do
    let ci_ = ws.r_ci.(i) and vx_ = ws.r_vx.(i) in
    let d = ws.r_diag.(i) in
    let s = ref x.(i) in
    for t = d + 1 to ws.r_len.(i) - 1 do
      s := !s -. (vx_.(t) *. x.(ci_.(t)))
    done;
    x.(i) <- !s /. vx_.(d)
  done

type stats = {
  full_factorizations : int;
  pattern_reuses : int;
  factor_nnz : int;
}

let stats ws =
  let fill = ref 0 in
  if ws.has_pattern then
    for i = 0 to ws.ln - 1 do
      fill := !fill + ws.r_len.(i)
    done;
  {
    full_factorizations = ws.n_full;
    pattern_reuses = ws.n_reuse;
    factor_nnz = !fill;
  }
