(* Timing and summary helpers. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear-interpolation quantile (the "inclusive" method) of a non-empty
   list. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum = List.fold_left ( +. ) 0.

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Host-speed normalisation.  The host this benchmark was written on
   alternates every few seconds between a fast state and one about 1.6x
   slower, which moves every timing by up to 60% from run to run.
   [probe] times a fixed pure-OCaml kernel that uses nothing from the
   library: about [fast_probe_s] in the host's fast state.  A duration
   measured between two probes is scaled by [fast_probe_s] over their
   mean: the seconds the work would have taken in the fast state. *)
let fast_probe_s = 0.005

let probe () =
  let n = 24 in
  let a = Array.make_matrix n n 0. in
  let t0 = now () in
  let acc = ref 0. in
  for _ = 1 to 400 do
    (* refilled in place: the probe must not move the heap's growth *)
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        a.(i).(j) <- (if i = j then float_of_int (2 * n) else 1. /. float_of_int (1 + i + j))
      done
    done;
    for k = 0 to n - 1 do
      for i = k + 1 to n - 1 do
        let f = a.(i).(k) /. a.(k).(k) in
        for j = k to n - 1 do
          a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
        done
      done
    done;
    acc := !acc +. a.(n - 1).(n - 1)
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let normalise ~before ~after seconds = seconds *. fast_probe_s /. ((before +. after) /. 2.)

(* Seconds between host-speed samples taken during a call. *)
let sample_interval = 0.25

(* [f ()] and its normalised seconds.  The host's state changes within a
   call of a few seconds, so by default an interval timer also probes
   every [sample_interval] while [f] runs: each stretch of work between
   two probes is normalised by those two, and the probes' own time is
   left out.  [~sampled:false] probes only before and after, for calls
   whose threads block in system calls that the timer would interrupt. *)
let normalised ?(sampled = true) f =
  let samples = ref [] in
  let sample () =
    let t = now () in
    samples := (t, probe ()) :: !samples
  in
  let set_timer s =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s })
  in
  sample ();
  let v =
    if not sampled then f ()
    else begin
      let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ())) in
      set_timer sample_interval;
      Fun.protect f ~finally:(fun () ->
          set_timer 0.;
          Sys.set_signal Sys.sigalrm previous)
    end
  in
  sample ();
  let rec sum acc = function
    | (t0, d0) :: ((t1, d1) :: _ as rest) ->
        sum (acc +. normalise ~before:d0 ~after:d1 (t1 -. (t0 +. d0))) rest
    | _ -> acc
  in
  (v, sum 0. (List.rev !samples))
