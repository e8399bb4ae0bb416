(* Verification bookkeeping: every checked operation counts as attempted;
   a mismatch, a quarantined fault or a bad serve reply counts as
   failed and is reported on stderr. *)

type t = { mutable attempted : int; mutable failed : int }

let create () = { attempted = 0; failed = 0 }

let check t ~what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "verification failed: %s\n%!" what
  end
