(** Persistence of generation results.

    A whole-dictionary generation run costs minutes of simulation; this
    module saves its results in a line-oriented text format so compaction,
    scheduling and reporting can be re-run (or run with different
    parameters such as [delta]) without regenerating.  The format is
    versioned, human-readable and stable under round-trips.

    {b Crash safety.}  Whole-file writes ({!save}) go through a temporary
    sibling, an [fsync] and an atomic rename.  Checkpoint files append a
    one-line [#ck <len> <crc32>] trailer after every result block;
    recovery ({!checkpoint_resume}, {!load_partial}) trusts exactly the
    blocks whose trailers verify, so a torn write or a corrupted byte is
    detected instead of being parsed as a shorter-but-valid session.
    Trailer lines start with [#] and are ignored by {!of_string}, so a
    checkpoint file is also a loadable session file. *)

val format_version : int

val to_string : Generate.result list -> string
(** Serialize results (candidates, outcome, impact trace). *)

val to_checkpoint_string : Generate.result list -> string
(** Like {!to_string}, with the integrity trailer after each block —
    the exact bytes a checkpointed run leaves on disk. *)

val of_string : string -> (Generate.result list, string) result
(** Parse a serialized session.  Fails with a diagnostic on version
    mismatch or malformed input (including a zero-byte string).
    [#]-prefixed lines (checkpoint trailers, comments) are skipped. *)

val save : path:string -> Generate.result list -> (unit, string) result
(** Atomic whole-file write (tmp + fsync + rename). *)

val load : path:string -> (Generate.result list, string) result
(** Strict load: a zero-length file, a bad header, a checksum or length
    mismatch in a checkpoint trailer, or unverified bytes after the last
    verified block all fail with a diagnostic naming the corruption.
    Files without trailers (plain {!save} output) parse as before. *)

val load_partial : path:string -> (Generate.result list, string) result
(** Lenient load: recover the longest trustworthy prefix.  For trailered
    checkpoint files that is every trailer-verified block; for legacy
    trailerless files, every syntactically complete block.  An incomplete
    or corrupt tail is dropped, not an error. *)

(** {2 Incremental checkpointing}

    A checkpoint is a session file grown one trailered result block at a
    time (each block flushed and fsynced as soon as its fault completes),
    so a run killed mid-dictionary leaves a recoverable prefix.  Because
    per-fault generation is deterministic and independent, resuming from
    the prefix and finishing the dictionary reproduces the uninterrupted
    run's checkpoint file byte for byte. *)

exception Torn_write
(** Raised by {!checkpoint_append} when the [session.torn_write]
    failure point trips: half the payload reaches the file and the
    writer dies — the simulated kill used by crash-safety campaigns. *)

type checkpoint

val checkpoint_create : path:string -> (checkpoint, string) result
(** Start a fresh checkpoint file (truncating any existing one) and
    write the session header. *)

val checkpoint_resume :
  path:string -> (checkpoint * Generate.result list, string) result
(** Reopen an interrupted checkpoint: salvage every trailer-verified
    result block (torn or corrupt tails from a mid-write kill are
    dropped), rewrite the salvaged prefix atomically in canonical
    trailered form, return the recovered results, and position the
    checkpoint so subsequent appends continue the file.  Legacy
    trailerless checkpoints salvage every syntactically complete block
    and are upgraded to trailered form.  A missing file behaves like
    {!checkpoint_create}. *)

val checkpoint_append : checkpoint -> Generate.result -> unit
(** Append one trailered result block, flush and fsync — the
    [?checkpoint] hook for {!Engine.run}.
    @raise Torn_write when the [session.torn_write] failure point trips. *)

val checkpoint_close : checkpoint -> unit

val checkpoint_abort : checkpoint -> unit
(** Close the underlying channel without flushing guarantees — for
    recovery paths that abandon a checkpoint after {!Torn_write}. *)

(** {2 Verdict-level comparison}

    A change to Newton or to time stepping cannot keep session bytes, so
    two sessions are also compared on what the paper reports: per fault,
    the winning configuration, whether it is detectable, its critical
    impact and the sign of its dictionary sensitivity. *)

type verdict = {
  winner : int;  (** {!Generate.best_config_id} *)
  detectable : bool;
  impact : float;
      (** the critical impact, or the strongest impact tried when
          undetectable *)
  sensitivity : float;
      (** the dictionary sensitivity, or the best sensitivity when
          undetectable *)
}

type change = {
  fault_id : string;
  before : verdict option;  (** [None]: the fault is missing from A *)
  after : verdict option;  (** [None]: the fault is missing from B *)
}

type diff = {
  changes : change list;
      (** faults whose winner, detectability, impact bits or sensitivity
          sign differ, or that one session lacks; A's order, then B's
          extra faults *)
  faults : int;  (** faults in either session *)
  agreeing : int;
      (** faults in both with the same winner and detectability *)
  winner_moves : int;
  flips : int;  (** detectable in one session, undetectable in the other *)
  missing : int;  (** faults in one session only *)
  worst_ratio : float;
      (** the largest [max (b/a) (a/b)] of the impacts of a fault of the
          same detectability in both; 1 when none differ *)
  worst_fault : string option;
}

val diff : Generate.result list -> Generate.result list -> diff
(** [diff a b] compares session [b] against session [a]. *)

val diff_ok : diff -> bool
(** No winner move, flip or missing fault, and [worst_ratio] at most
    {!Generate.critical_resolution}. *)

val render_diff : diff -> string
(** One line per change, then the summary line
    [verdicts: compat ...]. *)

val exit_verdict_drift : int
(** The exit status (8) of [atpg diff] when {!diff_ok} is false. *)
