(** The test-set collapse algorithm (paper §4.1).

    Fault-specific best tests [T_f1 .. T_fn] of one configuration are
    replaced by a single test [T_c] at the average of their parameters,
    provided that for {e every} member fault the sensitivity loss stays
    within the acceptance level [delta]:

    [S_fi(T_c) <= S_fi(T_opt,fi) + delta * (1 - S_fi(T_opt,fi))]

    i.e. [delta] is "the maximal allowed percentile shift of S_f at
    T_tc,c upwards to the level of insensitivity" (cost 1).  Rejected
    proposals are split around their farthest pair and retried, so the
    algorithm always terminates (singletons accept trivially). *)

type member = {
  member_fault_id : string;
  member_fault : Faults.Fault.t;
      (** evaluated at this impact (the critical impact of the fault, so
          the screen protects exactly the quality the generation step
          achieved) *)
  member_params : Numerics.Vec.t;  (** the fault's optimized test *)
  member_opt_sensitivity : float;  (** [S_f(T_opt)] at that impact *)
}

type group = {
  group_config_id : int;
  members : member list;
  group_params : Numerics.Vec.t;  (** collapsed test parameters *)
  screened_sensitivities : (string * float) list;
      (** per member fault: [S_f(T_c)] *)
}

type stats = { proposals : int; accepted : int; splits : int }

val screen :
  Evaluator.t -> delta:float -> member list -> Numerics.Vec.t ->
  (string * float) list option
(** Evaluate the §4.1 inequality for each member, in order, at the
    candidate collapsed parameters; [Some sensitivities] iff all pass.
    The walk stops at the first member that fails: the members after it
    are not evaluated. *)

val collapse_config :
  Evaluator.t ->
  delta:float ->
  ?threshold:float ->
  member list ->
  group list * stats
(** Cluster the members of one configuration (see {!Cluster.group}),
    then collapse every cluster with screening and recursive splitting.
    @raise Invalid_argument if [delta] is outside [\[0, 1\]]. *)
