(** Extensions beyond the paper's Table 1.

    The paper's framework is explicitly open ("sets of test configuration
    descriptions are shared by macro types"); this module adds a sixth,
    AC-based configuration and shows that it catches exactly the faults
    the five baseline configurations cannot see — the ones the feedback
    loop hides at DC and in large-signal transients. *)

val config6_ac : Testgen.Test_config.t
(** Configuration #6: closed-loop small-signal transimpedance gain and
    phase of the IV-converter at a bias level [Iin_dc] and frequency
    [freq] (p = 2 return values: gain in dB, phase in degrees). *)

val config7_imd : Testgen.Test_config.t
(** Configuration #7: two-tone intermodulation (tones at 5 f0 and 6 f0,
    15 uA each, around a DC bias) — IMD3 of Vout in percent. *)

val config8_noise : Testgen.Test_config.t
(** Configuration #8: output noise density at [freq] under a DC bias
    [Iin_dc] — the square-root PSD of Vout in nV per root-hertz.
    Resistive defects change the noise signature even where the transfer
    function barely moves. *)

val iv_with_ac :
  ?profile:Testgen.Execute.profile -> ?grid:int -> unit -> Setup.t
(** The paper's context extended with configuration #6. *)

val xac_report : Setup.t -> string
(** The XAC experiment over an {!iv_with_ac} context: per-fault
    sensitivity of configuration #6 for the faults that are undetectable
    with configurations #1..#5 (e.g. the n2-vout bridge that the output
    follower's feedback hides), plus the critical impacts the AC
    configuration achieves on them. *)

val xifa_report :
  Setup.t -> Testgen.Engine.run -> Testgen.Compactor.result -> string
(** The XIFA experiment: structural IFA-style fault weights over the
    dictionary, the compact set's likelihood-weighted coverage, and a
    cost-aware greedy production schedule of the compact tests. *)

val xeq_report : Setup.t -> Testgen.Engine.run -> string
(** The XEQ experiment: fault-equivalence classes over the generation
    results — the paper's "collapsing of dictionaries" enabled by
    targeting fault types instead of exact models. *)

val xq_report :
  ?samples:int -> ?seed:int64 -> Setup.t -> Testgen.Compactor.result -> string
(** The XQ experiment: overkill / test-escape estimate of the compact
    test set over Monte-Carlo fault-free process samples (default 60,
    deterministic seed), with IFA-weighted escape. *)

val ximd_report : Setup.t -> string
(** The XIMD experiment: the two-tone IMD configuration #7 — nominal
    IMD3 of the macro, seed sensitivities for representative faults, and
    an optimized IMD test for the virtual-ground bridge. *)
