(** Differential soundness audit of the paper's covering and merging
    rules against the exact automata engine, over seeded predicate-free
    corpora (name-level languages coincide with full XPE semantics
    exactly when no predicates are present).

    Unsound decisions — the rule claims covering/containment the oracle
    refutes, which would make a broker silently drop publications — are
    [Error] findings with the witness pair. Incompleteness is one
    [Warning] per rule family, with counts and rates in the stats. *)

open Xroute_xpath

(** [run ()] sweeps the corpora and returns the report. [covers] and
    [adv_covers] default to the paper rules ({!Xroute_core.Cover.covers}
    and {!Xroute_ref.Exact_cover.adv_covers}); pass
    a different predicate to audit another engine, or a broken one (see
    {!planted_unsound_covers}) for the mutation check. Statistics
    reported: per family, pairs checked / claimed / contained / unsound
    / incomplete and the incompleteness rate. With [witness_incomplete]
    each incomplete pair also becomes an [Info] finding (capped), the
    source of the pinned Paper-vs-Exact regression corpus. *)
val run :
  ?covers:(Xpe.t -> Xpe.t -> bool) ->
  ?adv_covers:(Adv.t -> Adv.t -> bool) ->
  ?seeds:int list ->
  ?pairs_per_seed:int ->
  ?witness_incomplete:bool ->
  unit ->
  Finding.report

(** Deterministic corpus generators, exposed for the regression tests. *)

val gen_xpe : Xroute_support.Prng.t -> Xpe.t

val gen_adv : Xroute_support.Prng.t -> Adv.t

(** A deliberately unsound covering rule ("covers anything no longer
    than itself") for the mutation check: running {!run} with it must
    produce errors, proving the analyzer catches planted unsoundness. *)
val planted_unsound_covers : Xpe.t -> Xpe.t -> bool
