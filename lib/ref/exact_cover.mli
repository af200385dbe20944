(** Exact containment: the covering oracle of the tests, the analyzer and
    the bench ablation, next to the paper's rules in
    {!Xroute_core.Cover}. *)

open Xroute_xpath

(** Automata-based containment [P(s1) ⊇ P(s2)], exact when [s1] is
    predicate-free; falls back to {!Xroute_core.Cover.covers} otherwise.
    Implies {!Xroute_core.Cover.may_cover} on the two signatures, so a
    subscription tree accepts it as its covering predicate. *)
val covers_exact : Xpe.t -> Xpe.t -> bool

(** Covering between advertisements: positional rules for non-recursive
    ones (same-length requirement — advertisements match full paths),
    exact containment for recursive ones. *)
val adv_covers : Adv.t -> Adv.t -> bool
