(** The paper's subscription/advertisement matching (Sec. 3.2-3.3) and
    the exact overlap oracle: the references the production test,
    {!Xroute_core.Adv_match.overlaps}, is checked against. Both decide
    [P(xpe) ∩ P(adv) ≠ ∅]. *)

open Xroute_xpath

(** Absolute simple XPE (given as its steps) against the symbols of a
    non-recursive advertisement; the caller checks the length
    precondition. *)
val abs_expr_and_adv : Xpe.step list -> Adv.symbol array -> bool

(** Relative simple XPE: naive O(n·k) reference. *)
val rel_expr_and_adv_naive : Xpe.step list -> Adv.symbol array -> bool

(** Relative simple XPE: liberal-border shifting with re-verification
    (the sound variant of the paper's KMP optimization). *)
val rel_expr_and_adv : Xpe.step list -> Adv.symbol array -> bool

(** XPE with descendant operators: greedy segment matching. *)
val des_expr_and_adv : Xpe.t -> Adv.symbol array -> bool

(** Any XPE against the symbols of one fixed-length advertisement path. *)
val expr_and_adv : Xpe.t -> Adv.symbol array -> bool

(** Any XPE against a recursive advertisement, via bounded unrolling (the
    general form of the paper's recursive matching algorithms).
    Exponential in the number of groups. The unrollings are memoized in
    a process-global table that is never evicted. *)
val expr_and_rec_adv : Xpe.t -> Adv.t -> bool

(** The paper's complete matching pipeline, Abs/Rel/Des tests plus
    bounded unrolling: the test Fig. 8 and the CLI time. *)
val overlaps_paper : Xpe.t -> Adv.t -> bool

(** Exact automata-based overlap (oracle), {!Lang.xpe_overlaps_adv}. *)
val overlaps_exact : Xpe.t -> Adv.t -> bool
