(** Subscription/advertisement matching (Sec. 3.2-3.3): does
    [P(xpe) ∩ P(adv) ≠ ∅]? *)

open Xroute_xpath

(** Fig. 2(b) overlap rule for one advertisement symbol and one
    subscription node test. *)
val test_overlap : Adv.symbol -> Xpe.nodetest -> bool

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
    general form of the paper's recursive matching algorithms). The
    unrollings are memoized in a process-global table that is never
    evicted. *)
val expr_and_rec_adv : Xpe.t -> Adv.t -> bool

(** The paper's complete matching pipeline, Abs/Rel/Des tests plus
    bounded unrolling: the reference {!overlaps_compiled} is checked
    against, and the test Fig. 8 and the CLI time. *)
val overlaps_paper : Xpe.t -> Adv.t -> bool

(** Exact automata-based overlap (oracle). *)
val overlaps_exact : Xpe.t -> Adv.t -> bool

(** {2 Compiled overlap: the SRT's test}

    An advertisement compiles once into its Glushkov position automaton
    (per symbol occurrence: its code, a [follow] and a [reach] bitset,
    plus the [first] set), and an XPE into the keys of its semantic
    steps. {!overlaps_compiled} then decides the overlap in one
    bit-parallel pass over the steps, equal to {!overlaps_paper} and
    {!overlaps_exact}. Advertisements with more than {!max_positions}
    symbol occurrences fall back to the paper's tests. *)

(** A compiled advertisement. *)
type compiled

(** A compiled XPE. *)
type query

(** Symbol occurrences an advertisement may have for the bitset form. *)
val max_positions : int

(** The compiled form of an advertisement, shared by value: equal
    advertisements get the same form while one is alive anywhere in
    the process. The sharing table holds forms weakly. *)
val compile : Adv.t -> compiled

(** Compiled forms in the sharing table (after a full major collection,
    the live ones). *)
val live_compiled : unit -> int

val query : Xpe.t -> query
val overlaps_compiled : query -> compiled -> bool

(** [overlaps_compiled (query xpe) (compile adv)]. *)
val overlaps : Xpe.t -> Adv.t -> bool
