(** Subscription/advertisement matching (Sec. 3.2-3.3): does
    [P(xpe) ∩ P(adv) ≠ ∅]? The SRT's overlap test.

    An advertisement compiles once into its Glushkov position automaton
    (per symbol occurrence: its code and its successors, plus the first
    position), and an XPE into the keys of its semantic steps.
    {!overlaps_compiled} then decides the overlap in one pass over the
    steps, carrying the set of feasible positions. Up to
    {!max_positions} positions the set is one int and each step is
    bit-parallel; wider advertisements take multi-word sets, at
    O(positions) memory and O(steps × positions) time a test. The
    answers equal the paper's tests and the exact oracle
    ([Paper_match] in lib/ref). *)

open Xroute_xpath

(** A compiled advertisement. *)
type compiled

(** A compiled XPE. *)
type query

(** Symbol occurrences an advertisement may have for the one-word
    form. *)
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
