(** Covering detection between XPEs (Sec. 4.2): [covers s1 s2] soundly
    decides [P(s1) ⊇ P(s2)]. The paper's algorithms are deliberately
    incomplete in places (safe for routing: missed covering costs
    compactness, never correctness); {!covers_exact} decides true
    containment via the automata library. *)

open Xroute_xpath

(** Positional covering rule on node tests: [*] covers anything, a name
    covers only itself. *)
val test_covers : Xpe.nodetest -> Xpe.nodetest -> bool

(** Step covering: node test plus predicate subset (fewer predicates
    select more). *)
val step_covers : Xpe.step -> Xpe.step -> bool

(** Two absolute simple XPEs (AbsSimCov). *)
val abs_sim_cov : Xpe.t -> Xpe.t -> bool

(** Relative simple [s1] against simple [s2] (RelSimCov). *)
val rel_sim_cov : Xpe.t -> Xpe.t -> bool

(** XPEs with descendant operators (DesCov): order-preserving placement
    of [s1]'s segments with the wildcard-overhang special case. *)
val des_cov : Xpe.t -> Xpe.t -> bool

(** The paper's dispatching pipeline: the brokers' covering predicate. *)
val covers : Xpe.t -> Xpe.t -> bool

(** Automata-based containment (exact when [s1] is predicate-free;
    falls back to {!covers} otherwise): the oracle of the tests, the
    analyzer and the merger check. *)
val covers_exact : Xpe.t -> Xpe.t -> bool

(** An XPE's name signature: the set of element names it mentions, as
    a bitmask over {!Xroute_support.Symbol.id} (modulo
    [Sys.int_size]), plus its step count. *)
type signature

val signature : Xpe.t -> signature

(** [may_cover (signature s1) (signature s2)] is a necessary condition
    of both [covers s1 s2] and [covers_exact s1 s2]: every name of [s1]
    is a name of [s2] (up to bitmask collisions) and [s1] has no more
    steps than [s2]. A [false] answer proves that neither covers. *)
val may_cover : signature -> signature -> bool

(** Covering between advertisements: positional rules for non-recursive
    ones (same-length requirement — advertisements match full paths),
    exact containment for recursive ones. *)
val adv_covers : Adv.t -> Adv.t -> bool
