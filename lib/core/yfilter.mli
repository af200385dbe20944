(** YFilter-style shared-prefix NFA index over a subscription set: all
    XPEs compile into one automaton; a publication is matched by one
    simulation pass, independently of the number of stored
    subscriptions. This is the publication matcher of [Rtable.Prt]; its
    decisions are gated to stay byte-identical to the flat list and the
    covering tree, the references of the tests and the bench. Edges are
    keyed by one int per (axis, node test) over interned names and
    looked up by binary search in a per-node sorted array; lookups a
    node cannot answer are skipped. Removal prunes eagerly, so the
    automaton always has exactly the states a fresh build would
    allocate.

    Matching keeps its frontiers in buffers owned by the automaton and
    marks nodes with per-node generation stamps instead of building
    per-call tables, so {!match_syms} mutates the automaton: one
    automaton must not be matched from two threads at once.

    A call resumes the previous call's run where their paths part, as
    a document's root-to-leaf paths arrive one after another. Each call
    logs its run per depth (fresh frontier, alive length, payloads found
    and charge so far, nodes visited). The next call sharing L leading
    elements restarts from the logged depth min(L, p - 1), p being the
    first depth at which a predicate entry was scanned (a predicate is
    judged against the whole path and its attributes, so a verdict
    reached in the prefix may change with the suffix), provided that
    depth is at least 1 and the log's version stamp is the automaton's:
    {!insert} and {!remove} bump the version and drop the log. Results,
    their order and the {!match_ops} charge equal a run from the root;
    {!resumed_ops} counts the charge that was replayed, not re-run. *)

open Xroute_xpath

type 'a t

val create : unit -> 'a t

(** Stored payloads. *)
val size : 'a t -> int

(** Automaton states, counted by walking the trie. Removal prunes
    eagerly, so this always equals {!allocated_states}; the walk exists
    so tests and the audit can catch a leak. *)
val state_count : 'a t -> int

(** Automaton states per the allocation counter: incremented on
    insertion, decremented when removal prunes. After any insert/remove
    sequence this equals the fresh-build count for the surviving XPEs. *)
val allocated_states : 'a t -> int

(** Cumulative matching work across all {!match_syms} calls: +1 for
    each edge followed, +1 for each accepting entry scanned (once per
    node per call) — the "entries examined" measure behind perfbench's
    [rtable.prt.entries_per_pub]. *)
val match_ops : 'a t -> int

(** The part of {!match_ops} charged from the resume log without being
    re-run: cumulative, like {!match_ops}. *)
val resumed_ops : 'a t -> int

val insert : 'a t -> Xpe.t -> 'a -> unit

(** [remove t xpe pred] drops the payloads of the exact [xpe] selected
    by [pred], then prunes every automaton state left dead. *)
val remove : 'a t -> Xpe.t -> ('a -> bool) -> unit

(** Payloads of all subscriptions matching the interned path (attribute
    predicates re-checked against [attrs]). *)
val match_syms :
  'a t -> Xroute_support.Symbol.t array -> (string * string) list array -> 'a list

(** {!match_syms} after interning the element names. *)
val match_path : 'a t -> string array -> (string * string) list array -> 'a list

val match_names : 'a t -> string array -> 'a list

(** All stored (xpe, payload) pairs. *)
val to_list : 'a t -> (Xpe.t * 'a) list

(** Structural invariant violations (empty when healthy): no dead
    states, exact size and Desc-edge counters, no empty accepting
    entries, and a resume log that is empty or carries the current
    version stamp. *)
val check_invariants : 'a t -> string list

(** Test hook: plant a dead state, which {!check_invariants} must
    report — the audit's must-fail mutation. *)
val plant_orphan : 'a t -> unit

(** Test hook: stamp the resume log with an earlier version, which
    {!check_invariants} must report — the log's must-fail mutation. *)
val plant_stale_log : 'a t -> unit
