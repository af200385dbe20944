(** The subscription tree (Sec. 4.1): every node's XPE covers its whole
    subtree. Covering relations that cross subtrees (the paper's super
    pointers) are not stored; the queries that need them search the
    tree. Payloads of type ['a] (e.g. routing last-hops) accumulate on
    nodes; XPEs equal by {!Xpe.equal} share one node. Every table here
    (the node index, the covering memos) is an {!Xpe.Tbl}, keyed by the
    XPE's value, never by its printed form.

    Each node keeps its XPE's {!Cover.signature}, and every covering test
    first asks {!Cover.may_cover}: only pairs it admits reach the
    covering predicate. The charge ({!cover_checks}) still counts every
    candidate. *)

open Xroute_xpath

type 'a node
type 'a t

(** [create ~covers ()] builds an empty tree using the given covering
    predicate (defaults to the paper's rules, {!Cover.covers}). The
    predicate must imply {!Cover.may_cover} on the two XPEs' signatures,
    as {!Cover.covers} and {!Cover.covers_exact} do: pairs the signature
    test rejects are never passed to it. With
    [~flat:true] the tree degenerates to the no-covering baseline: O(1)
    insertion under the root, no covering relations reported. *)
val create : ?flat:bool -> ?covers:(Xpe.t -> Xpe.t -> bool) -> unit -> 'a t

(** Stored subscription count. *)
val size : 'a t -> int

(** The virtual root (no subscription). *)
val root : 'a t -> 'a node

(** Covering tests charged so far: every candidate a covering scan
    considers, whether or not the signature prefilter rejected it, plus
    what each memo hit replays. The cost model (and [Broker.work]) is
    built on this count. *)
val cover_checks : 'a t -> int

(** Covering predicate calls made so far: the candidates the signature
    prefilter passed. At most {!cover_checks}. *)
val cover_tests : 'a t -> int

(** Number of publication match tests performed so far (metrics). *)
val match_checks : 'a t -> int

(** The node's identity within its tree: ids are never reused, so a
    table keyed by it cannot confuse a deleted node with a later one. *)
val node_id : 'a node -> int

val node_xpe : 'a node -> Xpe.t

val node_payloads : 'a node -> 'a list
val node_children : 'a node -> 'a node list
val is_root : 'a node -> bool

(** Iterate over all stored nodes (virtual root excluded). *)
val iter : ('a node -> unit) -> 'a t -> unit

val fold : ('b -> 'a node -> 'b) -> 'b -> 'a t -> 'b
val to_list : 'a t -> 'a node list

(** Depth-1 nodes: the maximal stored subscriptions — exactly the set a
    covering-based router forwards. *)
val maximal : 'a t -> 'a node list

(** Height of the tree (0 when empty). *)
val depth : 'a t -> int

(** Stored node with an XPE equal to the argument by {!Xpe.equal} (one
    {!Xpe.Tbl} lookup: equal XPEs always share one node). *)
val find_equal : 'a t -> Xpe.t -> 'a node option

(** Is the XPE covered by (or equal to) a stored subscription? Complete:
    decided on the depth-1 fringe by transitivity of covering. *)
val is_covered : 'a t -> Xpe.t -> bool

(** Depth-1 nodes covered by the XPE — the previously forwarded
    subscriptions to unsubscribe when this one takes over. *)
val covered_roots : 'a t -> Xpe.t -> 'a node list

(** All stored nodes covered by the XPE: the subtrees of every covered
    node, wherever it sits. *)
val covered_nodes : 'a t -> Xpe.t -> 'a node list

(** Insert a subscription; returns its node (an existing one when an
    equal XPE is already stored — the payload is appended). *)
val insert : 'a t -> Xpe.t -> 'a -> 'a node

(** Delete a node; its children are promoted to its parent.
    @raise Invalid_argument on the virtual root. *)
val remove_node : 'a t -> 'a node -> unit

(** Remove one payload occurrence (physical equality); deletes the node
    when its last payload goes. *)
val remove_payload : 'a t -> 'a node -> 'a -> unit

(** Payloads of all nodes matching the publication path (interned),
    pruning a subtree as soon as its root fails to match. *)
val match_syms :
  'a t -> Xroute_support.Symbol.t array -> (string * string) list array -> 'a list

(** {!match_syms} after interning the element names. *)
val match_path : 'a t -> string array -> (string * string) list array -> 'a list

(** {!match_path} on a bare name path. *)
val match_names : 'a t -> string array -> 'a list

(** Exhaustive (unpruned) matching, for baselines and cross-checks. *)
val match_syms_linear :
  'a t -> Xroute_support.Symbol.t array -> (string * string) list array -> 'a list

val match_path_linear : 'a t -> string array -> (string * string) list array -> 'a list

(** Structural invariant violations (empty when healthy). *)
val check_invariants : 'a t -> string list

(** All stored nodes whose XPE covers the argument (equality included). *)
val coverers : 'a t -> Xpe.t -> 'a node list

(** Total payloads stored ({!size} counts distinct XPEs; equal XPEs share
    one node). *)
val payload_count : 'a t -> int
