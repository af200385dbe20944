(** The subscription tree with super pointers (Sec. 4.1): every node's
    XPE covers its whole subtree; super pointers record covering
    relations that cross subtrees. Payloads of type ['a] (e.g. routing
    last-hops) accumulate on nodes; equal XPEs share a node when found on
    the covering descent path. *)

open Xroute_xpath

type 'a node
type 'a t

(** [create ~covers ()] builds an empty tree using the given covering
    predicate (defaults to the paper's rules, {!Cover.covers}). With
    [~flat:true] the tree degenerates to the no-covering baseline: O(1)
    insertion under the root, no covering relations reported. *)
val create : ?flat:bool -> ?covers:(Xpe.t -> Xpe.t -> bool) -> unit -> 'a t

(** Stored subscription count. *)
val size : 'a t -> int

(** The virtual root (no subscription). *)
val root : 'a t -> 'a node

(** Number of covering tests performed so far (metrics). *)
val cover_checks : 'a t -> int

(** Number of publication match tests performed so far (metrics). *)
val match_checks : 'a t -> int

val node_xpe : 'a node -> Xpe.t

(** The node's XPE printed by [Xpe.to_string]: the key equal XPEs share
    the node under. Every [?key] argument below takes this form of its
    XPE, so a caller that already printed it does not print it again. *)
val node_key : 'a node -> string

val node_payloads : 'a node -> 'a list
val node_children : 'a node -> 'a node list
val node_supers : 'a node -> 'a node list
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

(** Stored node with an XPE equal to the argument (hash lookup: equal
    XPEs always share one node). *)
val find_equal : 'a t -> Xpe.t -> 'a node option

(** Is the XPE covered by (or equal to) a stored subscription? Complete:
    decided on the depth-1 fringe by transitivity of covering. *)
val is_covered : 'a t -> Xpe.t -> bool

(** Depth-1 nodes covered by the XPE — the previously forwarded
    subscriptions to unsubscribe when this one takes over. *)
val covered_roots : ?key:string -> 'a t -> Xpe.t -> 'a node list

(** All stored nodes covered by the XPE (subtrees plus super-pointer
    targets). *)
val covered_nodes : 'a t -> Xpe.t -> 'a node list

(** Insert a subscription; returns its node (an existing one when an
    equal XPE is already stored — the payload is appended). *)
val insert : ?key:string -> 'a t -> Xpe.t -> 'a -> 'a node

(** Record an extra covering relation as a super pointer. *)
val add_super : 'a node -> 'a node -> unit

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
val coverers : ?key:string -> 'a t -> Xpe.t -> 'a node list

(** Total payloads stored ({!size} counts distinct XPEs; equal XPEs share
    one node). *)
val payload_count : 'a t -> int
