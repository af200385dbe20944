(** Routing tables of a content-based XML router (Sec. 2.1): the
    subscription routing table (SRT) maps advertisements to last hops,
    looked up through a root-element index; the publication routing
    table (PRT) maps subscriptions to last hops, matched by the
    shared-prefix NFA and compacted by the covering {!Sub_tree}. *)

open Xroute_xpath

(** A routing next/last hop: a neighbor broker or a local client. *)
type endpoint = Neighbor of int | Client of int

val endpoint_equal : endpoint -> endpoint -> bool
val pp_endpoint : Format.formatter -> endpoint -> unit

module Srt : sig
  type entry = {
    id : Message.sub_id;
    adv : Adv.t;
    hop : endpoint;
    seq : int;  (** insertion sequence; scans run newest (highest) first *)
    mutable compiled : Adv_match.compiled option;
        (** [adv] compiled, set by the entry's first overlap test *)
  }

  type t

  (** An empty table. Entries are bucketed by the advertisement's root
      element, so a rooted subscription only scans its own bucket plus
      the wildcard/recursive catch-all; the routing decisions are those
      of a full newest-first scan with the paper's overlap test.
      Overlap tests run {!Adv_match.overlaps_compiled} on the entry's
      compiled advertisement, which {!Adv_match.compile} shares by value
      with every other table in the process. *)
  val create : unit -> t

  val size : t -> int

  (** Candidate entries charged by the cost model so far: every entry a
      {!hops_for_sub} lookup walks (its root bucket plus the catch-all,
      or the whole table), whether or not its overlap test runs. The
      root-element index makes this grow sub-linearly in the table size
      for rooted subscriptions; a memo hit charges the scan it replaces. *)
  val match_ops : t -> int

  (** Overlap tests actually run so far: at most {!match_ops}, and
      usually far fewer, since {!hops_for_sub} skips client hops and hops
      it has already answered. *)
  val overlap_tests : t -> int

  (** All entries, newest first (the order of a full scan). *)
  val entries : t -> entry list

  val mem : t -> Message.sub_id -> bool

  (** Number of non-empty root-element buckets. *)
  val bucket_count : t -> int

  (** Entries in the always-scanned wildcard/recursive catch-all bucket. *)
  val catch_all_size : t -> int

  (** Occupancy of the fullest root-element bucket. *)
  val max_bucket_size : t -> int

  (** Store an advertisement; [`Duplicate] means the id is already
      stored. *)
  val add : t -> Message.sub_id -> Adv.t -> endpoint -> [ `Stored | `Duplicate ]

  (** Remove by id, returning the stored hop. *)
  val remove : t -> Message.sub_id -> endpoint option

  (** Neighbor last hops of the advertisements overlapping a
      subscription — where the subscription must be forwarded. Client
      hops are left out; each hop appears once, in the order its newest
      overlapping advertisement comes in the newest-first scan. Answers
      are memoized by XPE value ({!Xpe.Tbl}) until the next
      advertisement arrives or leaves; a memo hit charges {!match_ops}
      with the scan it replaces. *)
  val hops_for_sub : t -> Xpe.t -> endpoint list

  (** Does the entry's advertisement overlap the compiled XPE? Compiles
      the advertisement on the entry's first test. Charges nothing. *)
  val overlaps : Adv_match.query -> entry -> bool

  (** Drop the XPE's memoized answer. The owner calls it when the XPE's
      last subscription leaves, so the memo holds only live XPEs. Changes
      no answer and no charge. *)
  val forget : t -> Xpe.t -> unit

  (** Advertisement ids stored from a given hop. *)
  val ids_from : t -> endpoint -> Message.sub_id list

  (** Structural invariant violations of the bucket index — partition /
      by-id / counter agreement, per-bucket newest-first (strictly
      seq-descending) order, seq bounds. Empty when healthy. *)
  val check_invariants : t -> string list
end

module Prt : sig
  (** A stored subscription: the paper's <subscription, last hop> tuple
      plus where the owner's covering and merging sent it. [seq] is its
      insertion sequence, the order {!match_pub} answers in. The table
      never reads the two mutable fields: {!insert} starts them empty and
      the broker keeps them. *)
  type payload = {
    id : Message.sub_id;
    hop : endpoint;
    seq : int;
    mutable targets : endpoint list;
        (** the neighbors this subscription is forwarded to, newest first *)
    mutable merger : Message.sub_id option;
        (** the live merger that replaced it upstream, if any *)
  }

  module Id_map : Map.S with type key = Message.sub_id

  type t

  (** [covers] is the covering predicate of the {!Sub_tree};
      [~flat:true] stores no covering relations. *)
  val create : ?flat:bool -> ?covers:(Xpe.t -> Xpe.t -> bool) -> unit -> t

  val size : t -> int

  (** The covering tree over the stored subscriptions. *)
  val tree : t -> payload Sub_tree.t

  (** Live automaton states (walked, see {!Yfilter.state_count}). *)
  val nfa_states : t -> int

  (** Automaton states per its allocation counter
      ({!Yfilter.allocated_states}): O(1), equal to {!nfa_states} on a
      healthy table. *)
  val nfa_allocated_states : t -> int

  val mem : t -> Message.sub_id -> bool
  val find : t -> Message.sub_id -> (payload Sub_tree.node * payload) option

  (** Store a subscription; an XPE equal ({!Xpe.equal}) to a stored one
      joins its {!Sub_tree} node. *)
  val insert : t -> Message.sub_id -> Xpe.t -> endpoint -> payload Sub_tree.node * payload

  (** Remove by id; returns the payload and the node that held it (gone
      from the tree when this was its last payload, its children then
      promoted to its parent). *)
  val remove : t -> Message.sub_id -> (payload * payload Sub_tree.node) option

  (** Payloads of subscriptions matching a publication, in insertion
      order: the NFA's answer. *)
  val match_pub : t -> Xroute_xml.Xml_paths.publication -> payload list

  (** Publication matching work so far: the NFA's {!Yfilter.match_ops}. *)
  val match_checks : t -> int

  (** The part of {!match_checks} replayed from the NFA's resume log
      rather than re-run: {!Yfilter.resumed_ops}. *)
  val match_checks_resumed : t -> int

  (** Covering work charged so far: {!Sub_tree.cover_checks}. *)
  val cover_checks : t -> int

  (** Covering predicate calls so far, after the signature prefilter:
      {!Sub_tree.cover_tests}. *)
  val cover_tests : t -> int

  (** Total stored payloads ({!size} counts distinct XPEs), folded over
      the covering tree. *)
  val payload_count : t -> int

  (** Stored payloads, from a counter kept by {!insert} and {!remove}:
      O(1), equal to {!payload_count} on a healthy table ({!nfa_invariants}
      checks it). The automaton holds one entry per {!Sub_tree} node, so
      its {!Yfilter.size} is {!size}, the distinct XPEs. *)
  val nfa_payloads : t -> int

  (** Violations of the automaton/tree/ledger agreement (empty when
      healthy): structural NFA invariants, exactly one automaton entry per
      live tree node (the tree's node for the entry's XPE), entry count =
      {!size}, every ledger record on its node with a unique seq, and the
      payload counter. *)
  val nfa_invariants : t -> string list

  (** Test hook: corrupt the automaton with a dead state, stamp its
      resume log with a stale version, add a second entry for a stored
      node (the table must hold one), or add an entry for a node the tree
      does not hold; {!nfa_invariants} must report each — the audit's
      must-fail mutations. *)
  val corrupt_nfa :
    t -> [ `Orphan_state | `Stale_log | `Duplicate_entry | `Nodeless_entry ] -> unit
end
