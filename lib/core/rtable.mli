(** Routing tables of a content-based XML router (Sec. 2.1): the
    subscription routing table (SRT) maps advertisements to last hops;
    the publication routing table (PRT) maps subscriptions to last hops
    and is backed by the covering {!Sub_tree}. *)

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
  }

  type t

  (** [create ~use_cover ~engine ~indexed ()] — [use_cover] enables
      advertisement covering (same-hop covered advertisements are
      suppressed). [indexed] (default) buckets entries by the
      advertisement's root element so a rooted subscription only scans
      its own bucket plus the wildcard/recursive catch-all;
      [~indexed:false] keeps the flat list scan, for differential tests
      and benchmarks. Both modes produce identical routing decisions. *)
  val create : ?use_cover:bool -> ?engine:Adv_match.engine -> ?indexed:bool -> unit -> t

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

  val indexed : t -> bool

  (** All entries, newest first (the scan order of the flat mode). *)
  val entries : t -> entry list

  val mem : t -> Message.sub_id -> bool

  (** Number of non-empty root-element buckets (0 in flat mode). *)
  val bucket_count : t -> int

  (** Entries in the always-scanned wildcard/recursive catch-all bucket
      (in flat mode: every entry). *)
  val catch_all_size : t -> int

  (** Occupancy of the fullest root-element bucket. *)
  val max_bucket_size : t -> int

  (** Store an advertisement; [`Covered id] means a same-hop coverer
      makes it redundant, [`Duplicate] that the id is already stored. *)
  val add :
    t -> Message.sub_id -> Adv.t -> endpoint -> [ `Stored | `Covered of Message.sub_id | `Duplicate ]

  (** Remove by id, returning the stored hop. *)
  val remove : t -> Message.sub_id -> endpoint option

  (** Neighbor last hops of the advertisements overlapping a
      subscription — where the subscription must be forwarded. Client
      hops are left out; each hop appears once, in the order its newest
      overlapping advertisement comes in the newest-first scan. [key] is
      the subscription's [Xpe.to_string], when the caller has it. *)
  val hops_for_sub : ?key:string -> t -> Xpe.t -> endpoint list

  (** Advertisement ids stored from a given hop. *)
  val ids_from : t -> endpoint -> Message.sub_id list

  (** Root element a subscription's matches are anchored at ([/name]
      first step), or [None] when it can match under any root (relative,
      leading [//], leading wildcard). This is the discriminator behind
      the bucket index. *)
  val sub_root : Xpe.t -> Xroute_support.Symbol.t option

  (** Structural invariant violations of the bucket index — partition /
      by-id / counter agreement, per-bucket newest-first (strictly
      seq-descending) order, seq bounds. Empty when healthy. *)
  val check_invariants : t -> string list
end

module Prt : sig
  type payload = { id : Message.sub_id; hop : endpoint }

  (** Which structure answers {!match_pub}: the covering tree (pruned
      DFS, the paper engine) or the shared-prefix NFA ({!Yfilter},
      per-publication cost independent of table size). Both are
      maintained at all times; decisions are gated to be identical. *)
  type match_engine = Tree | Nfa

  val match_engine_to_string : match_engine -> string
  val match_engine_of_string : string -> match_engine option

  module Id_map : Map.S with type key = Message.sub_id

  type t

  (** [engine] selects the matching structure; the NFA is the default
      (primary) engine, [~engine:Tree] is the differential-testing
      opt-out. *)
  val create :
    ?flat:bool -> ?covers:(Xpe.t -> Xpe.t -> bool) -> ?engine:match_engine -> unit -> t

  val size : t -> int
  val tree : t -> payload Sub_tree.t
  val engine : t -> match_engine

  (** Live automaton states (walked, see {!Yfilter.state_count}). *)
  val nfa_states : t -> int

  (** Cumulative automaton matching work (see {!Yfilter.match_ops}). *)
  val nfa_match_ops : t -> int
  val mem : t -> Message.sub_id -> bool
  val find : t -> Message.sub_id -> (payload Sub_tree.node * payload) option

  (** Is the XPE covered by a stored subscription? *)
  val is_covered : t -> Xpe.t -> bool

  (** Maximal stored subscriptions covered by the XPE, with their
      payloads. *)
  val covered_maximal : t -> Xpe.t -> (payload Sub_tree.node * payload) list

  (** [key] is the XPE's [Xpe.to_string], when the caller has it. *)
  val insert :
    ?key:string -> t -> Message.sub_id -> Xpe.t -> endpoint -> payload Sub_tree.node * payload

  (** Remove by id; returns the payload and the node that held it (gone
      from the tree when this was its last payload, its children then
      promoted to its parent). *)
  val remove : t -> Message.sub_id -> (payload * payload Sub_tree.node) option

  (** Payloads of subscriptions matching a publication. *)
  val match_pub : t -> Xroute_xml.Xml_paths.publication -> payload list

  (** Matching restricted to the subtrees of the given ids (trail
      routing); sound by the covering-pruning argument. *)
  val match_pub_from : t -> Message.sub_id list -> Xroute_xml.Xml_paths.publication -> payload list

  val match_checks : t -> int
  val cover_checks : t -> int

  (** Total stored payloads ({!size} counts distinct XPEs). *)
  val payload_count : t -> int

  (** Violations of the automaton/ledger agreement (empty when healthy):
      structural NFA invariants, payload identity, XPE agreement, seq
      uniqueness, and size agreement with the ledger. *)
  val nfa_invariants : t -> string list

  (** Test hook: corrupt the automaton with a dead state, which
      {!nfa_invariants} must report — the audit's must-fail mutation. *)
  val plant_nfa_orphan : t -> unit
end
