(** The content-based XML router: SRT + PRT + the routing protocol under
    the strategies of the paper's evaluation. [handle] consumes one
    message and returns the messages to emit, leaving delivery order and
    timing to the caller (the overlay simulator or the tests). *)


type merge_mode = No_merging | Perfect | Imperfect of float

type strategy = {
  use_adv : bool;  (** advertisement-based subscription routing *)
  use_cover : bool;  (** covering-based forwarding suppression *)
  merging : merge_mode;
}

(** Advertisements + covering, no merging. *)
val default_strategy : strategy

(** The six rows of Tables 2-3 by name (see {!strategy_names}). *)
val strategy_of_name : string -> strategy option

val strategy_names : string list

type t

val create : ?strategy:strategy -> id:int -> neighbors:int list -> unit -> t

val id : t -> int
val strategy : t -> strategy

(** The broker's metrics registry (see [Xroute_obs.Metrics]): message
    counters, match-op histograms and — after {!refresh_metrics} —
    index-size gauges. Registered eagerly at {!create}, so every metric
    name is present even before traffic arrives. The counters are the
    only store of the broker's event counts; read them by name, e.g.
    [xroute_broker_pubs_dropped_total] (publications that produced no
    output: in-network false positives under merging) and
    [xroute_broker_deliveries_total]. *)
val metrics : t -> Xroute_obs.Metrics.t

(** Push the derived quantities (SRT/PRT sizes, cumulative match
    counters) into the registry; call before exporting it. *)
val refresh_metrics : t -> unit

val srt_size : t -> int
val prt_size : t -> int

(** Test hook: corrupt the PRT's NFA as {!Rtable.Prt.corrupt_nfa} does
    (a dead state, a stale resume log, a duplicate or a node-less
    entry); the [nfa-integrity] audit must report each. *)
val corrupt_nfa_for_test :
  t -> [ `Orphan_state | `Stale_log | `Duplicate_entry | `Nodeless_entry ] -> unit

(** Paths derivable from the publisher's DTD, needed by merging to
    compute imperfect degrees. *)
val set_universe : t -> string array list -> unit

(** Cumulative match/cover operations — the processing-cost measure the
    delay model charges. *)
val work : t -> int

(** {!work} split by stage: (SRT match ops, PRT match checks, PRT cover
    checks). The transport takes before/after deltas to size the
    per-stage spans of the causal-tracing layer. *)
val stage_ops : t -> int * int * int

(** Process one message from a neighbor or client; returns the messages
    to send. *)
val handle : t -> from:Rtable.endpoint -> Message.t -> (Rtable.endpoint * Message.t) list

(** Periodic merging pass (Sec. 4.3): replaces forwarded subscriptions
    by mergers within the strategy's degree bound; originals stay in the
    PRT so false positives never reach clients. Returns the subscription
    and unsubscription messages to send. A merger lives only while all
    its members are stored: when one leaves (an [Unsubscribe], or a
    {!neighbor_reset} purge), the merger is withdrawn like an
    unsubscription and its surviving members are forwarded again. *)
val merge_pass : t -> (Rtable.endpoint * Message.t) list

(** Number of stored subscriptions and live mergers this broker has
    forwarded to at least one neighbor (the gauge
    [xroute_broker_forwarded_subs]). A covered subscription held back
    here, or a merger member unsubscribed upstream, does not count. *)
val forwarded_count : t -> int

(** {2 Audit view}

    Read-only snapshot of the routing state for the invariant checks in
    [Xroute_check.Check] (and the [AUDIT|] wire command). The closures
    close over the live tables: take a view and consume it before
    handling further messages. [av_required_targets] recomputes the
    neighbor hops a subscription must currently reach without charging
    the SRT's match-op counters, so auditing never skews the metrics the
    delay model bills. *)

type audit_view = {
  av_id : int;
  av_strategy : strategy;
  av_neighbors : int list;
  av_srt_entries : Rtable.Srt.entry list;
  av_srt_invariants : string list;  (** [Rtable.Srt.check_invariants] *)
  av_prt_invariants : string list;  (** [Sub_tree.check_invariants] *)
  av_nfa_invariants : string list;  (** [Rtable.Prt.nfa_invariants] *)
  av_subs : (Message.sub_id * Xroute_xpath.Xpe.t * Rtable.endpoint) list;
      (** every stored PRT payload: id, XPE, last hop, parents before
          children *)
  av_forwarded : (Message.sub_id * Rtable.endpoint list) list;
      (** every stored subscription and live merger forwarded somewhere,
          ascending by id, with its targets (a payload's [targets], a
          merger's own) *)
  av_mergers : (Message.sub_id * Xroute_xpath.Xpe.t * Message.sub_id list) list;
      (** live mergers, newest first: id, XPE, the member ids it
          suppressed, ascending *)
  av_suppressed : Message.sub_id list;
      (** stored subscriptions whose payload names a merger in its
          [merger] field, ascending by id *)
  av_covers : Xroute_xpath.Xpe.t -> Xroute_xpath.Xpe.t -> bool;
      (** the covering predicate the broker routes with *)
  av_required_targets : Xroute_xpath.Xpe.t -> Rtable.endpoint list;
      (** neighbor hops the subscription must reach under the current
          SRT (all neighbors under flooding) *)
}

val audit_view : t -> audit_view

(** {2 Crash recovery}

    Hooks for the fault-injection layer (lib/fault, executed by
    [Xroute_overlay.Net]): when a neighbor restarts after a crash, each
    surviving peer first calls {!neighbor_reset} to purge everything it
    learned from (or sent to) the dead process, then {!resync_for} to
    re-send the state the fresh peer needs — so routing state is
    rebuilt, never resurrected. *)

(** Advertisement ids stored in the SRT / from the given hop. *)
val srt_ids : t -> Message.sub_id list

val srt_ids_from : t -> Rtable.endpoint -> Message.sub_id list

(** Subscription ids stored in the PRT / from the given hop. *)
val prt_ids : t -> Message.sub_id list

val prt_ids_from : t -> Rtable.endpoint -> Message.sub_id list

(** Forget everything learned from or forwarded to [ep]: SRT entries
    from [ep] leave via the normal unadvertise flood, PRT entries via
    the unsubscribe path (which re-forwards the covered survivors they
    shadowed and dissolves their mergers), and forwarded-target records
    pointing at [ep] are dropped so the purge never messages [ep]
    itself. Returns the messages to send. *)
val neighbor_reset : t -> ep:Rtable.endpoint -> (Rtable.endpoint * Message.t) list

(** Re-send the state a freshly restarted [ep] needs: every surviving
    advertisement, plus (under flooding) stored subscriptions that must
    reach [ep] directly. Call after {!neighbor_reset}. *)
val resync_for : t -> ep:Rtable.endpoint -> (Rtable.endpoint * Message.t) list
