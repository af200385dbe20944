(** The dissemination network: brokers wired over a topology, clients at
    the edge, and a discrete-event simulation of message exchange.

    Each delivery costs link latency + per-byte transmission + the
    receiving broker's processing time, the latter proportional to the
    match/cover operations actually performed — so smaller routing
    tables mean lower notification delay, the mechanism behind the
    paper's Figures 10-11. *)

open Xroute_core

type config = {
  strategy : Broker.strategy;
  latency : Latency.model;
  per_match_cost : float;  (** ms per match/cover operation *)
  per_msg_cost : float;  (** fixed per-message processing, ms *)
  per_byte_cost : float;  (** transmission, ms per byte *)
  client_link : float;  (** client-to-home-broker latency, ms *)
  seed : int;
}

val default_config : config

type client = {
  cid : int;
  home : int;  (** broker id *)
  delivered : (int, float) Hashtbl.t;  (** doc_id -> first delivery's delay, ms *)
  mutable path_messages : int;  (** path publications received *)
  mutable connected : bool;  (** false while a [Client_drop] fault is active *)
  mutable adv_ledger : (Message.sub_id * Xroute_xpath.Adv.t) list;
      (** client-side session ledger, newest first: replayed (original
          ids, idempotent) after a reconnect or home-broker restart *)
  mutable sub_ledger : (Message.sub_id * Xroute_xpath.Xpe.t) list;
}

type t

(** [create ?spans ?recorder topo] — pass a [Xroute_obs.Span.t]
    collector to build full causal span trees per publication (root "pub" span, one
    "hop" span per broker with per-stage leaves, "edge" spans for every
    link crossing); pass a [Xroute_obs.Recorder.t] to dump a flight
    record (final spans + metrics snapshot) when a fault-plan event
    fires. *)
val create :
  ?config:config ->
  ?spans:Xroute_obs.Span.t ->
  ?recorder:Xroute_obs.Recorder.t ->
  Topology.t ->
  t

val topology : t -> Topology.t
val sim : t -> Sim.t

(** The configuration the network was created with. *)
val config : t -> config
val broker : t -> int -> Broker.t
val brokers : t -> Broker.t array
val clients : t -> client list

val add_client : t -> broker:int -> client
val find_client : t -> int -> client option

(** {2 Virtual clients}

    The million-client path: subscribers addressed by bare client id,
    with no client record, ledger, or delivery table. Reserve an id
    block with {!alloc_cids}, subscribe with {!subscribe_virtual}, and
    receive deliveries through the {!set_edge_sink} callback — one call
    per path-publication delivery, in arrival order. *)

(** Reserve [n] contiguous client ids (disjoint from real clients);
    returns the first id of the block. *)
val alloc_cids : t -> int -> int

(** Install the sink for deliveries to non-materialized cids: called
    with (cid, doc_id, arrival time in virtual ms). *)
val set_edge_sink : t -> (int -> int -> float -> unit) -> unit

(** Path-publication deliveries that went to the edge sink. *)
val virtual_deliveries : t -> int

val subscribe_virtual : t -> broker:int -> cid:int -> Xroute_xpath.Xpe.t -> Message.sub_id
val unsubscribe_virtual : t -> broker:int -> Message.sub_id -> unit

(** Client operations; all enqueue work — call {!run} to execute. *)

val advertise : t -> client -> Xroute_xpath.Adv.t -> Message.sub_id
val advertise_dtd : t -> client -> Xroute_xpath.Adv.t list -> Message.sub_id list
val subscribe : t -> client -> Xroute_xpath.Xpe.t -> Message.sub_id
val unsubscribe : t -> client -> Message.sub_id -> unit
val unadvertise : t -> client -> Message.sub_id -> unit

(** Decompose a document at the edge and publish its paths; returns the
    number of path publications. *)
val publish_doc : t -> client -> doc_id:int -> Xroute_xml.Xml_tree.t -> int

(** Replay pre-extracted path publications. *)
val publish_paths : t -> client -> Xroute_xml.Xml_paths.publication list -> unit

(** Run the simulation to quiescence. *)
val run : t -> unit

(** Run a merging pass on every broker and deliver what it emits. *)
val merge_all : t -> unit

(** Hand the DTD-derived path universe to every broker (for merging);
    re-handed to brokers recreated by {!restart_broker}. *)
val set_universe : t -> string array list -> unit

(** {2 Fault injection}

    Deterministic failures executed inside the simulation (see
    [Xroute_fault.Plan]). A dead broker destroys arriving messages; on
    restart it comes back {e empty} and the survivors rebuild its state:
    each live neighbor purges everything learned through it
    ([Broker.neighbor_reset]) then re-sends what it needs
    ([Broker.resync_for]), and local clients replay their ledgers. Sends
    over a down link are requeued with capped exponential backoff
    (0.5 ms doubling to 16 ms); duplicated deliveries are harmless
    because the protocol deduplicates by id. *)

(** Cumulative fault accounting, registered in {!metrics}: one counter
    per fault fact, and the [recovery_ms] histogram with one
    observation (virtual ms of post-restart churn) per completed
    recovery episode. *)
val fault_meters : t -> Xroute_obs.Fault_meters.t

(** Schedule every event of a fault plan (times relative to now). *)
val install_plan : t -> Xroute_fault.Plan.t -> unit

(** Immediate fault operations (the plan events call these). *)

val crash_broker : t -> int -> unit

val restart_broker : t -> int -> unit
val broker_alive : t -> int -> bool
val disconnect_client : t -> client -> unit

(** Reconcile (re-issue unsubscribes that were lost while away) and
    replay the ledger; with a dead home broker, recovery waits for the
    broker's restart instead. *)
val reconnect_client : t -> client -> unit

(** {2 Metrics} *)

(** Messages received by brokers ([xroute_net_msgs_total]; by kind in
    [xroute_net_msgs_{adv,unadv,sub,unsub,pub}_total]). *)
val total_traffic : t -> int

(** (client, doc, delay-ms) per first delivery. *)
val delivery_delays : t -> (int * int * float) list

val mean_delivery_delay : t -> float
val total_prt_size : t -> int
val total_srt_size : t -> int

(** Distinct (client, document) deliveries. *)
val total_deliveries : t -> int

(** Publications that reached a live broker and produced no output
    ([xroute_net_pubs_dropped_total]: the in-network false positives
    under imperfect merging), plus publications destroyed by an injected
    fault ([xroute_fault_pubs_destroyed_total]). Reads no broker state,
    so a broker restart never lowers it. *)
val dropped_publications : t -> int

(** Network-level metrics registry (traffic and drop counters, the
    [xroute_fault_*] family, per-hop latency and delivery-delay
    histograms); always live, and the only store of these counts. *)
val metrics : t -> Xroute_obs.Metrics.t

(** The span collector passed to {!create}, if any. *)
val spans : t -> Xroute_obs.Span.t option

(** The flight recorder passed to {!create}, if any. *)
val recorder : t -> Xroute_obs.Recorder.t option

(** Refresh every broker's derived gauges. *)
val refresh_metrics : t -> unit

(** {2 Health federation}

    Every broker maintains a {!Xroute_obs.Health} summary over its own
    registry ({!Broker.metrics}): hop-latency and backlog histograms,
    pub and drop counts, and per-link sends, drops, latency and send
    rates. Link EWMA rates fold and epochs bump when {!run} reaches
    quiescence; a restarted broker starts a fresh summary at epoch 0. *)

(** Broker [b]'s live health summary. *)
val health : t -> int -> Xroute_obs.Health.t

(** [fedstats t ~root ?ttl ()] pulls summaries hop-bounded from [root]:
    a visited-set walk over the topology (loop suppression — safe on
    cyclic overlays) that stops at dead brokers, merged into one overlay
    view. [ttl] bounds the hop depth (default unbounded). The sim twin
    of the daemon's [FEDSTATS|] command. *)
val fedstats : t -> root:int -> ?ttl:int -> unit -> Xroute_obs.Health.view

(** One registry totalling the network registry and all (refreshed)
    broker registries. *)
val aggregate_metrics : t -> Xroute_obs.Metrics.t
