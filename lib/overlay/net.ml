(* The dissemination network: brokers wired over a topology, clients at
   the edge, and a discrete-event simulation of message exchange.

   Modeling (see DESIGN.md): each message delivery costs the link's
   latency (from the configured model), a per-byte transmission charge
   (so bigger documents travel slower) and the receiving broker's
   processing time, which is proportional to the number of match/cover
   operations the broker actually performed — the quantity covering
   optimizations reduce. Notification delay therefore shrinks when
   routing tables shrink, reproducing the mechanism behind the paper's
   Figures 10 and 11. *)

open Xroute_core

let log_src = Logs.Src.create "xroute.net" ~doc:"Dissemination network simulator"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  strategy : Broker.strategy;
  latency : Latency.model;
  per_match_cost : float; (* ms per match/cover operation *)
  per_msg_cost : float; (* fixed per-message processing, ms *)
  per_byte_cost : float; (* transmission, ms per byte *)
  client_link : float; (* client <-> home broker latency, ms *)
  seed : int;
}

let default_config =
  {
    strategy = Broker.default_strategy;
    latency = Latency.cluster;
    per_match_cost = 0.0002;
    per_msg_cost = 0.005;
    per_byte_cost = 0.0001;
    client_link = 0.05;
    seed = 42;
  }

type client = {
  cid : int;
  home : int; (* broker id *)
  delivered : (int, float) Hashtbl.t; (* doc_id -> first delivery's delay, ms *)
  mutable path_messages : int; (* path publications received *)
  mutable connected : bool; (* false while a Client_drop fault is active *)
  (* The client-side session ledger: what the client believes it has
     advertised/subscribed (newest first). Replayed with the original
     ids after its home broker restarts or after a reconnect — the
     broker deduplicates — and the ground truth the convergence tests
     compare a recovered network against. *)
  mutable adv_ledger : (Message.sub_id * Xroute_xpath.Adv.t) list;
  mutable sub_ledger : (Message.sub_id * Xroute_xpath.Xpe.t) list;
}

module M = Xroute_obs.Metrics
module Span = Xroute_obs.Span
module Recorder = Xroute_obs.Recorder

(* Network-level metric handles (the per-broker ones live in Broker). *)
type net_meters = {
  nm_adv : M.counter;
  nm_unadv : M.counter;
  nm_sub : M.counter;
  nm_unsub : M.counter;
  nm_pub : M.counter;
  nm_total : M.counter;
  nm_pubs_dropped : M.counter; (* publications a live broker routed nowhere *)
  nm_deliveries : M.counter;
  nm_hop_latency : M.histogram; (* full per-hop cost, ms *)
  nm_delivery_delay : M.histogram; (* emit-to-first-delivery, ms *)
}

let make_net_meters reg =
  {
    nm_adv = M.counter reg ~help:"Advertise messages received by brokers" "xroute_net_msgs_adv_total";
    nm_unadv =
      M.counter reg ~help:"Unadvertise messages received by brokers" "xroute_net_msgs_unadv_total";
    nm_sub = M.counter reg ~help:"Subscribe messages received by brokers" "xroute_net_msgs_sub_total";
    nm_unsub =
      M.counter reg ~help:"Unsubscribe messages received by brokers" "xroute_net_msgs_unsub_total";
    nm_pub = M.counter reg ~help:"Publish messages received by brokers" "xroute_net_msgs_pub_total";
    nm_total = M.counter reg ~help:"Messages received by brokers" "xroute_net_msgs_total";
    nm_pubs_dropped =
      M.counter reg ~help:"Publications a broker received and routed nowhere"
        "xroute_net_pubs_dropped_total";
    nm_deliveries =
      M.counter reg ~help:"First-time (client, doc) deliveries" "xroute_net_deliveries_total";
    nm_hop_latency =
      M.histogram reg ~help:"Per-hop cost: processing + transmission + link (ms)"
        "xroute_net_hop_latency_ms";
    nm_delivery_delay =
      M.histogram reg ~help:"Emit-to-first-delivery delay (ms)" "xroute_net_delivery_delay_ms";
  }

(* Active fault windows on one overlay edge (keyed (min, max)). *)
type link_fault = {
  mutable down_until : float; (* sends fail, requeued with backoff *)
  mutable slow_until : float; (* deliveries take [extra_ms] longer *)
  mutable extra_ms : float;
  mutable dup_until : float; (* every delivery arrives twice *)
}

(* One direction of an overlay edge. Like the TCP connection it models,
   the link is FIFO: deliveries commit in send order, even though
   per-message cost varies with size (a small revocation must never
   overtake the subscription it revokes). [tail] is the latest
   committed arrival; [blocked] queues messages sent while the edge is
   down, drained in order once a backoff probe finds it up again. *)
type dlink = {
  mutable tail : float;
  blocked : (float * Message.t) Queue.t; (* (cost, message), send order *)
  mutable probing : bool;
}

type t = {
  topo : Topology.t;
  config : config;
  sim : Sim.t;
  prng : Xroute_support.Prng.t;
  latency_table : (int * int, float) Hashtbl.t;
  brokers : Broker.t array;
  alive : bool array; (* false between an injected crash and its restart *)
  mutable clients : client list;
  client_index : (int, client) Hashtbl.t; (* cid -> client, O(1) on the delivery path *)
  (* Deliveries addressed to a cid with no materialized client record
     land here (virtual clients of the scenario engine): called with
     (cid, doc_id, arrival time) per path publication. *)
  mutable edge_sink : (int -> int -> float -> unit) option;
  mutable virtual_deliveries : int;
  mutable next_cid : int;
  mutable next_seq : int;
  pub_emit : (int, float) Hashtbl.t; (* doc_id -> emit time *)
  metrics : M.t; (* network-level registry; brokers own theirs *)
  nm : net_meters;
  fm : Xroute_obs.Fault_meters.t;
  link_faults : (int * int, link_fault) Hashtbl.t;
  dlinks : (int * int, dlink) Hashtbl.t; (* keyed (src, dst), directed *)
  mutable universe : string array list; (* re-handed to restarted brokers *)
  (* Recovery episode being measured: opened at a broker restart, its
     end stamped by the last message processed, closed at the next fault
     or when the sim quiesces. *)
  mutable recovery_open : float option;
  mutable recovery_last : float;
  spans : Span.t option; (* causal span collection when enabled *)
  recorder : Recorder.t option; (* flight-recorder dumps on fault events *)
  health : Xroute_obs.Health.t array; (* per-broker views of the broker registries *)
}

(* Span context threaded from a hop to its outgoing transmissions, so
   the per-edge stage leaves land under the right hop span and the
   outgoing trace context points at it. *)
type hop_span = {
  hs_spans : Span.t;
  hs_hop : Span.handle;
  hs_trace : int;
  hs_processing : float; (* this hop's processing time, ms *)
}

let create ?(config = default_config) ?spans ?recorder topo =
  let prng = Xroute_support.Prng.create config.seed in
  let latency_table = Latency.assign config.latency prng topo in
  let brokers =
    Array.init (Topology.broker_count topo) (fun b ->
        Broker.create ~strategy:config.strategy ~id:b ~neighbors:(Topology.neighbors topo b) ())
  in
  let metrics = M.create () in
  {
    topo;
    config;
    sim = Sim.create ();
    prng;
    latency_table;
    brokers;
    alive = Array.make (Topology.broker_count topo) true;
    clients = [];
    client_index = Hashtbl.create 64;
    edge_sink = None;
    virtual_deliveries = 0;
    next_cid = 0;
    next_seq = 0;
    pub_emit = Hashtbl.create 64;
    metrics;
    nm = make_net_meters metrics;
    fm = Xroute_obs.Fault_meters.create metrics;
    link_faults = Hashtbl.create 8;
    dlinks = Hashtbl.create 16;
    universe = [];
    recovery_open = None;
    recovery_last = 0.0;
    spans;
    recorder;
    health = Array.mapi (fun b br -> Xroute_obs.Health.create ~metrics:(Broker.metrics br) b) brokers;
  }

let topology t = t.topo
let sim t = t.sim
let config t = t.config
let broker t b = t.brokers.(b)
let brokers t = t.brokers
let clients t = t.clients

let fresh_sub_id t ~origin =
  t.next_seq <- t.next_seq + 1;
  { Message.origin; seq = t.next_seq }

let add_client t ~broker =
  if broker < 0 || broker >= Array.length t.brokers then invalid_arg "Net.add_client";
  let c =
    {
      cid = t.next_cid;
      home = broker;
      delivered = Hashtbl.create 16;
      path_messages = 0;
      connected = true;
      adv_ledger = [];
      sub_ledger = [];
    }
  in
  t.next_cid <- t.next_cid + 1;
  t.clients <- c :: t.clients;
  Hashtbl.replace t.client_index c.cid c;
  c

let find_client t cid = Hashtbl.find_opt t.client_index cid

(* Reserve [n] contiguous client ids (for virtual clients) without
   materializing client records; returns the first id of the block.
   Keeps virtual and real cids disjoint. *)
let alloc_cids t n =
  if n < 0 then invalid_arg "Net.alloc_cids";
  let first = t.next_cid in
  t.next_cid <- t.next_cid + n;
  first

let set_edge_sink t sink = t.edge_sink <- Some sink
let virtual_deliveries t = t.virtual_deliveries

let count_traffic t (msg : Message.t) =
  M.incr t.nm.nm_total;
  M.incr
    (match msg with
    | Message.Advertise _ -> t.nm.nm_adv
    | Message.Unadvertise _ -> t.nm.nm_unadv
    | Message.Subscribe _ -> t.nm.nm_sub
    | Message.Unsubscribe _ -> t.nm.nm_unsub
    | Message.Publish _ -> t.nm.nm_pub)

let total_traffic t = M.value t.nm.nm_total

(* ------------------------------------------------------------------ *)
(* Fault bookkeeping                                                   *)
(* ------------------------------------------------------------------ *)

let link_key a b = if a < b then (a, b) else (b, a)

let link_fault t a b =
  let key = link_key a b in
  match Hashtbl.find_opt t.link_faults key with
  | Some lf -> lf
  | None ->
    let lf =
      { down_until = neg_infinity; slow_until = neg_infinity; extra_ms = 0.0; dup_until = neg_infinity }
    in
    Hashtbl.add t.link_faults key lf;
    lf

let link_fault_opt t a b = Hashtbl.find_opt t.link_faults (link_key a b)

let dlink t src dst =
  match Hashtbl.find_opt t.dlinks (src, dst) with
  | Some d -> d
  | None ->
    let d = { tail = neg_infinity; blocked = Queue.create (); probing = false } in
    Hashtbl.add t.dlinks (src, dst) d;
    d

(* Requeue backoff for sends over a down link: capped exponential, in
   virtual ms. Retrying always advances virtual time, so the loop
   terminates as soon as the (scheduled, finite) outage window ends. *)
let backoff_base_ms = 0.5
let backoff_cap_ms = 16.0

(* A message arrived at a dead broker or a disconnected client: it is
   gone. Publications among them feed [dropped_publications] so crash
   losses are reported, not silent. *)
let destroy t (msg : Message.t) =
  M.incr t.fm.destroyed;
  match msg with
  | Message.Publish _ -> M.incr t.fm.pubs_destroyed
  | Message.Advertise _ | Message.Unadvertise _ | Message.Subscribe _ | Message.Unsubscribe _ ->
    ()

(* Recovery-episode measurement: while an episode is open, every
   processed message pushes its end forward; the episode closes at the
   next fault event or when the sim quiesces, and its duration is the
   last activity seen — i.e. how long the network churned after the
   restart. *)
let touch_recovery t =
  match t.recovery_open with Some _ -> t.recovery_last <- Sim.now t.sim | None -> ()

let close_recovery t =
  match t.recovery_open with
  | None -> ()
  | Some started ->
    t.recovery_open <- None;
    M.observe t.fm.recovery_ms (Float.max 0.0 (t.recovery_last -. started))

(* Client-side reception. *)
let client_receive t c (msg : Message.t) =
  touch_recovery t;
  match msg with
  | Message.Publish { pub; _ } ->
    c.path_messages <- c.path_messages + 1;
    if not (Hashtbl.mem c.delivered pub.doc_id) then begin
      let now = Sim.now t.sim in
      (* Every publication enters through [publish_doc] or
         [publish_paths], which stamp its emit time. *)
      let delay = now -. Hashtbl.find t.pub_emit pub.doc_id in
      Hashtbl.replace c.delivered pub.doc_id delay;
      M.incr t.nm.nm_deliveries;
      M.observe t.nm.nm_delivery_delay delay;
      Log.debug (fun m -> m "client %d received doc %d at t=%.3fms" c.cid pub.doc_id now)
    end
  | Message.Advertise _ | Message.Unadvertise _ | Message.Subscribe _ | Message.Unsubscribe _ ->
    () (* control messages are broker-internal *)

(* Deliver [msg] to broker [b]; schedule whatever it emits. A dead
   broker destroys the message (the sender learns nothing — recovery is
   the restart protocol's job, not a delivery guarantee). *)
let rec broker_receive t ~from b (msg : Message.t) =
  if not t.alive.(b) then begin
    destroy t msg;
    (* Attribute the loss to the link it arrived on, so the sender's
       health summary exposes the lossy edge. *)
    match from with
    | Rtable.Neighbor src ->
      Xroute_obs.Health.record_link_drop t.health.(src) ~peer:b;
      Xroute_obs.Health.record_drop t.health.(src)
    | Rtable.Client _ -> ()
  end
  else begin
    touch_recovery t;
    count_traffic t msg;
    let broker = t.brokers.(b) in
    let w0 = Broker.work broker in
    let stage0 =
      match (t.spans, msg) with
      | Some _, Message.Publish _ -> Broker.stage_ops broker
      | _ -> (0, 0, 0)
    in
    let outs = Broker.handle broker ~from msg in
    (match (msg, outs) with Message.Publish _, [] -> M.incr t.nm.nm_pubs_dropped | _ -> ());
    let work = Broker.work broker - w0 in
    let processing =
      t.config.per_msg_cost +. (float_of_int work *. t.config.per_match_cost)
    in
    Xroute_obs.Health.record_hop_latency t.health.(b) processing;
    (* One "hop" span per traced publication visit, with stage leaves
       tiling its processing interval: each matching stage is billed its
       op-count delta times the configured per-op cost, and the fixed
       per-message charge closes the tiling ("proc" ends exactly at
       processing end, absorbing float rounding) — so summing the leaf
       durations of a single-path trace reproduces the end-to-end delay
       bit-for-bit (the bench --smoke gate). *)
    let sp =
      match (t.spans, msg) with
      | Some sc, Message.Publish { pub; ctx; _ } ->
        let now = Sim.now t.sim in
        let trace = match ctx with Some c -> c.Message.trace | None -> pub.doc_id in
        let parent = Option.map (fun (c : Message.trace_ctx) -> c.parent_span) ctx in
        let hop = Span.start_span sc ?parent ~trace ~name:"hop" ~broker:b ~at:now () in
        let s0, m0, c0 = stage0 in
        let s1, m1, c1 = Broker.stage_ops broker in
        let cursor = ref now in
        let stage name ops =
          if ops > 0 then begin
            let stop = !cursor +. (float_of_int ops *. t.config.per_match_cost) in
            ignore
              (Span.record sc ~parent:hop.Span.id
                 ~meta:[ ("ops", string_of_int ops) ]
                 ~trace ~name ~broker:b ~start:!cursor ~stop ());
            cursor := stop
          end
        in
        stage "srt_match" (s1 - s0);
        stage "prt_match" (m1 - m0);
        stage "cover" (c1 - c0);
        let pend = now +. processing in
        ignore
          (Span.record sc ~parent:hop.Span.id ~trace ~name:"proc" ~broker:b ~start:!cursor
             ~stop:pend ());
        Span.finish hop ~at:pend;
        Some { hs_spans = sc; hs_hop = hop; hs_trace = trace; hs_processing = processing }
      | _ -> None
    in
    List.iter (fun (ep, m) -> send t ~src:b ~processing ?sp ep m) outs
  end

and send t ~src ~processing ?sp ep (msg : Message.t) =
  (* Forwarded publications chain to the hop span that emitted them:
     the broker copied the incoming context verbatim, the transport
     rewrites the parent here. *)
  let msg =
    match (sp, msg) with
    | Some s, Message.Publish { pub; trail; ctx = _ } ->
      Message.Publish
        { pub; trail; ctx = Some { Message.trace = s.hs_trace; parent_span = s.hs_hop.Span.id } }
    | _ -> msg
  in
  let size_cost = float_of_int (Message.wire_size msg) *. t.config.per_byte_cost in
  match ep with
  | Rtable.Neighbor n -> transmit t ~src ~dst:n ~cost:(processing +. size_cost) ?sp msg
  | Rtable.Client cid ->
    M.observe t.nm.nm_hop_latency (processing +. size_cost +. t.config.client_link);
    let delay = processing +. size_cost +. t.config.client_link in
    (match sp with
    | Some s ->
      let now = Sim.now t.sim in
      let edge =
        Span.record s.hs_spans ~parent:s.hs_hop.Span.id
          ~meta:[ ("to", "client:" ^ string_of_int cid) ]
          ~trace:s.hs_trace ~name:"edge" ~broker:src ~start:(now +. processing)
          ~stop:(now +. delay) ()
      in
      ignore
        (Span.record s.hs_spans ~parent:edge.Span.id ~trace:s.hs_trace ~name:"deliver"
           ~broker:src ~start:(now +. processing) ~stop:(now +. delay) ());
      Span.extend s.hs_hop ~at:(now +. delay);
      (match Span.root_for s.hs_spans ~trace:s.hs_trace with
      | Some root -> Span.extend root ~at:(now +. delay)
      | None -> ())
    | None -> ());
    Sim.schedule t.sim ~delay (fun () ->
        match find_client t cid with
        | Some c when c.connected -> client_receive t c msg
        | Some _ -> destroy t msg
        | None -> (
          (* No materialized record: a virtual client. Path publications
             feed the edge sink (one call per delivery, in arrival
             order); control messages are broker-internal, as above. *)
          match (t.edge_sink, msg) with
          | Some sink, Message.Publish { pub; _ } ->
            t.virtual_deliveries <- t.virtual_deliveries + 1;
            M.incr t.nm.nm_deliveries;
            sink cid pub.doc_id (Sim.now t.sim)
          | _ -> ()))

(* One transmission over the directed [src]->[dst] edge, honoring the
   edge's active fault windows: a down link queues the message (in send
   order) behind a capped-exponential-backoff probe; a slow link adds
   its extra delay; a duplicating link delivers a second copy just
   after the first (the protocol is idempotent: duplicate ids are
   deduplicated broker-side, repeat deliveries client-side). *)
and transmit t ~src ~dst ~cost ?sp msg =
  match link_fault_opt t src dst with
  | Some f when Sim.now t.sim < f.down_until ->
    (* The message keeps its (already rewritten) trace context, so the
       causal chain survives the outage; only this edge's timing leaves
       are lost — [sp] is not carried through the blocked queue. *)
    let d = dlink t src dst in
    Queue.push (cost, msg) d.blocked;
    Xroute_obs.Health.record_backlog t.health.(src) (float_of_int (Queue.length d.blocked));
    M.incr t.fm.requeues;
    if not d.probing then begin
      d.probing <- true;
      probe_link t src dst 0
    end
  | _ -> deliver_on_link t ~src ~dst ~cost ?sp msg

(* Retry loop for a down edge: probe with capped exponential backoff
   until the outage window ends, then drain the blocked queue in send
   order. Each probe that still finds the link down requeues every
   blocked message once more. Virtual time advances on every probe, so
   the loop ends as soon as the (finite, scheduled) window does. *)
and probe_link t src dst attempt =
  let delay = Float.min backoff_cap_ms (backoff_base_ms *. (2.0 ** float_of_int attempt)) in
  Sim.schedule t.sim ~delay (fun () ->
      let d = dlink t src dst in
      let down =
        match link_fault_opt t src dst with
        | Some f -> Sim.now t.sim < f.down_until
        | None -> false
      in
      if down then begin
        M.add t.fm.requeues (Queue.length d.blocked);
        probe_link t src dst (attempt + 1)
      end
      else begin
        d.probing <- false;
        while not (Queue.is_empty d.blocked) do
          let cost, msg = Queue.pop d.blocked in
          deliver_on_link t ~src ~dst ~cost msg
        done
      end)

(* Commit one delivery on a live edge. The edge is FIFO, like the TCP
   connection it stands for: the arrival is clamped to the previously
   committed one, so a cheap-to-transmit message never overtakes an
   expensive one sent before it (the event queue breaks equal-time ties
   by insertion order). Without the clamp, a covering-induced
   [Unsubscribe] could arrive before the [Subscribe] it revokes and
   invert into a permanently dangling routing entry. *)
and deliver_on_link t ~src ~dst ~cost ?sp msg =
  let lf = link_fault_opt t src dst in
  let now = Sim.now t.sim in
  let link = Latency.link_delay t.config.latency t.latency_table t.prng src dst in
  let extra = match lf with Some f when now < f.slow_until -> f.extra_ms | _ -> 0.0 in
  let d = dlink t src dst in
  let arrival = Float.max (now +. cost +. link +. extra) d.tail in
  d.tail <- arrival;
  M.observe t.nm.nm_hop_latency (arrival -. now);
  Xroute_obs.Health.record_send t.health.(src) ~peer:dst;
  Xroute_obs.Health.record_link_latency t.health.(src) ~peer:dst (arrival -. now);
  (* Per-edge stage leaves, grouped under an "edge" span so fanout
     edges never produce overlapping sibling leaves: transmit (the
     per-byte charge), link (propagation + slow-fault extra), and queue
     (FIFO-clamp wait behind an earlier in-flight message, if any). *)
  (match sp with
  | Some s ->
    let tx0 = now +. s.hs_processing in
    let tx1 = now +. cost in
    let l1 = tx1 +. link +. extra in
    let edge =
      Span.record s.hs_spans ~parent:s.hs_hop.Span.id
        ~meta:[ ("to", string_of_int dst) ]
        ~trace:s.hs_trace ~name:"edge" ~broker:src ~start:tx0 ~stop:arrival ()
    in
    ignore
      (Span.record s.hs_spans ~parent:edge.Span.id ~trace:s.hs_trace ~name:"transmit"
         ~broker:src ~start:tx0 ~stop:tx1 ());
    ignore
      (Span.record s.hs_spans ~parent:edge.Span.id ~trace:s.hs_trace ~name:"link" ~broker:src
         ~start:tx1 ~stop:l1 ());
    if arrival -. l1 > 0.0 then
      ignore
        (Span.record s.hs_spans ~parent:edge.Span.id ~trace:s.hs_trace ~name:"queue"
           ~broker:src ~start:l1 ~stop:arrival ());
    Span.extend s.hs_hop ~at:arrival
  | None -> ());
  Sim.schedule t.sim ~delay:(arrival -. now) (fun () ->
      broker_receive t ~from:(Rtable.Neighbor src) dst msg);
  match lf with
  | Some f when now < f.dup_until ->
    M.incr t.fm.dups;
    let arrival2 = Float.max (arrival +. 0.001) d.tail in
    d.tail <- arrival2;
    (* Keep the causal tree well-formed under duplication: the dup's
       hop span starts at [arrival2], which must not exceed its
       parent's stop. *)
    (match sp with Some s -> Span.extend s.hs_hop ~at:arrival2 | None -> ());
    Sim.schedule t.sim ~delay:(arrival2 -. now) (fun () ->
        broker_receive t ~from:(Rtable.Neighbor src) dst msg)
  | _ -> ()

(* Client-originated injection. A disconnected client cannot send at
   all (its ledger is replayed on reconnect); a connected client's
   message still travels and dies at a dead home broker, where
   [destroy] accounts for it. *)
let inject t (c : client) msg =
  if c.connected then
    Sim.schedule t.sim ~delay:t.config.client_link (fun () ->
        broker_receive t ~from:(Rtable.Client c.cid) c.home msg)

(* ------------------------------------------------------------------ *)
(* Client operations                                                   *)
(* ------------------------------------------------------------------ *)

let remove_ledger_id ledger id =
  List.filter (fun (i, _) -> Message.compare_sub_id i id <> 0) ledger

let advertise t c adv =
  let id = fresh_sub_id t ~origin:c.cid in
  c.adv_ledger <- (id, adv) :: c.adv_ledger;
  inject t c (Message.Advertise { id; adv });
  id

let advertise_dtd t c advs = List.map (fun adv -> advertise t c adv) advs

let subscribe t c xpe =
  let id = fresh_sub_id t ~origin:c.cid in
  c.sub_ledger <- (id, xpe) :: c.sub_ledger;
  inject t c (Message.Subscribe { id; xpe });
  id

let unsubscribe t c id =
  c.sub_ledger <- remove_ledger_id c.sub_ledger id;
  inject t c (Message.Unsubscribe { id })

let unadvertise t c id =
  c.adv_ledger <- remove_ledger_id c.adv_ledger id;
  inject t c (Message.Unadvertise { id })

(* Virtual-client operations: inject control messages from a bare cid
   (reserved via [alloc_cids]) without a client record or ledger. The
   scenario engine uses these so a million-subscriber run materializes
   no per-client state beyond the brokers' routing tables; deliveries
   come back through the edge sink. *)

let subscribe_virtual t ~broker ~cid xpe =
  if broker < 0 || broker >= Array.length t.brokers then
    invalid_arg "Net.subscribe_virtual";
  let id = fresh_sub_id t ~origin:cid in
  Sim.schedule t.sim ~delay:t.config.client_link (fun () ->
      broker_receive t ~from:(Rtable.Client cid) broker (Message.Subscribe { id; xpe }));
  id

let unsubscribe_virtual t ~broker (id : Message.sub_id) =
  if broker < 0 || broker >= Array.length t.brokers then
    invalid_arg "Net.unsubscribe_virtual";
  Sim.schedule t.sim ~delay:t.config.client_link (fun () ->
      broker_receive t ~from:(Rtable.Client id.Message.origin) broker
        (Message.Unsubscribe { id }))

(* When spans are on, anchor a trace for [doc_id]: a root "pub" span
   (emit → last delivery, extended as deliveries land) with an "inject"
   leaf for the publisher's client link. Returns the context the path
   publications carry; reuses the root when the doc already has one
   (multi-call replay). *)
let pub_ctx t ~doc_id =
  match t.spans with
  | None -> None
  | Some sc ->
    let root =
      match Span.root_for sc ~trace:doc_id with
      | Some r -> r
      | None ->
        let now = Sim.now t.sim in
        let r = Span.start_span sc ~trace:doc_id ~name:"pub" ~broker:(-1) ~at:now () in
        ignore
          (Span.record sc ~parent:r.Span.id ~trace:doc_id ~name:"inject" ~broker:(-1)
             ~start:now ~stop:(now +. t.config.client_link) ());
        Span.finish r ~at:(now +. t.config.client_link);
        r
    in
    Some { Message.trace = doc_id; parent_span = root.Span.id }

(* Publish a document: decompose into path publications at the edge. *)
let publish_doc t c ~doc_id root =
  Hashtbl.replace t.pub_emit doc_id (Sim.now t.sim);
  let pubs = Xroute_xml.Xml_paths.decompose ~doc_id root in
  let ctx = pub_ctx t ~doc_id in
  List.iter (fun pub -> inject t c (Message.Publish { pub; trail = []; ctx })) pubs;
  List.length pubs

(* Publish pre-extracted path publications (workload replay). *)
let publish_paths t c pubs =
  List.iter
    (fun (pub : Xroute_xml.Xml_paths.publication) ->
      if not (Hashtbl.mem t.pub_emit pub.doc_id) then
        Hashtbl.replace t.pub_emit pub.doc_id (Sim.now t.sim);
      inject t c (Message.Publish { pub; trail = []; ctx = pub_ctx t ~doc_id:pub.doc_id }))
    pubs

(* Run the simulation to quiescence. *)
let run t =
  Sim.run t.sim;
  close_recovery t;
  (* Fold this run's sends into the per-link EWMA rates and stamp a
     fresh epoch on every live broker's health summary. *)
  let now = Sim.now t.sim in
  Array.iteri (fun b h -> if t.alive.(b) then Xroute_obs.Health.tick h ~now) t.health

(* ------------------------------------------------------------------ *)
(* Faults and recovery                                                 *)
(* ------------------------------------------------------------------ *)

let broker_alive t b = t.alive.(b)

(* Replay the client's ledger with the original ids (in registration
   order): the receiving broker deduplicates, so replay is idempotent. *)
let replay_ledger t c =
  List.iter
    (fun (id, adv) ->
      M.incr t.fm.replayed;
      inject t c (Message.Advertise { id; adv }))
    (List.rev c.adv_ledger);
  List.iter
    (fun (id, xpe) ->
      M.incr t.fm.replayed;
      inject t c (Message.Subscribe { id; xpe }))
    (List.rev c.sub_ledger)

(* Write a flight-recorder dump if a recorder is installed. [broker]
   restricts the embedded spans/hops to one victim and uses its registry
   (captured now — a restart replaces the broker object, losing it);
   without it the dump carries the network registry and everything
   retained. *)
let flight_dump t ~reason ?broker () =
  match t.recorder with
  | None -> ()
  | Some r ->
    let keep f l = match broker with Some b -> List.filter (f b) l | None -> l in
    let spans =
      match t.spans with
      | Some sc -> keep (fun b (s : Span.span) -> s.Span.broker = b) (Span.to_list sc)
      | None -> []
    in
    let metrics =
      match broker with
      | Some b ->
        Broker.refresh_metrics t.brokers.(b);
        Broker.metrics t.brokers.(b)
      | None -> t.metrics
    in
    (match Recorder.trigger r ~reason ~at:(Sim.now t.sim) ~metrics ~spans () with
    | Ok path -> Log.info (fun m -> m "flight recorder: %s" path)
    | Error e -> Log.warn (fun m -> m "flight recorder failed (%s): %s" reason e))

let crash_broker t b =
  if t.alive.(b) then begin
    close_recovery t;
    t.alive.(b) <- false;
    M.incr t.fm.crashes;
    flight_dump t ~reason:(Printf.sprintf "broker %d crash" b) ~broker:b ();
    Log.info (fun m -> m "broker %d crashed at t=%.3fms" b (Sim.now t.sim))
  end

(* A crashed broker restarts as a fresh process: empty routing tables,
   zero counters, a health summary over the new registry at epoch 0.
   Recovery is anti-entropy from the survivors — each live neighbor
   purges what it learned through the dead process
   ([Broker.neighbor_reset]) and re-sends what the fresh one needs
   ([Broker.resync_for]); local clients replay their ledgers. Nothing
   is resurrected from the dead broker's own state. *)
let restart_broker t b =
  if not t.alive.(b) then begin
    close_recovery t;
    t.alive.(b) <- true;
    t.brokers.(b) <-
      Broker.create ~strategy:t.config.strategy ~id:b ~neighbors:(Topology.neighbors t.topo b) ();
    if t.universe <> [] then Broker.set_universe t.brokers.(b) t.universe;
    t.health.(b) <- Xroute_obs.Health.create ~metrics:(Broker.metrics t.brokers.(b)) b;
    M.incr t.fm.restarts;
    t.recovery_open <- Some (Sim.now t.sim);
    t.recovery_last <- Sim.now t.sim;
    Log.info (fun m -> m "broker %d restarted at t=%.3fms" b (Sim.now t.sim));
    let live_neighbors = List.filter (fun n -> t.alive.(n)) (Topology.neighbors t.topo b) in
    (* Purges run for every neighbor before any resync message is
       computed, at the restart instant — link delays then keep every
       purge flood ahead of the re-advertisements on shared paths. *)
    List.iter
      (fun n ->
        let outs = Broker.neighbor_reset t.brokers.(n) ~ep:(Rtable.Neighbor b) in
        List.iter (fun (ep, m) -> send t ~src:n ~processing:0.0 ep m) outs)
      live_neighbors;
    List.iter
      (fun n ->
        let outs = Broker.resync_for t.brokers.(n) ~ep:(Rtable.Neighbor b) in
        List.iter (fun (ep, m) -> send t ~src:n ~processing:0.0 ep m) outs)
      live_neighbors;
    List.iter (fun c -> if c.home = b && c.connected then replay_ledger t c) t.clients
  end

let disconnect_client t c =
  if c.connected then begin
    c.connected <- false;
    M.incr t.fm.disconnects;
    Log.info (fun m -> m "client %d disconnected at t=%.3fms" c.cid (Sim.now t.sim))
  end

(* Reconnect = reconcile + replay: operations revoked while away
   (unsubscribes that never reached the broker) are re-issued against
   the broker's current per-client state, then the ledger is replayed.
   With a dead home broker both steps wait for its restart, which
   replays connected clients itself. *)
let reconnect_client t c =
  if not c.connected then begin
    c.connected <- true;
    M.incr t.fm.reconnects;
    Log.info (fun m -> m "client %d reconnected at t=%.3fms" c.cid (Sim.now t.sim));
    if t.alive.(c.home) then begin
      let b = t.brokers.(c.home) in
      let ep = Rtable.Client c.cid in
      let stale stored live =
        List.filter
          (fun id -> not (List.exists (fun (i, _) -> Message.compare_sub_id i id = 0) live))
          stored
      in
      List.iter
        (fun id -> inject t c (Message.Unadvertise { id }))
        (stale (Broker.srt_ids_from b ep) c.adv_ledger);
      List.iter
        (fun id -> inject t c (Message.Unsubscribe { id }))
        (stale (Broker.prt_ids_from b ep) c.sub_ledger);
      replay_ledger t c
    end
  end

let install_plan t (plan : Xroute_fault.Plan.t) =
  let module P = Xroute_fault.Plan in
  let on_client cid f =
    match find_client t cid with Some c -> f c | None -> ()
  in
  List.iter
    (fun ev ->
      match ev with
      | P.Broker_crash { broker = b; at; down_for } ->
        Sim.schedule t.sim ~delay:at (fun () -> crash_broker t b);
        Sim.schedule t.sim ~delay:(at +. down_for) (fun () -> restart_broker t b)
      | P.Link_down { a; b; at; down_for } ->
        Sim.schedule t.sim ~delay:at (fun () ->
            (link_fault t a b).down_until <- Sim.now t.sim +. down_for;
            flight_dump t ~reason:(Printf.sprintf "link %d-%d down" a b) ())
      | P.Link_delay { a; b; at; down_for; extra_ms } ->
        Sim.schedule t.sim ~delay:at (fun () ->
            let lf = link_fault t a b in
            lf.slow_until <- Sim.now t.sim +. down_for;
            lf.extra_ms <- extra_ms)
      | P.Link_dup { a; b; at; down_for } ->
        Sim.schedule t.sim ~delay:at (fun () ->
            (link_fault t a b).dup_until <- Sim.now t.sim +. down_for)
      | P.Client_drop { cid; at; down_for } ->
        Sim.schedule t.sim ~delay:at (fun () -> on_client cid (disconnect_client t));
        Sim.schedule t.sim ~delay:(at +. down_for) (fun () -> on_client cid (reconnect_client t)))
    plan.P.events

let fault_meters t = t.fm

(* Run a merging pass on every broker and deliver what it emits. *)
let merge_all t =
  Array.iteri
    (fun b broker ->
      let outs = Broker.merge_pass broker in
      List.iter (fun (ep, m) -> send t ~src:b ~processing:0.0 ep m) outs)
    t.brokers;
  run t

let set_universe t universe =
  t.universe <- universe;
  Array.iter (fun b -> Broker.set_universe b universe) t.brokers

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* (client, doc, delay-ms) per first delivery, read off the clients. *)
let delivery_delays t =
  List.concat_map
    (fun c -> Hashtbl.fold (fun doc d acc -> (c.cid, doc, d) :: acc) c.delivered [])
    t.clients

let mean_delivery_delay t =
  match M.observations t.nm.nm_delivery_delay with
  | 0 -> 0.0
  | n -> M.sum t.nm.nm_delivery_delay /. float_of_int n

(* Total routing table entries across brokers. *)
let total_prt_size t = Array.fold_left (fun acc b -> acc + Broker.prt_size b) 0 t.brokers
let total_srt_size t = Array.fold_left (fun acc b -> acc + Broker.srt_size b) 0 t.brokers

let total_deliveries t =
  List.fold_left (fun acc c -> acc + Hashtbl.length c.delivered) 0 t.clients

(* Publications that reached a live broker and were routed nowhere
   (with merging: the in-network false positives), plus publications
   destroyed by an injected fault — a crash takes its in-flight and
   queued publications with it, and those losses are reported here, not
   silently swallowed. Both are network counters, so a broker restart,
   which discards the broker's own registry, does not lower the sum. *)
let dropped_publications t = M.value t.nm.nm_pubs_dropped + M.value t.fm.pubs_destroyed

(* ------------------------------------------------------------------ *)
(* Registry and traces                                                 *)
(* ------------------------------------------------------------------ *)

let metrics t = t.metrics
let spans t = t.spans
let recorder t = t.recorder

(* Refresh every broker's gauges (the network registry is always live). *)
let refresh_metrics t = Array.iter Broker.refresh_metrics t.brokers

(* ------------------------------------------------------------------ *)
(* Health federation (sim side)                                        *)
(* ------------------------------------------------------------------ *)

let health t b =
  if b < 0 || b >= Array.length t.health then invalid_arg "Net.health";
  t.health.(b)

(* Pull health summaries hop-bounded from [root], the sim twin of the
   daemon's FEDSTATS: a breadth-limited walk over the topology with a
   visited set for loop suppression (safe on cyclic overlays), stopping
   at dead brokers — exactly what a wire pull would see, since a dead
   neighbor answers nothing and forwards nothing. *)
let fedstats t ~root ?(ttl = max_int) () =
  if root < 0 || root >= Array.length t.brokers then invalid_arg "Net.fedstats";
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec visit b depth =
    if (not (Hashtbl.mem seen b)) && t.alive.(b) then begin
      Hashtbl.add seen b ();
      acc := t.health.(b) :: !acc;
      if depth > 0 then List.iter (fun n -> visit n (depth - 1)) (Topology.neighbors t.topo b)
    end
  in
  visit root ttl;
  Xroute_obs.Health.view_of !acc

(* One registry totalling the network registry and all broker
   registries; refreshes broker gauges first. *)
let aggregate_metrics t =
  refresh_metrics t;
  M.aggregate (t.metrics :: Array.to_list (Array.map Broker.metrics t.brokers))
