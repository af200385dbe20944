(** TCP deployment of a content-based XML router: one daemon hosts one
    {!Xroute_core.Broker} behind a listening socket with a single-
    threaded select loop. The wire protocol is line-oriented:
    [HELLO|broker|<id>] / [HELLO|client|<id>] identify a peer, then
    [M|<codec line>] carries routed messages. [STATS|prom] /
    [STATS|json] dump the broker's metrics registry, framed as
    [STATS|BEGIN|<fmt>], one [S|<line>] per exposition line, then
    [STATS|END]. [AUDIT] runs the routing-state audit
    ({!Xroute_check.Check.audit_broker}) on the hosted broker, framed as
    [AUDIT|BEGIN], one [A|<severity>|<code>|<subject>|<witness>] per
    finding (fields reversibly escaped, see {!Framing}), then
    [AUDIT|END|<errors>|<warnings>]. [TRACE|<id>] streams the retained
    causal spans of one trace, framed as [TRACE|BEGIN|<id>], one
    [T|<span wire line>] per span, then [TRACE|END|<count>].

    Every routed publication is traced: its hop through this broker
    becomes a "hop" span with stage leaves (queue wait, parse, match
    with SRT/PRT/cover op counts, serialize) stamped by a monotonic
    wall clock ({!Xroute_support.Mono}); outgoing copies carry the hop
    span's id as trace context, chaining the next broker's hop under
    it. A publication arriving without context (from a client) mints
    the context and a root "pub" span here.

    Lower-id brokers dial their higher-id neighbors,
    giving one TCP connection per overlay edge; dialing is retried, so
    start order does not matter. *)

type t

(** [create ~id ~port ~neighbors ()] binds the listening socket
    immediately ([port = 0] picks a free port; see {!port}). [neighbors]
    maps neighbor broker ids to their (host, port) addresses.
    [max_write_chunk] caps the bytes per [write] syscall on the queued
    output path (default unlimited) — set it to 1 to exercise the
    partial-write offset logic deterministically. [flight_dir] enables
    the flight recorder: when an [AUDIT] reports an error-severity
    finding, the span ring, registry and latest rates are dumped there
    ([Xroute_obs.Recorder]). *)
val create :
  ?strategy:Xroute_core.Broker.strategy ->
  ?max_write_chunk:int ->
  ?flight_dir:string ->
  id:int ->
  port:int ->
  neighbors:(int * (string * int)) list ->
  unit ->
  t

(** The hosted broker (for inspection). *)
val broker : t -> Xroute_core.Broker.t

(** This broker's live health summary ({!Xroute_obs.Health}), a view
    of the broker's registry: hop-latency and egress-backlog
    histograms, pub and drop counts, per-link sends, drops, latency and
    EWMA send rates. Link EWMA rates fold and the epoch
    bumps on every registry snapshot (once a second) and on every
    [FEDSTATS] pull. Pulled overlay-wide by the [FEDSTATS|] command:
    [FEDSTATS|<reqid>|<ttl>|<seen>] answers
    [FEDSTATS|BEGIN|<reqid>], one [F|<escaped summary line>] per origin
    broker, [FEDSTATS|END|<reqid>|<count>] — forwarding decremented-ttl
    sub-pulls to neighbors not in [<seen>] (origin-id loop suppression;
    safe on cyclic overlays) and merging their views by origin before
    replying. *)
val health : t -> Xroute_obs.Health.t

(** The daemon's span collector (ids offset by [broker id × 10⁹] so
    spans merged across daemons stay unique). *)
val spans : t -> Xroute_obs.Span.t

(** Periodic registry snapshots (one a second of wall clock). *)
val timeseries : t -> Xroute_obs.Timeseries.t

(** The flight recorder, when [create] was given a [flight_dir]. *)
val recorder : t -> Xroute_obs.Recorder.t option

(** The bound port. *)
val port : t -> int

(** One event-loop iteration (dial, select, read, process, write). *)
val step : ?timeout:float -> t -> unit

(** Loop on {!step} until {!request_stop}, then close every socket. *)
val run : ?timeout:float -> t -> unit

(** Make {!run} return after its current iteration. Safe to call from
    another thread. *)
val request_stop : t -> unit
