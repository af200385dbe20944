(** Per-broker health summaries and their federation into an overlay
    view (DESIGN.md Sec. 15).

    A summary is a view of a {!Metrics} registry: the publication and
    drop counts, the hop-latency and egress-backlog histograms and each
    link's send/drop counts and latency histogram are series there
    ([xroute_broker_pubs_in_total], [xroute_broker_sends_dropped_total],
    [xroute_broker_hop_ms], [xroute_broker_egress_backlog],
    [xroute_link_<peer>_sends_total], [xroute_link_<peer>_drops_total],
    [xroute_link_<peer>_latency_ms]). The summary itself keeps only its
    origin, its {!epoch} and each link's sliding-window EWMA send rate.
    Summaries travel the wire as one canonical line each
    ({!encode_summary}) and federate as {e views} — origin id to
    summary — merged by origin with the freshest {!epoch} winning, so
    the merge is deterministic and idempotent: pulling the same broker
    through two overlay paths contributes its summary once, which is
    what makes [FEDSTATS] safe on cyclic overlays. *)

type t

(** One link of a summary: the series toward one peer. *)
type link

(** [create ?metrics origin] registers the summary's series in
    [metrics] (default: a fresh registry) — a broker passes its own
    registry, so the series it already counts (publications) are not
    counted twice. The link send rates are EWMAs over a 5000 ms sliding
    window. *)
val create : ?metrics:Metrics.t -> int -> t

val origin : t -> int

(** Bumped by every {!tick}; the freshest epoch wins in {!merge_views}. *)
val epoch : t -> int

val pubs : t -> int
val drops : t -> int

(** All links, ascending by peer id. *)
val links : t -> link list

val link_peer : link -> int
val link_sends : link -> int

(** {2 Recording} *)

(** Counts into [xroute_broker_pubs_in_total], which [Broker.handle]
    already counts: only a summary over a registry no broker
    feeds calls it. *)
val record_pub : t -> unit
val record_drop : t -> unit
val record_hop_latency : t -> float -> unit
val record_backlog : t -> float -> unit
val record_send : t -> peer:int -> unit
val record_link_drop : t -> peer:int -> unit
val record_link_latency : t -> peer:int -> float -> unit

(** Fold each link's sends since the last fold (the sends counter's
    delta) into its EWMA rate
    ([rate' = decay·rate + (1-decay)·instantaneous],
    [decay = exp(-dt/window)]) and bump the epoch. [now] is in ms (any
    monotonic clock); the first tick only anchors the window. *)
val tick : t -> now:float -> unit

(** {2 Wire encoding} *)

(** One canonical line (no ['\n']; ['|']-separated fields nesting the
    {!Sketch} encoding verbatim). Equal summaries encode equally. *)
val encode_summary : t -> string

(** Inverse of {!encode_summary}: a summary over a private registry.
    [None] on malformed input (a negative count, a sketch with another
    alpha). Unknown fields, the retired [qd=] among them, are skipped
    (forward compatibility). *)
val decode_summary : string -> t option

(** {2 Views} *)

(** An overlay view: (origin id, summary), ascending by origin. *)
type view = (int * t) list

val view_of : t list -> view

(** Keyed by origin; freshest epoch wins, ties broken by the smaller
    encoding. Deterministic, commutative, associative, and idempotent:
    [merge_views v v] equals [v]. *)
val merge_views : view -> view -> view

(** One {!encode_summary} line per origin, ascending. *)
val encode_view : view -> string list

(** Decode and merge a batch of summary lines; [None] if any line is
    malformed. *)
val decode_view : string list -> view option

(** Structural equality via the canonical encodings. *)
val view_equal : view -> view -> bool

(** {2 Rendering} *)

(** Single-shot text dashboard: one block per origin (histogram
    quantiles, per-link rates) plus an overlay-wide rollup with the
    hop-latency sketches merged across origins. *)
val render_top : view -> string

val view_to_json : view -> string
