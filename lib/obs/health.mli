(** Per-broker health summaries and their federation into an overlay
    view (DESIGN.md Sec. 16).

    A summary holds {!Sketch} quantiles for hop latency, queue depth and
    egress backlog, publication/drop counters, and a per-link table
    (send/drop counts, latency sketch, sliding-window EWMA send rate).
    Summaries travel the wire as one canonical line each
    ({!encode_summary}) and federate as {e views} — origin id to
    summary — merged by origin with the freshest {!epoch} winning, so
    the merge is deterministic and idempotent: pulling the same broker
    through two overlay paths contributes its summary once, which is
    what makes [FEDSTATS] safe on cyclic overlays. *)

type t

type link = {
  l_peer : int;
  l_latency : Sketch.t;  (** per-hop latency over this link, ms *)
  mutable l_sends : int;
  mutable l_drops : int;
  mutable l_rate : float;  (** EWMA sends/s, updated by {!tick} *)
}

(** [create origin] — the link send rates are EWMAs over a 5000 ms
    sliding window. *)
val create : int -> t

val origin : t -> int

(** Bumped by every {!tick}; the freshest epoch wins in {!merge_views}. *)
val epoch : t -> int

val hop_latency : t -> Sketch.t
val queue_depth : t -> Sketch.t
val backlog : t -> Sketch.t
val pubs : t -> int
val drops : t -> int

(** The link record toward [peer], created on first use. *)
val link : t -> int -> link

(** All links, ascending by peer id. *)
val links : t -> link list

(** {2 Recording} *)

val record_pub : t -> unit
val record_drop : t -> unit
val record_hop_latency : t -> float -> unit
val record_queue_depth : t -> float -> unit
val record_backlog : t -> float -> unit
val record_send : t -> peer:int -> unit
val record_link_drop : t -> peer:int -> unit
val record_link_latency : t -> peer:int -> float -> unit

(** Fold the sends since the last tick into each link's EWMA rate
    ([rate' = decay·rate + (1-decay)·instantaneous],
    [decay = exp(-dt/window)]) and bump the epoch. [now] is in ms (any
    monotonic clock); the first tick only anchors the window. *)
val tick : t -> now:float -> unit

(** {2 Wire encoding} *)

(** One canonical line (no ['\n']; ['|']-separated fields nesting the
    {!Sketch} encoding verbatim). Equal summaries encode equally. *)
val encode_summary : t -> string

(** Inverse of {!encode_summary}; [None] on malformed input. Unknown
    fields are skipped (forward compatibility). *)
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

(** Single-shot text dashboard: one block per origin (sketch quantiles,
    per-link rates) plus an overlay-wide rollup with the hop-latency
    sketches merged across origins. *)
val render_top : view -> string

val view_to_json : view -> string
