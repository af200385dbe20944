(** Causal spans: hierarchical timed intervals that decompose one
    publication's end-to-end latency.

    A trace is the set of spans sharing a [trace] id (publications use
    their [doc_id]). Within a trace, spans form a tree via [parent]:

    - one root (the publication's lifetime, emit → last delivery),
    - one "hop" span per broker visit, parented on the span that caused
      it (the previous hop, or the root for the first broker),
    - leaf "stage" spans under each hop — the per-stage timers: queue
      wait, parse/decompose, SRT/PRT match, cover check, serialize,
      transmit, link, FIFO queueing, delivery. Stage leaves tile their
      parent's interval, so summing leaf durations along a single-path
      chain reproduces the measured end-to-end latency exactly (the
      [--smoke] gate in bench relies on this).
    - per-edge "edge" spans group the transmit/link/queue leaves of one
      outgoing link, so sibling leaves never overlap even under fanout.

    Times are milliseconds — virtual in the simulator, monotonic wall
    clock ({!Xroute_support.Mono}) in the daemon. Daemons use disjoint
    [id_base]s so spans merged from several processes keep globally
    unique ids.

    {2 The collector}

    A collector retains the newest [capacity] spans in a flat ring: one
    array per span field (trace, parent, name, broker, unboxed
    [start]/[stop], meta, up to three integer meta entries), indexed by
    creation number mod the array size. The arrays start at 64 slots and
    double up to [capacity], so a large collector costs nothing until it
    fills. Recording a span stores into those arrays and retains no heap
    block of its own; the only retained allocation is one small entry per
    trace with retained spans, which holds the trace's oldest and newest
    span, its span count and its first root. Spans of one trace are
    chained through a per-slot link. Per operation:

    - {!start_span}, {!record}: O(1), one hash lookup on the trace;
    - {!finish}, {!extend}, {!add_int_meta}: O(1) arithmetic on the id;
    - {!find}: O(1), since a span's id is [id_base + 1 + creation number];
    - {!root_for}: O(1), read from the trace's entry;
    - {!spans_for}: O(trace size), independent of unrelated traffic;
    - eviction of the oldest span: O(1), plus, when it evicts a trace's
      root, a walk to the next root that never revisits a span.

    Writers get a {!handle}; readers ({!find}, {!spans_for},
    {!to_list}) build read-only {!span} records on demand. *)

type t

(** A recorded span, as returned by {!start_span}, {!record} and
    {!root_for}: its [id] plus the collector that holds it. Operations
    on a handle whose span has left the ring do nothing. *)
type handle = private { id : int; owner : t }

(** A read-only copy of a span. *)
type span = {
  id : int;
  trace : int;  (** correlation key; [doc_id] for publications *)
  parent : int option;  (** parent span id; [None] for the trace root *)
  name : string;  (** "pub", "hop", "edge", or a stage name *)
  broker : int;  (** broker id; [-1] outside any broker *)
  start : float;  (** ms *)
  stop : float;  (** ms; [= start] while open *)
  meta : (string * string) list;
}

(** Ring of the newest [capacity] spans (default 8192). [id_base] offsets
    allocated ids — give each daemon a disjoint base.
    @raise Invalid_argument when [capacity <= 0]. *)
val create : ?capacity:int -> ?id_base:int -> unit -> t

(** Spans started since creation or the last {!clear} (may exceed the
    retained count). *)
val length : t -> int

val capacity : t -> int

(** Open a span at [at]; [stop] starts equal to [start]. *)
val start_span :
  t -> ?parent:int -> trace:int -> name:string -> broker:int -> at:float -> unit -> handle

(** Record a closed span in one call. *)
val record :
  t ->
  ?parent:int ->
  ?meta:(string * string) list ->
  trace:int ->
  name:string ->
  broker:int ->
  start:float ->
  stop:float ->
  unit ->
  handle

(** Close at [at] (unconditionally). *)
val finish : handle -> at:float -> unit

(** Push [stop] forward to [at] if later; never moves it back. *)
val extend : handle -> at:float -> unit

(** Attach [key = string_of_int v] to the span's meta without
    allocating. Readers list these entries after the [?meta] given to
    {!record}, in the order added. [key] is stored, not copied.
    @raise Invalid_argument on a fourth entry for one span. *)
val add_int_meta : handle -> string -> int -> unit

(** Retained span by id. O(1). *)
val find : t -> int -> span option

(** Retained spans of one trace, creation order. O(trace size). *)
val spans_for : t -> trace:int -> span list

(** The oldest retained root (parent = None) of a trace, if any. O(1). *)
val root_for : t -> trace:int -> handle option

(** Spans examined by the most recent {!spans_for}. *)
val last_lookup_cost : t -> int

(** Retained spans, oldest first. *)
val to_list : t -> span list

(** Drop every span. Ids keep counting up, so a handle from before the
    clear never names a later span. *)
val clear : t -> unit

val duration : span -> float

(** {2 Renderers and checks} — pure functions over span lists, so spans
    fetched from several daemons can be merged before rendering. *)

(** Chrome trace-event JSON ({["traceEvents"]} of ["ph":"X"] complete
    events, [ts]/[dur] in microseconds, [pid] = broker, [tid] = trace);
    loads in Perfetto / chrome://tracing. *)
val to_chrome : span list -> string

(** JSON string-body escaping shared by the hand-rolled emitters. *)
val json_escape : string -> string

(** Indented text waterfall, one trace after another. *)
val waterfall : span list -> string

(** Structural validation of one trace's spans: exactly one root, every
    parent resolves, children start no earlier than their parent, leaf
    children lie inside their parent's interval, sibling leaves do not
    overlap, no span ends before it starts. An interior child may start
    after its parent ended (a hop chained across daemons: the message
    was in flight when the upstream hop closed). *)
val check_tree : span list -> (unit, string) result

(** Sum of leaf-span durations — the per-stage decomposition total. On a
    single-path trace this equals root end-to-end latency (see module
    doc). *)
val stage_sum : span list -> float

(** One-line wire encoding (fields [|]-separated, content escaped) and
    its inverse; used by the [TRACE|] daemon command. *)
val to_wire_line : span -> string

val of_wire_line : string -> span option
