(** Scale-parameterized simulation scenarios.

    Seeded workload shapes — flash crowd, diurnal publish cycles, mass
    churn, multichannel fan-out — that drive the overlay simulator at
    anything from smoke scale to a million subscribers. Subscribers are
    virtual clients emitted lazily in batches (the full population is
    never materialized); deliveries stream into a chunked arena ledger
    (full rows at small scale, a running digest at large scale).

    Scenarios are bit-for-bit deterministic from their spec: two runs of
    one spec agree on every {!diff} field, and that replay is the
    standing gate. *)

type kind =
  | Flash_crowd  (** burst arrival of subscribers on one hot DTD subtree *)
  | Diurnal  (** sinusoidally modulated publish rate over [rounds] cycles *)
  | Churn  (** mass unsubscribe/resubscribe waves after the initial load *)
  | Fanout  (** [channels] feeds, each client subscribed to one *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
val all_kinds : kind list

type spec = {
  kind : kind;
  clients : int;  (** virtual subscriber population *)
  docs : int;  (** documents published *)
  levels : int;  (** binary-tree topology levels *)
  xpes : int;  (** distinct subscription pool size *)
  batch : int;  (** subscribers emitted per generator event *)
  rounds : int;  (** churn waves / diurnal cycles *)
  channels : int;  (** fanout feeds *)
  seed : int;
  dtd : string;  (** a {!Xroute_dtd.Dtd_samples} name *)
  zipf : float option;
      (** Zipf exponent for assigning clients to subscription-pool
          entries ([zipf=<s>] in the spec string). [None] keeps the
          per-kind default: 1.1 for flash crowds, 0.6 otherwise.
          [Some 0.] is the uniform pool. Ignored by the fanout kind,
          whose channels partition the pool instead. *)
}

(** flash, 2000 clients, 12 docs, 4 levels, 128 XPEs, batch 512,
    3 rounds, 8 channels, seed 42, nitf. *)
val default_spec : spec

val spec_to_string : spec -> string

(** Parse a [k=v,k=v] spec (keys [kind], [clients], [docs], [levels],
    [xpes], [batch], [rounds], [channels], [seed], [dtd]; unmentioned
    keys keep {!default_spec} values), e.g.
    ["kind=churn,clients=100000,seed=7"]. *)
val spec_of_string : string -> (spec, string) result

(** Ledger capture: [`Full] keeps every (cid, doc_id, time) row in an
    arena; [`Digest] keeps only the running digest and count; [`Auto]
    (default) is [`Full] up to 20k clients. *)
type ledger_mode = [ `Full | `Digest | `Auto ]

type outcome = {
  spec : spec;
  subs_sent : int;
  unsubs_sent : int;
  docs_published : int;
  deliveries : int;  (** edge-sink rows (one per path-publication delivery) *)
  events : int;  (** simulator events executed *)
  virtual_ms : float;  (** final virtual clock *)
  ledger : Xroute_support.Pool.Arena.t option;
      (** (cid, doc_id, time) rows in arrival order, [`Full] mode only *)
  ledger_digest : int64;  (** always computed, arena-compatible *)
  decisions : string list;
      (** per-broker next-hop probe lines (each path publication replayed
          through every broker), when probing is on *)
  decision_digest : int64;
  fault_line : string;  (** rendered fault counters *)
  prt_total : int;
  srt_total : int;
  dropped_pubs : int;
}

(** Run one scenario. [decisions] forces the next-hop probe on or off
    (default: on up to 20k clients). [fault_spec] overlays a seeded
    fault plan ({!Xroute_fault.Plan.generate}) on the scenario. *)
val run :
  ?ledger:ledger_mode ->
  ?decisions:bool ->
  ?fault_spec:Xroute_fault.Plan.spec ->
  spec ->
  outcome

(** Full-row ledger equality when both outcomes carry arenas (same rows,
    same order); digest + count equality otherwise. *)
val equal_ledgers : outcome -> outcome -> bool

(** Compare two outcomes: ledgers ({!equal_ledgers}), decisions, fault
    accounting, event, subscription and delivery counts, and the final
    clock. Returns the names of the fields that differ — empty means
    they agree. Two runs of one spec must agree (the replay check). *)
val diff : outcome -> outcome -> string list
