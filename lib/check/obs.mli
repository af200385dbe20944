(** Observability audit: does the telemetry itself tell the truth?

    Every other family trusts the counters, spans and sketches it reads.
    This family closes the loop on that trust, in three layers:

    - {e sketch accuracy} — seeded distributions (uniform, exponential,
      Zipf ranks, a bimodal latency mixture) pushed through
      {!Xroute_obs.Sketch}, every estimated quantile compared against
      the exact order statistic; any relative error beyond the
      advertised [alpha] is an Error;
    - {e merge algebra} — the laws the [FEDSTATS] federation relies on:
      merge commutativity and associativity (exact, because bucket
      counts are integers), and encode/decode as the identity;
    - {e overlay telemetry} — a 3-broker line under a book-DTD workload,
      checked end to end: counter monotonicity across timeseries
      snapshots (the [_total] convention), the message total equal to
      the sum of the five per-kind message counters at every snapshot
      ([obs-traffic-sum]), gauge and quantile
      finiteness, span/metric/health cross-consistency (the Publish
      counter, the per-visit "hop" spans and the federated health pub
      counts must agree exactly), and the federation itself (the pulled
      view equals the union of per-broker summaries, merging a view
      with itself changes nothing, ttl bounds the origin set).

    Every finding is error-severity: a wrong number in the telemetry is
    a lie every dashboard and gate downstream repeats. *)

val audit : ?seed:int -> ?samples:int -> ?inject:bool -> unit -> Finding.report
(** [samples] sizes each seeded distribution (default 4000). [inject]
    plants a counter regression in the collected snapshot data (rolls
    one [_total] back to zero, a silently-restarted metric source) — the
    must-fail mutation behind [--inject-obs-drift]. *)
