(** Metrics registry: named counters, gauges and histograms with
    Prometheus-style text and JSON exposition.

    Naming convention: [xroute_<subsystem>_<metric>], with [_total] for
    monotonic counters and [_ms] for millisecond-valued histograms.
    Every broker owns a registry; {!aggregate} totals them. *)

type counter
type gauge
type histogram
type metric = Counter of counter | Gauge of gauge | Histogram of histogram

(** A registry. *)
type t

val create : unit -> t

(** [counter t name] registers (or returns the already-registered)
    counter. @raise Invalid_argument when [name] exists with another
    type. Same contract for {!gauge} and {!histogram}. *)
val counter : t -> ?help:string -> string -> counter

val gauge : t -> ?help:string -> string -> gauge

(** A histogram is its {!Sketch.t} plus a running sum of squares. *)
val histogram : t -> ?help:string -> string -> histogram

val incr : counter -> unit

(** Monotonic increment. @raise Invalid_argument on a negative amount. *)
val add : counter -> int -> unit

(** Mirror a pre-existing cumulative source into the counter; never
    moves the value backwards. *)
val counter_set : counter -> int -> unit

val value : counter -> int

val set : gauge -> float -> unit
val set_int : gauge -> int -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit

(** The histogram's quantile sketch: every observation ever made,
    mergeable across brokers ({!Sketch.merge}). *)
val sketch : histogram -> Sketch.t

(** [count]/[sum]/[mean]/[stddev]/[min]/[max] are exact over every
    observation; p50/p95/p99 are sketch estimates, within relative
    error {!Sketch.alpha} of the exact order statistic. An empty
    histogram reads all zeros. *)
val summary : histogram -> Xroute_support.Stats.summary

(** Observations ever made. *)
val observations : histogram -> int

val sum : histogram -> float

(** Registered metrics as [(name, help, metric)], sorted by name. *)
val metrics : t -> (string * string * metric) list

val find : t -> string -> metric option

(** One scalar per metric: counter value, gauge value, or histogram
    observation count. [None] when unregistered. *)
val scalar : t -> string -> float option

(** Merge registries: counters and gauges sum; histograms merge their
    sketches ({!Sketch.merge_into}) and sums of squares, so the
    aggregate's {!summary} obeys the same contract as a single
    histogram's. *)
val aggregate : t list -> t

(** Prometheus text exposition (counters, gauges, and histograms as
    summaries with p50/p95/p99 quantiles). *)
val to_prometheus : t -> string

(** Single-line JSON exposition. *)
val to_json : t -> string
