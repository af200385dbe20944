(** Periodic registry snapshots in a ring, with deltas and rates.

    A {!Metrics.t} registry only ever shows "now"; this module samples
    the scalar view of every registered metric (counter value, gauge
    value, histogram observation count) at caller-chosen instants so the
    recent trajectory survives — the daemon snapshots once a second, and
    the flight recorder embeds the latest rates in its dump. *)

type sample = {
  at : float;  (** ms, same clock the caller stamps spans with *)
  values : (string * float) list;  (** metric name → scalar, sorted *)
}

type t

(** Ring of the newest 128 samples over [registry]. *)
val create : Metrics.t -> t

(** Sample every registered metric at time [at]. *)
val snapshot : t -> at:float -> unit

(** Snapshots ever taken. *)
val length : t -> int

(** Retained samples, oldest first. *)
val to_list : t -> sample list

val last : t -> sample option

(** Per-metric change between the last two snapshots (new metrics count
    from 0). Empty with fewer than two snapshots. *)
val deltas : t -> (string * float) list

(** {!deltas} divided by the elapsed time, per second. Empty when fewer
    than two snapshots or time has not advanced. *)
val rates : t -> (string * float) list
