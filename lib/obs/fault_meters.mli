(** Metric handles for the fault-injection layer ([lib/fault] plans
    executed by [Xroute_overlay.Net]): crash/restart/requeue/duplicate
    counters and the recovery-time histogram, under the
    [xroute_fault_*] name family. They are the only store of the fault
    accounting: readers take counts from the counters and recovery
    episodes from [recovery_ms] (count, mean as sum/count, exact max).
    Registered eagerly at {!create} so every name is present before any
    fault fires. *)

type t = {
  crashes : Metrics.counter;
  restarts : Metrics.counter;
  requeues : Metrics.counter;  (** sends requeued with backoff on a down link *)
  dups : Metrics.counter;  (** extra deliveries injected by duplicating links *)
  destroyed : Metrics.counter;
      (** messages destroyed at a dead broker or disconnected client *)
  pubs_destroyed : Metrics.counter;  (** publications among [destroyed] *)
  disconnects : Metrics.counter;
  reconnects : Metrics.counter;
  replayed : Metrics.counter;  (** ledger entries re-injected by recovery *)
  recovery_ms : Metrics.histogram;
      (** virtual ms from broker restart until recovery traffic
          quiesced, one observation per completed recovery episode *)
}

val create : Metrics.t -> t
