(* Metric handles for the fault-injection layer: registered eagerly so
   the xroute_fault_* family appears in expositions even before any
   fault fires, and resolved once so the simulator's hot paths never do
   a name lookup. *)

type t = {
  crashes : Metrics.counter;
  restarts : Metrics.counter;
  requeues : Metrics.counter;
  dups : Metrics.counter;
  destroyed : Metrics.counter;
  pubs_destroyed : Metrics.counter;
  disconnects : Metrics.counter;
  reconnects : Metrics.counter;
  replayed : Metrics.counter;
  recovery_ms : Metrics.histogram;
}

let create reg =
  {
    crashes = Metrics.counter reg ~help:"Broker crashes injected" "xroute_fault_crashes_total";
    restarts = Metrics.counter reg ~help:"Broker restarts injected" "xroute_fault_restarts_total";
    requeues =
      Metrics.counter reg ~help:"Sends requeued with backoff while a link was down"
        "xroute_fault_requeues_total";
    dups =
      Metrics.counter reg ~help:"Extra deliveries injected by duplicating links"
        "xroute_fault_dup_deliveries_total";
    destroyed =
      Metrics.counter reg ~help:"Messages destroyed at a dead broker or disconnected client"
        "xroute_fault_msgs_destroyed_total";
    pubs_destroyed =
      Metrics.counter reg ~help:"Publications among the destroyed messages"
        "xroute_fault_pubs_destroyed_total";
    disconnects =
      Metrics.counter reg ~help:"Client disconnects injected" "xroute_fault_client_disconnects_total";
    reconnects =
      Metrics.counter reg ~help:"Client reconnects performed" "xroute_fault_client_reconnects_total";
    replayed =
      Metrics.counter reg ~help:"Ledger entries re-injected by recovery"
        "xroute_fault_replayed_total";
    recovery_ms =
      Metrics.histogram reg
        ~help:"Virtual ms from broker restart until recovery traffic quiesced"
        "xroute_fault_recovery_ms";
  }
