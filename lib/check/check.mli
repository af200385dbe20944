(** Workload analysis and routing-state audit (the reusable form of the
    invariant checks that used to live inline in [test_fault.ml]).

    Workload findings are warnings: the network behaves correctly, the
    workload pays for subscriptions that cannot matter. Audit findings
    are errors: a violated routing invariant silently loses
    publications. *)

open Xroute_xpath
open Xroute_core

(** [analyze_workload ~advs ~subs ()] inspects subscriptions (client id,
    XPE, in registration order) against the advertised languages:

    - [dead-subscription] — name language disjoint from every
      advertisement (the exact oracle, [Xroute_ref.Paper_match.overlaps_exact]);
    - [contradictory-predicates] — one step requires the same attribute
      equal to two different values, so the XPE matches nothing;
    - [shadowed-subscription] — strictly covered (exact engine) by an
      earlier subscription of the same client.

    Each finding carries the witness (the offending pair / predicate).
    With no advertisements, the dead-subscription check is skipped. *)
val analyze_workload :
  ?advs:Adv.t list -> subs:(int * Xpe.t) list -> unit -> Finding.t list

(** Audit one broker's routing state via {!Broker.audit_view}: SRT index
    and PRT covering-forest structural invariants, last-hop validity,
    forwarded-target sanity, and covered-set consistency (every
    non-suppressed stored subscription reaches each required next hop
    directly or through a forwarded coverer/merger — a "covering hole"
    means lost publications), and merge bookkeeping (every suppressed id
    belongs to a live merger; [merger-member-gone]: every member of a
    live merger is still stored). When the live ledgers are supplied, SRT /
    PRT entries outside them are reported as dangling; [live_subs]
    should include merger ids when auditing a network (see
    {!audit_net}). *)
val audit_broker :
  ?live_advs:Message.sub_id list ->
  ?live_subs:Message.sub_id list ->
  Broker.t ->
  Finding.t list

(** Audit every live broker of a converged network against the client
    ledgers (merger ids collected from live brokers are considered
    live). Call after {!Xroute_overlay.Net.run} has quiesced. *)
val audit_net : Xroute_overlay.Net.t -> Finding.t list

(** {!audit_net} packaged as a report with audit statistics. *)
val audit_net_report : Xroute_overlay.Net.t -> Finding.report

(** [churned_net dtd ~strategy ~seed ~ops] builds the 7-broker binary
    tree the audit gates run on: the DTD's advertisements from a
    publisher at the root, [ops] seeded subscribes and unsubscribes
    from clients at the leaves, a pair of distinct XPEs that print
    alike (one of which then leaves), and — where [strategy] merges —
    a merge pass after which a client unsubscribes one merger member.
    Converged on return; the flag tells whether a merger was dissolved
    that way. *)
val churned_net :
  Xroute_dtd.Dtd_ast.t ->
  strategy:Broker.strategy ->
  seed:int ->
  ops:int ->
  Xroute_overlay.Net.t * bool

(** {2 Scenario-integrity audit}

    The scale harness itself is audited: a replay of the same spec must
    reproduce the full-row delivery ledger, the per-broker decisions and
    the fault accounting ({!Xroute_workload.Scenario.diff}), and a
    scenario must actually exercise the network — nonzero deliveries,
    at least one subscription per client. All error-severity: a broken
    harness silently invalidates every benchmark and regression gate
    built on it. *)

(** Audit one scenario spec (run it twice — keep specs at smoke scale).
    Returns the findings plus the first run's outcome. [inject] runs the
    replay one seed off, so the gate provably fires (the @scenario
    mutation rule). *)
val audit_scenario :
  ?inject:bool ->
  Xroute_workload.Scenario.spec ->
  Finding.t list * Xroute_workload.Scenario.outcome

(** {!audit_scenario} over a spec list, packaged as a report with sweep
    statistics. *)
val audit_scenario_report :
  ?inject:bool -> Xroute_workload.Scenario.spec list -> Finding.report
