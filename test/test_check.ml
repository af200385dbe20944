(* Tests for the static analyzer (lib/check) — and the repo's standing
   soundness gate: every `dune runtest` sweeps the paper's covering /
   advertisement-covering / merging rules against the exact automata
   oracle over the seeded corpora, audits converged churn networks under
   all six strategies for routing-state invariant violations, and proves
   by mutation that a planted unsound rule is caught. *)

open Xroute_core
open Xroute_xpath
module Finding = Xroute_check.Finding
module Soundness = Xroute_check.Soundness
module Check = Xroute_check.Check

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let xp = Xpe_parser.parse
let seeds = [ 1; 2; 3; 4 ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let stat (r : Finding.report) name =
  match List.assoc_opt name r.Finding.stats with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "report lacks stat %s" name

(* ---------------- soundness gate ---------------- *)

(* The paper rules: incomplete by design, but never unsound. *)
let test_soundness_paper_rules () =
  let r = Soundness.run ~seeds () in
  check ci "no unsound covering decision" 0 (stat r "cover_unsound");
  check ci "no unsound adv-covering decision" 0 (stat r "adv_cover_unsound");
  check ci "no unsound merger" 0 (stat r "merge_unsound");
  check cb "no error findings" false (Finding.has_errors r);
  check cb "corpus is non-trivial" true (stat r "cover_contained" > 0);
  check cb "incompleteness rate reported" true
    (List.mem_assoc "cover_incomplete_rate" r.Finding.stats)

(* The exact engine must coincide with the oracle on the predicate-free
   corpora: no unsound decision and no missed containment either. *)
let test_soundness_exact_engine () =
  let r = Soundness.run ~covers:Cover.covers_exact ~seeds () in
  check ci "exact engine unsound" 0 (stat r "cover_unsound");
  check ci "exact engine incomplete" 0 (stat r "cover_incomplete")

(* Mutation check: a deliberately unsound rule must be caught. *)
let test_soundness_mutation () =
  let r = Soundness.run ~covers:Soundness.planted_unsound_covers ~seeds:[ 1 ] ~pairs_per_seed:100 () in
  check cb "planted unsoundness detected" true (Finding.has_errors r);
  check cb "unsound pairs counted" true (stat r "cover_unsound" > 0);
  check cb "witness findings emitted" true
    (List.exists (fun f -> f.Finding.code = "unsound-cover") r.Finding.findings)

(* ---------------- workload analysis ---------------- *)

let test_workload_dead () =
  let advs = [ Adv.parse "/inventory/item" ] in
  let subs = [ (1, xp "/catalog/book"); (2, xp "/inventory/item") ] in
  let fs = Check.analyze_workload ~advs ~subs () in
  check ci "one dead subscription" 1
    (List.length (List.filter (fun f -> f.Finding.code = "dead-subscription") fs));
  (* without advertisements the check cannot run *)
  check ci "skipped without advs" 0
    (List.length
       (List.filter
          (fun f -> f.Finding.code = "dead-subscription")
          (Check.analyze_workload ~subs ())))

let test_workload_contradictory () =
  let subs = [ (1, xp "/a[@x='1'][@x='2']/b"); (2, xp "/a[@x='1'][@y='2']") ] in
  let fs = Check.analyze_workload ~subs () in
  let hits = List.filter (fun f -> f.Finding.code = "contradictory-predicates") fs in
  check ci "one contradiction" 1 (List.length hits);
  check cb "witness names both values" true
    (let w = (List.hd hits).Finding.witness in
     let has s = contains w s in
     has "\"1\"" && has "\"2\"")

let test_workload_shadowed () =
  let subs = [ (1, xp "/a"); (1, xp "/a/b"); (2, xp "/a/b"); (1, xp "/a") ] in
  let fs = Check.analyze_workload ~subs () in
  let hits = List.filter (fun f -> f.Finding.code = "shadowed-subscription") fs in
  (* #1 strictly covered by #0 (same client); #2 belongs to another
     client; #3 equals #0 — covered but not strictly, so not reported *)
  check ci "one shadowed subscription" 1 (List.length hits);
  check cb "the shadowed one is #1" true
    (contains (List.hd hits).Finding.subject "#1")

(* ---------------- routing-state audit ---------------- *)

(* The audit's churned binary-tree network ({!Check.churned_net}) over
   the book DTD with 20 churn ops. Under merging a client must have
   unsubscribed a merger member, or the merge bookkeeping went
   unaudited. *)
let churned_net ~strategy ~seed =
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.book in
  let net, dissolved = Check.churned_net dtd ~strategy ~seed ~ops:20 in
  if strategy.Broker.merging <> Broker.No_merging && not dissolved then
    Alcotest.failf "seed %d: the merge pass made no merger with a client member" seed;
  net

(* The standing gate: zero invariant violations across all strategies
   and seeds after churn + convergence. *)
let test_audit_sweep () =
  List.iter
    (fun name ->
      let strategy = Option.get (Broker.strategy_of_name name) in
      List.iter
        (fun seed ->
          let net = churned_net ~strategy ~seed in
          match Check.audit_net net with
          | [] -> ()
          | f :: _ ->
            Alcotest.failf "seed %d %s: %s (%s)" seed name f.Finding.subject
              f.Finding.witness)
        seeds)
    Broker.strategy_names

let test_audit_report_stats () =
  let strategy = Option.get (Broker.strategy_of_name "with-Adv-with-Cov") in
  let net = churned_net ~strategy ~seed:1 in
  let r = Check.audit_net_report net in
  check ci "seven brokers audited" 7 (stat r "brokers_audited");
  check ci "no violations" 0 (stat r "routing_violations")

(* Corruption must be caught: a subscription learned from a non-neighbor
   "broker 99" leaves a PRT entry whose last hop is invalid. *)
let test_audit_catches_corruption () =
  let b = Broker.create ~id:0 ~neighbors:[ 1 ] () in
  ignore
    (Broker.handle b ~from:(Rtable.Neighbor 99)
       (Message.Subscribe { id = { origin = 990; seq = 1 }; xpe = xp "/a/b" }));
  let fs = Check.audit_broker b in
  check cb "invalid last hop reported" true
    (List.exists (fun f -> f.Finding.code = "invalid-last-hop") fs);
  check cb "error severity" true
    (List.exists (fun f -> f.Finding.severity = Finding.Error) fs)

(* The NFA must-fail mutation: a planted dead automaton state (which
   eager pruning could never leave behind) must surface as an
   [nfa-integrity] error. *)
let test_audit_catches_nfa_orphan () =
  let b = Broker.create ~id:0 ~neighbors:[ 1 ] () in
  ignore
    (Broker.handle b ~from:(Rtable.Client 7)
       (Message.Subscribe { id = { origin = 7; seq = 1 }; xpe = xp "/a/b" }));
  check ci "clean before the mutation" 0
    (List.length
       (List.filter (fun f -> f.Finding.code = "nfa-integrity") (Check.audit_broker b)));
  Broker.corrupt_nfa_for_test b `Orphan_state;
  let fs = Check.audit_broker b in
  let nfa_errors =
    List.filter
      (fun f -> f.Finding.code = "nfa-integrity" && f.Finding.severity = Finding.Error)
      fs
  in
  check cb "planted orphan state reported" true (nfa_errors <> [])

(* The resume log's must-fail mutation: a log stamped with an earlier
   automaton version (one a subscribe failed to drop) must surface as an
   [nfa-integrity] error. *)
let test_audit_catches_nfa_stale_log () =
  let b = Broker.create ~id:0 ~neighbors:[ 1 ] () in
  ignore
    (Broker.handle b ~from:(Rtable.Client 7)
       (Message.Subscribe { id = { origin = 7; seq = 1 }; xpe = xp "/a/b" }));
  ignore
    (Broker.handle b ~from:(Rtable.Neighbor 1)
       (Message.Publish
          { pub = Xroute_xml.Xml_paths.publication_of_string ~doc_id:1 "/a/b/c"; trail = [];
            ctx = None }));
  let nfa_errors () =
    List.filter
      (fun f -> f.Finding.code = "nfa-integrity" && f.Finding.severity = Finding.Error)
      (Check.audit_broker b)
  in
  check ci "clean after a publication" 0 (List.length (nfa_errors ()));
  Broker.corrupt_nfa_for_test b `Stale_log;
  check cb "stale resume log reported" true (nfa_errors () <> [])

(* The automaton holds one entry per PRT node: a second entry for a
   stored node, or an entry for a node the tree does not hold, must
   surface as an [nfa-integrity] error. *)
let test_audit_catches_nfa_entry_mutations () =
  List.iter
    (fun (label, mutation) ->
      let b = Broker.create ~id:0 ~neighbors:[ 1 ] () in
      List.iter
        (fun seq ->
          ignore
            (Broker.handle b ~from:(Rtable.Client 7)
               (Message.Subscribe { id = { origin = 7; seq }; xpe = xp "/a/b" })))
        [ 1; 2 ];
      let nfa_errors () =
        List.filter
          (fun f -> f.Finding.code = "nfa-integrity" && f.Finding.severity = Finding.Error)
          (Check.audit_broker b)
      in
      check ci (label ^ ": clean before the mutation") 0 (List.length (nfa_errors ()));
      Broker.corrupt_nfa_for_test b mutation;
      check cb (label ^ ": reported") true (nfa_errors () <> []))
    [ ("duplicate entry", `Duplicate_entry); ("node-less entry", `Nodeless_entry) ]

(* A clean broker audits clean, including against explicit ledgers. *)
let test_audit_clean_broker () =
  let b = Broker.create ~id:0 ~neighbors:[ 1 ] () in
  let id : Message.sub_id = { origin = 7; seq = 1 } in
  ignore (Broker.handle b ~from:(Rtable.Client 7) (Message.Subscribe { id; xpe = xp "/a" }));
  check ci "clean" 0 (List.length (Check.audit_broker ~live_advs:[] ~live_subs:[ id ] b));
  check ci "dangling against an empty ledger" 1
    (List.length
       (List.filter
          (fun f -> f.Finding.code = "dangling-prt-entry")
          (Check.audit_broker ~live_advs:[] ~live_subs:[] b)))

(* ---------------- report plumbing ---------------- *)

let test_report_rendering () =
  let f1 = Finding.make ~severity:Finding.Warning ~family:"workload" ~code:"w" ~subject:"s" ~witness:"x" in
  let f2 = Finding.make ~severity:Finding.Error ~family:"routing" ~code:"e" ~subject:"t\"q" ~witness:"" in
  let r = Finding.report ~stats:[ ("k", 0.5) ] [ f1; f2 ] in
  check ci "errors" 1 (Finding.errors r);
  check ci "warnings" 1 (Finding.warnings r);
  check cb "has_errors" true (Finding.has_errors r);
  (match Finding.by_severity r with
  | a :: _ -> check cb "errors first" true (a.Finding.severity = Finding.Error)
  | [] -> Alcotest.fail "empty");
  let text = Finding.to_text r in
  check cb "text totals" true (contains text "1 errors, 1 warnings");
  let json = Finding.to_json r in
  check cb "json escapes quotes" true (contains json "t\\\"q");
  check cb "json stats" true (contains json "\"k\": 0.5");
  check cb "json counts" true (contains json "\"errors\": 1");
  let empty = Finding.concat [] in
  check cb "concat of nothing is clean" false (Finding.has_errors empty)

let test_report_meters () =
  let reg = Xroute_obs.Metrics.create () in
  let meters = Xroute_obs.Check_meters.create reg in
  let r =
    Finding.report
      [ Finding.make ~severity:Finding.Error ~family:"routing" ~code:"e" ~subject:"s" ~witness:"" ]
  in
  Finding.record_meters meters r;
  Finding.record_meters meters Finding.empty;
  check (Alcotest.option (Alcotest.float 0.0)) "runs counted" (Some 2.0)
    (Xroute_obs.Metrics.scalar reg "xroute_check_runs_total");
  check (Alcotest.option (Alcotest.float 0.0)) "errors accumulated" (Some 1.0)
    (Xroute_obs.Metrics.scalar reg "xroute_check_errors_total");
  check (Alcotest.option (Alcotest.float 0.0)) "last run clean" (Some 0.0)
    (Xroute_obs.Metrics.scalar reg "xroute_check_last_errors")

let () =
  Alcotest.run "check"
    [
      ( "soundness",
        [
          Alcotest.test_case "paper rules never unsound" `Quick test_soundness_paper_rules;
          Alcotest.test_case "exact engine = oracle" `Quick test_soundness_exact_engine;
          Alcotest.test_case "mutation is caught" `Quick test_soundness_mutation;
        ] );
      ( "workload",
        [
          Alcotest.test_case "dead" `Quick test_workload_dead;
          Alcotest.test_case "contradictory" `Quick test_workload_contradictory;
          Alcotest.test_case "shadowed" `Quick test_workload_shadowed;
        ] );
      ( "audit",
        [
          Alcotest.test_case "all strategies converge clean" `Quick test_audit_sweep;
          Alcotest.test_case "report stats" `Quick test_audit_report_stats;
          Alcotest.test_case "corruption caught" `Quick test_audit_catches_corruption;
          Alcotest.test_case "NFA orphan caught" `Quick test_audit_catches_nfa_orphan;
          Alcotest.test_case "NFA stale resume log caught" `Quick test_audit_catches_nfa_stale_log;
          Alcotest.test_case "NFA duplicate or node-less entry caught" `Quick
            test_audit_catches_nfa_entry_mutations;
          Alcotest.test_case "clean broker, dangling ledger" `Quick test_audit_clean_broker;
        ] );
      ( "report",
        [
          Alcotest.test_case "rendering" `Quick test_report_rendering;
          Alcotest.test_case "meters" `Quick test_report_meters;
        ] );
    ]
