(* Scenario-engine regression: determinism (same seed + spec => same
   delivery ledger, fault accounting, and per-broker next-hop decisions
   across independent runs) and the [Scenario.diff] replay check that
   backs the million-client numbers. Runs at smoke scale — correctness
   of the engine, not its throughput. *)

open Xroute_workload

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* Small but non-trivial: enough clients for batching to kick in (three
   generator rounds at batch=64). *)
let small kind =
  {
    Scenario.kind;
    clients = 160;
    docs = 6;
    levels = 3;
    xpes = 24;
    batch = 64;
    rounds = 2;
    channels = 4;
    dtd = "book";
    seed = 11;
    zipf = None;
  }

(* ---------------- spec parsing ---------------- *)

let test_spec_roundtrip () =
  List.iter
    (fun kind ->
      let spec = { (small kind) with Scenario.seed = 99 } in
      match Scenario.spec_of_string (Scenario.spec_to_string spec) with
      | Ok parsed -> check cb "spec round-trips" true (parsed = spec)
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    Scenario.all_kinds

let test_spec_parse_partial () =
  match Scenario.spec_of_string "kind=churn,clients=5000,seed=7" with
  | Ok s ->
    check cb "kind" true (s.Scenario.kind = Scenario.Churn);
    check ci "clients" 5000 s.Scenario.clients;
    check ci "seed" 7 s.Scenario.seed;
    check ci "docs defaulted" Scenario.default_spec.Scenario.docs s.Scenario.docs
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_spec_parse_errors () =
  let bad s =
    match Scenario.spec_of_string s with
    | Ok _ -> Alcotest.failf "expected %S to be rejected" s
    | Error _ -> ()
  in
  bad "kind=tsunami";
  bad "clients=-1";
  bad "levels=1";
  bad "dtd=notadtd";
  bad "frobnicate=3";
  bad "clients";
  bad "zipf=-0.5";
  bad "zipf=17";
  bad "zipf=steep"

(* The zipf key: parses, round-trips through the spec string, and stays
   absent from specs that never set it (so pre-PR-9 spec strings are
   reproduced byte-identically). *)
let test_spec_zipf_key () =
  (match Scenario.spec_of_string "kind=diurnal,zipf=1.4" with
  | Ok s -> check cb "zipf parsed" true (s.Scenario.zipf = Some 1.4)
  | Error e -> Alcotest.failf "zipf=1.4 rejected: %s" e);
  check cb "default has no zipf" true (Scenario.default_spec.Scenario.zipf = None);
  let spec = { (small Scenario.Diurnal) with Scenario.zipf = Some 2.5 } in
  let printed = Scenario.spec_to_string spec in
  check cb "printed spec carries zipf" true
    (String.length printed > 8
    && String.sub printed (String.length printed - 8) 8 = "zipf=2.5");
  match Scenario.spec_of_string printed with
  | Ok parsed -> check cb "zipf round-trips" true (parsed = spec)
  | Error e -> Alcotest.failf "zipf round-trip failed: %s" e

(* ---------------- scenario sanity ---------------- *)

(* Every kind must actually exercise the network: subscriptions land,
   documents are published, deliveries happen. *)
let test_scenarios_deliver () =
  List.iter
    (fun kind ->
      let spec = small kind in
      let o = Scenario.run spec in
      let name = Scenario.kind_to_string kind in
      check ci (name ^ ": all subscriptions sent")
        (match kind with
        | Scenario.Churn ->
          (* every client subscribes once, churned ones once more *)
          spec.Scenario.clients + o.Scenario.unsubs_sent
        | _ -> spec.Scenario.clients)
        o.Scenario.subs_sent;
      (match kind with
      | Scenario.Churn -> check cb (name ^ ": unsubs happened") true (o.Scenario.unsubs_sent > 0)
      | _ -> check ci (name ^ ": no unsubs") 0 o.Scenario.unsubs_sent);
      check ci (name ^ ": all docs published") spec.Scenario.docs o.Scenario.docs_published;
      check cb (name ^ ": deliveries happened") true (o.Scenario.deliveries > 0);
      check cb (name ^ ": ledger rows captured") true
        (match o.Scenario.ledger with
        | Some a -> Xroute_support.Pool.Arena.length a = o.Scenario.deliveries
        | None -> false);
      check cb (name ^ ": decisions probed") true (o.Scenario.decisions <> []);
      check cb (name ^ ": PRT populated") true (o.Scenario.prt_total > 0))
    Scenario.all_kinds

(* Ledger digest must agree between Full (arena) and Digest (running)
   capture of the same run. *)
let test_ledger_digest_modes_agree () =
  let spec = small Scenario.Flash_crowd in
  let full = Scenario.run ~ledger:`Full spec in
  let digest = Scenario.run ~ledger:`Digest spec in
  check cb "full mode kept the arena" true (full.Scenario.ledger <> None);
  check cb "digest mode dropped the arena" true (digest.Scenario.ledger = None);
  check Alcotest.int64 "running digest = arena digest"
    (Xroute_support.Pool.Arena.digest (Option.get full.Scenario.ledger))
    digest.Scenario.ledger_digest;
  check Alcotest.int64 "outcome digests agree" full.Scenario.ledger_digest
    digest.Scenario.ledger_digest

(* ---------------- determinism ---------------- *)

let ledger_rows o =
  match o.Scenario.ledger with
  | None -> []
  | Some a ->
    let rows = ref [] in
    Xroute_support.Pool.Arena.iter a (fun cid doc time -> rows := (cid, doc, time) :: !rows);
    List.rev !rows

(* Two independent runs of the same spec: identical ledgers (row for
   row), fault stats, and per-broker next-hop decisions. *)
let test_same_seed_identical () =
  List.iter
    (fun kind ->
      let spec = small kind in
      let a = Scenario.run spec in
      let b = Scenario.run spec in
      let name = Scenario.kind_to_string kind in
      check cb (name ^ ": ledgers identical") true (Scenario.equal_ledgers a b);
      check cb (name ^ ": ledger rows identical") true (ledger_rows a = ledger_rows b);
      check cb (name ^ ": decisions identical") true (a.Scenario.decisions = b.Scenario.decisions);
      check Alcotest.string (name ^ ": fault stats identical") a.Scenario.fault_line
        b.Scenario.fault_line;
      check ci (name ^ ": events identical") a.Scenario.events b.Scenario.events)
    Scenario.all_kinds

(* The Zipf-skewed subscription pool is deterministic — same spec, same
   ledger, twice — and the exponent is actually load-bearing: a steep
   pool and the uniform pool must route differently. *)
let test_zipf_pool_determinism () =
  let steep = { (small Scenario.Diurnal) with Scenario.zipf = Some 3.0 } in
  let a = Scenario.run steep in
  let b = Scenario.run steep in
  check cb "steep pool deterministic" true (Scenario.equal_ledgers a b);
  check cb "steep rows identical" true (ledger_rows a = ledger_rows b);
  check cb "decisions identical" true (a.Scenario.decisions = b.Scenario.decisions);
  let uniform = Scenario.run { steep with Scenario.zipf = Some 0.0 } in
  check cb "exponent changes the run" false (Scenario.equal_ledgers a uniform);
  (* None reproduces the historical per-kind default (0.6 for diurnal) *)
  let default_run = Scenario.run (small Scenario.Diurnal) in
  let pinned = Scenario.run { (small Scenario.Diurnal) with Scenario.zipf = Some 0.6 } in
  check cb "None = explicit per-kind default" true
    (Scenario.equal_ledgers default_run pinned
    && ledger_rows default_run = ledger_rows pinned)

(* Different seeds must actually change the run (guards against the
   seed being ignored somewhere). *)
let test_seed_sensitivity () =
  let spec = small Scenario.Flash_crowd in
  let a = Scenario.run spec in
  let b = Scenario.run { spec with Scenario.seed = spec.Scenario.seed + 1 } in
  check cb "different seeds -> different ledgers" false (Scenario.equal_ledgers a b)

(* ---------------- golden pins ---------------- *)

(* Ledger digest, event count, final virtual clock and decision digest
   of one small churn and one small flash spec: a change to a routing
   decision, or to the cost charged on the publication path ([Net] bills
   [Broker.work] as processing delay), moves at least one of them. *)
let test_golden_pins () =
  List.iter
    (fun (kind, digest, events, clock, decisions) ->
      let o = Scenario.run (small kind) in
      let name = Scenario.kind_to_string kind in
      check Alcotest.int64 (name ^ ": ledger digest") digest o.Scenario.ledger_digest;
      check ci (name ^ ": events") events o.Scenario.events;
      check (Alcotest.float 0.0) (name ^ ": virtual clock (ms)") clock o.Scenario.virtual_ms;
      check Alcotest.int64 (name ^ ": decision digest") decisions o.Scenario.decision_digest)
    [
      (Scenario.Churn, 8836183778627961852L, 3926, 0x1.4e16047c3f1fep+8, -2866539599765154282L);
      ( Scenario.Flash_crowd,
        3250672882199289422L,
        3119,
        0x1.9b6d674651d4ep+6,
        7176059533919803043L );
    ]

(* The scenarios above publish long after their subscriptions settle,
   so the subscription-side cost barely reaches their clocks. This net
   pins it directly: every broker's [Broker.stage_ops] summed over a
   seeded NITF run — two publishers (one advertising a third of the
   DTD), twelve subscribers spread over a seven-broker tree, 400 Set-A
   subscriptions, five documents, then a third of the subscriptions
   withdrawn. *)
let test_golden_work_totals () =
  let open Xroute_overlay in
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.nitf in
  let net =
    Net.create ~config:{ Net.default_config with Net.seed = 5 } (Topology.binary_tree ~levels:3)
  in
  let pub = Net.add_client net ~broker:0 in
  let pub2 = Net.add_client net ~broker:5 in
  let advs = Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build dtd) in
  ignore (Net.advertise_dtd net pub advs);
  ignore (Net.advertise_dtd net pub2 (List.filteri (fun i _ -> i mod 3 = 0) advs));
  Net.run net;
  let xpes = Workload.xpes ~params:(Workload.set_a_params dtd) ~count:400 ~seed:9 () in
  let clients = Array.init 12 (fun i -> Net.add_client net ~broker:(i mod 7)) in
  let ids =
    List.mapi (fun i x -> (clients.(i mod 12), Net.subscribe net clients.(i mod 12) x)) xpes
  in
  Net.run net;
  List.iteri
    (fun i d -> ignore (Net.publish_doc net pub ~doc_id:i d))
    (Workload.documents ~dtd ~count:5 ~seed:3 ());
  Net.run net;
  List.iteri (fun i (c, id) -> if i mod 3 = 0 then Net.unsubscribe net c id) ids;
  Net.run net;
  let srt, prt_match, prt_cover =
    Array.fold_left
      (fun (s, m, c) b ->
        let s', m', c' = Xroute_core.Broker.stage_ops b in
        (s + s', m + m', c + c'))
      (0, 0, 0) (Net.brokers net)
  in
  check ci "SRT candidates charged" 1554774 srt;
  check ci "PRT match checks" 32015 prt_match;
  check ci "PRT cover checks" 351473 prt_cover;
  check ci "Broker.work" 1938262
    (Array.fold_left (fun acc b -> acc + Xroute_core.Broker.work b) 0 (Net.brokers net));
  check (Alcotest.float 0.0) "virtual clock (ms)" 0x1.c0a03e92d447fp+2 (Sim.now (Net.sim net));
  check ci "deliveries" 29 (Net.total_deliveries net);
  check ci "messages" 11283 (Net.total_traffic net)

(* ---------------- replay check ---------------- *)

(* [Scenario.diff] is the replay gate of the audit and --smoke: a replay of every kind agrees on every field, and a
   run one seed off is caught. *)
let test_replay_diff () =
  List.iter
    (fun kind ->
      let spec = small kind in
      let a = Scenario.run ~ledger:`Full spec in
      let name = Scenario.kind_to_string kind in
      (match Scenario.diff a (Scenario.run ~ledger:`Full spec) with
      | [] -> ()
      | diffs -> Alcotest.failf "%s: replay diffs: %s" name (String.concat ", " diffs));
      let skewed = Scenario.run ~ledger:`Full { spec with Scenario.seed = spec.Scenario.seed + 1 } in
      check cb (name ^ ": a run one seed off differs in its ledger") true
        (List.mem "ledger" (Scenario.diff a skewed)))
    Scenario.all_kinds

(* The replay holds under an overlaid fault plan too: crashes and
   outages are virtual-time-deterministic, so a replay must agree on
   losses and recoveries, not just the happy path. *)
let test_replay_with_faults () =
  let fspec =
    { Xroute_fault.Plan.default_spec with Xroute_fault.Plan.client_drops = 0 }
  in
  let spec = { (small Scenario.Churn) with Scenario.seed = 5 } in
  let a = Scenario.run ~ledger:`Full ~fault_spec:fspec spec in
  (match Scenario.diff a (Scenario.run ~ledger:`Full ~fault_spec:fspec spec) with
  | [] -> ()
  | diffs -> Alcotest.failf "faulted replay diffs: %s" (String.concat ", " diffs));
  (* the plan must have produced at least one crash for the gate to mean
     anything *)
  check cb "crashes in fault line" true
    (not (String.length a.Scenario.fault_line >= 9
          && String.sub a.Scenario.fault_line 0 9 = "crashes=0"))

let () =
  Alcotest.run "scenario"
    [
      ( "spec",
        [
          Alcotest.test_case "round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "partial parse" `Quick test_spec_parse_partial;
          Alcotest.test_case "parse errors" `Quick test_spec_parse_errors;
          Alcotest.test_case "zipf key" `Quick test_spec_zipf_key;
        ] );
      ( "sanity",
        [
          Alcotest.test_case "all kinds deliver" `Quick test_scenarios_deliver;
          Alcotest.test_case "digest modes agree" `Quick test_ledger_digest_modes_agree;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed identical" `Quick test_same_seed_identical;
          Alcotest.test_case "zipf pool determinism" `Quick test_zipf_pool_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "golden pins" `Quick test_golden_pins;
          Alcotest.test_case "golden work totals" `Quick test_golden_work_totals;
        ] );
      ( "replay",
        [
          Alcotest.test_case "diff catches a seed skew" `Quick test_replay_diff;
          Alcotest.test_case "under faults" `Quick test_replay_with_faults;
        ] );
    ]
