(* Tests for the overlay simulator: topologies, the event engine, the
   latency models, and end-to-end delivery over small networks. *)

open Xroute_overlay

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let xp = Xroute_xpath.Xpe_parser.parse

(* ---------------- Topology ---------------- *)

let test_binary_tree_7 () =
  let t = Topology.binary_tree ~levels:3 in
  check ci "brokers" 7 (Topology.broker_count t);
  check ci "edges" 6 (List.length (Topology.edges t));
  check (Alcotest.list ci) "root neighbors" [ 1; 2 ] (Topology.neighbors t 0);
  check cb "connected" true (Topology.is_connected t);
  check (Alcotest.list ci) "leaves" [ 3; 4; 5; 6 ] (Topology.binary_tree_leaves ~levels:3)

let test_binary_tree_127 () =
  let t = Topology.binary_tree ~levels:7 in
  check ci "brokers" 127 (Topology.broker_count t);
  check ci "leaves" 64 (List.length (Topology.binary_tree_leaves ~levels:7));
  check cb "connected" true (Topology.is_connected t);
  check ci "leaf to leaf diameter" 12 (Topology.distance t 63 126)

let test_line_and_star () =
  let l = Topology.line 5 in
  check ci "line distance" 4 (Topology.distance l 0 4);
  check ci "line diameter" 4 (Topology.diameter l);
  let s = Topology.star 5 in
  check ci "star diameter" 2 (Topology.diameter s);
  check ci "hub degree" 4 (List.length (Topology.neighbors s 0))

let test_path () =
  let t = Topology.binary_tree ~levels:3 in
  check (Alcotest.list ci) "path 3 to 4" [ 3; 1; 4 ] (Topology.path t 3 4);
  check (Alcotest.list ci) "self" [ 2 ] (Topology.path t 2 2)

let test_random_tree_connected () =
  let prng = Xroute_support.Prng.create 11 in
  for _ = 1 to 10 do
    let t = Topology.random_tree prng 20 in
    check cb "connected" true (Topology.is_connected t);
    check ci "tree edges" 19 (List.length (Topology.edges t))
  done

let test_bad_edges_rejected () =
  Alcotest.check_raises "out of range" (Invalid_argument "Topology.build: edge out of range")
    (fun () -> ignore (Topology.build 2 [ (0, 5) ]))

(* ---------------- Sim ---------------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:3.0 (fun () -> log := 3 :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.schedule sim ~delay:2.0 (fun () -> log := 2 :: !log);
  Sim.run sim;
  check (Alcotest.list ci) "time order" [ 1; 2; 3 ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last" 3.0 (Sim.now sim)

let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.schedule sim ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  check (Alcotest.list ci) "insertion order on ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_sim_cascading () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec chain n = if n > 0 then Sim.schedule sim ~delay:1.0 (fun () -> incr count; chain (n - 1)) in
  chain 5;
  Sim.run sim;
  check ci "all ran" 5 !count;
  check (Alcotest.float 1e-9) "time accumulated" 5.0 (Sim.now sim)

let test_sim_negative_delay () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      Sim.schedule sim ~delay:(-1.0) ignore)

let test_sim_budget () =
  let sim = Sim.create () in
  let rec forever () = Sim.schedule sim ~delay:1.0 forever in
  forever ();
  (try
     Sim.run ~max_events:100 sim;
     Alcotest.fail "expected budget exhaustion"
   with Failure _ -> ())

(* The budget is the number of events a run may execute: a run that
   drains in exactly [max_events] events passes (one of them schedules
   another, so the queue is refilled mid-run), one event fewer raises. *)
let test_sim_budget_exact () =
  let run budget =
    let sim = Sim.create () in
    Sim.schedule sim ~delay:1.0 ignore;
    Sim.schedule sim ~delay:2.0 (fun () -> Sim.schedule sim ~delay:0.0 ignore);
    Sim.run ~max_events:budget sim;
    Sim.executed sim
  in
  check ci "budget = event count drains" 3 (run 3);
  Alcotest.check_raises "budget below the event count"
    (Failure "Sim.run: event budget exhausted (runaway simulation?)") (fun () -> ignore (run 2));
  let empty = Sim.create () in
  Sim.run ~max_events:0 empty;
  check ci "an empty run fits a zero budget" 0 (Sim.executed empty)

(* ---------------- Latency ---------------- *)

let test_latency_models () =
  let prng = Xroute_support.Prng.create 3 in
  let topo = Topology.line 4 in
  let table = Latency.assign Latency.planetlab prng topo in
  List.iter
    (fun (a, b) ->
      let d = Latency.link_delay Latency.planetlab table prng a b in
      check cb "positive" true (d > 0.0);
      check cb "capped with jitter" true (d < 7.0))
    (Topology.edges topo);
  let const = Latency.constant 1.5 in
  let table' = Latency.assign const prng topo in
  check (Alcotest.float 1e-9) "constant" 1.5 (Latency.link_delay const table' prng 0 1)

(* ---------------- Net: end-to-end ---------------- *)

let simple_net strategy =
  let topo = Topology.line 3 in
  Net.create ~config:{ Net.default_config with Net.strategy } topo

let test_net_basic_delivery () =
  let net = simple_net Xroute_core.Broker.default_strategy in
  let publisher = Net.add_client net ~broker:0 in
  let subscriber = Net.add_client net ~broker:2 in
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/a/b"));
  Net.run net;
  ignore (Net.subscribe net subscriber (xp "/a"));
  Net.run net;
  let doc = Xroute_xml.Xml_parser.parse "<a><b/></a>" in
  ignore (Net.publish_doc net publisher ~doc_id:1 doc);
  Net.run net;
  check ci "delivered" 1 (Net.total_deliveries net);
  check cb "delay recorded" true (Net.mean_delivery_delay net > 0.0)

let test_net_no_delivery_without_match () =
  let net = simple_net Xroute_core.Broker.default_strategy in
  let publisher = Net.add_client net ~broker:0 in
  let subscriber = Net.add_client net ~broker:2 in
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/a/b"));
  Net.run net;
  ignore (Net.subscribe net subscriber (xp "/zzz"));
  Net.run net;
  ignore (Net.publish_doc net publisher ~doc_id:1 (Xroute_xml.Xml_parser.parse "<a><b/></a>"));
  Net.run net;
  check ci "nothing delivered" 0 (Net.total_deliveries net)

let test_net_publisher_not_self_notified () =
  let net = simple_net Xroute_core.Broker.default_strategy in
  let publisher = Net.add_client net ~broker:0 in
  let subscriber = Net.add_client net ~broker:0 in
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/a"));
  ignore (Net.subscribe net subscriber (xp "/a"));
  Net.run net;
  ignore (Net.publish_doc net publisher ~doc_id:9 (Xroute_xml.Xml_parser.parse "<a/>"));
  Net.run net;
  check ci "one delivery (subscriber only)" 1 (Net.total_deliveries net)

let test_net_delay_grows_with_hops () =
  (* Same subscription at distance 1 vs distance 5 on a line. *)
  let topo = Topology.line 6 in
  let config = { Net.default_config with Net.latency = Latency.constant 1.0 } in
  let net = Net.create ~config topo in
  let publisher = Net.add_client net ~broker:0 in
  let near = Net.add_client net ~broker:1 in
  let far = Net.add_client net ~broker:5 in
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/a"));
  Net.run net;
  ignore (Net.subscribe net near (xp "/a"));
  ignore (Net.subscribe net far (xp "/a"));
  Net.run net;
  ignore (Net.publish_doc net publisher ~doc_id:1 (Xroute_xml.Xml_parser.parse "<a/>"));
  Net.run net;
  let delays = Net.delivery_delays net in
  check ci "two deliveries" 2 (List.length delays);
  let delay_of cid =
    match List.find_opt (fun (c, _, _) -> c = cid) delays with
    | Some (_, _, d) -> d
    | None -> Alcotest.failf "no delay for client %d" cid
  in
  let (_ : Net.client) = near in
  check cb "far slower" true (delay_of 2 > delay_of 1 +. 3.0)

(* Cross-strategy delivery equivalence: every strategy must deliver the
   same documents to the same clients. *)
let test_strategies_equivalent_deliveries () =
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.insurance in
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let advs = Xroute_dtd.Dtd_paths.advertisements graph in
  let docs = Xroute_workload.Workload.documents ~dtd ~count:8 ~seed:77 () in
  let run_strategy name =
    let strategy = Option.get (Xroute_core.Broker.strategy_of_name name) in
    let topo = Topology.binary_tree ~levels:3 in
    let net = Net.create ~config:{ Net.default_config with Net.strategy } topo in
    let publisher = Net.add_client net ~broker:0 in
    let leaves = Topology.binary_tree_leaves ~levels:3 in
    let clients = List.map (fun b -> Net.add_client net ~broker:b) leaves in
    ignore (Net.advertise_dtd net publisher advs);
    Net.run net;
    let prng = Xroute_support.Prng.create 909 in
    let params = Xroute_workload.Xpath_gen.default_params dtd in
    List.iter
      (fun c ->
        List.iter
          (fun x -> ignore (Net.subscribe net c x))
          (Xroute_workload.Xpath_gen.generate params prng ~count:15))
      clients;
    Net.run net;
    Net.set_universe net (Xroute_dtd.Dtd_paths.enumerate_paths ~max_depth:10 ~max_count:3000 graph);
    Net.merge_all net;
    List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
    Net.run net;
    (* deliveries as a sorted (client, doc) list *)
    List.concat_map
      (fun (c : Net.client) ->
        Hashtbl.fold (fun doc _ acc -> (c.Net.cid, doc) :: acc) c.Net.delivered [])
      (Net.clients net)
    |> List.sort compare
  in
  let reference = run_strategy "no-Adv-no-Cov" in
  check cb "reference delivers something" true (reference <> []);
  List.iter
    (fun name ->
      let got = run_strategy name in
      if got <> reference then
        Alcotest.failf "strategy %s delivers differently (%d vs %d deliveries)" name
          (List.length got) (List.length reference))
    Xroute_core.Broker.strategy_names

let test_traffic_ordering () =
  (* Advertising and covering should not increase total traffic. *)
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.psd in
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let advs = Xroute_dtd.Dtd_paths.advertisements graph in
  let traffic name =
    let strategy = Option.get (Xroute_core.Broker.strategy_of_name name) in
    let topo = Topology.binary_tree ~levels:3 in
    let net = Net.create ~config:{ Net.default_config with Net.strategy } topo in
    let publisher = Net.add_client net ~broker:0 in
    let leaves = Topology.binary_tree_leaves ~levels:3 in
    let clients = List.map (fun b -> Net.add_client net ~broker:b) leaves in
    ignore (Net.advertise_dtd net publisher advs);
    Net.run net;
    let prng = Xroute_support.Prng.create 4321 in
    let params = Xroute_workload.Workload.set_a_params dtd in
    List.iter
      (fun c ->
        List.iter
          (fun x -> ignore (Net.subscribe net c x))
          (Xroute_workload.Xpath_gen.generate params prng ~count:60))
      clients;
    Net.run net;
    let docs = Xroute_workload.Workload.documents ~dtd ~count:5 ~seed:1 () in
    List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
    Net.run net;
    Net.total_traffic net
  in
  let base = traffic "no-Adv-no-Cov" in
  let cov = traffic "no-Adv-with-Cov" in
  let adv_cov = traffic "with-Adv-with-Cov" in
  check cb "covering reduces traffic" true (cov < base);
  check cb "advertising+covering reduces traffic" true (adv_cov < base)

let test_dropped_pubs_with_merging () =
  (* Imperfect merging may push publications to brokers with no true
     match; those are counted, and clients see no false positives
     (delivery equivalence already guarantees that). *)
  let net = simple_net { Xroute_core.Broker.default_strategy with
                         Xroute_core.Broker.merging = Xroute_core.Broker.Imperfect 0.5;
                         use_adv = false } in
  let publisher = Net.add_client net ~broker:0 in
  let subscriber = Net.add_client net ~broker:2 in
  Net.set_universe net
    (List.map (fun s -> Array.of_list (String.split_on_char '/' s))
       [ "a/b"; "a/c"; "a/d" ]);
  ignore (Net.subscribe net subscriber (xp "/a/b"));
  ignore (Net.subscribe net subscriber (xp "/a/c"));
  Net.run net;
  Net.merge_all net;
  ignore (Net.publish_doc net publisher ~doc_id:1 (Xroute_xml.Xml_parser.parse "<a><d/></a>"));
  Net.run net;
  check ci "no client delivery of false positive" 0 (Net.total_deliveries net);
  check cb "dropped counted in network" true (Net.dropped_publications net >= 1)

(* ---------------- Net: link faults ---------------- *)

(* Duplicating and delaying links may deliver broker-to-broker copies
   twice and late, but the client-side accounting must not double-count:
   one [delivered] entry, one [total_deliveries] tick and one
   [delivery_delays] record per (client, document). *)
let test_dup_and_delay_no_double_count () =
  let module Plan = Xroute_fault.Plan in
  let config = { Net.default_config with Net.latency = Latency.constant 1.0 } in
  let net = Net.create ~config (Topology.line 3) in
  let publisher = Net.add_client net ~broker:0 in
  let subscriber = Net.add_client net ~broker:2 in
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/a/b"));
  Net.run net;
  ignore (Net.subscribe net subscriber (xp "/a"));
  Net.run net;
  (* both windows open from t=0 and outlast the whole run *)
  Net.install_plan net
    {
      Plan.seed = 0;
      horizon = 1e6;
      events =
        [
          Plan.Link_dup { a = 0; b = 1; at = 0.0; down_for = 1e6 };
          Plan.Link_delay { a = 1; b = 2; at = 0.0; down_for = 1e6; extra_ms = 5.0 };
        ];
    };
  Net.run net;
  let doc = Xroute_xml.Xml_parser.parse "<a><b/></a>" in
  for i = 1 to 3 do
    ignore (Net.publish_doc net publisher ~doc_id:i doc)
  done;
  Net.run net;
  let st = Net.fault_stats net in
  check cb "duplicates actually produced" true (st.Net.dup_deliveries > 0);
  check ci "one delivery per document" 3 (Net.total_deliveries net);
  check ci "client delivered set not inflated" 3 (Hashtbl.length subscriber.Net.delivered);
  check ci "one delay record per (client, doc)" 3 (List.length (Net.delivery_delays net));
  List.iter
    (fun (_, _, d) -> check cb "slow link delay applied" true (d >= 5.0))
    (Net.delivery_delays net)

(* Publications that die at a crashed broker are reported as dropped,
   not silently lost: exact counts pinned. *)
let test_crash_drop_accounting () =
  let config = { Net.default_config with Net.latency = Latency.constant 1.0 } in
  let net = Net.create ~config (Topology.line 3) in
  let publisher = Net.add_client net ~broker:0 in
  let subscriber = Net.add_client net ~broker:2 in
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/a/b"));
  Net.run net;
  ignore (Net.subscribe net subscriber (xp "/a"));
  Net.run net;
  check ci "nothing dropped before the crash" 0 (Net.dropped_publications net);
  Net.crash_broker net 1;
  let paths =
    Net.publish_doc net publisher ~doc_id:1 (Xroute_xml.Xml_parser.parse "<a><b/></a>")
  in
  Net.run net;
  (* every path publication is forwarded by broker 0 and dies at dead
     broker 1; nothing reaches the subscriber *)
  check ci "no delivery through the dead broker" 0 (Net.total_deliveries net);
  let st = Net.fault_stats net in
  check ci "each path pub destroyed exactly once" paths st.Net.destroyed_pubs;
  check ci "destroyed counts only the path pubs" paths st.Net.destroyed;
  check ci "dropped_publications reports the crash losses" paths (Net.dropped_publications net);
  (* after recovery the same document goes through *)
  Net.restart_broker net 1;
  Net.run net;
  ignore (Net.publish_doc net publisher ~doc_id:2 (Xroute_xml.Xml_parser.parse "<a><b/></a>"));
  Net.run net;
  check ci "delivery resumes after restart" 1 (Net.total_deliveries net);
  check ci "dropped count unchanged by the healthy publish" paths (Net.dropped_publications net)

let () =
  Alcotest.run "overlay"
    [
      ( "topology",
        [
          Alcotest.test_case "binary tree 7" `Quick test_binary_tree_7;
          Alcotest.test_case "binary tree 127" `Quick test_binary_tree_127;
          Alcotest.test_case "line and star" `Quick test_line_and_star;
          Alcotest.test_case "path" `Quick test_path;
          Alcotest.test_case "random tree" `Quick test_random_tree_connected;
          Alcotest.test_case "bad edges" `Quick test_bad_edges_rejected;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_ties;
          Alcotest.test_case "cascading" `Quick test_sim_cascading;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay;
          Alcotest.test_case "budget" `Quick test_sim_budget;
          Alcotest.test_case "budget equal to the event count" `Quick test_sim_budget_exact;
        ] );
      ("latency", [ Alcotest.test_case "models" `Quick test_latency_models ]);
      ( "net",
        [
          Alcotest.test_case "basic delivery" `Quick test_net_basic_delivery;
          Alcotest.test_case "no false delivery" `Quick test_net_no_delivery_without_match;
          Alcotest.test_case "publisher excluded" `Quick test_net_publisher_not_self_notified;
          Alcotest.test_case "delay grows with hops" `Quick test_net_delay_grows_with_hops;
          Alcotest.test_case "strategies deliver identically" `Slow test_strategies_equivalent_deliveries;
          Alcotest.test_case "traffic ordering" `Slow test_traffic_ordering;
          Alcotest.test_case "merging false positives" `Quick test_dropped_pubs_with_merging;
          Alcotest.test_case "dup/delay links don't double-count" `Quick
            test_dup_and_delay_no_double_count;
          Alcotest.test_case "crash drop accounting" `Quick test_crash_drop_accounting;
        ] );
    ]
