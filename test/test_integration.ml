(* End-to-end integration tests: full DTD-to-delivery pipelines over
   multi-broker overlays, exercising the system as the examples and
   benchmarks use it. *)

open Xroute_overlay

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let xp = Xroute_xpath.Xpe_parser.parse

(* Full pipeline on the insurance DTD over the 7-broker tree: the
   motivating scenario of the paper's introduction. *)
let test_insurance_pipeline () =
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.insurance in
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let advs = Xroute_dtd.Dtd_paths.advertisements graph in
  let topo = Topology.binary_tree ~levels:3 in
  let net = Net.create topo in
  let broker_office = Net.add_client net ~broker:0 in
  let expert_auto = Net.add_client net ~broker:3 in
  let expert_home = Net.add_client net ~broker:6 in
  ignore (Net.advertise_dtd net broker_office advs);
  Net.run net;
  (* the auto expert wants auto incidents; the home expert, home ones *)
  ignore (Net.subscribe net expert_auto (xp "/insurance/claim/incident[@kind='auto']"));
  ignore (Net.subscribe net expert_home (xp "/insurance/claim/incident[@kind='home']"));
  Net.run net;
  let claim kind =
    Xroute_xml.Xml_parser.parse
      (Printf.sprintf
         {|<insurance><claim urgency="high"><claimant><person><name>N</name></person><contact><email>e</email></contact></claimant><policy><holder>H</holder><coverage>c1</coverage></policy><incident kind="%s"><date>d</date><location><city>T</city><country>CA</country></location><description>x</description></incident></claim></insurance>|}
         kind)
  in
  ignore (Net.publish_doc net broker_office ~doc_id:1 (claim "auto"));
  ignore (Net.publish_doc net broker_office ~doc_id:2 (claim "home"));
  ignore (Net.publish_doc net broker_office ~doc_id:3 (claim "travel"));
  Net.run net;
  let got c = List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) c.Net.delivered []) in
  check (Alcotest.list ci) "auto expert got doc 1" [ 1 ] (got expert_auto);
  check (Alcotest.list ci) "home expert got doc 2" [ 2 ] (got expert_home)

(* News dissemination over the 127-broker tree with the NITF-like DTD:
   subscriptions at every leaf, one publisher; exercises recursive
   advertisements end to end. *)
let test_nitf_127_brokers () =
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.nitf in
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let advs = Xroute_dtd.Dtd_paths.advertisements graph in
  let topo = Topology.binary_tree ~levels:7 in
  let net = Net.create topo in
  let publisher = Net.add_client net ~broker:0 in
  let leaves = Topology.binary_tree_leaves ~levels:7 in
  (* a subscriber on every 8th leaf keeps the test quick *)
  let subscribers =
    List.filteri (fun i _ -> i mod 8 = 0) leaves
    |> List.map (fun b -> Net.add_client net ~broker:b)
  in
  ignore (Net.advertise_dtd net publisher advs);
  Net.run net;
  List.iter
    (fun c ->
      ignore (Net.subscribe net c (xp "/nitf/body/body.content//p"));
      ignore (Net.subscribe net c (xp "//hl1")))
    subscribers;
  Net.run net;
  let docs = Xroute_workload.Workload.documents ~dtd ~count:5 ~seed:3 () in
  List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
  Net.run net;
  (* at least one document must reach every subscriber (every generated
     document has a body; most have headlines or paragraphs) *)
  let reached =
    List.filter (fun c -> Hashtbl.length c.Net.delivered > 0) subscribers
  in
  check cb "most subscribers reached" true
    (List.length reached >= List.length subscribers / 2);
  (* all subscribers with equal subscriptions got identical doc sets *)
  let doc_sets =
    List.map
      (fun c -> List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) c.Net.delivered []))
      subscribers
  in
  (match doc_sets with
  | first :: rest -> List.iter (fun s -> check cb "same docs everywhere" true (s = first)) rest
  | [] -> ());
  (* routing state exists on interior brokers *)
  check cb "interior brokers hold routing state" true (Net.total_prt_size net > 0)

(* Unsubscription: deliveries stop, tables shrink back. *)
let test_unsubscribe_lifecycle () =
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.book in
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let advs = Xroute_dtd.Dtd_paths.advertisements graph in
  let topo = Topology.line 4 in
  let net = Net.create topo in
  let publisher = Net.add_client net ~broker:0 in
  let subscriber = Net.add_client net ~broker:3 in
  ignore (Net.advertise_dtd net publisher advs);
  Net.run net;
  let sub_id = Net.subscribe net subscriber (xp "/book/title") in
  Net.run net;
  let table_with_sub = Net.total_prt_size net in
  check cb "tables populated" true (table_with_sub >= 4);
  ignore (Net.publish_doc net publisher ~doc_id:1
            (Xroute_xml.Xml_parser.parse "<book><title>t</title><author><name>n</name></author><chapter><title>c</title><section><title>s</title></section></chapter></book>"));
  Net.run net;
  check ci "delivered before unsub" 1 (Net.total_deliveries net);
  Net.unsubscribe net subscriber sub_id;
  Net.run net;
  check ci "tables empty after unsub" 0 (Net.total_prt_size net);
  ignore (Net.publish_doc net publisher ~doc_id:2
            (Xroute_xml.Xml_parser.parse "<book><title>t2</title><author><name>n</name></author><chapter><title>c</title><section><title>s</title></section></chapter></book>"));
  Net.run net;
  check ci "no further delivery" 1 (Net.total_deliveries net)

(* Late advertiser: subscriptions registered before any advertisement
   reach a publisher that advertises afterwards. *)
let test_late_advertiser () =
  let topo = Topology.line 3 in
  let net = Net.create topo in
  let subscriber = Net.add_client net ~broker:2 in
  ignore (Net.subscribe net subscriber (xp "/a/b"));
  Net.run net;
  let publisher = Net.add_client net ~broker:0 in
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/a/b"));
  Net.run net;
  ignore (Net.publish_doc net publisher ~doc_id:5 (Xroute_xml.Xml_parser.parse "<a><b/></a>"));
  Net.run net;
  check ci "delivered despite late adv" 1 (Net.total_deliveries net)

(* Two publishers with different DTDs: subscriptions only travel towards
   the relevant one (advertisement-based routing at work). *)
let test_selective_routing_two_publishers () =
  let topo = Topology.line 5 in
  let net = Net.create topo in
  let pub_book = Net.add_client net ~broker:0 in
  let pub_psd = Net.add_client net ~broker:4 in
  let subscriber = Net.add_client net ~broker:2 in
  let book_graph = Xroute_dtd.Dtd_graph.build (Lazy.force Xroute_dtd.Dtd_samples.book) in
  let psd_graph = Xroute_dtd.Dtd_graph.build (Lazy.force Xroute_dtd.Dtd_samples.psd) in
  ignore (Net.advertise_dtd net pub_book (Xroute_dtd.Dtd_paths.advertisements book_graph));
  ignore (Net.advertise_dtd net pub_psd (Xroute_dtd.Dtd_paths.advertisements psd_graph));
  Net.run net;
  ignore (Net.subscribe net subscriber (xp "/book/title"));
  Net.run net;
  (* broker 3 (towards the PSD publisher) must not hold the book sub *)
  check ci "book sub absent towards psd" 0
    (Xroute_core.Broker.prt_size (Net.broker net 3));
  check cb "book sub present towards book" true
    (Xroute_core.Broker.prt_size (Net.broker net 1) > 0)

(* Wire compatibility over a converged overlay: every broker, handed a
   neighbour's [P|] line whose trail names only one of its stored
   subscriptions, routes each path publication exactly as it routes
   the empty-trail line — it matches the full PRT — and forwards every
   copy with an empty trail. *)
let test_inbound_trails_ignored () =
  let module Broker = Xroute_core.Broker in
  let module Codec = Xroute_core.Codec in
  let module Message = Xroute_core.Message in
  let topo = Topology.binary_tree ~levels:3 in
  let net = Net.create topo in
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.book in
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let publisher = Net.add_client net ~broker:0 in
  let subs = List.map (fun b -> Net.add_client net ~broker:b) (Topology.binary_tree_leaves ~levels:3) in
  ignore (Net.advertise_dtd net publisher (Xroute_dtd.Dtd_paths.advertisements graph));
  Net.run net;
  let prng = Xroute_support.Prng.create 55 in
  let params = Xroute_workload.Xpath_gen.default_params dtd in
  List.iter
    (fun c ->
      List.iter (fun x -> ignore (Net.subscribe net c x))
        (Xroute_workload.Xpath_gen.generate params prng ~count:10))
    subs;
  Net.run net;
  let pubs =
    List.concat
      (List.mapi
         (fun i d -> Xroute_xml.Xml_paths.decompose ~doc_id:i d)
         (Xroute_workload.Workload.documents ~dtd ~count:6 ~seed:12 ()))
  in
  let routed = ref 0 in
  Array.iter
    (fun b ->
      let from = Xroute_core.Rtable.Neighbor (List.hd (Topology.neighbors topo (Broker.id b))) in
      let trail =
        match (Broker.audit_view b).Broker.av_subs with (id, _, _) :: _ -> [ id ] | [] -> []
      in
      let route trail pub =
        match Codec.decode (Codec.encode (Message.Publish { pub; trail; ctx = None })) with
        | Ok msg -> List.map (fun (_, m) -> Codec.encode m) (Broker.handle b ~from msg)
        | Error e -> Alcotest.failf "decode: %a" Codec.pp_error e
      in
      List.iter
        (fun pub ->
          let plain = route [] pub in
          routed := !routed + List.length plain;
          check (Alcotest.list Alcotest.string) "trailed line routes like the plain one" plain
            (route trail pub);
          let empty_trail = Codec.encode (Message.Publish { pub; trail = []; ctx = None }) in
          List.iter (fun l -> check Alcotest.string "forwarded with an empty trail" empty_trail l) plain)
        pubs)
    (Net.brokers net);
  check cb "something routed" true (!routed > 0)

(* Documents assembled from path publications: a subscriber receives the
   doc id exactly once regardless of how many of its paths match. *)
let test_document_dedup () =
  let topo = Topology.line 2 in
  let net = Net.create topo in
  let publisher = Net.add_client net ~broker:0 in
  let subscriber = Net.add_client net ~broker:1 in
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/a/b"));
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/a/c"));
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/a/d"));
  Net.run net;
  ignore (Net.subscribe net subscriber (xp "/a"));
  Net.run net;
  ignore (Net.publish_doc net publisher ~doc_id:42
            (Xroute_xml.Xml_parser.parse "<a><b/><c/><d/></a>"));
  Net.run net;
  let c = List.hd (Net.clients net) in
  let c = if c.Net.cid = subscriber.Net.cid then c else List.nth (Net.clients net) 1 in
  check ci "doc delivered once" 1 (Hashtbl.length c.Net.delivered);
  check ci "but three path messages" 3 c.Net.path_messages

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "insurance scenario" `Quick test_insurance_pipeline;
          Alcotest.test_case "nitf over 127 brokers" `Slow test_nitf_127_brokers;
          Alcotest.test_case "unsubscribe lifecycle" `Quick test_unsubscribe_lifecycle;
          Alcotest.test_case "late advertiser" `Quick test_late_advertiser;
          Alcotest.test_case "selective routing" `Quick test_selective_routing_two_publishers;
          Alcotest.test_case "trail routing equivalence" `Quick test_inbound_trails_ignored;
          Alcotest.test_case "document dedup" `Quick test_document_dedup;
        ] );
    ]
