(* Command-line interface to the XML/XPath routing library.

   Subcommands:
   - advs      : print the advertisement set derived from a DTD
   - gen-xpath : generate an XPath query workload
   - gen-xml   : generate XML documents from a DTD
   - match     : check subscription/advertisement overlap
   - cover     : check covering between two XPEs
   - simulate  : run a dissemination network simulation and report
                 traffic, table sizes and notification delay *)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  let doc = "Log protocol-level events (broker message handling, deliveries)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let dtd_arg =
  let doc =
    "DTD to use: a bundled sample name (book, insurance, psd, nitf) or a path to a DTD file."
  in
  Arg.(value & opt string "psd" & info [ "dtd" ] ~docv:"DTD" ~doc)

let seed_arg =
  let doc = "Random seed (experiments are reproducible by seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let load_dtd spec =
  match Xroute_dtd.Dtd_samples.by_name spec with
  | Some dtd -> Ok dtd
  | None -> (
    if Sys.file_exists spec then begin
      let ic = open_in_bin spec in
      let n = in_channel_length ic in
      let content = really_input_string ic n in
      close_in ic;
      match Xroute_dtd.Dtd_parser.parse_opt content with
      | Some dtd -> Ok dtd
      | None -> Error (Printf.sprintf "could not parse DTD file %s" spec)
    end
    else
      Error
        (Printf.sprintf "unknown DTD %s (samples: %s)" spec
           (String.concat ", " Xroute_dtd.Dtd_samples.names)))

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("xroute: " ^ msg);
    exit 1

(* ---------------- advs ---------------- *)

let advs_cmd =
  let run dtd_spec =
    let dtd = or_die (load_dtd dtd_spec) in
    let graph = Xroute_dtd.Dtd_graph.build dtd in
    let advs = Xroute_dtd.Dtd_paths.advertisements graph in
    Printf.printf "# %d elements, recursive: %b, %d advertisements\n"
      (Xroute_dtd.Dtd_ast.element_count dtd)
      (Xroute_dtd.Dtd_graph.is_recursive graph)
      (List.length advs);
    List.iter (fun a -> print_endline (Xroute_xpath.Adv.to_string a)) advs
  in
  let doc = "Print the advertisement set derived from a DTD (Sec. 3.1)." in
  Cmd.v (Cmd.info "advs" ~doc) Term.(const run $ dtd_arg)

(* ---------------- gen-xpath ---------------- *)

let gen_xpath_cmd =
  let count_arg =
    Arg.(value & opt int 20 & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of queries.")
  in
  let wildcard_arg =
    Arg.(value & opt float 0.2 & info [ "wildcard"; "W" ] ~doc:"Wildcard probability per step.")
  in
  let desc_arg =
    Arg.(value & opt float 0.2 & info [ "descendant"; "D" ] ~doc:"Descendant-operator probability.")
  in
  let run dtd_spec count seed wildcard desc =
    let dtd = or_die (load_dtd dtd_spec) in
    let params =
      {
        (Xroute_workload.Xpath_gen.default_params dtd) with
        Xroute_workload.Xpath_gen.wildcard_prob = wildcard;
        desc_prob = desc;
      }
    in
    let prng = Xroute_support.Prng.create seed in
    List.iter
      (fun x -> print_endline (Xroute_xpath.Xpe.to_string x))
      (Xroute_workload.Xpath_gen.generate params prng ~count)
  in
  let doc = "Generate an XPath subscription workload from a DTD." in
  Cmd.v (Cmd.info "gen-xpath" ~doc)
    Term.(const run $ dtd_arg $ count_arg $ seed_arg $ wildcard_arg $ desc_arg)

(* ---------------- gen-xml ---------------- *)

let gen_xml_cmd =
  let count_arg =
    Arg.(value & opt int 1 & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of documents.")
  in
  let size_arg =
    Arg.(value & opt int 0 & info [ "size" ] ~docv:"BYTES" ~doc:"Approximate target size.")
  in
  let run dtd_spec count seed size =
    let dtd = or_die (load_dtd dtd_spec) in
    let prng = Xroute_support.Prng.create seed in
    let params = Xroute_workload.Xml_gen.default_params dtd in
    for _ = 1 to count do
      let doc =
        if size > 0 then Xroute_workload.Xml_gen.generate_sized params prng ~target_bytes:size
        else Xroute_workload.Xml_gen.generate params prng
      in
      print_endline (Xroute_xml.Xml_printer.to_pretty_string doc)
    done
  in
  let doc = "Generate XML documents conforming to a DTD." in
  Cmd.v (Cmd.info "gen-xml" ~doc) Term.(const run $ dtd_arg $ count_arg $ seed_arg $ size_arg)

(* ---------------- match ---------------- *)

let match_cmd =
  let xpe_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"XPE") in
  let adv_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"ADV") in
  let run xpe_s adv_s =
    match (Xroute_xpath.Xpe_parser.parse_opt xpe_s, Xroute_xpath.Adv.parse_opt adv_s) with
    | Some xpe, Some adv ->
      let paper = Xroute_core.Adv_match.overlaps_paper xpe adv in
      let exact = Xroute_core.Adv_match.overlaps_exact xpe adv in
      Printf.printf "paper engine: %b\nexact engine: %b\n" paper exact;
      if paper <> exact then exit 2
    | None, _ ->
      prerr_endline "xroute: cannot parse the XPath expression";
      exit 1
    | _, None ->
      prerr_endline "xroute: cannot parse the advertisement";
      exit 1
  in
  let doc = "Check whether a subscription overlaps an advertisement (Sec. 3.2-3.3)." in
  Cmd.v (Cmd.info "match" ~doc) Term.(const run $ xpe_arg $ adv_arg)

(* ---------------- cover ---------------- *)

let cover_cmd =
  let s1_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"XPE1") in
  let s2_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"XPE2") in
  let run s1 s2 =
    match (Xroute_xpath.Xpe_parser.parse_opt s1, Xroute_xpath.Xpe_parser.parse_opt s2) with
    | Some x1, Some x2 ->
      Printf.printf "paper rules: %b\nexact:       %b\n" (Xroute_core.Cover.covers x1 x2)
        (Xroute_core.Cover.covers_exact x1 x2)
    | _ ->
      prerr_endline "xroute: cannot parse the XPath expressions";
      exit 1
  in
  let doc = "Check whether XPE1 covers XPE2 (Sec. 4.2)." in
  Cmd.v (Cmd.info "cover" ~doc) Term.(const run $ s1_arg $ s2_arg)

(* ---------------- simulate ---------------- *)

let simulate_cmd =
  let strategy_arg =
    let doc =
      Printf.sprintf "Routing strategy: one of %s."
        (String.concat ", " Xroute_core.Broker.strategy_names)
    in
    Arg.(value & opt string "with-Adv-with-Cov" & info [ "strategy" ] ~doc)
  in
  let levels_arg =
    Arg.(value & opt int 3 & info [ "levels" ] ~doc:"Binary-tree depth (3 = 7 brokers, 7 = 127).")
  in
  let subs_arg =
    Arg.(value & opt int 100 & info [ "subs" ] ~doc:"Subscriptions per leaf subscriber.")
  in
  let docs_arg = Arg.(value & opt int 20 & info [ "docs" ] ~doc:"Documents to publish.") in
  let run dtd_spec strategy_name levels subs docs_n seed verbose =
    setup_logs verbose;
    let dtd = or_die (load_dtd dtd_spec) in
    let strategy =
      match Xroute_core.Broker.strategy_of_name strategy_name with
      | Some s -> s
      | None ->
        prerr_endline ("xroute: unknown strategy " ^ strategy_name);
        exit 1
    in
    let graph = Xroute_dtd.Dtd_graph.build dtd in
    let advs = Xroute_dtd.Dtd_paths.advertisements graph in
    let topo = Xroute_overlay.Topology.binary_tree ~levels in
    let net =
      Xroute_overlay.Net.create
        ~config:{ Xroute_overlay.Net.default_config with strategy; seed }
        topo
    in
    let prng = Xroute_support.Prng.create seed in
    let publisher = Xroute_overlay.Net.add_client net ~broker:0 in
    let leaves = Xroute_overlay.Topology.binary_tree_leaves ~levels in
    let clients = List.map (fun b -> Xroute_overlay.Net.add_client net ~broker:b) leaves in
    ignore (Xroute_overlay.Net.advertise_dtd net publisher advs);
    Xroute_overlay.Net.run net;
    let params = Xroute_workload.Xpath_gen.default_params dtd in
    List.iter
      (fun c ->
        List.iter
          (fun x -> ignore (Xroute_overlay.Net.subscribe net c x))
          (Xroute_workload.Xpath_gen.generate ~distinct:false params
             (Xroute_support.Prng.split prng) ~count:subs))
      clients;
    Xroute_overlay.Net.run net;
    (match strategy.Xroute_core.Broker.merging with
    | Xroute_core.Broker.No_merging -> ()
    | _ ->
      Xroute_overlay.Net.set_universe net
        (Xroute_dtd.Dtd_paths.sample_paths ~count:3000 ~max_depth:10
           (Xroute_support.Prng.create 5) graph);
      Xroute_overlay.Net.merge_all net);
    let documents = Xroute_workload.Workload.documents ~dtd ~count:docs_n ~seed () in
    List.iteri
      (fun i d -> ignore (Xroute_overlay.Net.publish_doc net publisher ~doc_id:i d))
      documents;
    Xroute_overlay.Net.run net;
    let msgs kind =
      Xroute_obs.Metrics.scalar (Xroute_overlay.Net.metrics net)
        (Printf.sprintf "xroute_net_msgs_%s_total" kind)
      |> Option.fold ~none:0 ~some:int_of_float
    in
    Printf.printf "strategy:        %s\n" strategy_name;
    Printf.printf "brokers:         %d\n" (Xroute_overlay.Topology.broker_count topo);
    Printf.printf "subscribers:     %d x %d subscriptions\n" (List.length clients) subs;
    Printf.printf "traffic:         %d messages (adv %d, sub %d, unsub %d, pub %d)\n"
      (Xroute_overlay.Net.total_traffic net)
      (msgs "adv") (msgs "sub") (msgs "unsub") (msgs "pub");
    Printf.printf "routing tables:  %d PRT entries, %d SRT entries (all brokers)\n"
      (Xroute_overlay.Net.total_prt_size net)
      (Xroute_overlay.Net.total_srt_size net);
    Printf.printf "deliveries:      %d documents\n" (Xroute_overlay.Net.total_deliveries net);
    Printf.printf "mean delay:      %.3f ms\n" (Xroute_overlay.Net.mean_delivery_delay net);
    Printf.printf "false positives: %d publications dropped in-network\n"
      (Xroute_overlay.Net.dropped_publications net)
  in
  let doc = "Run a dissemination-network simulation and report the paper's metrics." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ dtd_arg $ strategy_arg $ levels_arg $ subs_arg $ docs_arg $ seed_arg
      $ verbose_arg)

(* ---------------- scenario ---------------- *)

let scenario_cmd =
  let module Scenario = Xroute_workload.Scenario in
  let spec_arg =
    let doc =
      "Scenario spec as k=v,k=v: kind (flash|diurnal|churn|fanout), clients, docs, \
       levels, xpes, batch, rounds, channels, seed, dtd. Unmentioned keys keep \
       defaults, e.g. $(b,kind=churn,clients=100000,seed=7)."
    in
    Arg.(value & opt string "" & info [ "spec" ] ~docv:"SPEC" ~doc)
  in
  let run spec_str verbose =
    setup_logs verbose;
    let spec =
      match Scenario.spec_of_string spec_str with
      | Ok s -> s
      | Error msg ->
        prerr_endline ("xroute: " ^ msg);
        exit 1
    in
    let o = Scenario.run spec in
    Printf.printf "scenario:       %s (seed %d, dtd %s)\n"
      (Scenario.kind_to_string spec.Scenario.kind)
      spec.Scenario.seed spec.Scenario.dtd;
    Printf.printf "clients:        %d (%d subs, %d unsubs)\n"
      spec.Scenario.clients o.Scenario.subs_sent o.Scenario.unsubs_sent;
    Printf.printf "published:      %d documents\n" o.Scenario.docs_published;
    Printf.printf "deliveries:     %d\n" o.Scenario.deliveries;
    Printf.printf "events:         %d (virtual clock %.3f ms)\n" o.Scenario.events
      o.Scenario.virtual_ms;
    Printf.printf "ledger digest:  %Lx\n" o.Scenario.ledger_digest;
    Printf.printf "routing tables: %d PRT, %d SRT entries\n" o.Scenario.prt_total
      o.Scenario.srt_total;
    Printf.printf "faults:         %s\n" o.Scenario.fault_line
  in
  let doc =
    "Run a scale-parameterized scenario (flash crowd, diurnal, churn, fan-out) on the \
     simulator."
  in
  Cmd.v (Cmd.info "scenario" ~doc) Term.(const run $ spec_arg $ verbose_arg)

let () =
  let doc = "XML/XPath content-based routing (ICDCS 2008 reproduction)" in
  let info = Cmd.info "xroute" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            advs_cmd;
            gen_xpath_cmd;
            gen_xml_cmd;
            match_cmd;
            cover_cmd;
            simulate_cmd;
            scenario_cmd;
          ]))
