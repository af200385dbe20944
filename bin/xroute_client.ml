(* Interactive client for the broker daemon: subscribe, advertise and
   publish from the command line.

     xroute_client --port 7002 --id 42 subscribe '//section/para'
     xroute_client --port 7002 --id 42 listen '//section/para'
     xroute_client --port 7000 --id 7 advertise-dtd book
     xroute_client --port 7000 --id 7 publish doc.xml
     xroute_client --port 7000 stats --format json *)

open Cmdliner

let connect_args =
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Broker host.") in
  let port = Arg.(required & opt (some int) None & info [ "port" ] ~doc:"Broker port.") in
  let id = Arg.(value & opt int (Unix.getpid ()) & info [ "id" ] ~doc:"Client id.") in
  Term.(const (fun h p i -> (h, p, i)) $ host $ port $ id)

(* Connection failures — at dial time or mid-session once the reconnect
   budget runs out — surface as one clean diagnostic line and exit 1,
   never as a raw Unix_error backtrace. *)
let with_client (host, port, id) f =
  match Xroute_daemon.Client.connect ~client_id:id ~host ~port with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "xroute_client: cannot reach broker %s:%d (%s)\n" host port
      (Unix.error_message e);
    exit 1
  | c -> (
    try Fun.protect ~finally:(fun () -> Xroute_daemon.Client.close c) (fun () -> f c)
    with Xroute_daemon.Client.Unavailable reason ->
      Printf.eprintf "xroute_client: %s\n" reason;
      exit 1)

let subscribe_cmd =
  let xpe_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"XPE") in
  let run conn xpe_s =
    match Xroute_xpath.Xpe_parser.parse_opt xpe_s with
    | None ->
      prerr_endline "xroute_client: cannot parse the XPE";
      exit 1
    | Some xpe ->
      with_client conn (fun c ->
          let id = Xroute_daemon.Client.subscribe c xpe in
          Printf.printf "subscribed as %d.%d\n" id.Xroute_core.Message.origin
            id.Xroute_core.Message.seq)
  in
  Cmd.v (Cmd.info "subscribe" ~doc:"Register an XPath subscription and exit.")
    Term.(const run $ connect_args $ xpe_arg)

let listen_cmd =
  let xpe_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"XPE") in
  let run conn xpe_s =
    match Xroute_xpath.Xpe_parser.parse_opt xpe_s with
    | None ->
      prerr_endline "xroute_client: cannot parse the XPE";
      exit 1
    | Some xpe ->
      with_client conn (fun c ->
          ignore (Xroute_daemon.Client.subscribe c xpe);
          Printf.printf "listening for %s (ctrl-c to stop)\n%!" xpe_s;
          let rec loop () =
            (match Xroute_daemon.Client.recv ~timeout:3600.0 c with
            | Some (Xroute_core.Message.Publish { pub; _ }) ->
              Printf.printf "doc %d: %s\n%!" pub.doc_id
                (Xroute_xml.Xml_paths.publication_to_string pub)
            | Some _ | None -> ());
            loop ()
          in
          loop ())
  in
  Cmd.v (Cmd.info "listen" ~doc:"Subscribe and print notifications forever.")
    Term.(const run $ connect_args $ xpe_arg)

let advertise_dtd_cmd =
  let dtd_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"DTD") in
  let run conn dtd_spec =
    match Xroute_dtd.Dtd_samples.by_name dtd_spec with
    | None ->
      prerr_endline ("xroute_client: unknown sample DTD " ^ dtd_spec);
      exit 1
    | Some dtd ->
      with_client conn (fun c ->
          let advs = Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build dtd) in
          List.iter (fun a -> ignore (Xroute_daemon.Client.advertise c a)) advs;
          Printf.printf "advertised %d patterns from %s\n" (List.length advs) dtd_spec)
  in
  Cmd.v (Cmd.info "advertise-dtd" ~doc:"Advertise every pattern of a sample DTD.")
    Term.(const run $ connect_args $ dtd_arg)

let publish_cmd =
  let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.xml") in
  let doc_id_arg = Arg.(value & opt int 1 & info [ "doc-id" ] ~doc:"Document id.") in
  let run conn file doc_id =
    let ic = open_in_bin file in
    let content = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Xroute_xml.Xml_parser.parse_opt content with
    | None ->
      prerr_endline "xroute_client: cannot parse the document";
      exit 1
    | Some doc ->
      with_client conn (fun c ->
          let n = Xroute_daemon.Client.publish_doc c ~doc_id doc in
          Printf.printf "published doc %d as %d path publications\n" doc_id n)
  in
  Cmd.v (Cmd.info "publish" ~doc:"Publish an XML document.")
    Term.(const run $ connect_args $ file_arg $ doc_id_arg)

let stats_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("prom", `Prom); ("json", `Json) ]) `Prom
      & info [ "format" ] ~docv:"FMT" ~doc:"Exposition format: $(b,prom) or $(b,json).")
  in
  let run conn format =
    with_client conn (fun c ->
        match Xroute_daemon.Client.stats ~format c with
        | Some body -> print_string body
        | None ->
          prerr_endline "xroute_client: no STATS reply from the daemon";
          exit 1)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Dump the daemon's metrics registry (Prometheus text or JSON).")
    Term.(const run $ connect_args $ format_arg)

let top_cmd =
  let ttl_arg =
    Arg.(
      value & opt int 8
      & info [ "ttl" ] ~docv:"N"
          ~doc:"Hop bound for the federation pull (how far past the connected broker to \
                reach).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the overlay view as JSON.")
  in
  let run conn ttl json =
    with_client conn (fun c ->
        match Xroute_daemon.Client.fedstats ~ttl c with
        | Some view ->
          if json then print_endline (Xroute_obs.Health.view_to_json view)
          else print_string (Xroute_obs.Health.render_top view)
        | None ->
          prerr_endline "xroute_client: no FEDSTATS reply from the daemon";
          exit 1)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Single-shot overlay health dashboard: pull the federated per-broker \
             summaries (hop-latency/backlog quantiles, per-link rates) via \
             FEDSTATS and render them.")
    Term.(const run $ connect_args $ ttl_arg $ json_arg)

let trace_cmd =
  let key_arg = Arg.(required & pos 0 (some int) None & info [] ~docv:"TRACE-ID") in
  let host_arg = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Broker host.") in
  let ports_arg =
    Arg.(non_empty & opt_all int [] & info [ "port" ] ~docv:"PORT"
           ~doc:"A broker port (repeatable — spans fetched from every daemon are merged \
                 into one cross-broker trace).")
  in
  let id_arg = Arg.(value & opt int (Unix.getpid ()) & info [ "id" ] ~doc:"Client id.") in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("waterfall", `Waterfall); ("chrome", `Chrome) ]) `Waterfall
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output: $(b,waterfall) (indented text) or $(b,chrome) (trace-event JSON \
                for Perfetto / chrome://tracing).")
  in
  let run key host ports id format =
    let spans =
      List.concat_map
        (fun port ->
          let c = Xroute_daemon.Client.connect ~client_id:id ~host ~port in
          Fun.protect
            ~finally:(fun () -> Xroute_daemon.Client.close c)
            (fun () ->
              match Xroute_daemon.Client.trace c key with
              | Some spans -> spans
              | None ->
                Printf.eprintf "xroute_client: no TRACE reply from port %d\n" port;
                []))
        ports
    in
    if spans = [] then begin
      prerr_endline "xroute_client: no spans for that trace";
      exit 1
    end;
    match format with
    | `Waterfall -> print_string (Xroute_obs.Span.waterfall spans)
    | `Chrome -> print_endline (Xroute_obs.Span.to_chrome spans)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Fetch one publication's causal spans from the daemons and render the \
             hop-by-hop latency decomposition.")
    Term.(const run $ key_arg $ host_arg $ ports_arg $ id_arg $ format_arg)

let () =
  let info = Cmd.info "xroute_client" ~version:"1.0.0" ~doc:"Client for the XML router daemon" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            subscribe_cmd;
            listen_cmd;
            advertise_dtd_cmd;
            publish_cmd;
            stats_cmd;
            top_cmd;
            trace_cmd;
          ]))
