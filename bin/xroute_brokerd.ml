(* Broker daemon: host one content-based XML router over TCP.

   Example 3-broker line on one machine:

     xroute_brokerd --id 0 --port 7000 --neighbor 1:127.0.0.1:7001 &
     xroute_brokerd --id 1 --port 7001 --neighbor 0:127.0.0.1:7000 \
                    --neighbor 2:127.0.0.1:7002 &
     xroute_brokerd --id 2 --port 7002 --neighbor 1:127.0.0.1:7001 &

   Clients connect with xroute_client (or any implementation of the
   line protocol documented in Xroute_daemon.Daemon). *)

open Cmdliner

let parse_neighbor s =
  match String.split_on_char ':' s with
  | [ id; host; port ] -> (
    match (int_of_string_opt id, int_of_string_opt port) with
    | Some id, Some port -> Ok (id, (host, port))
    | _ -> Error (`Msg (Printf.sprintf "bad neighbor %S (want id:host:port)" s)))
  | _ -> Error (`Msg (Printf.sprintf "bad neighbor %S (want id:host:port)" s))

let neighbor_conv = Arg.conv (parse_neighbor, fun ppf (id, (h, p)) -> Format.fprintf ppf "%d:%s:%d" id h p)

let run id port neighbors strategy_name flight_dir verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info));
  let strategy =
    match Xroute_core.Broker.strategy_of_name strategy_name with
    | Some s -> s
    | None ->
      prerr_endline ("xroute_brokerd: unknown strategy " ^ strategy_name);
      exit 1
  in
  let daemon =
    Xroute_daemon.Daemon.create ~strategy ?flight_dir ~id ~port ~neighbors ()
  in
  Printf.printf "broker %d listening on port %d (strategy %s)\n%!" id
    (Xroute_daemon.Daemon.port daemon) strategy_name;
  let stop _ = Xroute_daemon.Daemon.request_stop daemon in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Xroute_daemon.Daemon.run daemon

let cmd =
  let id_arg = Arg.(required & opt (some int) None & info [ "id" ] ~doc:"Broker id (unique).") in
  let port_arg = Arg.(value & opt int 0 & info [ "port" ] ~doc:"Listening port (0 = pick).") in
  let neighbors_arg =
    Arg.(value & opt_all neighbor_conv [] & info [ "neighbor" ] ~docv:"ID:HOST:PORT"
           ~doc:"A neighbor broker (repeatable).")
  in
  let strategy_arg =
    Arg.(value & opt string "with-Adv-with-Cov" & info [ "strategy" ]
           ~doc:(Printf.sprintf "Routing strategy: %s."
                   (String.concat ", " Xroute_core.Broker.strategy_names)))
  in
  let flight_dir_arg =
    Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR"
           ~doc:"Enable the flight recorder: dump spans, metrics and rates to \
                 $(docv) when an AUDIT reports an error-severity finding.")
  in
  let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.") in
  Cmd.v
    (Cmd.info "xroute_brokerd" ~version:"1.0.0" ~doc:"Content-based XML router daemon")
    Term.(const run $ id_arg $ port_arg $ neighbors_arg $ strategy_arg $ flight_dir_arg
          $ verbose_arg)

let () = exit (Cmd.eval cmd)
