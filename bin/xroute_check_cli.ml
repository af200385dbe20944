(* xroute_check: static analyzer for the routing stack.

   Three analysis families, all run when none is selected explicitly:

   - workload  : dead / contradictory / shadowed subscriptions of a
                 DTD-driven workload against its advertisement set;
   - soundness : seeded differential audit of the paper's covering,
                 advertisement-covering and merging rules against the
                 exact automata engine (unsound = Error, incomplete =
                 Warning with rates);
   - audit     : routing-state invariants over converged simulated
                 churn networks — or over a live daemon with --connect.

   Two harness-integrity families ride along (also in the default
   set): --scenario-audit checks the scale harness itself — a full-row
   replay of each spec (run-to-run determinism), liveness smells — and
   --obs-audit checks the telemetry itself: sketch quantile accuracy
   against exact order statistics, counter monotonicity across
   snapshots, span/metric cross-consistency, and FEDSTATS federation
   laws.

   Exit codes are uniform across every family and both output modes:
   0 when the run produced no Error-severity finding (warnings and
   infos alone never fail), 1 on any Error, 2 on unusable invocations
   (bad DTD, bad seed list, unreachable daemon).

   The report prints as text (and as JSON with --json); the process
   exits 1 when any Error-severity finding is present. --self-audit is
   the fixed configuration the build's @lint alias runs. *)

open Cmdliner
module Finding = Xroute_check.Finding
module Soundness = Xroute_check.Soundness
module Check = Xroute_check.Check
module Broker = Xroute_core.Broker

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

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
    prerr_endline ("xroute_check: " ^ msg);
    exit 2

(* ---------------- workload analysis ---------------- *)

let workload_report dtd ~count ~clients ~seed =
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let advs = Xroute_dtd.Dtd_paths.advertisements graph in
  let params = Xroute_workload.Workload.set_b_params dtd in
  let xpes = Xroute_workload.Workload.xpes ~distinct:false ~params ~count ~seed () in
  let subs = List.mapi (fun i x -> (i mod max 1 clients, x)) xpes in
  let findings = Check.analyze_workload ~advs ~subs () in
  let by_code c = List.length (List.filter (fun f -> f.Finding.code = c) findings) in
  let f = float_of_int in
  Finding.report
    ~stats:
      [
        ("workload_subscriptions", f (List.length subs));
        ("workload_advertisements", f (List.length advs));
        ("workload_dead", f (by_code "dead-subscription"));
        ("workload_contradictory", f (by_code "contradictory-predicates"));
        ("workload_shadowed", f (by_code "shadowed-subscription"));
      ]
    findings

(* ---------------- routing-state audit (simulated) ---------------- *)

(* [~require_merge]: every merging network must dissolve a merger, or
   the merge bookkeeping went unaudited (exit 2). *)
let audit_report dtd ~strategies ~seeds ~ops ~require_merge =
  let reports =
    List.concat_map
      (fun name ->
        let strategy =
          match Broker.strategy_of_name name with
          | Some s -> s
          | None -> or_die (Error ("unknown strategy " ^ name))
        in
        List.map
          (fun seed ->
            let net, dissolved = Check.churned_net dtd ~strategy ~seed ~ops in
            if require_merge && strategy.Broker.merging <> Broker.No_merging && not dissolved
            then
              or_die
                (Error
                   (Printf.sprintf "%s, seed %d: no merger formed, so none was dissolved" name
                      seed));
            let findings = Check.audit_net net in
            Finding.report findings)
          seeds)
      strategies
  in
  let combined = Finding.concat reports in
  let f = float_of_int in
  {
    combined with
    Finding.stats =
      [
        ("audit_networks", f (List.length reports));
        ("audit_strategies", f (List.length strategies));
        ("audit_seeds", f (List.length seeds));
        ("audit_churn_ops", f ops);
        ("routing_violations", f (List.length combined.Finding.findings));
      ];
  }

(* ---------------- scenario-integrity audit ---------------- *)

(* Sweep every scenario kind at smoke scale: full-row determinism
   replay, liveness smells. --inject-scenario-skew runs the replay one
   seed off; the audit must then exit 1 (the @scenario mutation
   rule). *)
let scenario_audit_report ~clients ~seed ~inject =
  let module Scenario = Xroute_workload.Scenario in
  (* trimmed book-DTD spec: the audit exercises the harness (ledgers,
     digests, generators), not nitf match throughput — the book
     grammar runs the same checks two orders of magnitude faster *)
  let specs =
    List.map
      (fun kind ->
        {
          Scenario.default_spec with
          Scenario.kind;
          clients;
          seed;
          docs = 6;
          xpes = 48;
          levels = 3;
          rounds = 2;
          channels = 4;
          dtd = "book";
        })
      Scenario.all_kinds
  in
  Check.audit_scenario_report ~inject specs

(* ---------------- observability audit ---------------- *)

(* Check the telemetry stack against ground truth: sketch quantiles vs
   exact order statistics, federation merge laws, and a 3-broker line
   overlay's counters/spans/health cross-checked against each other.
   --inject-obs-drift rolls one counter of the collected snapshot data
   back to zero; the audit must then exit 1 (the @obs mutation rule). *)
let obs_audit_report ~seed ~inject = Xroute_check.Obs.audit ~seed ~inject ()

(* ---------------- routing-state audit (live daemon) ---------------- *)

let severity_of_string = function
  | "error" -> Finding.Error
  | "warning" -> Finding.Warning
  | _ -> Finding.Info

let daemon_audit_report ~connect =
  let host, port =
    match String.rindex_opt connect ':' with
    | Some i -> (
      let host = String.sub connect 0 i in
      let port = String.sub connect (i + 1) (String.length connect - i - 1) in
      match int_of_string_opt port with
      | Some p -> ((if host = "" then "127.0.0.1" else host), p)
      | None -> or_die (Error ("bad --connect address " ^ connect)))
    | None -> or_die (Error ("bad --connect address " ^ connect ^ " (want host:port)"))
  in
  let client =
    try Xroute_daemon.Client.connect ~client_id:999_999 ~host ~port
    with Unix.Unix_error (e, _, _) ->
      or_die (Error (Printf.sprintf "cannot connect to %s:%d: %s" host port (Unix.error_message e)))
  in
  let result = Xroute_daemon.Client.audit client in
  Xroute_daemon.Client.close client;
  match result with
  | None -> or_die (Error "daemon audit timed out")
  | Some (errors, warnings, findings) ->
    let findings =
      List.map
        (fun (sev, code, subject, witness) ->
          Finding.make ~severity:(severity_of_string sev) ~family:"routing" ~code ~subject
            ~witness)
        findings
    in
    let f = float_of_int in
    Finding.report
      ~stats:
        [
          ("daemon_audit_errors", f errors);
          ("daemon_audit_warnings", f warnings);
        ]
      findings

(* ---------------- the command ---------------- *)

let parse_seeds s =
  let parts = String.split_on_char ',' s in
  let seeds = List.filter_map int_of_string_opt parts in
  if seeds = [] || List.length seeds <> List.length parts then
    or_die (Error ("bad --seeds list " ^ s))
  else seeds

let run dtd_spec workload soundness audit scenario_audit obs_audit self_audit seeds_str pairs
    count clients strategy_name ops scenario_clients inject_unsound inject_scenario_skew
    inject_obs_drift witness_incomplete json_path connect metrics quiet verbose =
  setup_logs verbose;
  let dtd = or_die (load_dtd dtd_spec) in
  let seeds = parse_seeds seeds_str in
  let none_selected =
    not
      (workload || soundness || audit || scenario_audit || obs_audit || connect <> None)
  in
  let all = self_audit || none_selected in
  let reports = ref [] in
  let add r = reports := r :: !reports in
  if workload || all then add (workload_report dtd ~count ~clients ~seed:(List.hd seeds));
  if soundness || all then begin
    let covers =
      if inject_unsound then Soundness.planted_unsound_covers else Xroute_core.Cover.covers
    in
    add (Soundness.run ~covers ~seeds ~pairs_per_seed:pairs ~witness_incomplete ())
  end;
  if scenario_audit || all then
    add
      (scenario_audit_report ~clients:scenario_clients ~seed:(List.hd seeds)
         ~inject:inject_scenario_skew);
  if obs_audit || all then
    add (obs_audit_report ~seed:(List.hd seeds) ~inject:inject_obs_drift);
  (match connect with
  | Some c -> add (daemon_audit_report ~connect:c)
  | None ->
    if audit || all then begin
      let strategies =
        if strategy_name = "all" then Broker.strategy_names else [ strategy_name ]
      in
      add (audit_report dtd ~strategies ~seeds ~ops ~require_merge:self_audit)
    end);
  let report = Finding.concat (List.rev !reports) in
  if not quiet then print_string (Finding.to_text report);
  (match json_path with
  | Some "-" -> print_endline (Finding.to_json report)
  | Some path ->
    let oc = open_out path in
    output_string oc (Finding.to_json report);
    output_char oc '\n';
    close_out oc
  | None -> ());
  if metrics then begin
    let reg = Xroute_obs.Metrics.create () in
    let meters = Xroute_obs.Check_meters.create reg in
    Finding.record_meters meters report;
    print_string (Xroute_obs.Metrics.to_prometheus reg)
  end;
  if Finding.has_errors report then exit 1

let cmd =
  let doc =
    "Static analyzer: workload smells, covering/merging soundness, routing-state invariants."
  in
  let dtd_arg =
    let doc =
      "DTD to use: a bundled sample name (book, insurance, psd, nitf) or a path to a DTD file."
    in
    Arg.(value & opt string "book" & info [ "dtd" ] ~docv:"DTD" ~doc)
  in
  let workload_arg =
    Arg.(value & flag & info [ "workload" ] ~doc:"Run the workload analysis family.")
  in
  let soundness_arg =
    Arg.(value & flag & info [ "soundness" ] ~doc:"Run the soundness audit family.")
  in
  let audit_arg =
    Arg.(value & flag & info [ "audit" ] ~doc:"Run the routing-state audit family.")
  in
  let scenario_audit_arg =
    Arg.(
      value & flag
      & info [ "scenario-audit" ]
          ~doc:
            "Run the scenario-integrity audit family: sweep every scenario kind at \
             smoke scale and check that a replay reproduces every ledger row, \
             decision and fault count, and liveness smells.")
  in
  let obs_audit_arg =
    Arg.(
      value & flag
      & info [ "obs-audit" ]
          ~doc:
            "Run the observability audit family: sketch quantile accuracy against exact \
             order statistics on seeded distributions, federation merge laws \
             (commutative, associative, idempotent, codec round-trip), and a 3-broker \
             line overlay checked for counter monotonicity, gauge sanity, span/metric \
             cross-consistency and FEDSTATS view agreement.")
  in
  let self_audit_arg =
    Arg.(
      value & flag
      & info [ "self-audit" ]
          ~doc:"Run every family at the fixed configuration the @lint alias uses.")
  in
  let seeds_arg =
    Arg.(
      value & opt string "1,2,3,4"
      & info [ "seeds" ] ~docv:"N,N,..."
          ~doc:"Comma-separated seeds for the soundness corpora and the audited networks.")
  in
  let pairs_arg =
    Arg.(
      value & opt int 250
      & info [ "pairs" ] ~docv:"N" ~doc:"Soundness: covering pairs generated per seed.")
  in
  let count_arg =
    Arg.(
      value & opt int 60
      & info [ "count" ] ~docv:"N" ~doc:"Workload: subscriptions to generate.")
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Workload: clients the subscriptions spread over.")
  in
  let strategy_arg =
    let doc =
      Printf.sprintf "Audit: routing strategy, one of %s, or $(b,all)."
        (String.concat ", " Broker.strategy_names)
    in
    Arg.(value & opt string "all" & info [ "strategy" ] ~doc)
  in
  let ops_arg =
    Arg.(
      value & opt int 30
      & info [ "ops" ] ~docv:"N" ~doc:"Audit: churn operations per simulated network.")
  in
  let scenario_clients_arg =
    Arg.(
      value & opt int 600
      & info [ "scenario-clients" ] ~docv:"N"
          ~doc:"Scenario audit: virtual clients per audited scenario.")
  in
  let inject_obs_drift_arg =
    Arg.(
      value & flag
      & info [ "inject-obs-drift" ]
          ~doc:
            "Mutation check: roll one counter of the collected snapshot data back to \
             zero before the monotonicity check; the run must report errors and exit 1.")
  in
  let inject_scenario_skew_arg =
    Arg.(
      value & flag
      & info [ "inject-scenario-skew" ]
          ~doc:
            "Mutation check: run the scenario replay one seed off; the run must \
             report errors and exit 1.")
  in
  let inject_arg =
    Arg.(
      value & flag
      & info [ "inject-unsound-cover" ]
          ~doc:
            "Mutation check: audit a deliberately unsound covering rule instead of the \
             paper's; the run must report errors and exit 1.")
  in
  let witness_incomplete_arg =
    Arg.(
      value & flag
      & info [ "witness-incomplete" ]
          ~doc:
            "Soundness: also report each incomplete pair (oracle contains, rule disagrees) \
             as an Info finding.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Write the JSON report to $(docv) ('-' = stdout).")
  in
  let connect_arg =
    Arg.(
      value & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Audit a live broker daemon over the wire (AUDIT|) instead of simulating.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Print the finding counters as a Prometheus exposition.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the text report.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log protocol-level events.")
  in
  Cmd.v
    (Cmd.info "xroute_check" ~version:"%%VERSION%%" ~doc)
    Term.(
      const run $ dtd_arg $ workload_arg $ soundness_arg $ audit_arg $ scenario_audit_arg
      $ obs_audit_arg $ self_audit_arg $ seeds_arg $ pairs_arg $ count_arg $ clients_arg
      $ strategy_arg $ ops_arg $ scenario_clients_arg $ inject_arg $ inject_scenario_skew_arg
      $ inject_obs_drift_arg $ witness_incomplete_arg $ json_arg $ connect_arg $ metrics_arg
      $ quiet_arg $ verbose_arg)

let () = exit (Cmd.eval cmd)
