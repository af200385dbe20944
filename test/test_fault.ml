(* Fault-injection convergence suite.

   Property: after every fault of a seeded plan (broker crash/restart,
   link outage/extra-delay/duplication, client disconnect) has healed
   and the simulation quiesced, the network must be indistinguishable
   from a fresh fault-free network holding the surviving subscriptions:
   same client deliveries AND the same per-publication routing decision
   at every broker. Plus: recovery must leave no dangling state — every
   SRT/PRT entry anywhere in the network belongs to a live client
   ledger (nothing survives from a dead broker's past or a revoked
   subscription).

   Faults interleave with a churn script (subscribe/unsubscribe ops
   scheduled inside the sim across the plan's horizon), so recovery is
   exercised against a moving subscription population, not a frozen
   one. Constant link latency keeps message order deterministic. *)

open Xroute_overlay
open Xroute_core
module Plan = Xroute_fault.Plan

let check = Alcotest.check
let ci = Alcotest.int
let counter = Xroute_obs.Metrics.value

let xp = Xroute_xpath.Xpe_parser.parse

type op =
  | Sub of int * Xroute_xpath.Xpe.t * int (* client index, xpe, tag *)
  | Unsub of int * int (* client index, tag *)

(* Deterministic op script over [nclients] subscribers (as in
   test_churn.ml). *)
let gen_script ~seed ~nclients ~nops params =
  let prng = Xroute_support.Prng.create seed in
  let live = Array.make nclients [] in
  let tag = ref 0 in
  let ops = ref [] in
  for _ = 1 to nops do
    let c = Xroute_support.Prng.int prng nclients in
    if live.(c) <> [] && Xroute_support.Prng.bernoulli prng 0.4 then begin
      let k = Xroute_support.Prng.int prng (List.length live.(c)) in
      let victim = List.nth live.(c) k in
      live.(c) <- List.filteri (fun i _ -> i <> k) live.(c);
      ops := Unsub (c, victim) :: !ops
    end
    else begin
      let xpe = Xroute_workload.Xpath_gen.generate_one params prng in
      live.(c) <- live.(c) @ [ !tag ];
      ops := Sub (c, xpe, !tag) :: !ops;
      incr tag
    end
  done;
  List.rev !ops

let levels = 3 (* the paper's 7-broker complete binary tree *)

let build_net ~seed ~strategy_name =
  let topo = Topology.binary_tree ~levels in
  let strategy = Option.get (Broker.strategy_of_name strategy_name) in
  let config =
    { Net.default_config with Net.strategy; seed; latency = Latency.constant 2.0 }
  in
  let net = Net.create ~config topo in
  let publisher = Net.add_client net ~broker:0 in
  let subscribers =
    Array.of_list
      (List.map (fun b -> Net.add_client net ~broker:b) (Topology.binary_tree_leaves ~levels))
  in
  (net, publisher, subscribers)

(* Publish [docs], then snapshot (per-subscriber sorted deliveries,
   per-broker per-path-publication routing decisions). Decisions are
   read by replaying each path publication through [Broker.handle] from
   a phantom endpoint and recording the emitted next hops — ids are
   deliberately excluded (the fresh network assigns different ones);
   what must converge is where each publication goes. *)
let snapshot net publisher subscribers docs =
  List.iteri (fun i doc -> ignore (Net.publish_doc net publisher ~doc_id:i doc)) docs;
  Net.run net;
  let deliveries =
    Array.to_list subscribers
    |> List.map (fun (c : Net.client) ->
           List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) c.Net.delivered []))
  in
  let pubs =
    List.concat (List.mapi (fun i doc -> Xroute_xml.Xml_paths.decompose ~doc_id:i doc) docs)
  in
  let phantom = Rtable.Client (-1) in
  let decisions =
    Array.to_list (Net.brokers net)
    |> List.concat_map (fun b ->
           List.concat
             (List.mapi
                (fun j (pub : Xroute_xml.Xml_paths.publication) ->
                  Broker.handle b ~from:phantom (Message.Publish { pub; trail = []; ctx = None })
                  |> List.map (fun (ep, _) ->
                         Format.asprintf "b%d p%d -> %a" (Broker.id b) j Rtable.pp_endpoint ep)
                  |> List.sort compare)
                pubs))
  in
  (deliveries, decisions)

(* Run the op script interleaved with the fault plan, all inside one
   simulation run: op [i] fires at the (i+1)-th fraction of the plan
   horizon, so operations land before, during and after fault windows.
   [during] documents are published the same way. *)
let run_plan ~seed ~strategy_name ~advs ~spec ?(during = []) ops =
  let net, publisher, subscribers = build_net ~seed ~strategy_name in
  ignore (Net.advertise_dtd net publisher advs);
  Net.run net;
  let cids = List.map (fun (c : Net.client) -> c.Net.cid) (publisher :: Array.to_list subscribers) in
  let topo = Net.topology net in
  let plan =
    Plan.generate ~seed:(seed + 7000) ~brokers:(Topology.broker_count topo)
      ~edges:(Topology.edges topo) ~clients:cids ~spec ()
  in
  Net.install_plan net plan;
  let nops = List.length ops in
  let ids = Hashtbl.create 64 in
  List.iteri
    (fun i op ->
      let at = plan.Plan.horizon *. float_of_int (i + 1) /. float_of_int (nops + 1) in
      Sim.schedule (Net.sim net) ~delay:at (fun () ->
          match op with
          | Sub (c, xpe, tag) -> Hashtbl.replace ids tag (Net.subscribe net subscribers.(c) xpe)
          | Unsub (c, tag) -> Net.unsubscribe net subscribers.(c) (Hashtbl.find ids tag)))
    ops;
  let ndocs = List.length during in
  List.iteri
    (fun i doc ->
      let at = plan.Plan.horizon *. float_of_int (i + 1) /. float_of_int (ndocs + 1) in
      Sim.schedule (Net.sim net) ~delay:at (fun () ->
          ignore (Net.publish_doc net publisher ~doc_id:i doc)))
    during;
  Net.run net;
  (net, publisher, subscribers)

let run_faulted ~seed ~strategy_name ~advs ~spec ops docs =
  let net, publisher, subscribers = run_plan ~seed ~strategy_name ~advs ~spec ops in
  (net, publisher, subscribers, snapshot net publisher subscribers docs)

(* Fresh fault-free network holding only the surviving subscriptions
   (read from the faulted run's client ledgers, in registration
   order). *)
let run_fresh ~seed ~strategy_name ~advs ~ledgers docs =
  let net, publisher, subscribers = build_net ~seed ~strategy_name in
  ignore (Net.advertise_dtd net publisher advs);
  Net.run net;
  Array.iteri
    (fun i xpes -> List.iter (fun xpe -> ignore (Net.subscribe net subscribers.(i) xpe)) xpes)
    ledgers;
  Net.run net;
  snapshot net publisher subscribers docs

(* Crash recovery must rebuild state, not leak it. The inline
   dangling-entry scan that used to live here became the reusable
   routing-state audit (Xroute_check.Check), which also checks table
   integrity, last-hop validity, and covered-set consistency. *)
let check_clean_audit ~seed ~strategy_name net =
  match Xroute_check.Check.audit_net net with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "seed %d %s: %s (%s)" seed strategy_name
      f.Xroute_check.Finding.subject f.Xroute_check.Finding.witness

let strategies = [ "with-Adv-with-Cov"; "no-Adv-with-Cov"; "with-Adv-no-Cov" ]

let run_round ~seed ~strategy_name =
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.book in
  let advs = Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build dtd) in
  let params = Xroute_workload.Workload.set_a_params dtd in
  let ops = gen_script ~seed ~nclients:4 ~nops:18 params in
  let docs = Xroute_workload.Workload.documents ~dtd ~count:10 ~seed:(seed + 1000) () in
  let spec = Plan.default_spec in
  let net, _publisher, subscribers, faulted =
    run_faulted ~seed ~strategy_name ~advs ~spec ops docs
  in
  (* the plan must actually have fired in full *)
  let fm = Net.fault_meters net in
  check ci (Printf.sprintf "seed %d %s: crashes" seed strategy_name) spec.Plan.crashes
    (counter fm.crashes);
  check ci (Printf.sprintf "seed %d %s: restarts" seed strategy_name) spec.Plan.crashes
    (counter fm.restarts);
  check ci
    (Printf.sprintf "seed %d %s: recovery episodes measured" seed strategy_name)
    (counter fm.restarts)
    (Xroute_obs.Metrics.observations fm.recovery_ms);
  check ci (Printf.sprintf "seed %d %s: client drops" seed strategy_name)
    spec.Plan.client_drops (counter fm.disconnects);
  let ledgers =
    Array.map (fun (c : Net.client) -> List.rev_map snd c.Net.sub_ledger) subscribers
  in
  let fresh = run_fresh ~seed ~strategy_name ~advs ~ledgers docs in
  let f_del, f_dec = faulted and g_del, g_dec = fresh in
  if f_del <> g_del then
    Alcotest.failf "seed %d %s: post-recovery deliveries differ from fresh network" seed
      strategy_name;
  if f_dec <> g_dec then
    Alcotest.failf "seed %d %s: post-recovery routing decisions differ from fresh network"
      seed strategy_name;
  check_clean_audit ~seed ~strategy_name net

let test_convergence_sweep () =
  List.iter
    (fun strategy_name ->
      for seed = 1 to 4 do
        run_round ~seed ~strategy_name
      done)
    strategies

(* Every count of a faulted run is read from the metrics registries,
   the only store of them. The expected values were read, for the same
   seed, plan, strategy and workload, from the plain count records the
   network and brokers kept beside the registries before those records
   were deleted; the registries must report each one unchanged.
   Documents are published across the plan horizon, so publications
   also die at crashed brokers. *)
let test_registry_counts_pinned () =
  let seed = 2 and strategy_name = "with-Adv-with-Cov" in
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.book in
  let advs = Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build dtd) in
  let ops = gen_script ~seed ~nclients:4 ~nops:18 (Xroute_workload.Workload.set_a_params dtd) in
  let docs = Xroute_workload.Workload.documents ~dtd ~count:10 ~seed:(seed + 1000) () in
  let net, _, _ = run_plan ~seed ~strategy_name ~advs ~spec:Plan.default_spec ~during:docs ops in
  let read reg name =
    Option.fold ~none:(-1) ~some:int_of_float (Xroute_obs.Metrics.scalar reg name)
  in
  List.iter
    (fun (name, want) -> check ci name want (read (Net.metrics net) name))
    [
      ("xroute_fault_crashes_total", 2);
      ("xroute_fault_restarts_total", 2);
      ("xroute_fault_requeues_total", 77);
      ("xroute_fault_dup_deliveries_total", 7);
      ("xroute_fault_msgs_destroyed_total", 21);
      ("xroute_fault_pubs_destroyed_total", 19);
      ("xroute_fault_client_disconnects_total", 1);
      ("xroute_fault_client_reconnects_total", 1);
      ("xroute_fault_replayed_total", 8);
      ("xroute_fault_recovery_ms", 2);
      ("xroute_net_msgs_adv_total", 120);
      ("xroute_net_msgs_unadv_total", 32);
      ("xroute_net_msgs_sub_total", 34);
      ("xroute_net_msgs_unsub_total", 20);
      ("xroute_net_msgs_pub_total", 380);
      ("xroute_net_msgs_total", 586);
    ];
  let fields =
    [ "msgs_in"; "advs_in"; "subs_in"; "pubs_in"; "unsubs_in"; "pubs_dropped"; "deliveries" ]
  in
  List.iteri
    (fun b want ->
      let reg = Broker.metrics (Net.broker net b) in
      check (Alcotest.list ci)
        (Printf.sprintf "broker %d counts (%s)" b (String.concat " " fields))
        want
        (List.map (fun f -> read reg ("xroute_broker_" ^ f ^ "_total")) fields))
    [
      [ 71; 8; 4; 57; 2; 35; 0 ];
      [ 76; 16; 8; 47; 6; 0; 0 ];
      [ 63; 16; 4; 41; 2; 1; 0 ];
      [ 74; 16; 3; 45; 2; 0; 45 ];
      [ 37; 16; 3; 8; 2; 0; 8 ];
      [ 49; 16; 2; 22; 1; 0; 22 ];
      [ 73; 16; 2; 46; 1; 0; 46 ];
    ]

(* Deterministic core: crash the relay broker of a line, restart it,
   and the surviving subscription must keep delivering — through
   routing state that was rebuilt by the neighbors, not resurrected. *)
let test_crash_recovery_line () =
  let strategy = Option.get (Broker.strategy_of_name "with-Adv-with-Cov") in
  let config =
    { Net.default_config with Net.strategy; latency = Latency.constant 2.0 }
  in
  let net = Net.create ~config (Topology.line 3) in
  let publisher = Net.add_client net ~broker:0 in
  let s = Net.add_client net ~broker:2 in
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/x/y"));
  Net.run net;
  ignore (Net.subscribe net s (xp "/x"));
  Net.run net;
  let prt_before = Broker.prt_size (Net.broker net 1) in
  check Alcotest.bool "relay broker holds the subscription" true (prt_before > 0);
  Net.crash_broker net 1;
  check Alcotest.bool "broker 1 down" false (Net.broker_alive net 1);
  Net.restart_broker net 1;
  Net.run net;
  check Alcotest.bool "broker 1 back" true (Net.broker_alive net 1);
  check ci "relay PRT rebuilt" prt_before (Broker.prt_size (Net.broker net 1));
  ignore (Net.publish_doc net publisher ~doc_id:1 (Xroute_xml.Xml_parser.parse "<x><y/></x>"));
  Net.run net;
  check ci "delivered after recovery" 1 (Hashtbl.length s.Net.delivered);
  let fm = Net.fault_meters net in
  check ci "one crash" 1 (counter fm.crashes);
  check ci "one recovery episode" 1 (Xroute_obs.Metrics.observations fm.recovery_ms)

(* A subscription revoked while its client was disconnected must be
   reconciled away on reconnect (the broker never saw the
   unsubscribe). *)
let test_reconcile_after_reconnect () =
  let strategy = Option.get (Broker.strategy_of_name "with-Adv-with-Cov") in
  let config =
    { Net.default_config with Net.strategy; latency = Latency.constant 2.0 }
  in
  let net = Net.create ~config (Topology.line 2) in
  let publisher = Net.add_client net ~broker:0 in
  let s = Net.add_client net ~broker:1 in
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/x/y"));
  Net.run net;
  let sub = Net.subscribe net s (xp "/x") in
  Net.run net;
  Net.disconnect_client net s;
  Net.unsubscribe net s sub (* lost: the client is offline *);
  Net.run net;
  check Alcotest.bool "broker still holds the revoked sub" true
    (Broker.prt_size (Net.broker net 1) > 0);
  Net.reconnect_client net s;
  Net.run net;
  check ci "reconnect reconciled the revoked sub away" 0 (Broker.prt_size (Net.broker net 1));
  ignore (Net.publish_doc net publisher ~doc_id:9 (Xroute_xml.Xml_parser.parse "<x><y/></x>"));
  Net.run net;
  check ci "no delivery after revocation" 0 (Hashtbl.length s.Net.delivered)

(* The generator is a pure function of its seed. *)
let test_plan_determinism () =
  let gen seed =
    Plan.generate ~seed ~brokers:7
      ~edges:(Topology.edges (Topology.binary_tree ~levels:3))
      ~clients:[ 0; 1; 2 ] ()
  in
  check Alcotest.bool "same seed, same plan" true (gen 11 = gen 11);
  check Alcotest.bool "different seeds differ" true (gen 11 <> gen 12);
  let plan = gen 11 in
  let spec = Plan.default_spec in
  check ci "event count" (spec.crashes + spec.link_downs + spec.link_delays + spec.link_dups + spec.client_drops)
    (List.length plan.Plan.events)

let test_spec_parser () =
  (match Plan.spec_of_string "crashes=3,link-downs=0,mean-down=120" with
  | Ok spec ->
    check ci "crashes" 3 spec.Plan.crashes;
    check ci "link-downs" 0 spec.Plan.link_downs;
    check (Alcotest.float 0.001) "mean-down" 120.0 spec.Plan.mean_down_ms;
    check ci "defaults kept" Plan.default_spec.Plan.link_dups spec.Plan.link_dups
  | Error e -> Alcotest.failf "spec rejected: %s" e);
  (match Plan.spec_of_string "bogus=1" with
  | Ok _ -> Alcotest.fail "bogus key accepted"
  | Error _ -> ())

let () =
  Alcotest.run "fault"
    [
      ( "recovery",
        [
          Alcotest.test_case "crash recovery on a line" `Quick test_crash_recovery_line;
          Alcotest.test_case "reconnect reconciles revoked subs" `Quick
            test_reconcile_after_reconnect;
          Alcotest.test_case "plan determinism" `Quick test_plan_determinism;
          Alcotest.test_case "spec parser" `Quick test_spec_parser;
          Alcotest.test_case "convergence sweep (12 plans x 3 strategies)" `Quick
            test_convergence_sweep;
          Alcotest.test_case "registry holds the pinned counts" `Quick
            test_registry_counts_pinned;
        ] );
    ]
