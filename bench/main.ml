(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Sec. 5) plus the ablations DESIGN.md calls out, printing
   paper-shaped tables. See EXPERIMENTS.md for the experiment index and
   the measured-vs-paper discussion.

   Scaling: XROUTE_BENCH_SCALE (a float, default 1.0) multiplies the
   workload sizes; the defaults are chosen so the full run finishes in a
   few minutes on a laptop. The paper's original sizes correspond to
   roughly XROUTE_BENCH_SCALE=10 for the table-size experiments. *)

open Xroute_core
open Xroute_overlay
open Xroute_ref
module Metrics = Xroute_obs.Metrics

(* Rejected with exit 2 before anything runs unless it parses as a
   finite float > 0: [scaled] would turn nan or a negative into size-1
   workloads and a report nobody asked for. *)
let scale =
  match Sys.getenv_opt "XROUTE_BENCH_SCALE" with
  | None -> 1.0
  | Some s -> (
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0.0 -> f
    | _ ->
      Printf.eprintf "bad XROUTE_BENCH_SCALE %S (want a finite number > 0)\n" s;
      exit 2)

let scaled n = max 1 (int_of_float (float_of_int n *. scale))

(* ------------------------------------------------------------------ *)
(* Machine-readable report: BENCH_5.json                               *)
(* ------------------------------------------------------------------ *)
(* Every experiment records (name, fields); the runner adds wall time.
   The sink (schema xroute-bench/5, documented in EXPERIMENTS.md) is
   merged, not overwritten: a run replaces the records it produced,
   matched by name, and keeps every other record, so running one
   experiment cannot erase the others. Each record written carries the
   scale it ran at; the top-level scale is the one the file was
   created with. *)
module Report = struct
  module Json = Xroute_support.Json

  type value = F of float | I of int | B of bool

  let path = Option.value ~default:"BENCH_5.json" (Sys.getenv_opt "XROUTE_BENCH_JSON")
  let schema = "xroute-bench/5"
  let records : (string * (string * value) list) list ref = ref []

  (* Append fields to the experiment's record (merging by name; a
     re-recorded field replaces the old value rather than duplicating
     the JSON key). *)
  let record name fields =
    match List.assoc_opt name !records with
    | Some existing ->
      let kept =
        List.filter (fun (k, _) -> not (List.mem_assoc k fields)) existing
      in
      records := (name, kept @ fields) :: List.remove_assoc name !records
    | None -> records := (name, fields) :: !records

  (* Floats keep six significant digits, as the committed reports do. *)
  let json_of_value = function
    | F f when Float.is_finite f -> Json.Num (float_of_string (Printf.sprintf "%.6g" f))
    | F _ -> Json.Null
    | I i -> Json.Num (float_of_int i)
    | B b -> Json.Bool b

  (* The existing sink as (top-level scale, records), or None when there
     is none yet. A sink that does not parse as an xroute-bench/5 report
     exits 2 before any experiment runs, and the file is left as it
     is. *)
  let load () =
    if not (Sys.file_exists path) then None
    else
      let text = In_channel.with_open_bin path In_channel.input_all in
      let fail why =
        Printf.eprintf "%s: %s; not overwriting it\n" path why;
        exit 2
      in
      match Json.parse text with
      | Error e -> fail e
      | Ok j -> (
        match
          ( Option.bind (Json.member "schema" j) Json.to_str,
            Option.bind (Json.member "scale" j) Json.to_num,
            Option.bind (Json.member "experiments" j) Json.to_list )
        with
        | Some s, Some sc, Some l when s = schema -> Some (sc, l)
        | _ -> fail ("not an " ^ schema ^ " report"))

  (* Drop the existing records this run produced, keep the rest, append
     the new ones. *)
  let write existing =
    let fresh =
      List.rev_map
        (fun (name, fields) ->
          ( name,
            Json.Obj
              (("name", Json.Str name)
              :: ("scale", Json.Num scale)
              :: List.map (fun (k, v) -> (k, json_of_value v)) fields) ))
        !records
    in
    let top_scale, old = Option.value ~default:(scale, []) existing in
    let kept =
      List.filter
        (fun r ->
          match Option.bind (Json.member "name" r) Json.to_str with
          | Some n -> not (List.mem_assoc n fresh)
          | None -> true)
        old
    in
    let experiments = kept @ List.map snd fresh in
    let report =
      Json.Obj
        [
          ("schema", Json.Str schema);
          ("scale", Json.Num top_scale);
          ("experiments", Json.Arr experiments);
        ]
    in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Json.to_string report);
        output_char oc '\n');
    Printf.printf "\nwrote %s (%d records, %d from this run)\n%!" path
      (List.length experiments) (List.length fresh)
end

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let time_it f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let nitf = Lazy.force Xroute_dtd.Dtd_samples.nitf
let psd = Lazy.force Xroute_dtd.Dtd_samples.psd
let nitf_graph = Xroute_dtd.Dtd_graph.build nitf
let psd_graph = Xroute_dtd.Dtd_graph.build psd
let nitf_advs = Xroute_dtd.Dtd_paths.advertisements nitf_graph
let psd_advs = Xroute_dtd.Dtd_paths.advertisements psd_graph

let tree_of_xpes ?covers xpes =
  let tree : int Sub_tree.t = Sub_tree.create ?covers () in
  List.iteri (fun i x -> ignore (Sub_tree.insert tree x i)) xpes;
  tree

(* ------------------------------------------------------------------ *)
(* Fault recovery: seeded outage plan, convergence after healing       *)
(* ------------------------------------------------------------------ *)

(* Set by --seed / --fault-plan (parsed in the entry point); the
   defaults match the convergence suite in test/test_fault.ml. *)
let fault_seed = ref 3
let fault_spec = ref Xroute_fault.Plan.default_spec

(* Crash brokers, break links, and drop clients on a seeded schedule
   while publications stream through the tree; once the plan heals, a
   post-heal publication batch must reach exactly the subscribers it
   reaches on an identical network that never saw a fault. *)
let fault_recovery () =
  let module Plan = Xroute_fault.Plan in
  let spec = !fault_spec and seed = !fault_seed in
  section
    (Printf.sprintf
       "Fault recovery - seeded fault plan on the 7-broker tree (seed %d)\n\
        (brokers crash and restart empty, links fail with requeue+backoff,\n\
        clients reconnect and replay their ledgers; post-heal deliveries\n\
        must match a fault-free control run)"
       seed);
  let levels = 3 in
  let topo = Topology.binary_tree ~levels in
  let subs_per_client = scaled 40 in
  let strategy = Option.get (Broker.strategy_of_name "with-Adv-with-Cov") in
  (* Deterministic in [seed]: the faulted run and the control run build
     byte-identical advertisement/subscription state. *)
  let build () =
    let config =
      { Net.default_config with Net.strategy; seed; latency = Latency.constant 2.0 }
    in
    let net = Net.create ~config topo in
    let publisher = Net.add_client net ~broker:0 in
    let leaves = Topology.binary_tree_leaves ~levels in
    let subs = List.map (fun b -> Net.add_client net ~broker:b) leaves in
    ignore (Net.advertise_dtd net publisher psd_advs);
    Net.run net;
    let prng = Xroute_support.Prng.create (seed + 99) in
    let params = Xroute_workload.Xpath_gen.default_params psd in
    List.iter
      (fun c ->
        let xpes =
          Xroute_workload.Xpath_gen.generate ~distinct:false params
            (Xroute_support.Prng.split prng) ~count:subs_per_client
        in
        List.iter (fun x -> ignore (Net.subscribe net c x)) xpes)
      subs;
    Net.run net;
    (net, publisher, subs)
  in
  let docs_during = Xroute_workload.Workload.documents ~dtd:psd ~count:(scaled 30) ~seed:61 () in
  let docs_after = Xroute_workload.Workload.documents ~dtd:psd ~count:(scaled 20) ~seed:62 () in
  (* Faulted run: publications spread across the fault horizon, then a
     post-heal batch once every fault window has closed. *)
  let net, publisher, subs = build () in
  let cids = List.map (fun c -> c.Net.cid) (publisher :: subs) in
  let plan =
    Plan.generate ~seed ~brokers:(Topology.broker_count topo)
      ~edges:(Topology.edges topo) ~clients:cids ~spec ()
  in
  let n_during = List.length docs_during in
  List.iteri
    (fun i d ->
      let at = plan.Plan.horizon *. float_of_int (i + 1) /. float_of_int (n_during + 1) in
      Sim.schedule (Net.sim net) ~delay:at (fun () ->
          ignore (Net.publish_doc net publisher ~doc_id:i d)))
    docs_during;
  Net.install_plan net plan;
  let (), wall_faulted = time_it (fun () -> Net.run net) in
  List.iteri
    (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:(10_000 + i) d))
    docs_after;
  Net.run net;
  let post_heal c =
    Hashtbl.fold
      (fun doc_id _ acc -> if doc_id >= 10_000 then doc_id :: acc else acc)
      c.Net.delivered []
    |> List.sort compare
  in
  let faulted_deliveries = List.map post_heal subs in
  (* Control: same seed, same subscriptions, no faults, only the
     post-heal batch. *)
  let control_net, control_pub, control_subs = build () in
  List.iteri
    (fun i d -> ignore (Net.publish_doc control_net control_pub ~doc_id:(10_000 + i) d))
    docs_after;
  Net.run control_net;
  let convergent = faulted_deliveries = List.map post_heal control_subs in
  let fm = Net.fault_meters net in
  let v = Metrics.value in
  let recovery = Metrics.summary fm.recovery_ms in
  let post_heal_total =
    List.fold_left (fun acc l -> acc + List.length l) 0 faulted_deliveries
  in
  Printf.printf
    "plan: %d events over %.0f ms virtual (%d crashes, %d link-downs, %d delays, %d dups, %d client-drops requested)\n"
    (List.length plan.Plan.events) plan.Plan.horizon spec.Plan.crashes
    spec.Plan.link_downs spec.Plan.link_delays spec.Plan.link_dups spec.Plan.client_drops;
  Printf.printf
    "faults:   %d crashes, %d restarts, %d requeued sends, %d duplicated deliveries\n"
    (v fm.crashes) (v fm.restarts) (v fm.requeues) (v fm.dups);
  Printf.printf
    "losses:   %d messages destroyed at dead brokers (%d publications dropped end-to-end)\n"
    (v fm.destroyed) (Net.dropped_publications net);
  Printf.printf
    "recovery: %d episodes, mean %.1f ms, max %.1f ms virtual; %d ledger entries replayed\n"
    recovery.count recovery.mean recovery.max (v fm.replayed);
  Printf.printf "post-heal: %d deliveries, %s the fault-free control\n%!" post_heal_total
    (if convergent then "identical to" else "DIVERGED from");
  Report.record "fault-recovery"
    [
      ("seed", Report.I seed);
      ("plan_events", Report.I (List.length plan.Plan.events));
      ("horizon_ms", Report.F plan.Plan.horizon);
      ("crashes", Report.I (v fm.crashes));
      ("restarts", Report.I (v fm.restarts));
      ("requeues", Report.I (v fm.requeues));
      ("dup_deliveries", Report.I (v fm.dups));
      ("destroyed", Report.I (v fm.destroyed));
      ("destroyed_pubs", Report.I (v fm.pubs_destroyed));
      ("dropped_publications", Report.I (Net.dropped_publications net));
      ("client_disconnects", Report.I (v fm.disconnects));
      ("client_reconnects", Report.I (v fm.reconnects));
      ("replayed", Report.I (v fm.replayed));
      ("recovery_episodes", Report.I recovery.count);
      ("recovery_ms_mean", Report.F recovery.mean);
      ("recovery_ms_max", Report.F recovery.max);
      ("post_heal_deliveries", Report.I post_heal_total);
      ("convergent", Report.B convergent);
      ("faulted_wall_ms", Report.F (wall_faulted *. 1000.0));
    ];
  if not convergent then begin
    Printf.printf "ERROR: post-heal deliveries diverged from the fault-free control\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Figure 6: routing table size vs number of XPEs (Sets A and B)       *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section
    "Figure 6 - Routing table size vs #XPath queries (NITF)\n\
     (paper: covering compacts Set A by ~90% and Set B by ~50%;\n\
     without covering the table grows linearly)";
  let max_count = scaled 10_000 in
  let steps = List.init 5 (fun i -> max_count * (i + 1) / 5) in
  Printf.printf "%10s %14s %18s %18s\n" "#queries" "no covering" "Set A covering" "Set B covering";
  List.iter
    (fun count ->
      let set_a =
        Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params nitf)
          ~count ~seed:11 ()
      in
      let set_b =
        Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_b_params nitf)
          ~count ~seed:12 ()
      in
      let rts_a = List.length (Sub_tree.maximal (tree_of_xpes set_a)) in
      let rts_b = List.length (Sub_tree.maximal (tree_of_xpes set_b)) in
      if count = max_count then
        Report.record "fig6"
          [
            ("xpes", Report.I count);
            ("prt_size_no_cover", Report.I count);
            ("prt_size_set_a_cover", Report.I rts_a);
            ("prt_size_set_b_cover", Report.I rts_b);
          ];
      (* without covering the routing table holds every distinct XPE *)
      Printf.printf "%10d %14d %11d (-%2.0f%%) %11d (-%2.0f%%)\n%!" count count rts_a
        (100.0 *. float_of_int (count - rts_a) /. float_of_int (max 1 count))
        rts_b
        (100.0 *. float_of_int (List.length set_b - rts_b)
        /. float_of_int (max 1 (List.length set_b))))
    steps

(* ------------------------------------------------------------------ *)
(* Figure 7: covering vs perfect vs imperfect merging (Set B)          *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section
    "Figure 7 - Routing table size: covering vs merging (Set B, NITF)\n\
     (paper: perfect merging compacts the covered table to ~87%, \n\
     imperfect merging with D<=0.1 to ~67%)";
  let universe =
    Xroute_dtd.Dtd_paths.sample_paths ~count:30_000 ~max_depth:10
      (Xroute_support.Prng.create 99) nitf_graph
    |> List.sort_uniq Stdlib.compare
  in
  let max_count = scaled 10_000 in
  let steps = List.init 4 (fun i -> max_count * (i + 1) / 4) in
  Printf.printf "%10s %10s %16s %18s\n" "#queries" "covering" "perfect merging" "imperfect (D<=0.1)";
  List.iter
    (fun count ->
      let xpes =
        Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_b_params nitf)
          ~count ~seed:12 ()
      in
      let maximal = List.map Sub_tree.node_xpe (Sub_tree.maximal (tree_of_xpes xpes)) in
      let rts_cov = List.length maximal in
      let merged_size max_degree =
        let applied, kept = Merge.merge_set ~max_degree ~universe maximal in
        List.length applied + List.length kept
      in
      let rts_pm = merged_size 0.0 in
      let rts_ipm = merged_size 0.1 in
      Printf.printf "%10d %10d %10d (%3.0f%%) %10d (%3.0f%%)\n%!" (List.length xpes) rts_cov
        rts_pm
        (100.0 *. float_of_int rts_pm /. float_of_int (max 1 rts_cov))
        rts_ipm
        (100.0 *. float_of_int rts_ipm /. float_of_int (max 1 rts_cov)))
    steps

(* ------------------------------------------------------------------ *)
(* Figure 8: XPE processing time with/without covering                 *)
(* ------------------------------------------------------------------ *)

(* Processing an arriving XPE: with covering, check the tree first and
   only match uncovered XPEs against the advertisements; without, match
   every XPE against every advertisement. *)
let fig8 () =
  section
    "Figure 8 - XPE processing time, NITF vs PSD, covering on/off\n\
     (paper: covering improves NITF processing by up to 49.2%; NITF\n\
     benefits more because its advertisement set is far larger)";
  let total = scaled 5000 in
  let batch = max 1 (total / 10) in
  let process dtd_name advs params =
    let xpes =
      Xroute_workload.Workload.xpes ~params ~count:total ~seed:21 ()
    in
    (* without covering *)
    let (), t_nocov =
      time_it (fun () ->
          List.iter
            (fun xpe ->
              List.iter (fun adv -> ignore (Paper_match.overlaps_paper xpe adv)) advs)
            xpes)
    in
    (* with covering *)
    let tree : int Sub_tree.t = Sub_tree.create () in
    let covered = ref 0 in
    let (), t_cov =
      time_it (fun () ->
          List.iteri
            (fun i xpe ->
              if Sub_tree.is_covered tree xpe then incr covered
              else
                List.iter (fun adv -> ignore (Paper_match.overlaps_paper xpe adv)) advs;
              ignore (Sub_tree.insert tree xpe i))
            xpes)
    in
    Printf.printf
      "%-5s (%4d advs): no-cov %7.1f ms  with-cov %7.1f ms  (%4.1f%% faster; %2.0f%% covered)\n%!"
      dtd_name (List.length advs) (t_nocov *. 1000.0) (t_cov *. 1000.0)
      (100.0 *. (t_nocov -. t_cov) /. t_nocov)
      (100.0 *. float_of_int !covered /. float_of_int (List.length xpes));
    ignore batch
  in
  process "NITF" nitf_advs (Xroute_workload.Workload.set_a_params nitf);
  process "PSD" psd_advs (Xroute_workload.Workload.set_a_params psd)

(* ------------------------------------------------------------------ *)
(* Table 1: publication routing time                                   *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section
    "Table 1 - Publication routing time per message (NITF, Sets A/B)\n\
     (paper: covering cuts Set A from 13.96 to 2.15 ms (-84.6%) and\n\
     Set B from 14.23 to 7.47 ms (-47.5%); merging improves it further)";
  let count = scaled 10_000 in
  let docs = Xroute_workload.Workload.documents ~dtd:nitf ~count:(scaled 100) ~seed:31 () in
  let pubs = Xroute_workload.Workload.publications_of_documents docs in
  let n_pubs = List.length pubs in
  let universe =
    Xroute_dtd.Dtd_paths.sample_paths ~count:30_000 ~max_depth:10
      (Xroute_support.Prng.create 99) nitf_graph
    |> List.sort_uniq Stdlib.compare
  in
  Printf.printf "%-20s %14s %14s   (%d XPEs, %d publications)\n" "Method" "Set A (ms)"
    "Set B (ms)" count n_pubs;
  let route_time tree =
    let (), t =
      time_it (fun () ->
          List.iter
            (fun (p : Xroute_xml.Xml_paths.publication) ->
              ignore (Tree_match.match_path tree p.steps p.attrs))
            pubs)
    in
    t *. 1000.0 /. float_of_int n_pubs
  in
  let per_set params seed =
    let xpes = Xroute_workload.Workload.xpes ~params ~count ~seed () in
    let flat = let t : int Sub_tree.t = Sub_tree.create ~flat:true () in List.iteri (fun i x -> ignore (Sub_tree.insert t x i)) xpes; t in
    let covered = tree_of_xpes xpes in
    let maximal = List.map Sub_tree.node_xpe (Sub_tree.maximal covered) in
    let merged_tree max_degree =
      let applied, kept = Merge.merge_set ~max_degree ~universe maximal in
      tree_of_xpes (List.map (fun m -> m.Merge.xpe) applied @ kept)
    in
    let t_none = route_time flat in
    let t_cov = route_time covered in
    let t_pm = route_time (merged_tree 0.0) in
    let t_ipm = route_time (merged_tree 0.1) in
    (t_none, t_cov, t_pm, t_ipm)
  in
  let a = per_set (Xroute_workload.Workload.set_a_params nitf) 11 in
  let b = per_set (Xroute_workload.Workload.set_b_params nitf) 12 in
  let row name fa fb = Printf.printf "%-20s %14.4f %14.4f\n%!" name fa fb in
  let a1, a2, a3, a4 = a and b1, b2, b3, b4 = b in
  row "No Covering" a1 b1;
  row "Covering" a2 b2;
  row "Perfect Merging" a3 b3;
  row "Imperfect Merging" a4 b4;
  Printf.printf "Set A covering speedup: %.1f%%  (paper: 84.6%%)\n"
    (100.0 *. (a1 -. a2) /. a1);
  Printf.printf "Set B covering speedup: %.1f%%  (paper: 47.5%%)\n%!"
    (100.0 *. (b1 -. b2) /. b1)

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3: network traffic and delay, 7 and 127 brokers        *)
(* ------------------------------------------------------------------ *)

let run_network ~levels ~subs_per_client ~doc_count strategy_name =
  let strategy = Option.get (Broker.strategy_of_name strategy_name) in
  let topo = Topology.binary_tree ~levels in
  let config = { Net.default_config with Net.strategy; latency = Latency.cluster } in
  let net = Net.create ~config topo in
  let prng = Xroute_support.Prng.create 404 in
  let publisher = Net.add_client net ~broker:0 in
  let leaves = Topology.binary_tree_leaves ~levels in
  let clients = List.map (fun b -> Net.add_client net ~broker:b) leaves in
  ignore (Net.advertise_dtd net publisher psd_advs);
  Net.run net;
  let params = Xroute_workload.Xpath_gen.default_params psd in
  List.iter
    (fun c ->
      let xpes =
        Xroute_workload.Xpath_gen.generate ~distinct:false params
          (Xroute_support.Prng.split prng) ~count:subs_per_client
      in
      List.iter (fun x -> ignore (Net.subscribe net c x)) xpes)
    clients;
  Net.run net;
  (match strategy.Broker.merging with
  | Broker.No_merging -> ()
  | _ ->
    Net.set_universe net
      (Xroute_dtd.Dtd_paths.enumerate_paths ~max_depth:10 ~max_count:3000 psd_graph);
    Net.merge_all net);
  let docs = Xroute_workload.Workload.documents ~dtd:psd ~count:doc_count ~seed:51 () in
  let t_pub_start = Sim.now (Net.sim net) in
  List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
  Net.run net;
  ignore t_pub_start;
  (* Report from the metrics registry — the same surface a daemon
     exposes over STATS|. *)
  let reg = Net.aggregate_metrics net in
  let scalar name = Option.value ~default:0.0 (Metrics.scalar reg name) in
  let delay =
    match Metrics.find reg "xroute_net_delivery_delay_ms" with
    | Some (Metrics.Histogram h) -> (Metrics.summary h).Xroute_support.Stats.mean
    | _ -> 0.0
  in
  ( int_of_float (scalar "xroute_net_msgs_total"),
    delay,
    int_of_float (scalar "xroute_net_deliveries_total") )

let network_table ~levels ~subs_per_client ~doc_count title paper_hint =
  section (title ^ "\n" ^ paper_hint);
  Printf.printf "%-24s %16s %12s %12s\n" "Method" "Network Traffic" "Delay (ms)" "Deliveries";
  let base = ref 0 in
  List.iter
    (fun name ->
      let traffic, delay, deliveries =
        run_network ~levels ~subs_per_client ~doc_count name
      in
      if !base = 0 then base := traffic;
      Printf.printf "%-24s %16d %12.3f %12d   (%.1f%% of baseline)\n%!" name traffic delay
        deliveries
        (100.0 *. float_of_int traffic /. float_of_int !base))
    Broker.strategy_names

let table2 () =
  network_table ~levels:3 ~subs_per_client:(scaled 1000) ~doc_count:(scaled 50)
    "Table 2 - 7-broker network (PSD, 1000 XPEs per subscriber, 50 docs)"
    "(paper: adv+cov reduce traffic to ~66%; covering cuts delay ~4x;\n merging compacts further at slight traffic increase for IPM)"

let table3 () =
  (* The paper uses 1000 XPEs per subscriber; the flooding baselines make
     that a long run (every subscription crosses all 126 links and every
     publication is matched against every broker's full table), so the
     default is scaled down; XROUTE_BENCH_SCALE=10 restores paper size. *)
  network_table ~levels:7
    ~subs_per_client:(scaled 100)
    ~doc_count:(scaled 20)
    "Table 3 - 127-broker network (PSD, 100 XPEs per subscriber, 20 docs)"
    "(paper: adv+cov reduce traffic to ~50%; benefits grow with size)"

(* ------------------------------------------------------------------ *)
(* Figure 9: false positives vs imperfect degree                       *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  section
    "Figure 9 - False positives vs imperfect merging degree (PSD)\n\
     (paper: false positives grow with the degree bound; D <= 0.1 keeps\n\
     them under ~2%)";
  (* Subscribers are interested in most-but-not-all children of each
     container element: the canonical situation where merging a sibling
     group to a wildcard overshoots by exactly the missing siblings.
     False positives are the *extra* in-network drops relative to a
     no-merging control (publications for which no subscriber exists at
     all are dropped at the publisher's edge in every strategy and do
     not count). *)
  let paths = Xroute_dtd.Dtd_paths.enumerate_paths ~max_depth:10 ~max_count:3000 psd_graph in
  let groups : (string, string array list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun path ->
      let n = Array.length path in
      if n >= 2 then begin
        let prefix = String.concat "/" (Array.to_list (Array.sub path 0 (n - 1))) in
        let existing = Option.value ~default:[] (Hashtbl.find_opt groups prefix) in
        Hashtbl.replace groups prefix (path :: existing)
      end)
    paths;
  let run merging =
    let strategy = { Broker.default_strategy with Broker.merging } in
    let topo = Topology.binary_tree ~levels:3 in
    let net = Net.create ~config:{ Net.default_config with Net.strategy } topo in
    let prng = Xroute_support.Prng.create 640 in
    let publisher = Net.add_client net ~broker:0 in
    let leaves = Topology.binary_tree_leaves ~levels:3 in
    let clients = List.map (fun b -> Net.add_client net ~broker:b) leaves in
    ignore (Net.advertise_dtd net publisher psd_advs);
    Net.run net;
    List.iter
      (fun c ->
        Hashtbl.iter
          (fun _prefix members ->
            if List.length members >= 3 then begin
              let members = Xroute_support.Prng.shuffle prng (Array.of_list members) in
              let drop = 1 + Xroute_support.Prng.int prng (Array.length members / 3 + 1) in
              Array.iteri
                (fun i path ->
                  if i >= drop then
                    ignore
                      (Net.subscribe net c
                         (Xroute_xpath.Xpe.absolute_of_names (Array.to_list path))))
                members
            end)
          groups)
      clients;
    Net.run net;
    Net.set_universe net paths;
    Net.merge_all net;
    let docs = Xroute_workload.Workload.documents ~dtd:psd ~count:(scaled 40) ~seed:61 () in
    List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
    Net.run net;
    ( int_of_float (Option.get (Metrics.scalar (Net.metrics net) "xroute_net_msgs_pub_total")),
      Net.dropped_publications net,
      Net.total_deliveries net )
  in
  let base_pubs, base_dropped, base_deliveries = run Broker.No_merging in
  Printf.printf "(control without merging: %d pub messages, %d edge drops)\n" base_pubs
    base_dropped;
  Printf.printf "%10s %18s %16s\n" "Degree" "pub messages" "false pos (%)";
  List.iter
    (fun degree ->
      let merging = if degree = 0.0 then Broker.Perfect else Broker.Imperfect degree in
      let pubs, dropped, deliveries = run merging in
      if deliveries <> base_deliveries then
        Printf.printf "WARNING: deliveries changed (%d vs %d)\n" deliveries base_deliveries;
      Printf.printf "%10.2f %18d %15.2f%%\n%!" degree pubs
        (100.0 *. float_of_int (max 0 (dropped - base_dropped)) /. float_of_int (max 1 pubs)))
    [ 0.0; 0.05; 0.1; 0.15; 0.2 ]

(* ------------------------------------------------------------------ *)
(* Figures 10 and 11: notification delay vs hops (PlanetLab model)     *)
(* ------------------------------------------------------------------ *)

let delay_vs_hops ~dtd ~advs ~doc_sizes title paper_hint =
  section (title ^ "\n" ^ paper_hint);
  let hops = [ 2; 3; 4; 5; 6 ] in
  Printf.printf "%8s" "size";
  List.iter (fun h -> Printf.printf "  %8s" (Printf.sprintf "%d hops" h)) hops;
  Printf.printf "\n";
  let subs_per_client = scaled 400 in
  List.iter
    (fun target_bytes ->
      let run_with use_cover =
        let strategy = { Broker.default_strategy with Broker.use_cover } in
        let config =
          { Net.default_config with Net.strategy; latency = Latency.planetlab; seed = 7 }
        in
        let topo = Topology.line 7 in
        let net = Net.create ~config topo in
        let publisher = Net.add_client net ~broker:0 in
        let subscribers = List.map (fun h -> (h, Net.add_client net ~broker:h)) hops in
        ignore (Net.advertise_dtd net publisher advs);
        Net.run net;
        let prng = Xroute_support.Prng.create 777 in
        let params = Xroute_workload.Workload.set_a_params dtd in
        List.iter
          (fun (_, c) ->
            List.iter
              (fun x -> ignore (Net.subscribe net c x))
              (Xroute_workload.Xpath_gen.generate ~distinct:false params
                 (Xroute_support.Prng.split prng) ~count:subs_per_client);
            (* one catch-all marker so every document is delivered *)
            ignore
              (Net.subscribe net c
                 (Xroute_xpath.Xpe_parser.parse ("/" ^ Xroute_dtd.Dtd_ast.root dtd))))
          subscribers;
        Net.run net;
        let gen_prng = Xroute_support.Prng.create 888 in
        let gparams = Xroute_workload.Xml_gen.default_params dtd in
        for doc_id = 0 to scaled 10 - 1 do
          let doc = Xroute_workload.Xml_gen.generate_sized gparams gen_prng ~target_bytes in
          ignore (Net.publish_doc net publisher ~doc_id doc)
        done;
        Net.run net;
        let delays = Net.delivery_delays net in
        List.map
          (fun (h, c) ->
            let ds =
              List.filter_map
                (fun (cid, _, d) -> if cid = c.Net.cid then Some d else None)
                delays
            in
            ( h,
              if ds = [] then nan
              else List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds) ))
          subscribers
      in
      let with_cov = run_with true in
      let without_cov = run_with false in
      Printf.printf "%5dK +cov" (target_bytes / 1024);
      List.iter (fun h -> Printf.printf "  %8.2f" (List.assoc h with_cov)) hops;
      Printf.printf "\n%5dK -cov" (target_bytes / 1024);
      List.iter (fun h -> Printf.printf "  %8.2f" (List.assoc h without_cov)) hops;
      Printf.printf "\n%!")
    doc_sizes

let fig10 () =
  delay_vs_hops ~dtd:psd ~advs:psd_advs
    ~doc_sizes:[ 2048; 10240; 20480 ]
    "Figure 10 - Notification delay vs hops, PSD documents (PlanetLab model)"
    "(paper: delay linear in hops; covering cuts it by up to 74%;\n larger documents take longer)"

let fig11 () =
  delay_vs_hops ~dtd:nitf ~advs:nitf_advs
    ~doc_sizes:[ 2048; 20480; 40960 ]
    "Figure 11 - Notification delay vs hops, NITF documents (PlanetLab model)"
    "(paper: same shape as Fig. 10 with larger documents and tables)"

(* ------------------------------------------------------------------ *)
(* Latency breakdown: per-stage percentiles from the causal spans      *)
(* ------------------------------------------------------------------ *)

(* The causal-span layer (lib/obs/span) decomposes every delivery into
   stage leaves — queue wait, SRT/PRT match, cover check, per-message
   processing, transmit, link, FIFO queueing, delivery. This experiment
   publishes a seeded workload down a 7-broker line under three
   strategies and reports p50/p95/p99 per stage: the view *behind* the
   aggregate delay numbers of Figures 10-11, showing covering cutting
   the match stages while the wire stages stay strategy-invariant.
   Virtual time, so every reported value is deterministic in the
   seeds. *)
let latency_breakdown () =
  section
    "Latency breakdown - per-stage p50/p95/p99 from causal spans\n\
     (7-broker line, PSD; stage leaves of the span trees the TRACE|\n\
     command exposes; no-optimization vs covering vs perfect merging)";
  let stages =
    [ "queue"; "srt_match"; "prt_match"; "cover"; "proc"; "transmit"; "link"; "deliver" ]
  in
  let run strategy_name =
    let strategy = Option.get (Broker.strategy_of_name strategy_name) in
    let spans = Xroute_obs.Span.create ~capacity:262_144 () in
    let config =
      { Net.default_config with Net.strategy; latency = Latency.planetlab; seed = 7 }
    in
    let net = Net.create ~config ~spans (Topology.line 7) in
    let publisher = Net.add_client net ~broker:0 in
    let subscriber = Net.add_client net ~broker:6 in
    ignore (Net.advertise_dtd net publisher psd_advs);
    Net.run net;
    let prng = Xroute_support.Prng.create 777 in
    let params = Xroute_workload.Workload.set_a_params psd in
    List.iter
      (fun x -> ignore (Net.subscribe net subscriber x))
      (Xroute_workload.Xpath_gen.generate ~distinct:false params
         (Xroute_support.Prng.split prng) ~count:(scaled 200));
    (* catch-all so every document is delivered end-to-end *)
    ignore
      (Net.subscribe net subscriber
         (Xroute_xpath.Xpe_parser.parse ("/" ^ Xroute_dtd.Dtd_ast.root psd)));
    Net.run net;
    (match strategy.Broker.merging with
    | Broker.No_merging -> ()
    | _ ->
      Net.set_universe net
        (Xroute_dtd.Dtd_paths.enumerate_paths ~max_depth:10 ~max_count:3000 psd_graph);
      Net.merge_all net);
    let docs = Xroute_workload.Workload.documents ~dtd:psd ~count:(scaled 20) ~seed:51 () in
    List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
    Net.run net;
    let all = Xroute_obs.Span.to_list spans in
    let durations name =
      List.filter_map
        (fun (s : Xroute_obs.Span.span) ->
          if s.Xroute_obs.Span.name = name then Some (Xroute_obs.Span.duration s) else None)
        all
      |> Array.of_list
    in
    ( List.map (fun st -> (st, Xroute_support.Stats.summarize (durations st))) stages,
      Xroute_support.Stats.summarize (durations "pub") )
  in
  List.iter
    (fun strategy_name ->
      let per_stage, e2e = run strategy_name in
      Printf.printf "\n%s  (end-to-end: n=%d  p50 %.3f  p95 %.3f  p99 %.3f ms)\n" strategy_name
        e2e.Xroute_support.Stats.count e2e.Xroute_support.Stats.p50
        e2e.Xroute_support.Stats.p95 e2e.Xroute_support.Stats.p99;
      Printf.printf "%-12s %8s %10s %10s %10s\n" "stage" "n" "p50 (ms)" "p95 (ms)" "p99 (ms)";
      List.iter
        (fun (st, (s : Xroute_support.Stats.summary)) ->
          Printf.printf "%-12s %8d %10.4f %10.4f %10.4f\n%!" st s.count s.p50 s.p95 s.p99)
        per_stage;
      Report.record
        ("latency-breakdown-" ^ strategy_name)
        (List.concat_map
           (fun (st, (s : Xroute_support.Stats.summary)) ->
             [
               (st ^ "_n", Report.I s.count);
               (st ^ "_p50_ms", Report.F s.p50);
               (st ^ "_p95_ms", Report.F s.p95);
               (st ^ "_p99_ms", Report.F s.p99);
             ])
           (("e2e", e2e) :: per_stage)))
    [ "no-Adv-no-Cov"; "with-Adv-with-Cov"; "with-Adv-with-CovPM" ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_exact_cover () =
  section
    "Ablation - paper covering rules vs exact automata containment\n\
     (completeness buys extra table compaction at a CPU price)";
  let count = scaled 4000 in
  let xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_b_params nitf) ~count
      ~seed:71 ()
  in
  let run name covers =
    let (tree : int Sub_tree.t), t =
      time_it (fun () ->
          let tree = Sub_tree.create ~covers () in
          List.iteri (fun i x -> ignore (Sub_tree.insert tree x i)) xpes;
          tree)
    in
    Printf.printf "%-14s table=%6d  build time=%8.1f ms\n%!" name
      (List.length (Sub_tree.maximal tree))
      (t *. 1000.0)
  in
  run "paper rules" (fun a b -> Cover.covers a b);
  run "exact" Exact_cover.covers_exact

let ablation_yfilter () =
  section
    "Ablation - covering tree vs YFilter-style shared NFA (matching)\n\
     (the paper's table organization vs the classic NFA filter; Sec. 6\n\
     discussion. Build cost, table size and per-path match time, median\n\
     (min-max) over 5 runs; the NFA over three orders of the same paths)";
  let count = scaled 10_000 in
  let xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params nitf) ~count
      ~seed:11 ()
  in
  let docs = Xroute_workload.Workload.documents ~dtd:nitf ~count:(scaled 60) ~seed:35 () in
  let pubs = Array.of_list (Xroute_workload.Workload.publications_of_documents docs) in
  let n_pubs = Array.length pubs in
  let runs = 5 in
  (* ns per path of [runs] passes of [f] over [order]: (median, min, max) *)
  let ns_per_path f order =
    let samples =
      Array.init runs (fun _ ->
          let (), t = time_it (fun () -> Array.iter f order) in
          t *. 1e9 /. float_of_int n_pubs)
    in
    Array.sort compare samples;
    (samples.(runs / 2), samples.(0), samples.(runs - 1))
  in
  let show name (med, lo, hi) extra =
    Printf.printf "%-26s match %8.0f ns/path (%.0f-%.0f)%s\n%!" name med lo hi extra
  in
  (* covering tree *)
  let tree, t_tree_build = time_it (fun () -> tree_of_xpes xpes) in
  let tree_ns =
    ns_per_path
      (fun (p : Xroute_xml.Xml_paths.publication) ->
        ignore (Tree_match.match_path tree p.steps p.attrs))
      pubs
  in
  Printf.printf "covering tree: build %.1f ms, %d nodes\n" (t_tree_build *. 1000.)
    (Sub_tree.size tree);
  show "covering tree" tree_ns "";
  (* yfilter *)
  let yf, t_yf_build =
    time_it (fun () ->
        let yf : int Yfilter.t = Yfilter.create () in
        List.iteri (fun i x -> Yfilter.insert yf x i) xpes;
        yf)
  in
  Printf.printf "yfilter: build %.1f ms, %d NFA states (%d paths, %d XPEs)\n%!"
    (t_yf_build *. 1000.) (Yfilter.state_count yf) n_pubs count;
  let match_one (p : Xroute_xml.Xml_paths.publication) =
    ignore (Yfilter.match_syms yf p.syms p.attrs)
  in
  (* A call over the empty path leaves a log no path can resume from:
     the no-resume baseline, at the price of one near-empty call. *)
  let match_from_root p =
    ignore (Yfilter.match_syms yf [||] [||]);
    match_one p
  in
  let shuffled = Xroute_support.Prng.shuffle (Xroute_support.Prng.create 36) pubs in
  let measure name f order =
    let ops0 = Yfilter.match_ops yf and res0 = Yfilter.resumed_ops yf in
    let ns = ns_per_path f order in
    let frac =
      float_of_int (Yfilter.resumed_ops yf - res0)
      /. float_of_int (max 1 (Yfilter.match_ops yf - ops0))
    in
    show name ns (Printf.sprintf "  resumed %4.1f%% of match_ops" (100. *. frac));
    (ns, frac)
  in
  let (doc_ns, _, _), doc_frac = measure "yfilter, document order" match_one pubs in
  let (shuf_ns, _, _), shuf_frac = measure "yfilter, shuffled" match_one shuffled in
  let (root_ns, _, _), _ = measure "yfilter, from the root" match_from_root pubs in
  let med (m, _, _) = m in
  Report.record "ablation-yfilter"
    [
      ("paths", Report.I n_pubs);
      ("tree_ns_per_path", Report.F (med tree_ns));
      ("yfilter_doc_order_ns_per_path", Report.F doc_ns);
      ("yfilter_shuffled_ns_per_path", Report.F shuf_ns);
      ("yfilter_from_root_ns_per_path", Report.F root_ns);
      ("yfilter_doc_order_resumed_frac", Report.F doc_frac);
      ("yfilter_shuffled_resumed_frac", Report.F shuf_frac);
    ]

(* The SRT's overlap test: the paper's Abs/Rel/Des tests with bounded
   unrolling of recursive groups, against the compiled position
   automaton, on the NITF advertisements split by recursion. *)
let ablation_srt () =
  section
    "Ablation - SRT overlap: paper tests vs compiled advertisements\n\
     (the paper unrolls (...)+ groups per test, Sec. 3.3; the compiled\n\
     form is one bit-parallel pass over the XPE's steps. ns per overlap\n\
     test, median (min-max) over 5 runs, NITF Set-A XPEs)";
  let xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params nitf)
      ~count:(scaled 200) ~seed:17 ()
  in
  let recursive, flat = List.partition Xroute_xpath.Adv.is_recursive nitf_advs in
  let runs = 5 in
  let measure advs test =
    let tests = List.length xpes * List.length advs in
    let samples =
      Array.init runs (fun _ ->
          let (), t = time_it (fun () -> List.iter (fun x -> test x advs) xpes) in
          t *. 1e9 /. float_of_int (max 1 tests))
    in
    Array.sort compare samples;
    (samples.(runs / 2), samples.(0), samples.(runs - 1))
  in
  let paper xpe advs = List.iter (fun a -> ignore (Paper_match.overlaps_paper xpe a)) advs in
  let compiled_of advs = List.map Adv_match.compile advs in
  let compiled xpe cs =
    let q = Adv_match.query xpe in
    List.iter (fun c -> ignore (Adv_match.overlaps_compiled q c)) cs
  in
  let row name advs =
    let ((p, _, _) as paper_ns) = measure advs paper in
    let ((c, _, _) as compiled_ns) = measure (compiled_of advs) compiled in
    let show label (med, lo, hi) =
      Printf.printf "%-15s %-9s %8.1f ns/test (%.1f-%.1f)\n%!" name label med lo hi
    in
    show "paper" paper_ns;
    show "compiled" compiled_ns;
    (p, c)
  in
  Printf.printf "%d XPEs x %d recursive + %d non-recursive advertisements\n%!"
    (List.length xpes) (List.length recursive) (List.length flat);
  let rec_paper, rec_compiled = row "recursive" recursive in
  let flat_paper, flat_compiled = row "non-recursive" flat in
  Report.record "ablation-srt"
    [
      ("xpes", Report.I (List.length xpes));
      ("recursive_advs", Report.I (List.length recursive));
      ("non_recursive_advs", Report.I (List.length flat));
      ("paper_recursive_ns_per_test", Report.F rec_paper);
      ("compiled_recursive_ns_per_test", Report.F rec_compiled);
      ("paper_non_recursive_ns_per_test", Report.F flat_paper);
      ("compiled_non_recursive_ns_per_test", Report.F flat_compiled);
    ]

(* ------------------------------------------------------------------ *)
(* Instrumentation smoke check (wired into dune runtest)               *)
(* ------------------------------------------------------------------ *)

module Scenario = Xroute_workload.Scenario

let ids_decision ids =
  List.sort_uniq compare ids
  |> List.map (fun (id : Message.sub_id) -> Printf.sprintf "%d.%d" id.origin id.seq)
  |> String.concat ";"

let prt_decision (prt : Rtable.Prt.t) (pub : Xroute_xml.Xml_paths.publication) =
  ids_decision (List.map (fun (p : Rtable.Prt.payload) -> p.id) (Rtable.Prt.match_pub prt pub))

let tree_decision (tree : Message.sub_id Sub_tree.t) (pub : Xroute_xml.Xml_paths.publication) =
  ids_decision (Tree_match.match_syms tree pub.syms pub.attrs)

(* [Rtable.Prt.match_checks] of the smoke gate's PRT corpus below: the
   742 PSD Set-A XPEs of seed 13 against the 483 publications of 8 PSD
   and 4 NITF documents (seeds 14, 15). *)
let smoke_nfa_charge = 44490

(* [Rtable.Prt.cover_checks] after inserting that corpus, and the
   number of maximal nodes the covering tree ends with. The covering
   charge feeds Broker.work and the virtual clock like the match
   charge, so the name-signature prefilter in front of [Cover.covers]
   (or any covering rewrite) must leave both exactly as they are. *)
let smoke_cover_charge = 48714
let smoke_maximal = 109

(* Drive a tiny workload through the simulator and fail if any
   registered hot-path metric stays at zero — the canary for silently
   dead instrumentation. *)
let smoke () =
  let topo = Topology.line 3 in
  let net = Net.create topo in
  let publisher = Net.add_client net ~broker:0 in
  let subscriber = Net.add_client net ~broker:2 in
  ignore (Net.advertise_dtd net publisher psd_advs);
  Net.run net;
  let xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params psd)
      ~count:40 ~seed:5 ()
  in
  List.iter (fun x -> ignore (Net.subscribe net subscriber x)) xpes;
  (* catch-all so every document is delivered *)
  ignore
    (Net.subscribe net subscriber
       (Xroute_xpath.Xpe_parser.parse ("/" ^ Xroute_dtd.Dtd_ast.root psd)));
  Net.run net;
  let docs = Xroute_workload.Workload.documents ~dtd:psd ~count:5 ~seed:6 () in
  List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
  Net.run net;
  let reg = Net.aggregate_metrics net in
  let hot_paths =
    [
      "xroute_broker_msgs_in_total";
      "xroute_broker_advs_in_total";
      "xroute_broker_subs_in_total";
      "xroute_broker_pubs_in_total";
      "xroute_broker_deliveries_total";
      "xroute_broker_forwarded_subs";
      "xroute_broker_hop_ms";
      "xroute_link_1_sends_total";
      "xroute_srt_size";
      "xroute_srt_buckets";
      "xroute_srt_bucket_max";
      "xroute_srt_match_ops_total";
      "xroute_srt_overlap_tests_total";
      "xroute_srt_sub_match_ops";
      "xroute_prt_size";
      "xroute_prt_payloads";
      "xroute_prt_match_checks_total";
      "xroute_prt_match_ops_resumed_total";
      "xroute_prt_cover_checks_total";
      "xroute_prt_cover_tests_total";
      "xroute_prt_pub_match_ops";
      "xroute_net_msgs_total";
      "xroute_net_msgs_adv_total";
      "xroute_net_msgs_sub_total";
      "xroute_net_msgs_pub_total";
      "xroute_net_deliveries_total";
      "xroute_net_hop_latency_ms";
      "xroute_net_delivery_delay_ms";
    ]
  in
  let dead =
    List.filter
      (fun name ->
        match Metrics.scalar reg name with Some v -> v = 0.0 | None -> true)
      hot_paths
  in
  Printf.printf "smoke: %d hot-path metrics checked\n" (List.length hot_paths);
  if dead <> [] then begin
    Printf.printf "smoke FAILED: metrics stuck at zero (or unregistered):\n";
    List.iter (fun n -> Printf.printf "  %s\n" n) dead;
    print_string (Metrics.to_prometheus reg);
    exit 1
  end;
  (* PRT NFA vs the flat list: identical routing decisions on the PSD
     multi-feed corpus (PSD subscriptions; publications from the PSD
     feed plus a foreign feed, so the automaton also sees roots it
     stores nothing under). *)
  let prt_xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params psd)
      ~count:1500 ~seed:13 ()
  in
  let flat_list = Sub_tree.create ~flat:true () in
  let prt_nfa = Rtable.Prt.create () in
  List.iteri
    (fun i x ->
      let id : Message.sub_id = { origin = 2; seq = i } in
      ignore (Sub_tree.insert flat_list x id);
      ignore (Rtable.Prt.insert prt_nfa id x (Rtable.Client 0)))
    prt_xpes;
  let corpus =
    Xroute_workload.Workload.publications_of_documents
      (Xroute_workload.Workload.documents ~dtd:psd ~count:8 ~seed:14 ()
      @ Xroute_workload.Workload.documents ~dtd:nitf ~count:4 ~seed:15 ())
  in
  let nfa_diffs =
    List.filter
      (fun pub -> not (String.equal (tree_decision flat_list pub) (prt_decision prt_nfa pub)))
      corpus
  in
  (* The automaton's charge over the corpus is pinned: [match_checks]
     counts each edge followed and each accepting entry scanned, and
     Broker.work, the virtual clock and the bench's entries/pub all
     build on it, so a matcher rewrite must leave it exactly as it is. *)
  let nfa_charge = Rtable.Prt.match_checks prt_nfa in
  Printf.printf
    "smoke: PRT NFA vs flat list on %d XPEs x %d publications: %d decision diffs, %d match checks\n"
    (List.length prt_xpes) (List.length corpus) (List.length nfa_diffs) nfa_charge;
  if nfa_charge <> smoke_nfa_charge then begin
    Printf.printf "smoke FAILED: PRT NFA charged %d match checks, pinned %d\n" nfa_charge
      smoke_nfa_charge;
    exit 1
  end;
  (* The prefilter may skip predicate calls, never a charged check. *)
  let cover_charge = Rtable.Prt.cover_checks prt_nfa in
  let maximal = List.length (Sub_tree.maximal (Rtable.Prt.tree prt_nfa)) in
  Printf.printf "smoke: PRT covering: %d checks charged, %d predicate calls, %d maximal\n"
    cover_charge (Rtable.Prt.cover_tests prt_nfa) maximal;
  if cover_charge <> smoke_cover_charge || maximal <> smoke_maximal then begin
    Printf.printf
      "smoke FAILED: PRT covering charged %d checks with %d maximal nodes, pinned %d and %d\n"
      cover_charge maximal smoke_cover_charge smoke_maximal;
    exit 1
  end;
  if nfa_diffs <> [] then begin
    Printf.printf "smoke FAILED: PRT NFA diverged from the flat list\n";
    List.iter
      (fun (pub : Xroute_xml.Xml_paths.publication) ->
        Printf.printf "  /%s\n" (String.concat "/" (Array.to_list pub.steps)))
      nfa_diffs;
    exit 1
  end;
  (match Rtable.Prt.nfa_invariants prt_nfa with
  | [] -> ()
  | problems ->
    Printf.printf "smoke FAILED: PRT NFA invariants violated:\n";
    List.iter (fun m -> Printf.printf "  %s\n" m) problems;
    exit 1);
  (* Fault gate: crash the relay broker of a line, publish into the
     outage (must be destroyed and accounted), restart it, and require
     the routing state to recover so the next publication is delivered
     and exactly one recovery episode is measured. *)
  let fnet =
    Net.create
      ~config:{ Net.default_config with Net.latency = Latency.constant 1.0 }
      (Topology.line 3)
  in
  let fpub = Net.add_client fnet ~broker:0 in
  let fsub = Net.add_client fnet ~broker:2 in
  ignore (Net.advertise fnet fpub (Xroute_xpath.Adv.parse "/x/y"));
  Net.run fnet;
  ignore (Net.subscribe fnet fsub (Xroute_xpath.Xpe_parser.parse "/x"));
  Net.run fnet;
  Net.crash_broker fnet 1;
  ignore (Net.publish_doc fnet fpub ~doc_id:1 (Xroute_xml.Xml_parser.parse "<x><y/></x>"));
  Net.run fnet;
  Net.restart_broker fnet 1;
  Net.run fnet;
  ignore (Net.publish_doc fnet fpub ~doc_id:2 (Xroute_xml.Xml_parser.parse "<x><y/></x>"));
  Net.run fnet;
  let fm = Net.fault_meters fnet in
  let recovery = Metrics.summary fm.recovery_ms in
  if Hashtbl.mem fsub.Net.delivered 1 then begin
    Printf.printf "smoke FAILED: publication sent into the crash window was delivered\n";
    exit 1
  end;
  if not (Hashtbl.mem fsub.Net.delivered 2) then begin
    Printf.printf "smoke FAILED: no delivery after broker restart\n";
    exit 1
  end;
  if Net.dropped_publications fnet = 0 then begin
    Printf.printf "smoke FAILED: crash-destroyed publication not accounted as dropped\n";
    exit 1
  end;
  if recovery.count <> 1 then begin
    Printf.printf "smoke FAILED: expected 1 recovery episode, measured %d\n" recovery.count;
    exit 1
  end;
  Printf.printf
    "smoke: fault gate ok (crash/restart recovered; %d msgs destroyed, %.1f ms recovery)\n"
    (Metrics.value fm.destroyed) recovery.max;
  (* Span gate: a traced publication must yield a complete, well-nested
     span tree whose stage leaves sum exactly to the measured
     end-to-end latency — the invariant the latency-breakdown
     experiment and the TRACE| command stand on. Single-path document
     on a line so the leaf-sum telescopes without fanout. *)
  let span_spans = Xroute_obs.Span.create () in
  let snet =
    Net.create
      ~config:{ Net.default_config with Net.latency = Latency.constant 1.0 }
      ~spans:span_spans (Topology.line 3)
  in
  let span_pub = Net.add_client snet ~broker:0 in
  let span_sub = Net.add_client snet ~broker:2 in
  ignore (Net.advertise snet span_pub (Xroute_xpath.Adv.parse "/x/y"));
  Net.run snet;
  ignore (Net.subscribe snet span_sub (Xroute_xpath.Xpe_parser.parse "/x"));
  Net.run snet;
  ignore (Net.publish_doc snet span_pub ~doc_id:7 (Xroute_xml.Xml_parser.parse "<x><y/></x>"));
  Net.run snet;
  let sps = Xroute_obs.Span.spans_for span_spans ~trace:7 in
  if sps = [] then begin
    Printf.printf "smoke FAILED: traced publication produced no spans\n";
    exit 1
  end;
  (match Xroute_obs.Span.check_tree sps with
  | Ok () -> ()
  | Error e ->
    Printf.printf "smoke FAILED: span tree mis-nested: %s\n" e;
    print_string (Xroute_obs.Span.waterfall sps);
    exit 1);
  let span_delay =
    match Net.delivery_delays snet with
    | [ (_, 7, d) ] -> d
    | l ->
      Printf.printf "smoke FAILED: expected exactly one traced delivery, saw %d\n"
        (List.length l);
      exit 1
  in
  let leaf_sum = Xroute_obs.Span.stage_sum sps in
  if Float.abs (leaf_sum -. span_delay) > 1e-6 then begin
    Printf.printf "smoke FAILED: stage leaves sum to %.9f ms but delivery took %.9f ms\n"
      leaf_sum span_delay;
    print_string (Xroute_obs.Span.waterfall sps);
    exit 1
  end;
  Printf.printf "smoke: span gate ok (%d spans, leaf sum = end-to-end %.3f ms)\n"
    (List.length sps) span_delay;
  (* Scenario gate: a replay of a small flash-crowd scenario must
     reproduce its delivery ledger byte for byte — the determinism the
     sim-churn numbers of perfbench stand on. *)
  let scen_spec =
    {
      Scenario.default_spec with
      Scenario.clients = 300;
      docs = 5;
      levels = 3;
      xpes = 32;
      batch = 64;
      dtd = "book";
    }
  in
  let scen_a = Scenario.run ~ledger:`Full scen_spec in
  let scen_diffs = Scenario.diff scen_a (Scenario.run ~ledger:`Full scen_spec) in
  if scen_diffs <> [] then begin
    Printf.printf "smoke FAILED: scenario replay diverged (%s)\n"
      (String.concat ", " scen_diffs);
    exit 1
  end;
  if scen_a.Scenario.deliveries = 0 then begin
    Printf.printf "smoke FAILED: smoke scenario produced no deliveries\n";
    exit 1
  end;
  Printf.printf "smoke: scenario gate ok (%d deliveries, replay = ledger)\n"
    scen_a.Scenario.deliveries;
  Printf.printf "smoke ok\n%!"

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("latency-breakdown", latency_breakdown);
    ("fault-recovery", fault_recovery);
    ("ablation-exact-cover", ablation_exact_cover);
    ("ablation-yfilter", ablation_yfilter);
    ("ablation-srt", ablation_srt);
  ]

let () =
  if Array.exists (String.equal "--smoke") Sys.argv then begin
    smoke ();
    exit 0
  end;
  (* Consume --seed N and --fault-plan SPEC (they parameterise the
     fault-recovery experiment); everything left over is an
     experiment-name filter. *)
  let rec parse_args acc = function
    | [] -> List.rev acc
    | [ ("--seed" | "--fault-plan") as flag ] ->
      Printf.eprintf "%s needs a value\n" flag;
      exit 2
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n -> fault_seed := n
      | None ->
        Printf.eprintf "bad --seed %S (want an integer)\n" v;
        exit 2);
      parse_args acc rest
    | "--fault-plan" :: v :: rest ->
      (match Xroute_fault.Plan.spec_of_string v with
      | Ok spec -> fault_spec := spec
      | Error msg ->
        Printf.eprintf "bad --fault-plan %S: %s\n" v msg;
        exit 2);
      parse_args acc rest
    | name :: rest -> parse_args (name :: acc) rest
  in
  let names = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  (* Reject a typo (or --help) before anything runs, and an unreadable
     sink before an experiment spends time on records it cannot keep. *)
  (match List.filter (fun n -> not (List.mem_assoc n experiments)) names with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown experiment(s): %s\nvalid: --smoke, --seed N, --fault-plan SPEC, %s\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst experiments));
    exit 2);
  let existing = Report.load () in
  let only = if names = [] then None else Some names in
  let want name = match only with None -> true | Some l -> List.mem name l in
  Printf.printf "xroute experiment harness (scale %.2f; set XROUTE_BENCH_SCALE to change)\n" scale;
  Printf.printf "NITF advertisements: %d, PSD advertisements: %d (paper ratio: ~35x)\n%!"
    (List.length nitf_advs) (List.length psd_advs);
  List.iter
    (fun (name, f) ->
      if want name then begin
        let (), wall = time_it f in
        Report.record name [ ("wall_ms", Report.F (wall *. 1000.0)) ]
      end)
    experiments;
  Report.write existing;
  Printf.printf "\nDone.\n"
