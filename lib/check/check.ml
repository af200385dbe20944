(* Workload analysis and routing-state audit.

   The workload pass inspects a subscription set against the advertised
   languages: a subscription disjoint from every advertisement draws
   nothing (dead), a step requiring one attribute equal to two different
   values matches nothing (contradictory), and a subscription covered by
   an earlier one from the same client adds no deliveries (shadowed).
   All are warnings: the system behaves correctly, the workload pays
   for subscriptions that cannot matter.

   The audit pass checks the invariants crash recovery and covering are
   supposed to maintain (lifted out of test_fault.ml into a reusable
   tool): no dangling SRT/PRT entry outside a live ledger, structural
   integrity of the SRT index and the PRT covering forest, last-hop and
   forwarded-target sanity, and covered-set consistency — every
   non-suppressed stored subscription must reach each of its required
   next hops either by its own forwarding or through a forwarded
   coverer/merger. A violation means publications are (or will be)
   silently lost, so audit findings are errors. *)

open Xroute_xpath
open Xroute_core
module Net = Xroute_overlay.Net
module Topology = Xroute_overlay.Topology
module Prng = Xroute_support.Prng

let sub_id_eq a b = Message.compare_sub_id a b = 0
let pp_id (id : Message.sub_id) = Printf.sprintf "(%d,%d)" id.origin id.seq

let pp_ep = function
  | Rtable.Neighbor b -> Printf.sprintf "broker:%d" b
  | Rtable.Client c -> Printf.sprintf "client:%d" c

(* ------------------------------------------------------------------ *)
(* Workload analysis                                                   *)
(* ------------------------------------------------------------------ *)

(* Same-attribute-different-value contradiction inside one step. *)
let contradictory_step (step : Xpe.step) =
  let rec find = function
    | [] -> None
    | (p : Xpe.predicate) :: rest -> (
      match
        List.find_opt (fun (q : Xpe.predicate) -> q.attr = p.attr && q.value <> p.value) rest
      with
      | Some q -> Some (p, q)
      | None -> find rest)
  in
  find step.preds

let contradiction xpe =
  List.find_map
    (fun (step : Xpe.step) ->
      Option.map (fun (p, q) -> (step, p, q)) (contradictory_step step))
    xpe.Xpe.steps

let analyze_workload ?(advs = []) ~subs () =
  let findings = ref [] in
  let add code subject witness =
    findings :=
      Finding.make ~severity:Finding.Warning ~family:"workload" ~code ~subject ~witness
      :: !findings
  in
  List.iteri
    (fun i (client, xpe) ->
      (* contradictory predicates *)
      (match contradiction xpe with
      | Some (step, p, q) ->
        add "contradictory-predicates"
          (Printf.sprintf "client %d subscription #%d %s can match nothing" client i
             (Xpe.to_string xpe))
          (Printf.sprintf "step %s%s requires @%s=%S and @%s=%S"
             (Xpe.test_to_string step.Xpe.test)
             (String.concat "" (List.map Xpe.pred_to_string step.Xpe.preds))
             p.Xpe.attr p.Xpe.value q.Xpe.attr q.Xpe.value)
      | None -> ());
      (* dead: name language disjoint from every advertised language *)
      if advs <> [] && not (List.exists (Xroute_ref.Paper_match.overlaps_exact xpe) advs) then
        add "dead-subscription"
          (Printf.sprintf "client %d subscription #%d %s overlaps no advertisement" client
             i (Xpe.to_string xpe))
          (Printf.sprintf "checked against %d advertisements" (List.length advs));
      (* shadowed: strictly covered by an earlier XPE of the same client *)
      let earlier = List.filteri (fun j _ -> j < i) subs in
      match
        List.find_opt
          (fun (c, prior) ->
            c = client
            && Xroute_ref.Exact_cover.covers_exact prior xpe
            && not (Xroute_ref.Exact_cover.covers_exact xpe prior))
          earlier
      with
      | Some (_, prior) ->
        add "shadowed-subscription"
          (Printf.sprintf "client %d subscription #%d %s is strictly covered" client i
             (Xpe.to_string xpe))
          (Printf.sprintf "earlier subscription %s of client %d already covers it"
             (Xpe.to_string prior) client)
      | None -> ())
    subs;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Routing-state audit                                                 *)
(* ------------------------------------------------------------------ *)

let audit_broker ?live_advs ?live_subs broker =
  let v = Broker.audit_view broker in
  let where = Printf.sprintf "broker %d" v.Broker.av_id in
  let findings = ref [] in
  let add code subject witness =
    findings :=
      Finding.make ~severity:Finding.Error ~family:"routing" ~code ~subject ~witness
      :: !findings
  in
  let mem_id id l = List.exists (sub_id_eq id) l in
  let is_merger id = List.exists (fun (m, _, _) -> sub_id_eq m id) v.Broker.av_mergers in
  let is_stored id = List.exists (fun (i, _, _) -> sub_id_eq i id) v.Broker.av_subs in
  let valid_neighbor = function
    | Rtable.Neighbor n -> List.mem n v.Broker.av_neighbors
    | Rtable.Client _ -> false
  in
  (* structural integrity of the tables *)
  List.iter
    (fun msg -> add "srt-integrity" (where ^ ": SRT index invariant violated") msg)
    v.Broker.av_srt_invariants;
  List.iter
    (fun msg -> add "prt-integrity" (where ^ ": PRT covering forest invariant violated") msg)
    v.Broker.av_prt_invariants;
  List.iter
    (fun msg -> add "nfa-integrity" (where ^ ": PRT match automaton invariant violated") msg)
    v.Broker.av_nfa_invariants;
  (* dangling entries vs the live ledgers *)
  (match live_advs with
  | Some live ->
    List.iter
      (fun (e : Rtable.Srt.entry) ->
        if not (mem_id e.id live) then
          add "dangling-srt-entry"
            (Printf.sprintf "%s: SRT entry %s outside every live ledger" where (pp_id e.id))
            (Printf.sprintf "%s from %s" (Adv.to_string e.adv) (pp_ep e.hop)))
      v.Broker.av_srt_entries
  | None -> ());
  (match live_subs with
  | Some live ->
    List.iter
      (fun (id, xpe, hop) ->
        if not (mem_id id live) then
          add "dangling-prt-entry"
            (Printf.sprintf "%s: PRT entry %s outside every live ledger" where (pp_id id))
            (Printf.sprintf "%s from %s" (Xpe.to_string xpe) (pp_ep hop)))
      v.Broker.av_subs
  | None -> ());
  (* last-hop rule: a neighbor hop must be an actual neighbor *)
  List.iter
    (fun (e : Rtable.Srt.entry) ->
      if (not (valid_neighbor e.hop)) && not (match e.hop with Rtable.Client _ -> true | _ -> false)
      then
        add "invalid-last-hop"
          (Printf.sprintf "%s: SRT entry %s has non-neighbor last hop %s" where (pp_id e.id)
             (pp_ep e.hop))
          (Adv.to_string e.adv))
    v.Broker.av_srt_entries;
  List.iter
    (fun (id, xpe, hop) ->
      if (not (valid_neighbor hop)) && not (match hop with Rtable.Client _ -> true | _ -> false)
      then
        add "invalid-last-hop"
          (Printf.sprintf "%s: PRT entry %s has non-neighbor last hop %s" where (pp_id id)
             (pp_ep hop))
          (Xpe.to_string xpe))
    v.Broker.av_subs;
  (* forwarded map: keys must exist, targets must be real neighbors and
     never the subscription's own last hop *)
  let own_hop id =
    List.find_map (fun (i, _, h) -> if sub_id_eq i id then Some h else None) v.Broker.av_subs
  in
  List.iter
    (fun (id, targets) ->
      if not (is_stored id || is_merger id) then
        add "dangling-forward"
          (Printf.sprintf "%s: forwarded record for unknown id %s" where (pp_id id))
          (String.concat ", " (List.map pp_ep targets));
      List.iter
        (fun ep ->
          if not (valid_neighbor ep) then
            add "invalid-forward-target"
              (Printf.sprintf "%s: %s forwarded to non-neighbor %s" where (pp_id id)
                 (pp_ep ep))
              "";
          match own_hop id with
          | Some h when Rtable.endpoint_equal h ep ->
            add "forward-to-last-hop"
              (Printf.sprintf "%s: %s forwarded back to its last hop %s" where (pp_id id)
                 (pp_ep ep))
              ""
          | _ -> ())
        targets)
    v.Broker.av_forwarded;
  (* covered-set consistency: each required next hop of a non-suppressed
     subscription must be served by its own forwarding or by a coverer's *)
  let forwarded id =
    match List.find_opt (fun (i, _) -> sub_id_eq i id) v.Broker.av_forwarded with
    | Some (_, targets) -> targets
    | None -> []
  in
  let served_endpoints self_id xpe =
    forwarded self_id
    @ List.concat_map
        (fun (qid, qx, _) ->
          if (not (sub_id_eq qid self_id)) && v.Broker.av_covers qx xpe then forwarded qid
          else [])
        v.Broker.av_subs
    @ List.concat_map
        (fun (mid, mx, _) ->
          if (not (sub_id_eq mid self_id)) && v.Broker.av_covers mx xpe then forwarded mid
          else [])
        v.Broker.av_mergers
  in
  let hole_check id xpe own =
    if not (mem_id id v.Broker.av_suppressed) then begin
      let required =
        List.filter
          (fun ep ->
            match own with Some h -> not (Rtable.endpoint_equal ep h) | None -> true)
          (v.Broker.av_required_targets xpe)
      in
      let served = served_endpoints id xpe in
      List.iter
        (fun ep ->
          if not (List.exists (Rtable.endpoint_equal ep) served) then
            add "covering-hole"
              (Printf.sprintf "%s: %s %s unserved at required hop %s" where (pp_id id)
                 (Xpe.to_string xpe) (pp_ep ep))
              (Printf.sprintf "forwarded to [%s], no forwarded coverer reaches %s"
                 (String.concat ", " (List.map pp_ep (forwarded id)))
                 (pp_ep ep)))
        required
    end
  in
  List.iter (fun (id, xpe, hop) -> hole_check id xpe (Some hop)) v.Broker.av_subs;
  List.iter (fun (mid, mx, _) -> hole_check mid mx None) v.Broker.av_mergers;
  (* merge bookkeeping: a suppressed id must be a member of some live
     merger, or its traffic is silenced with no merger speaking for it *)
  List.iter
    (fun id ->
      if
        not
          (List.exists (fun (_, _, members) -> mem_id id members) v.Broker.av_mergers)
      then
        add "suppressed-without-merger"
          (Printf.sprintf "%s: %s suppressed but no merger lists it as a member" where
             (pp_id id))
          (Printf.sprintf "%d mergers live" (List.length v.Broker.av_mergers)))
    v.Broker.av_suppressed;
  (* a merger lives only while all its members are stored: one that
     lists a departed member draws publications for nobody *)
  List.iter
    (fun (mid, mx, members) ->
      List.iter
        (fun id ->
          if not (is_stored id) then
            add "merger-member-gone"
              (Printf.sprintf "%s: merger %s lists %s, which is no longer stored" where
                 (pp_id mid) (pp_id id))
              (Xpe.to_string mx))
        members)
    v.Broker.av_mergers;
  List.rev !findings

let audit_net net =
  let brokers =
    Array.to_list (Net.brokers net)
    |> List.filter (fun b -> Net.broker_alive net (Broker.id b))
  in
  let clients = Net.clients net in
  let live_advs =
    List.concat_map (fun (c : Net.client) -> List.map fst c.Net.adv_ledger) clients
  in
  let client_subs =
    List.concat_map (fun (c : Net.client) -> List.map fst c.Net.sub_ledger) clients
  in
  (* Mergers are broker-made subscriptions: a neighbor legitimately holds
     them in its PRT although no client ledger ever will. *)
  let merger_ids =
    List.concat_map
      (fun b -> List.map (fun (m, _, _) -> m) (Broker.audit_view b).Broker.av_mergers)
      brokers
  in
  let live_subs = merger_ids @ client_subs in
  List.concat_map (fun b -> audit_broker ~live_advs ~live_subs b) brokers

let audit_net_report net =
  let findings = audit_net net in
  let brokers = Array.length (Net.brokers net) in
  Finding.report
    ~stats:
      [
        ("brokers_audited", float_of_int brokers);
        ("routing_violations", float_of_int (List.length findings));
      ]
    findings

(* The network the routing audit gates run on: a binary tree churned
   with interleaved subscribes and unsubscribes, converged, with a
   merging pass where the strategy merges. After the pass the client
   holding a merger member unsubscribes it, so the audit sees a merger
   dissolve; returns the network and whether that happened. *)
let churned_net dtd ~strategy ~seed ~ops =
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let advs = Xroute_dtd.Dtd_paths.advertisements graph in
  let levels = 3 in
  let topo = Topology.binary_tree ~levels in
  let net = Net.create ~config:{ Net.default_config with strategy; seed } topo in
  let publisher = Net.add_client net ~broker:0 in
  let leaves = Topology.binary_tree_leaves ~levels in
  let clients = List.map (fun b -> Net.add_client net ~broker:b) leaves in
  ignore (Net.advertise_dtd net publisher advs);
  Net.run net;
  let params = Xroute_workload.Workload.set_b_params dtd in
  let prng = Prng.create ((seed * 7919) + 11) in
  let live = ref [] in
  for _ = 1 to ops do
    (if !live <> [] && Prng.bernoulli prng 0.35 then begin
       let c, id = List.nth !live (Prng.int prng (List.length !live)) in
       Net.unsubscribe net c id;
       live := List.filter (fun (_, i) -> i <> id) !live
     end
     else
       let c = Prng.choose_list prng clients in
       let x = Xroute_workload.Xpath_gen.generate_one params prng in
       live := (c, Net.subscribe net c x) :: !live);
    Net.run net
  done;
  Net.run net;
  (* Two different XPEs on the root element that read alike when every
     value is printed inside ['...']: the second's one predicate value
     spells the first's two predicates. A table that confused them would
     file both under one PRT node, and the unsubscribe below would leave
     the departed XPE in the automaton, which the audit reports. *)
  let root = Xroute_dtd.Dtd_ast.root dtd in
  let twin = List.hd clients in
  let parse = Xroute_xpath.Xpe_parser.parse in
  ignore (Net.subscribe net twin (parse (Printf.sprintf "/%s[@x='p'][@y='q']" root)));
  let departing = Net.subscribe net twin (parse (Printf.sprintf "/%s[@x=\"p'][@y='q\"]" root)) in
  Net.run net;
  Net.unsubscribe net twin departing;
  Net.run net;
  let dissolved =
    match strategy.merging with
    | Broker.No_merging -> false
    | _ -> (
      let universe =
        Xroute_dtd.Dtd_paths.sample_paths ~count:2000 ~max_depth:10 (Prng.create 5) graph
      in
      (* One subscription per child of the root: the churned Set-B XPEs
         (depth 7) cannot cover them, and their wildcard merger matches
         no universe path outside them, so even Perfect merging merges. *)
      List.filter_map (fun p -> if Array.length p > 1 then Some p.(1) else None) universe
      |> List.sort_uniq String.compare
      |> List.iter (fun child ->
             ignore (Net.subscribe net twin (parse (Printf.sprintf "/%s/%s" root child))));
      Net.run net;
      Net.set_universe net universe;
      Net.merge_all net;
      Net.run net;
      let members =
        Array.to_list (Net.brokers net)
        |> List.concat_map (fun b ->
               List.concat_map (fun (_, _, ms) -> ms) (Broker.audit_view b).Broker.av_mergers)
      in
      match List.find_opt (fun (id, _) -> List.mem id members) twin.Net.sub_ledger with
      | None -> false
      | Some (id, _) ->
        Net.unsubscribe net twin id;
        Net.run net;
        true)
  in
  (net, dissolved)

(* ------------------------------------------------------------------ *)
(* Scenario-integrity audit                                            *)
(* ------------------------------------------------------------------ *)

module Scenario = Xroute_workload.Scenario

(* The scenario engine is the scale harness the benchmarks and the
   regression gates stand on, so its own invariants get an audit
   family: a replay of the same spec must reproduce the full-row
   delivery ledger, the decisions and the fault accounting
   ([Scenario.diff], determinism), and a scenario must actually
   exercise the network it claims to — nonzero deliveries, at least one
   subscription per client. [inject] runs the replay one seed off; the
   audit must then report errors (the @scenario mutation rule). *)
let audit_scenario ?(inject = false) spec =
  let findings = ref [] in
  let where =
    Printf.sprintf "scenario %s (%d clients, seed %d)"
      (Scenario.kind_to_string spec.Scenario.kind)
      spec.Scenario.clients spec.Scenario.seed
  in
  let report code subject witness =
    findings :=
      Finding.make ~severity:Finding.Error ~family:"scenario" ~code ~subject ~witness
      :: !findings
  in
  let first = Scenario.run ~ledger:`Full spec in
  let replay_spec = if inject then { spec with Scenario.seed = spec.Scenario.seed + 1 } else spec in
  let replay = Scenario.run ~ledger:`Full replay_spec in
  List.iter
    (fun field ->
      report "scenario-nondeterminism"
        (where ^ ": a replay of the same spec disagrees")
        (field ^ " differ"))
    (Scenario.diff first replay);
  if spec.Scenario.docs > 0 && spec.Scenario.clients > 0 && first.Scenario.deliveries = 0
  then
    report "scenario-dead" (where ^ ": published documents reached no subscriber")
      (Printf.sprintf "%d docs published, %d subscriptions sent"
         first.Scenario.docs_published first.Scenario.subs_sent);
  if first.Scenario.subs_sent < spec.Scenario.clients then
    report "scenario-undersubscribed" (where ^ ": fewer subscriptions than clients")
      (Printf.sprintf "%d subs for %d clients" first.Scenario.subs_sent
         spec.Scenario.clients);
  (List.rev !findings, first)

let audit_scenario_report ?inject specs =
  let per = List.map (fun spec -> audit_scenario ?inject spec) specs in
  let findings = List.concat_map fst per in
  let sum g = List.fold_left (fun acc (_, o) -> acc + g o) 0 per in
  let f = float_of_int in
  Finding.report
    ~stats:
      [
        ("scenario_runs", f (List.length per));
        ("scenario_deliveries", f (sum (fun o -> o.Scenario.deliveries)));
        ("scenario_events", f (sum (fun o -> o.Scenario.events)));
        ("scenario_violations", f (List.length findings));
      ]
    findings
