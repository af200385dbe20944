(* Seeded churn property test: interleaving subscribe/unsubscribe under
   subscription covering must leave the network delivering exactly what a
   freshly built network with only the surviving subscriptions delivers.

   This pins the unsubscription re-forwarding path (broker.ml): when a
   covering subscription is removed, the broker must re-forward the
   subscriptions it had absorbed, or survivors silently stop receiving
   documents. Under merging a merge pass runs mid-script, so later
   unsubscribes also dissolve mergers: no merger may outlive a member. *)

open Xroute_overlay

let check = Alcotest.check
let ci = Alcotest.int

let xp = Xroute_xpath.Xpe_parser.parse

type op =
  | Sub of int * Xroute_xpath.Xpe.t * int  (* client index, xpe, tag *)
  | Unsub of int * int  (* client index, tag *)

(* A deterministic op script; tags identify subscriptions so the same
   script (or its surviving subset) can be replayed against a different
   network. *)
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
  (List.rev !ops, live)

(* Run [ops] (settling the network between operations), publish [docs],
   and return each subscriber's sorted delivered doc-id list. With
   [~merge:(k, universe)] a merge pass runs after the first [k] ops; the
   result then also counts the mergers it made and the later unsubscribes
   of their members. *)
let deliveries_with ~strategy ~seed ~advs ?merge ops docs =
  let net =
    Net.create ~config:{ Net.default_config with Net.strategy; seed } (Topology.line 3)
  in
  let publisher = Net.add_client net ~broker:0 in
  let subscribers = [| Net.add_client net ~broker:1; Net.add_client net ~broker:2 |] in
  ignore (Net.advertise_dtd net publisher advs);
  Net.run net;
  let ids = Hashtbl.create 64 in
  let mergers = ref [] and departed = ref 0 in
  List.iteri
    (fun i op ->
      (match op with
      | Sub (c, xpe, t) -> Hashtbl.replace ids t (Net.subscribe net subscribers.(c) xpe)
      | Unsub (c, t) ->
        let id = Hashtbl.find ids t in
        if List.exists (fun (_, _, members) -> List.mem id members) !mergers then
          incr departed;
        Net.unsubscribe net subscribers.(c) id);
      Net.run net;
      match merge with
      | Some (k, universe) when i + 1 = k ->
        Net.set_universe net universe;
        Net.merge_all net;
        mergers :=
          Array.to_list (Net.brokers net)
          |> List.concat_map (fun b -> (Xroute_core.Broker.audit_view b).av_mergers)
      | _ -> ())
    ops;
  (* Merge state is bounded by live subscriptions: every member of a
     live merger is still stored where the merger lives. *)
  Array.iter
    (fun b ->
      let v = Xroute_core.Broker.audit_view b in
      List.iter
        (fun (_, _, members) ->
          List.iter
            (fun m ->
              if not (List.exists (fun (id, _, _) -> id = m) v.av_subs) then
                Alcotest.failf "seed %d: broker %d keeps a merger for a departed member" seed
                  v.av_id)
            members)
        v.av_mergers)
    (Net.brokers net);
  List.iteri (fun i doc -> ignore (Net.publish_doc net publisher ~doc_id:i doc)) docs;
  Net.run net;
  let delivered =
    Array.to_list subscribers
    |> List.map (fun (c : Net.client) ->
           List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) c.Net.delivered []))
  in
  (delivered, List.length !mergers, !departed)

(* One seeded script under one strategy, churned against fresh; returns
   (unsubscribes, mergers made, unsubscribes of merger members). *)
let run_round ?(strategy_name = "with-Adv-with-Cov") seed =
  let strategy = Option.get (Xroute_core.Broker.strategy_of_name strategy_name) in
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.book in
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let advs = Xroute_dtd.Dtd_paths.advertisements graph in
  let params = Xroute_workload.Workload.set_a_params dtd in
  let nops = 40 in
  let ops, live = gen_script ~seed ~nclients:2 ~nops params in
  let survivors =
    List.filter_map
      (function
        | Sub (c, xpe, t) when List.mem t live.(c) -> Some (Sub (c, xpe, t))
        | _ -> None)
      ops
  in
  let unsubs =
    List.length (List.filter (function Unsub _ -> true | Sub _ -> false) ops)
  in
  let merge =
    match strategy.merging with
    | Xroute_core.Broker.No_merging -> None
    | _ ->
      let universe =
        Xroute_dtd.Dtd_paths.sample_paths ~count:500 ~max_depth:10
          (Xroute_support.Prng.create 5) graph
      in
      Some (nops / 2, universe)
  in
  let docs = Xroute_workload.Workload.documents ~dtd ~count:12 ~seed:(seed + 1000) () in
  let churned, mergers, departed = deliveries_with ~strategy ~seed ~advs ?merge ops docs in
  let fresh, _, _ = deliveries_with ~strategy ~seed ~advs survivors docs in
  if churned <> fresh then
    Alcotest.failf "%s, seed %d: churned deliveries differ from fresh-survivor deliveries"
      strategy_name seed;
  (unsubs, mergers, departed)

(* The same property under every strategy of Tables 2-3: with or
   without advertisements, covering and merging, churn through the
   routing tables must leave no trace in what survivors receive. *)
let test_churn_equals_fresh_all_strategies () =
  List.iter
    (fun strategy_name -> ignore (run_round ~strategy_name 17))
    Xroute_core.Broker.strategy_names

let test_churn_equals_fresh () =
  let total_unsubs = ref 0 in
  for seed = 1 to 6 do
    let unsubs, _, _ = run_round seed in
    total_unsubs := !total_unsubs + unsubs
  done;
  (* the property is vacuous if the scripts never unsubscribe *)
  check Alcotest.bool "scripts exercised unsubscription" true (!total_unsubs > 0)

(* Under PM and IPM the mid-script merge pass must make mergers, and
   later unsubscribes must hit their members, or dissolving goes
   untested. *)
let test_churn_with_merging () =
  List.iter
    (fun strategy_name ->
      let mergers = ref 0 and departed = ref 0 in
      for seed = 1 to 6 do
        let _, m, d = run_round ~strategy_name seed in
        mergers := !mergers + m;
        departed := !departed + d
      done;
      check Alcotest.bool (strategy_name ^ ": merge passes made mergers") true (!mergers > 0);
      check Alcotest.bool (strategy_name ^ ": merger members unsubscribed") true (!departed > 0))
    [ "with-Adv-with-CovPM"; "with-Adv-with-CovIPM" ]

(* Deterministic core of the property: removing a covering subscription
   must re-forward the covered survivor upstream. *)
let test_reforward_after_cover_removal () =
  let strategy = Option.get (Xroute_core.Broker.strategy_of_name "with-Adv-with-Cov") in
  let net = Net.create ~config:{ Net.default_config with Net.strategy } (Topology.line 3) in
  let publisher = Net.add_client net ~broker:0 in
  let s = Net.add_client net ~broker:2 in
  ignore (Net.advertise net publisher (Xroute_xpath.Adv.parse "/x/y"));
  Net.run net;
  let cover = Net.subscribe net s (xp "/x") in
  Net.run net;
  ignore (Net.subscribe net s (xp "/x/y"));
  Net.run net;
  Net.unsubscribe net s cover;
  Net.run net;
  ignore
    (Net.publish_doc net publisher ~doc_id:1 (Xroute_xml.Xml_parser.parse "<x><y/></x>"));
  Net.run net;
  check ci "covered survivor still delivered" 1 (Hashtbl.length s.Net.delivered)

let () =
  Alcotest.run "churn"
    [
      ( "covering churn",
        [
          Alcotest.test_case "re-forward after cover removal" `Quick
            test_reforward_after_cover_removal;
          Alcotest.test_case "interleaved equals fresh survivors" `Quick
            test_churn_equals_fresh;
          Alcotest.test_case "fresh survivors, all strategies" `Quick
            test_churn_equals_fresh_all_strategies;
          Alcotest.test_case "fresh survivors, merge pass mid-script" `Quick
            test_churn_with_merging;
        ] );
    ]
