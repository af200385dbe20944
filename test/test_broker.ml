(* Tests for the broker state machine: advertisement flooding,
   subscription routing with/without advertisements and covering,
   unsubscription, publication forwarding, merging, and the routing
   tables behind them. *)

open Xroute_core
open Xroute_xpath

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let xp = Xpe_parser.parse
let ad = Adv.parse

let sid origin seq = { Message.origin; seq }

let neighbor n = Rtable.Neighbor n
let client c = Rtable.Client c

let pub ?(doc_id = 0) s = Xroute_xml.Xml_paths.publication_of_string ~doc_id s

let msgs_to ep outs = List.filter (fun (e, _) -> Rtable.endpoint_equal e ep) outs

let count_kind kind outs =
  List.length
    (List.filter
       (fun (_, m) ->
         match (m, kind) with
         | Message.Advertise _, `Adv
         | Message.Subscribe _, `Sub
         | Message.Unsubscribe _, `Unsub
         | Message.Publish _, `Pub
         | Message.Unadvertise _, `Unadv ->
           true
         | _ -> false)
       outs)

(* ---------------- Rtable.Srt ---------------- *)

let test_srt_add_and_match () =
  let srt = Rtable.Srt.create () in
  (match Rtable.Srt.add srt (sid 1 1) (ad "/a/b") (neighbor 7) with
  | `Stored -> ()
  | _ -> Alcotest.fail "expected Stored");
  check ci "size" 1 (Rtable.Srt.size srt);
  check ci "hops for matching sub" 1 (List.length (Rtable.Srt.hops_for_sub srt (xp "/a")));
  check ci "hops for non-matching" 0 (List.length (Rtable.Srt.hops_for_sub srt (xp "/x")))

let test_srt_duplicate () =
  let srt = Rtable.Srt.create () in
  ignore (Rtable.Srt.add srt (sid 1 1) (ad "/a") (neighbor 1));
  (match Rtable.Srt.add srt (sid 1 1) (ad "/a") (neighbor 2) with
  | `Duplicate -> ()
  | _ -> Alcotest.fail "expected Duplicate")

let test_srt_adv_covering () =
  let srt = Rtable.Srt.create ~use_cover:true () in
  ignore (Rtable.Srt.add srt (sid 1 1) (ad "/a/*") (neighbor 1));
  (* covered, same hop: suppressed *)
  (match Rtable.Srt.add srt (sid 1 2) (ad "/a/b") (neighbor 1) with
  | `Covered id -> check ci "coverer id" 1 id.Message.seq
  | _ -> Alcotest.fail "expected Covered");
  (* covered but different hop: stored (needed for routing) *)
  (match Rtable.Srt.add srt (sid 1 3) (ad "/a/b") (neighbor 2) with
  | `Stored -> ()
  | _ -> Alcotest.fail "expected Stored for different hop");
  check ci "size" 2 (Rtable.Srt.size srt)

let test_srt_remove () =
  let srt = Rtable.Srt.create () in
  ignore (Rtable.Srt.add srt (sid 1 1) (ad "/a") (neighbor 3));
  (match Rtable.Srt.remove srt (sid 1 1) with
  | Some h -> check cb "hop returned" true (Rtable.endpoint_equal h (neighbor 3))
  | None -> Alcotest.fail "expected removal");
  check ci "empty" 0 (Rtable.Srt.size srt)

let test_srt_hops_dedup () =
  let srt = Rtable.Srt.create () in
  ignore (Rtable.Srt.add srt (sid 1 1) (ad "/a/b") (neighbor 5));
  ignore (Rtable.Srt.add srt (sid 1 2) (ad "/a/c") (neighbor 5));
  check ci "one hop" 1 (List.length (Rtable.Srt.hops_for_sub srt (xp "/a")))

(* ---------------- Rtable.Prt ---------------- *)

let test_prt_insert_match () =
  let prt = Rtable.Prt.create () in
  ignore (Rtable.Prt.insert prt (sid 2 1) (xp "/a/b") (client 9));
  let matches = Rtable.Prt.match_pub prt (pub "/a/b/c") in
  check ci "one match" 1 (List.length matches);
  check cb "client hop" true
    (Rtable.endpoint_equal (List.hd matches).Rtable.Prt.hop (client 9))

let test_prt_remove_reports_promotions () =
  let prt = Rtable.Prt.create () in
  ignore (Rtable.Prt.insert prt (sid 2 1) (xp "/a") (neighbor 1));
  ignore (Rtable.Prt.insert prt (sid 2 2) (xp "/a/b") (neighbor 2));
  match Rtable.Prt.remove prt (sid 2 1) with
  | Some (_, node) -> (
    check cb "node left the maximal set" false
      (List.memq node (Sub_tree.maximal (Rtable.Prt.tree prt)));
    match Sub_tree.maximal (Rtable.Prt.tree prt) with
    | [ child ] -> check cb "child promoted" true (Xpe.equal (Sub_tree.node_xpe child) (xp "/a/b"))
    | roots -> Alcotest.failf "expected one promoted child, got %d roots" (List.length roots))
  | None -> Alcotest.fail "expected removal"

(* ---------------- Broker: advertisements ---------------- *)

let make_broker ?(strategy = Broker.default_strategy) ~id ~neighbors () =
  Broker.create ~strategy ~id ~neighbors ()

let test_adv_flooding () =
  let b = make_broker ~id:0 ~neighbors:[ 1; 2; 3 ] () in
  let outs = Broker.handle b ~from:(neighbor 1) (Message.Advertise { id = sid 9 1; adv = ad "/a" }) in
  (* flooded to 2 and 3, not back to 1 *)
  check ci "two floods" 2 (count_kind `Adv outs);
  check ci "not back" 0 (List.length (msgs_to (neighbor 1) outs));
  (* duplicate suppressed *)
  let outs2 = Broker.handle b ~from:(neighbor 2) (Message.Advertise { id = sid 9 1; adv = ad "/a" }) in
  check ci "duplicate ignored" 0 (List.length outs2)

let test_adv_triggers_sub_forwarding () =
  (* A subscription stored before the advertisement is forwarded towards
     the advertiser when the advertisement arrives. *)
  let b = make_broker ~id:0 ~neighbors:[ 1; 2 ] () in
  let outs0 = Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 1; xpe = xp "/a/b" }) in
  check ci "nowhere to go yet" 0 (count_kind `Sub outs0);
  let outs = Broker.handle b ~from:(neighbor 1) (Message.Advertise { id = sid 9 1; adv = ad "/a/b/c" }) in
  let subs = msgs_to (neighbor 1) outs in
  check cb "sub forwarded to advertiser" true
    (List.exists (fun (_, m) -> match m with Message.Subscribe _ -> true | _ -> false) subs)

let test_unadvertise_floods () =
  let b = make_broker ~id:0 ~neighbors:[ 1; 2 ] () in
  ignore (Broker.handle b ~from:(neighbor 1) (Message.Advertise { id = sid 9 1; adv = ad "/a" }));
  let outs = Broker.handle b ~from:(neighbor 1) (Message.Unadvertise { id = sid 9 1 }) in
  check ci "flooded" 1 (count_kind `Unadv outs);
  check ci "srt empty" 0 (Broker.srt_size b)

(* ---------------- Broker: subscriptions ---------------- *)

let test_sub_flooding_without_adv () =
  let strategy = { Broker.default_strategy with Broker.use_adv = false } in
  let b = make_broker ~strategy ~id:0 ~neighbors:[ 1; 2; 3 ] () in
  let outs = Broker.handle b ~from:(neighbor 1) (Message.Subscribe { id = sid 5 1; xpe = xp "/a" }) in
  check ci "flooded to others" 2 (count_kind `Sub outs)

let test_sub_covering_suppression () =
  let strategy = { Broker.default_strategy with Broker.use_adv = false } in
  let b = make_broker ~strategy ~id:0 ~neighbors:[ 1 ] () in
  ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 1; xpe = xp "/a" }));
  let outs = Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 2; xpe = xp "/a/b" }) in
  check ci "covered sub not forwarded" 0 (count_kind `Sub outs);
  check ci "but stored" 2 (Broker.prt_size b)

let test_sub_covering_displaces () =
  let strategy = { Broker.default_strategy with Broker.use_adv = false } in
  let b = make_broker ~strategy ~id:0 ~neighbors:[ 1 ] () in
  ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 1; xpe = xp "/a/b" }));
  let outs = Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 2; xpe = xp "/a" }) in
  (* the general sub is forwarded and the covered one unsubscribed *)
  check ci "forwarded" 1 (count_kind `Sub outs);
  check ci "old unsubscribed" 1 (count_kind `Unsub outs)

let test_sub_no_covering_everything_forwarded () =
  let strategy = { Broker.default_strategy with Broker.use_adv = false; use_cover = false } in
  let b = make_broker ~strategy ~id:0 ~neighbors:[ 1 ] () in
  ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 1; xpe = xp "/a" }));
  let outs = Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 2; xpe = xp "/a/b" }) in
  check ci "still forwarded" 1 (count_kind `Sub outs)

let test_sub_adv_routing_selective () =
  let b = make_broker ~id:0 ~neighbors:[ 1; 2 ] () in
  ignore (Broker.handle b ~from:(neighbor 1) (Message.Advertise { id = sid 9 1; adv = ad "/a/x" }));
  ignore (Broker.handle b ~from:(neighbor 2) (Message.Advertise { id = sid 9 2; adv = ad "/b/y" }));
  let outs = Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 1; xpe = xp "/a" }) in
  check ci "routed to matching advertiser only" 1 (count_kind `Sub outs);
  check ci "towards broker 1" 1 (List.length (msgs_to (neighbor 1) outs))

let test_unsubscribe_propagates_and_promotes () =
  let strategy = { Broker.default_strategy with Broker.use_adv = false } in
  let b = make_broker ~strategy ~id:0 ~neighbors:[ 1 ] () in
  ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 1; xpe = xp "/a" }));
  ignore (Broker.handle b ~from:(client 6) (Message.Subscribe { id = sid 6 1; xpe = xp "/a/b" }));
  let outs = Broker.handle b ~from:(client 5) (Message.Unsubscribe { id = sid 5 1 }) in
  (* the unsub travels upstream, and the previously covered /a/b is
     promoted and forwarded *)
  check ci "unsub upstream" 1 (count_kind `Unsub outs);
  check ci "promotion forwarded" 1 (count_kind `Sub outs);
  check ci "prt shrunk" 1 (Broker.prt_size b)

let test_unsubscribe_shared_xpe_survivor () =
  (* Two clients hold the same XPE; only the first is forwarded. When it
     unsubscribes, the survivor must take over the next hops. *)
  let strategy = { Broker.default_strategy with Broker.use_adv = false } in
  let b = make_broker ~strategy ~id:0 ~neighbors:[ 1 ] () in
  ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 1; xpe = xp "/a" }));
  let outs2 = Broker.handle b ~from:(client 6) (Message.Subscribe { id = sid 6 1; xpe = xp "/a" }) in
  check ci "second copy suppressed" 0 (count_kind `Sub outs2);
  let outs = Broker.handle b ~from:(client 5) (Message.Unsubscribe { id = sid 5 1 }) in
  check ci "departing copy unsubscribed upstream" 1 (count_kind `Unsub outs);
  check ci "survivor re-forwarded" 1 (count_kind `Sub outs);
  (* publications still reach the survivor *)
  let pouts = Broker.handle b ~from:(neighbor 1) (Message.Publish { pub = pub "/a/b"; trail = []; ctx = None }) in
  check ci "delivered to survivor" 1 (count_kind `Pub pouts)

(* ---------------- Broker: publications ---------------- *)

let test_pub_forwarding () =
  let b = make_broker ~id:0 ~neighbors:[ 1; 2 ] () in
  ignore (Broker.handle b ~from:(neighbor 1) (Message.Subscribe { id = sid 5 1; xpe = xp "/a/b" }));
  ignore (Broker.handle b ~from:(client 7) (Message.Subscribe { id = sid 7 1; xpe = xp "/a" }));
  let outs = Broker.handle b ~from:(neighbor 2) (Message.Publish { pub = pub "/a/b/c"; trail = []; ctx = None }) in
  check ci "two targets" 2 (count_kind `Pub outs);
  check ci "to broker 1" 1 (List.length (msgs_to (neighbor 1) outs));
  check ci "to client 7" 1 (List.length (msgs_to (client 7) outs))

let test_pub_not_backwards () =
  let b = make_broker ~id:0 ~neighbors:[ 1 ] () in
  ignore (Broker.handle b ~from:(neighbor 1) (Message.Subscribe { id = sid 5 1; xpe = xp "/a" }));
  let outs = Broker.handle b ~from:(neighbor 1) (Message.Publish { pub = pub "/a/b"; trail = []; ctx = None }) in
  check ci "never back to sender" 0 (List.length outs)

let test_pub_dropped_counted () =
  let b = make_broker ~id:0 ~neighbors:[ 1 ] () in
  ignore (Broker.handle b ~from:(neighbor 1) (Message.Publish { pub = pub "/zzz"; trail = []; ctx = None }));
  check ci "dropped" 1 (Broker.counters b).Broker.pubs_dropped

(* Wire compatibility: a neighbour's [P|] line that still carries a
   trail is matched against the full PRT. The trail below names only
   the neighbour's subscription; the local client's must match as well.
   The line delivers exactly like its empty-trail twin, and every copy
   goes out with [trail = []], so an untraced output line is byte for
   byte the empty-trail encoding. *)
let test_pub_inbound_trail_ignored () =
  let setup () =
    let b = make_broker ~id:0 ~neighbors:[ 1; 2 ] () in
    ignore (Broker.handle b ~from:(neighbor 2) (Message.Subscribe { id = sid 5 1; xpe = xp "/a/b" }));
    ignore (Broker.handle b ~from:(client 7) (Message.Subscribe { id = sid 7 1; xpe = xp "/a" }));
    b
  in
  let route trail =
    let line = Codec.encode (Message.Publish { pub = pub "/a/b/c"; trail; ctx = None }) in
    match Codec.decode line with
    | Ok msg -> (line, Broker.handle (setup ()) ~from:(neighbor 1) msg)
    | Error e -> Alcotest.failf "decode: %a" Codec.pp_error e
  in
  let trailed_line, trailed = route [ sid 5 1; sid 9 9 ] in
  let plain_line, plain = route [] in
  check cb "the trail is on the inbound line" true (trailed_line <> plain_line);
  check ci "two targets" 2 (count_kind `Pub trailed);
  check ci "to client 7" 1 (List.length (msgs_to (client 7) trailed));
  check ci "to broker 2" 1 (List.length (msgs_to (neighbor 2) trailed));
  let encode outs = List.map (fun (ep, m) -> (ep, Codec.encode m)) outs in
  check cb "same outputs as the empty-trail line" true (encode trailed = encode plain);
  List.iter
    (fun (_, m) ->
      match m with
      | Message.Publish { trail; _ } -> check ci "forwarded with an empty trail" 0 (List.length trail)
      | _ -> Alcotest.fail "expected publications only")
    trailed;
  check cb "output line is the empty-trail encoding" true
    (List.for_all (fun (_, l) -> l = plain_line) (encode trailed))

(* ---------------- Broker: merging ---------------- *)

let test_merge_pass_emits () =
  let strategy = { Broker.default_strategy with Broker.use_adv = false; merging = Broker.Perfect } in
  let b = make_broker ~strategy ~id:0 ~neighbors:[ 1 ] () in
  Broker.set_universe b
    (List.map
       (fun s -> Array.of_list (String.split_on_char '/' s))
       [ "a/b/c"; "a/b/d" ]);
  ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 1; xpe = xp "/a/b/c" }));
  ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 2; xpe = xp "/a/b/d" }));
  let outs = Broker.merge_pass b in
  check ci "merger subscribed" 1 (count_kind `Sub outs);
  check ci "originals unsubscribed" 2 (count_kind `Unsub outs);
  (* publications still delivered to the exact clients *)
  let pouts = Broker.handle b ~from:(neighbor 1) (Message.Publish { pub = pub "/a/b/c"; trail = []; ctx = None }) in
  check ci "still delivered" 1 (count_kind `Pub pouts)

let test_merge_pass_disabled () =
  let b = make_broker ~id:0 ~neighbors:[ 1 ] () in
  ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 1; xpe = xp "/a/b/c" }));
  check ci "no merging" 0 (List.length (Broker.merge_pass b))

let test_strategy_names_roundtrip () =
  List.iter
    (fun name ->
      match Broker.strategy_of_name name with
      | Some _ -> ()
      | None -> Alcotest.failf "unknown strategy %s" name)
    Broker.strategy_names;
  check cb "unknown rejected" true (Broker.strategy_of_name "bogus" = None)

(* The NFA gauges read the automaton's counters, not walks of it; after
   seeded subscribe/unsubscribe churn they must still equal the walked
   values: the payloads stored in the covering tree, and the states of
   a fresh automaton over the survivors (which eager pruning makes the
   churned one equal to, as the nfa-integrity audit confirms). *)
let test_nfa_gauges_after_churn () =
  let prng = Xroute_support.Prng.create 1616 in
  let pool =
    [| "/a"; "/a/b"; "/a/b/c"; "//b/c"; "/a//c"; "/*/b"; "b/c"; "/a/b[@k='v']"; "//c//d"; "/x/y" |]
  in
  let b = make_broker ~id:0 ~neighbors:[ 1 ] () in
  let live = ref [] in
  let next = ref 0 in
  let gauge name =
    match Xroute_obs.Metrics.scalar (Broker.metrics b) name with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "gauge %s not registered" name
  in
  for round = 1 to 40 do
    for _ = 1 to 1 + Xroute_support.Prng.int prng 6 do
      if !live <> [] && Xroute_support.Prng.bernoulli prng 0.4 then begin
        let id = Xroute_support.Prng.choose prng (Array.of_list !live) in
        live := List.filter (fun i -> i <> id) !live;
        ignore (Broker.handle b ~from:(client 5) (Message.Unsubscribe { id }))
      end
      else begin
        incr next;
        let id = sid 5 !next in
        live := id :: !live;
        let xpe = xp (Xroute_support.Prng.choose prng pool) in
        ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id; xpe }))
      end
    done;
    Broker.refresh_metrics b;
    let view = Broker.audit_view b in
    check (Alcotest.list Alcotest.string) (Printf.sprintf "round %d: nfa audit" round) []
      view.av_nfa_invariants;
    let fresh = Rtable.Prt.create () in
    List.iter (fun (id, xpe, hop) -> ignore (Rtable.Prt.insert fresh id xpe hop)) view.av_subs;
    check ci (Printf.sprintf "round %d: payload gauge = tree walk" round)
      (List.length view.av_subs) (gauge "xroute_prt_payloads");
    check ci (Printf.sprintf "round %d: payload gauge = live subscriptions" round)
      (List.length !live) (gauge "xroute_prt_payloads");
    check ci (Printf.sprintf "round %d: state gauge = walked fresh build" round)
      (Rtable.Prt.nfa_states fresh) (gauge "xroute_nfa_states")
  done

let () =
  Alcotest.run "broker"
    [
      ( "srt",
        [
          Alcotest.test_case "add and match" `Quick test_srt_add_and_match;
          Alcotest.test_case "duplicate" `Quick test_srt_duplicate;
          Alcotest.test_case "adv covering" `Quick test_srt_adv_covering;
          Alcotest.test_case "remove" `Quick test_srt_remove;
          Alcotest.test_case "hops dedup" `Quick test_srt_hops_dedup;
        ] );
      ( "prt",
        [
          Alcotest.test_case "insert/match" `Quick test_prt_insert_match;
          Alcotest.test_case "remove promotions" `Quick test_prt_remove_reports_promotions;
          Alcotest.test_case "nfa gauges after churn" `Quick test_nfa_gauges_after_churn;
        ] );
      ( "advertisements",
        [
          Alcotest.test_case "flooding" `Quick test_adv_flooding;
          Alcotest.test_case "triggers sub forwarding" `Quick test_adv_triggers_sub_forwarding;
          Alcotest.test_case "unadvertise" `Quick test_unadvertise_floods;
        ] );
      ( "subscriptions",
        [
          Alcotest.test_case "flooding" `Quick test_sub_flooding_without_adv;
          Alcotest.test_case "covering suppression" `Quick test_sub_covering_suppression;
          Alcotest.test_case "covering displaces" `Quick test_sub_covering_displaces;
          Alcotest.test_case "no covering" `Quick test_sub_no_covering_everything_forwarded;
          Alcotest.test_case "adv routing selective" `Quick test_sub_adv_routing_selective;
          Alcotest.test_case "unsubscribe promotes" `Quick test_unsubscribe_propagates_and_promotes;
          Alcotest.test_case "shared-xpe survivor" `Quick test_unsubscribe_shared_xpe_survivor;
        ] );
      ( "publications",
        [
          Alcotest.test_case "forwarding" `Quick test_pub_forwarding;
          Alcotest.test_case "not backwards" `Quick test_pub_not_backwards;
          Alcotest.test_case "dropped counted" `Quick test_pub_dropped_counted;
          Alcotest.test_case "inbound trail ignored" `Quick test_pub_inbound_trail_ignored;
        ] );
      ( "merging",
        [
          Alcotest.test_case "merge pass" `Quick test_merge_pass_emits;
          Alcotest.test_case "disabled" `Quick test_merge_pass_disabled;
        ] );
      ("strategies", [ Alcotest.test_case "names" `Quick test_strategy_names_roundtrip ]);
    ]
