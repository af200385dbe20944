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

(* A covered subscription held back at this broker was sent nowhere, so
   neither the forwarded count nor its gauge counts it. *)
let test_held_back_not_forwarded () =
  let b = make_broker ~id:0 ~neighbors:[ 1 ] () in
  ignore (Broker.handle b ~from:(neighbor 1) (Message.Advertise { id = sid 9 1; adv = ad "/a/b" }));
  let outs = Broker.handle b ~from:(client 1) (Message.Subscribe { id = sid 1 1; xpe = xp "/a" }) in
  check ci "/a forwarded" 1 (count_kind `Sub outs);
  let outs = Broker.handle b ~from:(client 2) (Message.Subscribe { id = sid 2 1; xpe = xp "/a/b" }) in
  check ci "/a/b covered, nothing sent" 0 (List.length outs);
  check ci "forwarded count" 1 (Broker.forwarded_count b);
  Broker.refresh_metrics b;
  check (Alcotest.option (Alcotest.float 0.0)) "forwarded gauge" (Some 1.0)
    (Xroute_obs.Metrics.scalar (Broker.metrics b) "xroute_broker_forwarded_subs")

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

(* Two different XPEs that read alike when every value is printed inside
   ['...']: [tricky]'s one predicate value spells [plain]'s two
   predicates. They must get two PRT nodes. *)
let plain = "/a[@x='p'][@y='q']"
let tricky = "/a[@x=\"p'][@y='q\"]"

let tricky_pub () =
  Xroute_xml.Xml_paths.make ~doc_id:1 ~path_id:0 ~steps:[| "a" |]
    ~attrs:[| [ ("x", "p'][@y='q") ] |]
    ~doc_size:1 ~path_count:1

let audit_errors b =
  List.filter_map
    (fun (f : Xroute_check.Finding.t) ->
      match f.severity with
      | Xroute_check.Finding.Error -> Some (f.code ^ ": " ^ f.witness)
      | _ -> None)
    (Xroute_check.Check.audit_broker b)

let test_unsubscribe_distinct_printed_alike () =
  let b = make_broker ~id:0 ~neighbors:[ 1 ] () in
  ignore (Broker.handle b ~from:(client 2) (Message.Subscribe { id = sid 2 1; xpe = xp plain }));
  ignore (Broker.handle b ~from:(client 1) (Message.Subscribe { id = sid 1 1; xpe = xp tricky }));
  check ci "two nodes" 2 (Broker.prt_size b);
  ignore (Broker.handle b ~from:(client 1) (Message.Unsubscribe { id = sid 1 1 }));
  let outs =
    Broker.handle b ~from:(neighbor 1) (Message.Publish { pub = tricky_pub (); trail = []; ctx = None })
  in
  check ci "nothing for the departed client" 0 (List.length (msgs_to (client 1) outs));
  check (Alcotest.list Alcotest.string) "audit clean" [] (audit_errors b)

(* Deliver every message between the brokers of [bs] (indexed by id)
   until none is left; returns what reached clients, oldest first, and
   every broker-to-broker message as (from, to, message). *)
let pump bs outs0 =
  let q = Queue.create () in
  let delivered = ref [] and links = ref [] in
  List.iter (fun (src, outs) -> List.iter (fun o -> Queue.push (src, o) q) outs) outs0;
  while not (Queue.is_empty q) do
    match Queue.pop q with
    | _, (Rtable.Client c, m) -> delivered := (c, m) :: !delivered
    | src, (Rtable.Neighbor n, m) ->
      links := (src, n, m) :: !links;
      List.iter (fun o -> Queue.push (n, o) q) (Broker.handle bs.(n) ~from:(neighbor src) m)
  done;
  (List.rev !delivered, List.rev !links)

(* Broker 1 holds the publisher, broker 0 the subscribers. A later
   [/a[@x='p']] displaces only what it covers: [plain]'s forwarding, not
   [tricky]'s, which keeps drawing its publications through broker 1. *)
let test_cover_displaces_only_covered_twin () =
  let bs = [| make_broker ~id:0 ~neighbors:[ 1 ] (); make_broker ~id:1 ~neighbors:[ 0 ] () |] in
  let send at from m = ignore (pump bs [ (at, Broker.handle bs.(at) ~from m) ]) in
  send 1 (client 9) (Message.Advertise { id = sid 9 1; adv = ad "/a" });
  send 0 (client 2) (Message.Subscribe { id = sid 2 1; xpe = xp plain });
  send 0 (client 1) (Message.Subscribe { id = sid 1 1; xpe = xp tricky });
  let _, links =
    pump bs
      [ (0, Broker.handle bs.(0) ~from:(client 3) (Message.Subscribe { id = sid 3 1; xpe = xp "/a[@x='p']" })) ]
  in
  let unsubs =
    List.filter_map
      (fun (_, _, m) -> match m with Message.Unsubscribe { id } -> Some id | _ -> None)
      links
  in
  check cb "covered twin unsubscribed upstream" true (List.mem (sid 2 1) unsubs);
  check cb "no UNSUB for the uncovered twin" false (List.mem (sid 1 1) unsubs);
  let delivered, _ =
    pump bs
      [ (1, Broker.handle bs.(1) ~from:(client 9) (Message.Publish { pub = tricky_pub (); trail = []; ctx = None })) ]
  in
  check cb "the uncovered twin still receives" true (List.exists (fun (c, _) -> c = 1) delivered);
  Array.iter (fun b -> check (Alcotest.list Alcotest.string) "audit clean" [] (audit_errors b)) bs

(* Routing state is bounded by live subscriptions: 101k subscribe /
   unsubscribe pairs of distinct XPEs, each looked up in the SRT, leave
   the broker as small as it was. *)
let test_state_bounded_by_live_subscriptions () =
  let b = make_broker ~id:0 ~neighbors:[ 1 ] () in
  ignore (Broker.handle b ~from:(neighbor 1) (Message.Advertise { id = sid 9 1; adv = ad "/a/b" }));
  let pairs n0 n1 =
    for i = n0 to n1 - 1 do
      let id = sid 5 i in
      let xpe = xp (Printf.sprintf "/a/b[@x='%d']" i) in
      ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id; xpe }));
      ignore (Broker.handle b ~from:(client 5) (Message.Unsubscribe { id }))
    done
  in
  let kb () = Obj.reachable_words (Obj.repr b) * (Sys.word_size / 8) / 1024 in
  pairs 0 1_000;
  let after_1k = kb () in
  pairs 1_000 101_000;
  let after_101k = kb () in
  check ci "no live subscription" 0 (Broker.prt_size b);
  if after_101k >= 64 then
    Alcotest.failf "broker holds %d KB after 101k pairs (%d KB after 1k)" after_101k after_1k

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
  check cb "dropped" true
    (Xroute_obs.Metrics.scalar (Broker.metrics b) "xroute_broker_pubs_dropped_total" = Some 1.0)

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

(* Broker 0 floods to broker 1, and a Perfect merge pass has replaced
   [(5,1)] /a/b/c and [(5,2)] /a/b/d upstream by one merger /a/b/*. *)
let merged_broker () =
  let strategy = { Broker.default_strategy with Broker.use_adv = false; merging = Broker.Perfect } in
  let b = make_broker ~strategy ~id:0 ~neighbors:[ 1 ] () in
  Broker.set_universe b [ [| "a"; "b"; "c" |]; [| "a"; "b"; "d" |] ];
  ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 1; xpe = xp "/a/b/c" }));
  ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 2; xpe = xp "/a/b/d" }));
  let merger =
    match
      List.filter_map
        (fun (_, m) -> match m with Message.Subscribe { id; _ } -> Some id | _ -> None)
        (Broker.merge_pass b)
    with
    | [ id ] -> id
    | ids -> Alcotest.failf "expected one merger subscribed, got %d" (List.length ids)
  in
  (b, merger)

let subscribed_to ep id outs =
  List.exists
    (fun (e, m) ->
      Rtable.endpoint_equal e ep
      && match m with Message.Subscribe s -> s.id = id | _ -> false)
    outs

let unsubscribed_to ep id outs =
  List.exists
    (fun (e, m) ->
      Rtable.endpoint_equal e ep
      && match m with Message.Unsubscribe u -> u.id = id | _ -> false)
    outs

let test_member_leaving_dissolves_merger () =
  let b, merger = merged_broker () in
  let outs = Broker.handle b ~from:(client 5) (Message.Unsubscribe { id = sid 5 1 }) in
  check cb "UNSUB[merger] to broker:1" true (unsubscribed_to (neighbor 1) merger outs);
  check cb "SUB for the remaining member to broker:1" true
    (subscribed_to (neighbor 1) (sid 5 2) outs);
  check ci "nothing else" 2 (List.length outs);
  let v = Broker.audit_view b in
  check ci "no merger left" 0 (List.length v.av_mergers);
  check ci "no suppressed id left" 0 (List.length v.av_suppressed);
  check (Alcotest.list Alcotest.string) "audit clean" [] (audit_errors b);
  let pouts =
    Broker.handle b ~from:(neighbor 1) (Message.Publish { pub = pub "/a/b/d"; trail = []; ctx = None })
  in
  check ci "the remaining member still receives" 1 (List.length (msgs_to (client 5) pouts))

let test_dissolving_merger_forwards_covered_newcomer () =
  let b, merger = merged_broker () in
  let held =
    Broker.handle b ~from:(client 6) (Message.Subscribe { id = sid 6 1; xpe = xp "/a/b/c" })
  in
  check ci "newcomer held back by the merger" 0 (count_kind `Sub held);
  let outs = Broker.handle b ~from:(client 5) (Message.Unsubscribe { id = sid 5 1 }) in
  check cb "merger withdrawn" true (unsubscribed_to (neighbor 1) merger outs);
  check cb "newcomer forwarded" true (subscribed_to (neighbor 1) (sid 6 1) outs);
  let outs = Broker.handle b ~from:(client 5) (Message.Unsubscribe { id = sid 5 2 }) in
  check cb "last member withdrawn" true (unsubscribed_to (neighbor 1) (sid 5 2) outs);
  check ci "only the newcomer is forwarded" 1 (Broker.forwarded_count b);
  check (Alcotest.list Alcotest.string) "audit clean" [] (audit_errors b)

(* Members learned from a neighbor that restarts are purged, and the
   purge dissolves their merger like an unsubscribe. *)
let test_neighbor_reset_dissolves_merger () =
  let strategy = { Broker.default_strategy with Broker.use_adv = false; merging = Broker.Perfect } in
  let b = make_broker ~strategy ~id:0 ~neighbors:[ 1; 2 ] () in
  Broker.set_universe b [ [| "a"; "b"; "c" |]; [| "a"; "b"; "d" |] ];
  ignore (Broker.handle b ~from:(neighbor 2) (Message.Subscribe { id = sid 5 1; xpe = xp "/a/b/c" }));
  ignore (Broker.handle b ~from:(neighbor 2) (Message.Subscribe { id = sid 5 2; xpe = xp "/a/b/d" }));
  let merger =
    match msgs_to (neighbor 1) (Broker.merge_pass b) with
    | (_, Message.Subscribe { id; _ }) :: _ -> id
    | _ -> Alcotest.fail "expected the merger subscribed at broker:1"
  in
  let outs = Broker.neighbor_reset b ~ep:(neighbor 2) in
  check cb "UNSUB[merger] to broker:1" true (unsubscribed_to (neighbor 1) merger outs);
  check ci "no merger left" 0 (List.length (Broker.audit_view b).av_mergers);
  check ci "nothing forwarded" 0 (Broker.forwarded_count b);
  check (Alcotest.list Alcotest.string) "audit clean" [] (audit_errors b)

(* Merge state is bounded by live subscriptions: 10k rounds of two
   subscriptions (distinct XPEs under one neighbor advertisement), a
   merge pass that merges them, and both unsubscribes leave the broker
   as small as it was. *)
let test_merge_state_bounded () =
  let strategy = { Broker.default_strategy with merging = Broker.Perfect } in
  let b = make_broker ~strategy ~id:0 ~neighbors:[ 1 ] () in
  ignore (Broker.handle b ~from:(neighbor 1) (Message.Advertise { id = sid 9 1; adv = ad "/a/*/*" }));
  let mergers = ref 0 in
  let rounds n0 n1 =
    for i = n0 to n1 - 1 do
      let e = Printf.sprintf "e%d" i in
      Broker.set_universe b [ [| "a"; e; "c" |]; [| "a"; e; "d" |] ];
      let c = sid 5 (2 * i) and d = sid 5 ((2 * i) + 1) in
      ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = c; xpe = xp ("/a/" ^ e ^ "/c") }));
      ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = d; xpe = xp ("/a/" ^ e ^ "/d") }));
      if count_kind `Sub (Broker.merge_pass b) = 1 then incr mergers;
      ignore (Broker.handle b ~from:(client 5) (Message.Unsubscribe { id = c }));
      ignore (Broker.handle b ~from:(client 5) (Message.Unsubscribe { id = d }))
    done
  in
  let kb () = Obj.reachable_words (Obj.repr b) * (Sys.word_size / 8) / 1024 in
  rounds 0 100;
  let after_100 = kb () in
  rounds 100 10_000;
  let after_10k = kb () in
  check ci "every round merged" 10_000 !mergers;
  check ci "no live subscription" 0 (Broker.prt_size b);
  check ci "nothing forwarded" 0 (Broker.forwarded_count b);
  if after_10k >= 64 then
    Alcotest.failf "broker holds %d KB after 10k merge rounds (%d KB after 100)" after_10k
      after_100

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

(* The PRT resumes a document's next path from the prefix it shares
   with the previous one: xroute_prt_match_ops_resumed_total grows on a
   document's second path and stays flat on the first path after an
   insert (which drops the log), while xroute_prt_match_checks_total
   stays what the never-resuming reference automaton charges. *)
let test_prt_resumed_counter () =
  let b = make_broker ~id:0 ~neighbors:[ 1 ] () in
  let r : unit Yfilter_ref.t = Yfilter_ref.create () in
  let counter name =
    Broker.refresh_metrics b;
    match Xroute_obs.Metrics.scalar (Broker.metrics b) name with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "counter %s not registered" name
  in
  let resumed () = counter "xroute_prt_match_ops_resumed_total" in
  let subscribe seq x =
    ignore
      (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 seq; xpe = xp x }));
    Yfilter_ref.insert r (xp x) ()
  in
  let publish s =
    let p = pub ~doc_id:1 s in
    ignore (Broker.handle b ~from:(neighbor 1) (Message.Publish { pub = p; trail = []; ctx = None }));
    ignore (Yfilter_ref.match_syms r p.syms p.attrs)
  in
  List.iteri (fun i x -> subscribe i x) [ "/a/b/c"; "/a/*/d"; "//b"; "/a/b" ];
  publish "/a/b/c";
  let first = resumed () in
  publish "/a/b/d";
  let second = resumed () in
  check cb "grows on the document's second path" true (second > first);
  subscribe 9 "/a/b/e";
  publish "/a/b/e";
  check ci "flat on the path after an insert" second (resumed ());
  publish "/a/b/f";
  check cb "grows again on the next path" true (resumed () > second);
  check ci "match checks = the reference's charge" (Yfilter_ref.match_ops r)
    (counter "xroute_prt_match_checks_total")

(* Churn on a stored XPE adds or removes a payload, not an automaton
   entry: a subscribe and unsubscribe of an equal XPE between two paths
   of one document leave the resume log in place. *)
let test_prt_resume_survives_equal_churn () =
  let b = make_broker ~id:0 ~neighbors:[ 1 ] () in
  let resumed () =
    Broker.refresh_metrics b;
    match Xroute_obs.Metrics.scalar (Broker.metrics b) "xroute_prt_match_ops_resumed_total" with
    | Some v -> int_of_float v
    | None -> Alcotest.fail "resumed counter not registered"
  in
  let publish s =
    Broker.handle b ~from:(neighbor 1)
      (Message.Publish { pub = pub ~doc_id:1 s; trail = []; ctx = None })
  in
  ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 1; xpe = xp "/a/b" }));
  ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 2; xpe = xp "//c" }));
  ignore (publish "/a/b/c");
  let before = resumed () in
  ignore (Broker.handle b ~from:(client 6) (Message.Subscribe { id = sid 6 1; xpe = xp "/a/b" }));
  ignore (Broker.handle b ~from:(client 6) (Message.Unsubscribe { id = sid 6 1 }));
  let outs = publish "/a/b/d" in
  check cb "grows across the equal XPE's churn" true (resumed () > before);
  check ci "delivered to the stored subscriber only" 1 (List.length (msgs_to (client 5) outs));
  check ci "nothing to the departed one" 0 (List.length (msgs_to (client 6) outs))

(* Compiled advertisements are shared through a weak table: once their
   SRT entries are gone, a full major collection empties it, however
   many distinct advertisements came and went. *)
let test_compiled_advs_bounded () =
  let b = make_broker ~id:0 ~neighbors:[ 1 ] () in
  let compiled_mid = ref 0 in
  for i = 1 to 10_000 do
    let adv = ad (Printf.sprintf "/a/fresh%d(/x)+" i) in
    ignore (Broker.handle b ~from:(neighbor 1) (Message.Advertise { id = sid 9 i; adv }));
    (* the lookup compiles the newest entry, the one just advertised *)
    ignore (Broker.handle b ~from:(client 5) (Message.Subscribe { id = sid 5 i; xpe = xp "/a" }));
    if i = 5_000 then compiled_mid := Adv_match.live_compiled ();
    ignore (Broker.handle b ~from:(client 5) (Message.Unsubscribe { id = sid 5 i }));
    ignore (Broker.handle b ~from:(neighbor 1) (Message.Unadvertise { id = sid 9 i }))
  done;
  check cb "lookups compiled advertisements" true (!compiled_mid > 0);
  check ci "no advertisement left" 0 (Broker.srt_size b);
  Gc.full_major ();
  check ci "sharing table empty" 0 (Adv_match.live_compiled ())

let () =
  Alcotest.run "broker"
    [
      ( "srt",
        [
          Alcotest.test_case "add and match" `Quick test_srt_add_and_match;
          Alcotest.test_case "duplicate" `Quick test_srt_duplicate;
          Alcotest.test_case "remove" `Quick test_srt_remove;
          Alcotest.test_case "hops dedup" `Quick test_srt_hops_dedup;
        ] );
      ( "prt",
        [
          Alcotest.test_case "insert/match" `Quick test_prt_insert_match;
          Alcotest.test_case "remove promotions" `Quick test_prt_remove_reports_promotions;
          Alcotest.test_case "nfa gauges after churn" `Quick test_nfa_gauges_after_churn;
          Alcotest.test_case "resumed match counter" `Quick test_prt_resumed_counter;
          Alcotest.test_case "resume survives churn on a stored XPE" `Quick
            test_prt_resume_survives_equal_churn;
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
          Alcotest.test_case "held back is not forwarded" `Quick test_held_back_not_forwarded;
          Alcotest.test_case "covering displaces" `Quick test_sub_covering_displaces;
          Alcotest.test_case "no covering" `Quick test_sub_no_covering_everything_forwarded;
          Alcotest.test_case "adv routing selective" `Quick test_sub_adv_routing_selective;
          Alcotest.test_case "unsubscribe promotes" `Quick test_unsubscribe_propagates_and_promotes;
          Alcotest.test_case "shared-xpe survivor" `Quick test_unsubscribe_shared_xpe_survivor;
          Alcotest.test_case "distinct XPEs printed alike" `Quick
            test_unsubscribe_distinct_printed_alike;
          Alcotest.test_case "covering displaces only the covered twin" `Quick
            test_cover_displaces_only_covered_twin;
          Alcotest.test_case "state bounded by live subscriptions" `Quick
            test_state_bounded_by_live_subscriptions;
          Alcotest.test_case "compiled advertisements bounded by live entries" `Quick
            test_compiled_advs_bounded;
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
          Alcotest.test_case "member leaving dissolves the merger" `Quick
            test_member_leaving_dissolves_merger;
          Alcotest.test_case "dissolving forwards a covered newcomer" `Quick
            test_dissolving_merger_forwards_covered_newcomer;
          Alcotest.test_case "neighbor reset dissolves the merger" `Quick
            test_neighbor_reset_dissolves_merger;
          Alcotest.test_case "merge state bounded" `Quick test_merge_state_bounded;
        ] );
      ("strategies", [ Alcotest.test_case "names" `Quick test_strategy_names_roundtrip ]);
    ]
