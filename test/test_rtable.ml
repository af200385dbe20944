(* Focused tests for the routing tables (SRT and PRT) complementing the
   protocol-level broker tests. *)

open Xroute_core
open Xroute_xpath

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let xp = Xpe_parser.parse
let ad = Adv.parse
let sid o s = { Message.origin = o; seq = s }
let n i = Rtable.Neighbor i
let c i = Rtable.Client i

let pub s = Xroute_xml.Xml_paths.publication_of_string s

(* ---------------- endpoints ---------------- *)

let test_endpoint_equal () =
  check cb "same neighbor" true (Rtable.endpoint_equal (n 1) (n 1));
  check cb "diff neighbor" false (Rtable.endpoint_equal (n 1) (n 2));
  check cb "kind mismatch" false (Rtable.endpoint_equal (n 1) (c 1));
  check cb "same client" true (Rtable.endpoint_equal (c 3) (c 3))

(* ---------------- SRT ---------------- *)

let test_srt_recursive_advertisements () =
  let srt = Rtable.Srt.create () in
  ignore (Rtable.Srt.add srt (sid 1 1) (ad "/a(/b)+/c") (n 4));
  check ci "deep sub routed" 1 (List.length (Rtable.Srt.hops_for_sub srt (xp "/a/b/b/b/c")));
  check ci "mismatch not" 0 (List.length (Rtable.Srt.hops_for_sub srt (xp "/a/c/c")))

let test_srt_ids_from () =
  let srt = Rtable.Srt.create () in
  ignore (Rtable.Srt.add srt (sid 1 1) (ad "/a") (n 1));
  ignore (Rtable.Srt.add srt (sid 1 2) (ad "/b") (n 1));
  ignore (Rtable.Srt.add srt (sid 1 3) (ad "/c") (n 2));
  check ci "two from n1" 2 (List.length (Rtable.Srt.ids_from srt (n 1)));
  check ci "one from n2" 1 (List.length (Rtable.Srt.ids_from srt (n 2)));
  check ci "none from n3" 0 (List.length (Rtable.Srt.ids_from srt (n 3)))

let test_srt_match_ops_counted () =
  (* match_ops charges one op per entry actually scanned: the root
     index narrows a rooted subscription to its own bucket, while an
     unanchored one pays for every entry. *)
  let srt = Rtable.Srt.create () in
  ignore (Rtable.Srt.add srt (sid 1 1) (ad "/a") (n 1));
  ignore (Rtable.Srt.add srt (sid 1 2) (ad "/b") (n 2));
  let before = Rtable.Srt.match_ops srt in
  ignore (Rtable.Srt.hops_for_sub srt (xp "/a"));
  check ci "rooted: only the /a bucket scanned" 1 (Rtable.Srt.match_ops srt - before);
  let before = Rtable.Srt.match_ops srt in
  ignore (Rtable.Srt.hops_for_sub srt (xp "//a"));
  check ci "unanchored: one op per entry" 2 (Rtable.Srt.match_ops srt - before)

let test_srt_remove_missing () =
  let srt = Rtable.Srt.create () in
  check cb "remove absent" true (Rtable.Srt.remove srt (sid 9 9) = None)

let ep = Alcotest.testable Rtable.pp_endpoint Rtable.endpoint_equal

(* hops_for_sub deduplicates preserving first-occurrence order: entries
   are scanned newest-first, so the hop of the newest matching
   advertisement comes first and later duplicates are dropped (they must
   not reorder the list, as the old reversing fold did). *)
let test_srt_hops_first_occurrence_order () =
  let srt = Rtable.Srt.create () in
  ignore (Rtable.Srt.add srt (sid 1 1) (ad "/a/b") (n 1));
  ignore (Rtable.Srt.add srt (sid 1 2) (ad "/a/c") (n 2));
  ignore (Rtable.Srt.add srt (sid 1 3) (ad "/a/d") (n 1));
  check (Alcotest.list ep) "newest-first, dedup keeps first" [ n 1; n 2 ]
    (Rtable.Srt.hops_for_sub srt (xp "/a"));
  (* an unanchored lookup spans every bucket in the same order *)
  check (Alcotest.list ep) "unanchored lookup identical" [ n 1; n 2 ]
    (Rtable.Srt.hops_for_sub srt (xp "//a"))

(* The root-element index partitions advertisements by first symbol;
   a rooted subscription only pays for its own bucket plus the
   catch-all (star / recursive-rooted advertisements). *)
let test_srt_skips_foreign_buckets () =
  let srt = Rtable.Srt.create () in
  ignore (Rtable.Srt.add srt (sid 1 1) (ad "/a/b") (n 1));
  ignore (Rtable.Srt.add srt (sid 1 2) (ad "/b/c") (n 2));
  ignore (Rtable.Srt.add srt (sid 1 3) (ad "/*/c") (n 3));
  check ci "buckets" 2 (Rtable.Srt.bucket_count srt);
  check ci "catch-all holds star root" 1 (Rtable.Srt.catch_all_size srt);
  check ci "max bucket" 1 (Rtable.Srt.max_bucket_size srt);
  let before = Rtable.Srt.match_ops srt in
  ignore (Rtable.Srt.hops_for_sub srt (xp "/a/b"));
  check ci "rooted sub skips /b bucket" 2 (Rtable.Srt.match_ops srt - before);
  let before = Rtable.Srt.match_ops srt in
  ignore (Rtable.Srt.hops_for_sub srt (xp "//c"));
  check ci "desc-first sub scans everything" 3 (Rtable.Srt.match_ops srt - before)

(* The full-scan oracle for [hops_for_sub]: the overlap test over every
   stored entry, neighbor hops only, deduplicated by first occurrence in
   the newest-first order of [entries] (an entry whose hop is already in
   the answer cannot change it, so its test is skipped). *)
let oracle_hops srt xpe =
  List.fold_left
    (fun acc (e : Rtable.Srt.entry) ->
      match e.hop with
      | Rtable.Neighbor _
        when (not (List.exists (Rtable.endpoint_equal e.hop) acc))
             && Adv_match.overlaps_paper xpe e.adv ->
        e.hop :: acc
      | Rtable.Neighbor _ | Rtable.Client _ -> acc)
    [] (Rtable.Srt.entries srt)
  |> List.rev

(* The entries a lookup is charged for: the whole table for an
   unanchored subscription, otherwise the entries rooted at the
   subscription's root element plus the star- and group-rooted ones. *)
let oracle_candidates srt xpe =
  let rooted_at n (e : Rtable.Srt.entry) =
    match Adv.parts e.adv with
    | Adv.Lit steps :: _ -> (
      match steps.(0) with Xpe.Name m -> Xroute_support.Symbol.equal m n | Xpe.Star -> true)
    | _ -> true
  in
  let all = Rtable.Srt.entries srt in
  match Rtable.Srt.sub_root xpe with
  | Some n -> List.length (List.filter (rooted_at n) all)
  | None -> List.length all

(* Every lookup against the oracle, fresh and then as a memo hit: the
   same hop list, with every candidate entry charged to [match_ops]. *)
let check_oracle label srt subs =
  List.iteri
    (fun i x ->
      let label = Printf.sprintf "%s, sub %d" label i in
      let expected = oracle_hops srt x in
      let candidates = oracle_candidates srt x in
      for _ = 1 to 2 do
        let ops0 = Rtable.Srt.match_ops srt in
        check (Alcotest.list ep) (label ^ ": hops") expected (Rtable.Srt.hops_for_sub srt x);
        check ci (label ^ ": candidates charged") candidates (Rtable.Srt.match_ops srt - ops0)
      done)
    subs

(* Differential against the full-scan oracle on two inputs, both tables
   mixing client and neighbor hops with many entries per hop (so the
   per-hop early exit skips most overlap tests). A seeded random table,
   before and after removals; and the advertisement sets of all four
   bundled feeds (1 067 entries, every fifth from a local client) under
   2 000 NITF Set-A subscriptions, where the root index must charge
   strictly fewer ops than the full scan. *)
let test_srt_full_scan_oracle_differential () =
  let prng = Xroute_support.Prng.create 4242 in
  let pick a = Xroute_support.Prng.choose prng a in
  let names = [| "a"; "b"; "c"; "d" |] in
  let hops = [| n 1; n 2; n 3; c 7; c 8 |] in
  let random_adv i =
    let step () = "/" ^ pick names in
    let body = String.concat "" (List.init (1 + Xroute_support.Prng.int prng 3) (fun _ -> step ())) in
    let s =
      match Xroute_support.Prng.int prng 5 with
      | 0 -> "/*" ^ body
      | 1 -> "(" ^ step () ^ ")+" ^ body
      | 2 -> step () ^ "(" ^ step () ^ ")+" ^ body
      | _ -> step () ^ body
    in
    (sid 1 i, ad s, pick hops)
  in
  let advs = List.init 150 random_adv in
  let subs =
    List.init 60 (fun _ ->
        match Xroute_support.Prng.int prng 4 with
        | 0 -> xp ("//" ^ pick names)
        | 1 -> xp ("/*/" ^ pick names)
        | 2 -> xp (pick names ^ "/" ^ pick names)
        | _ -> xp ("/" ^ pick names ^ "/" ^ pick names ^ "//" ^ pick names))
  in
  let srt = Rtable.Srt.create () in
  List.iter (fun (id, a, hop) -> ignore (Rtable.Srt.add srt id a hop)) advs;
  check_oracle "full table" srt subs;
  check cb "early exit skipped overlap tests" true
    (Rtable.Srt.overlap_tests srt < Rtable.Srt.match_ops srt);
  check cb "index skipped candidates" true
    (Rtable.Srt.match_ops srt < 2 * List.length subs * Rtable.Srt.size srt);
  List.iteri (fun i (id, _, _) -> if i mod 3 = 0 then ignore (Rtable.Srt.remove srt id)) advs;
  check_oracle "after removals" srt subs;
  let module Samples = Xroute_dtd.Dtd_samples in
  let dtds = [ Samples.nitf; Samples.psd; Samples.book; Samples.insurance ] in
  let feeds =
    List.concat_map
      (fun d ->
        Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build (Lazy.force d)))
      dtds
  in
  let srt = Rtable.Srt.create () in
  List.iteri
    (fun i a ->
      let hop = if i mod 5 = 4 then c (i mod 3) else n (i mod 4) in
      ignore (Rtable.Srt.add srt (sid 1 i) a hop))
    feeds;
  let xpes =
    Xroute_workload.Workload.xpes
      ~params:(Xroute_workload.Workload.set_a_params (Lazy.force Samples.nitf))
      ~count:2000 ~seed:11 ()
  in
  check ci "four feeds' advertisements" 1067 (Rtable.Srt.size srt);
  check_oracle "four feeds" srt xpes;
  check cb "index charges fewer ops than the full scan" true
    (Rtable.Srt.match_ops srt < 2 * List.length xpes * Rtable.Srt.size srt)

(* ---------------- PRT ---------------- *)

let test_prt_ids_and_find () =
  let prt = Rtable.Prt.create () in
  let _ = Rtable.Prt.insert prt (sid 2 1) (xp "/a") (n 1) in
  check cb "mem" true (Rtable.Prt.mem prt (sid 2 1));
  check cb "not mem" false (Rtable.Prt.mem prt (sid 2 2));
  (match Rtable.Prt.find prt (sid 2 1) with
  | Some (node, payload) ->
    check cb "node holds xpe" true (Xpe.equal (Sub_tree.node_xpe node) (xp "/a"));
    check cb "payload hop" true (Rtable.endpoint_equal payload.Rtable.Prt.hop (n 1))
  | None -> Alcotest.fail "find failed")

let test_prt_equal_xpes_one_node () =
  let prt = Rtable.Prt.create () in
  let n1, _ = Rtable.Prt.insert prt (sid 2 1) (xp "/a/b") (n 1) in
  let n2, _ = Rtable.Prt.insert prt (sid 3 1) (xp "/a/b") (n 2) in
  check cb "shared node" true (n1 == n2);
  check ci "size counts distinct XPEs" 1 (Rtable.Prt.size prt);
  check ci "payloads kept" 2 (Sub_tree.payload_count (Rtable.Prt.tree prt));
  (* publication matches both hops *)
  check ci "two payloads" 2 (List.length (Rtable.Prt.match_pub prt (pub "/a/b")))

let test_prt_remove_keeps_sharing () =
  let prt = Rtable.Prt.create () in
  ignore (Rtable.Prt.insert prt (sid 2 1) (xp "/a") (n 1));
  ignore (Rtable.Prt.insert prt (sid 3 1) (xp "/a") (n 2));
  (match Rtable.Prt.remove prt (sid 2 1) with
  | Some (_, node) ->
    check ci "other payload stays on the node" 1 (List.length (Sub_tree.node_payloads node))
  | None -> Alcotest.fail "remove failed");
  check ci "node still present" 1 (Rtable.Prt.size prt);
  check ci "still matches" 1 (List.length (Rtable.Prt.match_pub prt (pub "/a/b")))

let test_prt_covering_queries () =
  let prt = Rtable.Prt.create () in
  ignore (Rtable.Prt.insert prt (sid 2 1) (xp "/a") (n 1));
  ignore (Rtable.Prt.insert prt (sid 2 2) (xp "/a/b") (n 2));
  let tree = Rtable.Prt.tree prt in
  check cb "covered" true (Sub_tree.is_covered tree (xp "/a/b/c"));
  check cb "not covered" false (Sub_tree.is_covered tree (xp "/z"));
  check ci "covered maximal" 1 (List.length (Sub_tree.covered_roots tree (xp "/*")))

let test_prt_flat_mode () =
  let prt = Rtable.Prt.create ~flat:true () in
  ignore (Rtable.Prt.insert prt (sid 2 1) (xp "/a") (n 1));
  ignore (Rtable.Prt.insert prt (sid 2 2) (xp "/a/b") (n 2));
  check cb "flat: no covering" false (Sub_tree.is_covered (Rtable.Prt.tree prt) (xp "/a/b"));
  check ci "flat: still matches" 2 (List.length (Rtable.Prt.match_pub prt (pub "/a/b")))

let test_prt_attr_matching () =
  let prt = Rtable.Prt.create () in
  ignore (Rtable.Prt.insert prt (sid 2 1) (xp "/a[@k='v']") (c 1));
  let p_ok =
    { (pub "/a/b") with Xroute_xml.Xml_paths.attrs = [| [ ("k", "v") ]; [] |] }
  in
  let p_bad =
    { (pub "/a/b") with Xroute_xml.Xml_paths.attrs = [| [ ("k", "w") ]; [] |] }
  in
  check ci "attr match" 1 (List.length (Rtable.Prt.match_pub prt p_ok));
  check ci "attr mismatch" 0 (List.length (Rtable.Prt.match_pub prt p_bad))

let test_prt_counters_move () =
  let prt = Rtable.Prt.create () in
  ignore (Rtable.Prt.insert prt (sid 2 1) (xp "/a") (n 1));
  let m0 = Rtable.Prt.match_checks prt in
  ignore (Rtable.Prt.match_pub prt (pub "/a/b"));
  check cb "match checks counted" true (Rtable.Prt.match_checks prt > m0)

(* The name-signature prefilter on the smoke gate's PRT corpus (1 500
   PSD Set-A XPEs, seed 13): every candidate is still charged, and
   most never reach the covering predicate. *)
let test_prt_cover_prefilter () =
  let psd = Lazy.force Xroute_dtd.Dtd_samples.psd in
  let xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params psd)
      ~count:1500 ~seed:13 ()
  in
  let prt = Rtable.Prt.create () in
  List.iteri (fun i x -> ignore (Rtable.Prt.insert prt (sid 2 i) x (c 0))) xpes;
  let checks = Rtable.Prt.cover_checks prt and tests = Rtable.Prt.cover_tests prt in
  check cb "covering checks charged" true (checks > 0);
  check cb "covering predicate called" true (tests > 0);
  check cb "prefilter rejected candidates" true (tests < checks)

(* One automaton entry per tree node: churn among the subscribers of a
   stored XPE leaves the automaton alone, answers keep insertion order
   across shared nodes, and the audit holds throughout. *)
let test_prt_one_entry_per_node () =
  let prt = Rtable.Prt.create () in
  let audit label =
    check (Alcotest.list Alcotest.string) label [] (Rtable.Prt.nfa_invariants prt)
  in
  let ids l = List.map (fun (p : Rtable.Prt.payload) -> p.id.Message.seq) l in
  ignore (Rtable.Prt.insert prt (sid 2 1) (xp "/a/b") (n 1));
  ignore (Rtable.Prt.insert prt (sid 2 2) (xp "/a") (n 2));
  ignore (Rtable.Prt.insert prt (sid 2 3) (xp "/a/b") (n 3));
  ignore (Rtable.Prt.insert prt (sid 2 4) (xp "//b") (c 4));
  audit "after inserts";
  check ci "nodes" 3 (Rtable.Prt.size prt);
  check ci "payload counter" 4 (Rtable.Prt.nfa_payloads prt);
  check (Alcotest.list ci) "insertion order across shared nodes" [ 1; 2; 3; 4 ]
    (ids (Rtable.Prt.match_pub prt (pub "/a/b")));
  let states = Rtable.Prt.nfa_states prt in
  ignore (Rtable.Prt.remove prt (sid 2 1));
  audit "after removing a shared payload";
  check ci "states untouched" states (Rtable.Prt.nfa_states prt);
  check (Alcotest.list ci) "survivors" [ 2; 3; 4 ] (ids (Rtable.Prt.match_pub prt (pub "/a/b")));
  ignore (Rtable.Prt.remove prt (sid 2 3));
  audit "after the node's last payload";
  check ci "node gone" 2 (Rtable.Prt.size prt);
  check ci "payload counter after removals" 2 (Rtable.Prt.nfa_payloads prt);
  check (Alcotest.list ci) "remaining" [ 2; 4 ] (ids (Rtable.Prt.match_pub prt (pub "/a/b")))

(* The audit's must-fail mutations of the one-entry-per-node rule. *)
let test_prt_entry_mutations_caught () =
  List.iter
    (fun (label, mutation) ->
      let prt = Rtable.Prt.create () in
      ignore (Rtable.Prt.insert prt (sid 2 1) (xp "/a/b") (n 1));
      ignore (Rtable.Prt.insert prt (sid 2 2) (xp "/a/b") (n 2));
      check (Alcotest.list Alcotest.string) (label ^ ": clean before") []
        (Rtable.Prt.nfa_invariants prt);
      Rtable.Prt.corrupt_nfa prt mutation;
      check cb (label ^ ": reported") true (Rtable.Prt.nfa_invariants prt <> []))
    [ ("duplicate entry", `Duplicate_entry); ("node-less entry", `Nodeless_entry) ]

let () =
  Alcotest.run "rtable"
    [
      ("endpoints", [ Alcotest.test_case "equality" `Quick test_endpoint_equal ]);
      ( "srt",
        [
          Alcotest.test_case "recursive advs" `Quick test_srt_recursive_advertisements;
          Alcotest.test_case "ids_from" `Quick test_srt_ids_from;
          Alcotest.test_case "match ops" `Quick test_srt_match_ops_counted;
          Alcotest.test_case "remove missing" `Quick test_srt_remove_missing;
          Alcotest.test_case "hop first-occurrence order" `Quick
            test_srt_hops_first_occurrence_order;
          Alcotest.test_case "index skips foreign buckets" `Quick
            test_srt_skips_foreign_buckets;
          Alcotest.test_case "full-scan oracle differential" `Quick
            test_srt_full_scan_oracle_differential;
        ] );
      ( "prt",
        [
          Alcotest.test_case "ids and find" `Quick test_prt_ids_and_find;
          Alcotest.test_case "equal xpes share" `Quick test_prt_equal_xpes_one_node;
          Alcotest.test_case "remove sharing" `Quick test_prt_remove_keeps_sharing;
          Alcotest.test_case "covering queries" `Quick test_prt_covering_queries;
          Alcotest.test_case "flat mode" `Quick test_prt_flat_mode;
          Alcotest.test_case "attribute matching" `Quick test_prt_attr_matching;
          Alcotest.test_case "counters" `Quick test_prt_counters_move;
          Alcotest.test_case "cover prefilter" `Quick test_prt_cover_prefilter;
          Alcotest.test_case "one automaton entry per node" `Quick test_prt_one_entry_per_node;
          Alcotest.test_case "entry mutations caught" `Quick test_prt_entry_mutations_caught;
        ] );
    ]
