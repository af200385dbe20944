(* Differential testing of the matchers on seeded workloads: the
   publication routing table (Rtable.Prt, whose answer is its YFilter
   NFA), the raw YFilter index and the PRT's covering tree (Sub_tree,
   the paper's matcher) must each agree with direct XPE evaluation
   (Xpe_eval) on the matched subscription set for every publication.
   Any disagreement is shrunk to a minimal (XPE, path) pair and printed
   before failing. *)

open Xroute_core
open Xroute_xpath

let check = Alcotest.check

(* ---------------- oracles ---------------- *)

(* Direct evaluation: the semantics every index must reproduce. *)
let direct_matches xpes (pub : Xroute_xml.Xml_paths.publication) =
  List.mapi (fun i x -> (i, x)) xpes
  |> List.filter_map (fun (i, x) ->
         if Xpe_eval.matches_steps x pub.steps pub.attrs then Some i else None)

let sort_uniq is = List.sort_uniq compare is

(* Index a population: subscription [i] becomes id [{origin = 1; seq = i}]. *)
let build_prt ?flat xpes =
  let prt = Rtable.Prt.create ?flat () in
  List.iteri
    (fun i x -> ignore (Rtable.Prt.insert prt { Message.origin = 1; seq = i } x (Rtable.Client 0)))
    xpes;
  prt

let build_yfilter xpes =
  let yf = Yfilter.create () in
  List.iteri (fun i x -> Yfilter.insert yf x i) xpes;
  yf

let seqs payloads = List.map (fun (p : Rtable.Prt.payload) -> p.id.Message.seq) payloads |> sort_uniq

let prt_matches prt (pub : Xroute_xml.Xml_paths.publication) = seqs (Rtable.Prt.match_pub prt pub)

(* The PRT's covering tree, matched directly (pruned DFS). *)
let tree_matches prt (pub : Xroute_xml.Xml_paths.publication) =
  seqs (Xroute_ref.Tree_match.match_syms (Rtable.Prt.tree prt) pub.syms pub.attrs)

let yf_matches yf (pub : Xroute_xml.Xml_paths.publication) =
  Yfilter.match_path yf pub.steps pub.attrs |> sort_uniq

(* ---------------- shrinking ---------------- *)

let path_of_steps steps = "/" ^ String.concat "/" (Array.to_list steps)

(* Shrink a disagreement on one XPE to the shortest path prefix that
   still disagrees, re-indexing just that XPE. *)
let shrink_path engine_name engine_of_xpe xpe (pub : Xroute_xml.Xml_paths.publication) =
  let disagrees steps attrs =
    let expect = Xpe_eval.matches_steps xpe steps attrs in
    engine_of_xpe xpe steps attrs <> expect
  in
  let n = Array.length pub.steps in
  let best = ref (pub.steps, pub.attrs) in
  (try
     for len = 1 to n do
       let steps = Array.sub pub.steps 0 len and attrs = Array.sub pub.attrs 0 len in
       if disagrees steps attrs then begin
         best := (steps, attrs);
         raise Exit
       end
     done
   with Exit -> ());
  let steps, _ = !best in
  Printf.printf "  engine %s, xpe %s, shrunk path %s (full: %s)\n%!" engine_name
    (Xpe.to_string xpe) (path_of_steps steps) (path_of_steps pub.steps)

let prt_single xpe steps attrs =
  let prt = build_prt [ xpe ] in
  Rtable.Prt.match_pub prt
    (Xroute_xml.Xml_paths.make ~doc_id:0 ~path_id:0 ~steps ~attrs ~doc_size:0 ~path_count:1)
  <> []

let prt_tree_single xpe steps attrs =
  let prt = build_prt [ xpe ] in
  tree_matches prt
    (Xroute_xml.Xml_paths.make ~doc_id:0 ~path_id:0 ~steps ~attrs ~doc_size:0 ~path_count:1)
  <> []

let yf_single xpe steps attrs =
  let yf = build_yfilter [ xpe ] in
  Yfilter.match_path yf steps attrs <> []

let report_mismatch ~round xpes pub ~expect ~engine_name ~got ~single =
  let diff =
    List.filter (fun i -> not (List.mem i got)) expect
    @ List.filter (fun i -> not (List.mem i expect)) got
  in
  Printf.printf "mismatch in %s: %s on publication %s\n%!" round engine_name
    (path_of_steps pub.Xroute_xml.Xml_paths.steps);
  List.iter (fun i -> shrink_path engine_name single (List.nth xpes i) pub) (sort_uniq diff);
  List.length diff

(* ---------------- the sweep ---------------- *)

(* One workload round: generate a seeded XPE population and document
   set, index the population in both engines, and compare the matched
   id set against direct evaluation for every (publication, engine)
   pair. Returns the number of compared (publication, xpe) pairs. *)
let run_round ~name ~dtd ~params ~xpe_count ~xpe_seed ~doc_count ~doc_seed () =
  let xpes = Xroute_workload.Workload.xpes ~params ~count:xpe_count ~seed:xpe_seed () in
  let docs = Xroute_workload.Workload.documents ~dtd ~count:doc_count ~seed:doc_seed () in
  let pubs = Xroute_workload.Workload.publications_of_documents docs in
  (* the PRT, its covering tree and the raw automaton: each must agree
     with direct evaluation *)
  let prt = build_prt xpes in
  let yf = build_yfilter xpes in
  let mismatches = ref 0 in
  List.iter
    (fun pub ->
      let expect = sort_uniq (direct_matches xpes pub) in
      let from_prt = prt_matches prt pub in
      let from_tree = tree_matches prt pub in
      let from_yf = yf_matches yf pub in
      if from_prt <> expect then
        mismatches :=
          !mismatches
          + report_mismatch ~round:name xpes pub ~expect ~engine_name:"prt-nfa" ~got:from_prt
              ~single:prt_single;
      if from_tree <> expect then
        mismatches :=
          !mismatches
          + report_mismatch ~round:name xpes pub ~expect ~engine_name:"prt-tree"
              ~got:from_tree ~single:prt_tree_single;
      if from_yf <> expect then
        mismatches :=
          !mismatches
          + report_mismatch ~round:name xpes pub ~expect ~engine_name:"yfilter" ~got:from_yf
              ~single:yf_single)
    pubs;
  check Alcotest.int (name ^ ": engines agree with direct evaluation") 0 !mismatches;
  List.length pubs * List.length xpes

let psd = Lazy.force Xroute_dtd.Dtd_samples.psd
let nitf = Lazy.force Xroute_dtd.Dtd_samples.nitf

let rounds =
  [
    ("psd set A", psd, Xroute_workload.Workload.set_a_params psd, 60, 11, 8, 12);
    ("psd set B", psd, Xroute_workload.Workload.set_b_params psd, 60, 21, 8, 22);
    ("nitf set A", nitf, Xroute_workload.Workload.set_a_params nitf, 50, 31, 6, 32);
    ("nitf set B", nitf, Xroute_workload.Workload.set_b_params nitf, 50, 41, 6, 42);
  ]

let test_sweep () =
  let pairs =
    List.fold_left
      (fun acc (name, dtd, params, xpe_count, xpe_seed, doc_count, doc_seed) ->
        acc + run_round ~name ~dtd ~params ~xpe_count ~xpe_seed ~doc_count ~doc_seed ())
      0 rounds
  in
  Printf.printf "differential sweep: %d (publication, xpe) pairs compared\n%!" pairs;
  check Alcotest.bool "at least 1000 seeded pairs" true (pairs >= 1000)

(* The flat (covering-free) PRT must agree too: covering-based pruning
   may not change the matched set. *)
let test_flat_prt_agrees () =
  let params = Xroute_workload.Workload.set_a_params psd in
  let xpes = Xroute_workload.Workload.xpes ~params ~count:40 ~seed:51 () in
  let docs = Xroute_workload.Workload.documents ~dtd:psd ~count:5 ~seed:52 () in
  let pubs = Xroute_workload.Workload.publications_of_documents docs in
  let prt = build_prt xpes in
  let flat = build_prt ~flat:true xpes in
  List.iter
    (fun pub ->
      let expect = tree_matches flat pub in
      check Alcotest.(list int) "flat and covering tree agree" expect (tree_matches prt pub);
      check Alcotest.(list int) "NFA agrees" expect (prt_matches prt pub);
      check Alcotest.(list int) "flat PRT's NFA agrees" expect (prt_matches flat pub))
    pubs

(* Churn: insert, then remove every other subscription — the NFA and
   the covering tree of the same PRT must agree decision-for-decision,
   and the automaton must shrink back when subscriptions go. *)
let test_nfa_engine_after_churn () =
  let params = Xroute_workload.Workload.set_a_params psd in
  let xpes = Xroute_workload.Workload.xpes ~params ~count:60 ~seed:61 () in
  let docs = Xroute_workload.Workload.documents ~dtd:psd ~count:5 ~seed:62 () in
  let pubs = Xroute_workload.Workload.publications_of_documents docs in
  let nfa = Rtable.Prt.create () in
  let insert prt i x =
    ignore (Rtable.Prt.insert prt { Message.origin = 1; seq = i } x (Rtable.Client 0))
  in
  let survivors = List.filteri (fun i _ -> i mod 2 = 0) xpes in
  let fresh = Rtable.Prt.create () in
  List.iteri (fun i x -> insert fresh (2 * i) x) survivors;
  List.iteri (fun i x -> insert nfa i x) xpes;
  List.iteri
    (fun i _ -> if i mod 2 = 1 then ignore (Rtable.Prt.remove nfa { Message.origin = 1; seq = i }))
    xpes;
  (* removal shrank the automaton to exactly the fresh-build size *)
  check Alcotest.int "automaton shrank to fresh-build size"
    (Rtable.Prt.nfa_states fresh) (Rtable.Prt.nfa_states nfa);
  check Alcotest.(list string) "NFA/ledger agreement" [] (Rtable.Prt.nfa_invariants nfa);
  List.iter
    (fun pub ->
      check
        Alcotest.(list int)
        "NFA and covering tree agree after churn" (tree_matches nfa pub)
        (prt_matches nfa pub))
    pubs

let () =
  Alcotest.run "differential"
    [
      ( "engines",
        [
          Alcotest.test_case "seeded sweep" `Quick test_sweep;
          Alcotest.test_case "flat PRT agrees" `Quick test_flat_prt_agrees;
          Alcotest.test_case "NFA engine after churn" `Quick test_nfa_engine_after_churn;
        ] );
    ]
