(* Tests for Merge: the paper's merging rules, imperfect degree, and the
   greedy merge pass. *)

open Xroute_core
open Xroute_xpath

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.float 1e-9

let xp = Xpe_parser.parse

let universe_of strings =
  List.map
    (fun s -> Array.of_list (String.split_on_char '/' (String.sub s 1 (String.length s - 1))))
    strings

let find_candidate cands merged =
  List.find_opt (fun (m, _) -> Xpe.to_string m = merged) cands

(* ---------------- Rule 1 ---------------- *)

let test_rule1_element_difference () =
  (* Sec. 4.3: a/*/c/d and a/*/c/e merge to a/*/c/*. *)
  let cands = Merge.candidates (List.map xp [ "a/*/c/d"; "a/*/c/e" ]) in
  match find_candidate cands "a/*/c/*" with
  | Some (_, originals) -> check ci "both absorbed" 2 (List.length originals)
  | None -> Alcotest.fail "expected the paper's rule-1 merger a/*/c/*"

let test_rule1_many_candidates () =
  let cands = Merge.candidates (List.map xp [ "/a/b/a"; "/a/b/b"; "/a/b/d" ]) in
  match find_candidate cands "/a/b/*" with
  | Some (_, originals) -> check ci "three absorbed" 3 (List.length originals)
  | None -> Alcotest.fail "expected /a/b/*"

let test_rule1_needs_two () =
  let cands = Merge.candidates [ xp "/a/b" ] in
  check ci "no candidates from one" 0 (List.length cands)

let test_rule1_respects_relativity () =
  (* A relative and an absolute XPE never merge positionally. *)
  let cands = Merge.candidates (List.map xp [ "/a/b"; "a/c" ]) in
  check cb "no cross-relativity merger" true
    (List.for_all (fun (m, _) -> Xpe.to_string m <> "a/*" && Xpe.to_string m <> "/a/*") cands)

(* ---------------- Rule 2 ---------------- *)

let test_rule2_operator_and_element () =
  (* Sec. 4.3: /a/c/+/* and /a//c/+/c -> /a//c/+/* (writing + for the
     wildcard step kept literal). *)
  let cands = Merge.candidates (List.map xp [ "/a/c/*/*"; "/a//c/*/c" ]) in
  match find_candidate cands "/a//c/*/*" with
  | Some _ -> ()
  | None -> Alcotest.fail "expected the paper's rule-2 merger /a//c/*/*"

(* ---------------- Rule 3 ---------------- *)

let test_rule3_infix_replacement () =
  let cands = Merge.candidates (List.map xp [ "/a/x/y/d"; "/a/q/d" ]) in
  check cb "prefix//suffix offered" true
    (match find_candidate cands "/a//d" with Some _ -> true | None -> false)

let test_rule3_disabled () =
  let cands = Merge.candidates ~enable_rule3:false (List.map xp [ "/a/x/y/d"; "/a/q/d" ]) in
  check cb "disabled" true (find_candidate cands "/a//d" = None)

(* ---------------- Coverage verification ---------------- *)

let test_all_candidates_cover_originals () =
  let xpes = List.map xp [ "/a/b/c"; "/a/b/d"; "/a/c/c"; "/a//d"; "b/c"; "b/d"; "/a/*/c" ] in
  let cands = Merge.candidates xpes in
  check cb "have candidates" true (cands <> []);
  List.iter
    (fun (m, originals) ->
      List.iter
        (fun o ->
          check cb
            (Printf.sprintf "%s covers %s" (Xpe.to_string m) (Xpe.to_string o))
            true
            (Xroute_ref.Lang.xpe_contains m o))
        originals)
    cands

(* [//a/*^n/b] and [//a/*^n/c]: rules 1-3 offer 10 mergers at n = 8,
   the last test blanked and at most one child step made a [//]. The merger check is the covering rules, linear here; exact
   containment took seconds at n = 8 and over a minute at n = 12. *)
let test_wildcard_run () =
  let pair n =
    List.map
      (fun last -> xp ("//a" ^ String.concat "" (List.init n (fun _ -> "/*")) ^ "/" ^ last))
      [ "b"; "c" ]
  in
  let printed cands =
    List.sort compare
      (List.map
         (fun (m, os) -> (Xpe.to_string m, List.sort compare (List.map Xpe.to_string os)))
         cands)
  in
  let originals = [ "//a/*/*/*/*/*/*/*/*/b"; "//a/*/*/*/*/*/*/*/*/c" ] in
  let stars k = String.concat "" (List.init k (fun _ -> "/*")) in
  let expected =
    List.map
      (fun m -> (m, originals))
      (("//a" ^ stars 9) :: List.init 9 (fun d -> "//a" ^ stars d ^ "/" ^ stars (9 - d)))
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.list Alcotest.string)))
    "n = 8" (List.sort compare expected) (printed (Merge.candidates (pair 8)));
  check ci "n = 12" 14 (List.length (Merge.candidates (pair 12)))

(* ---------------- Imperfect degree ---------------- *)

let test_degree_perfect () =
  (* universe where the merger is exactly the union *)
  let universe = universe_of [ "/a/b/c"; "/a/b/d" ] in
  let m = xp "/a/b/*" in
  let originals = List.map xp [ "/a/b/c"; "/a/b/d" ] in
  check cf "perfect" 0.0 (Merge.imperfect_degree ~universe m originals)

let test_degree_paper_example () =
  (* Sec. 4.3: merging s1 = /a/*/c/d, s2 = /a/*/c/e into /a/*/c/* when
     the DTD allows a,b,c,d,e at the fourth position gives 60% false
     positives at that position. *)
  let universe =
    universe_of [ "/a/x/c/a"; "/a/x/c/b"; "/a/x/c/c"; "/a/x/c/d"; "/a/x/c/e" ]
  in
  let m = xp "/a/*/c/*" in
  let originals = List.map xp [ "/a/*/c/d"; "/a/*/c/e" ] in
  check cf "3 of 5" 0.6 (Merge.imperfect_degree ~universe m originals)

let test_degree_empty_universe () =
  check cf "empty universe treated as perfect" 0.0
    (Merge.imperfect_degree ~universe:[] (xp "/a/*") [ xp "/a/b" ])

(* ---------------- merge_set ---------------- *)

let test_merge_set_perfect_only () =
  let universe = universe_of [ "/a/b/c"; "/a/b/d"; "/a/c/x"; "/a/c/y"; "/a/c/z" ] in
  let xpes = List.map xp [ "/a/b/c"; "/a/b/d"; "/a/c/x"; "/a/c/y" ] in
  let applied, kept = Merge.merge_set ~max_degree:0.0 ~universe xpes in
  (* /a/b/* is perfect (c,d are the only b-children in the universe);
     /a/c/* is imperfect (z exists). *)
  check ci "one perfect merger" 1 (List.length applied);
  check ci "two kept" 2 (List.length kept);
  let m = List.hd applied in
  check Alcotest.string "tightest merger" "/a/b/*" (Xpe.to_string m.Merge.xpe);
  check cf "degree zero" 0.0 m.Merge.degree

let test_merge_set_imperfect () =
  let universe = universe_of [ "/a/b/c"; "/a/b/d"; "/a/c/x"; "/a/c/y"; "/a/c/z" ] in
  let xpes = List.map xp [ "/a/b/c"; "/a/b/d"; "/a/c/x"; "/a/c/y" ] in
  let applied, kept = Merge.merge_set ~max_degree:0.4 ~universe xpes in
  check ci "two mergers" 2 (List.length applied);
  check ci "none kept" 0 (List.length kept)

let test_merge_set_disjoint_consumption () =
  (* Each original joins at most one merger. *)
  let universe = universe_of [ "/a/b/c"; "/a/b/d"; "/a/b/e" ] in
  let xpes = List.map xp [ "/a/b/c"; "/a/b/d"; "/a/b/e" ] in
  let applied, kept = Merge.merge_set ~max_degree:0.0 ~universe xpes in
  let absorbed = List.concat_map (fun m -> m.Merge.originals) applied in
  check ci "every original exactly once" (List.length xpes)
    (List.length absorbed + List.length kept);
  check ci "no duplicates" (List.length absorbed)
    (List.length (List.sort_uniq Xpe.compare absorbed))

let test_merge_set_threshold_zero_blocks_imperfect () =
  let universe = universe_of [ "/a/c/x"; "/a/c/y"; "/a/c/z" ] in
  let xpes = List.map xp [ "/a/c/x"; "/a/c/y" ] in
  let applied, kept = Merge.merge_set ~max_degree:0.0 ~universe xpes in
  check ci "nothing merged" 0 (List.length applied);
  check ci "all kept" 2 (List.length kept)

let test_merge_set_scales () =
  (* Hash-based discovery stays fast on thousands of XPEs. *)
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.psd in
  let prng = Xroute_support.Prng.create 31337 in
  let params = Xroute_workload.Xpath_gen.default_params dtd in
  let xpes = Xroute_workload.Xpath_gen.generate params prng ~count:2000 in
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let universe = Xroute_dtd.Dtd_paths.enumerate_paths ~max_depth:10 ~max_count:2000 graph in
  let t0 = Unix.gettimeofday () in
  let applied, _ = Merge.merge_set ~max_degree:0.1 ~universe xpes in
  let elapsed = Unix.gettimeofday () -. t0 in
  check cb "some mergers found" true (List.length applied > 0);
  (* generous bound: the suite may run under heavy CPU contention *)
  check cb "fast enough (<90s)" true (elapsed < 90.0)

let () =
  Alcotest.run "merge"
    [
      ( "rule1",
        [
          Alcotest.test_case "element difference" `Quick test_rule1_element_difference;
          Alcotest.test_case "many" `Quick test_rule1_many_candidates;
          Alcotest.test_case "needs two" `Quick test_rule1_needs_two;
          Alcotest.test_case "relativity" `Quick test_rule1_respects_relativity;
        ] );
      ("rule2", [ Alcotest.test_case "operator+element" `Quick test_rule2_operator_and_element ]);
      ( "rule3",
        [
          Alcotest.test_case "infix" `Quick test_rule3_infix_replacement;
          Alcotest.test_case "disabled" `Quick test_rule3_disabled;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "mergers cover originals" `Quick test_all_candidates_cover_originals;
          Alcotest.test_case "wildcard run" `Quick test_wildcard_run;
        ] );
      ( "degree",
        [
          Alcotest.test_case "perfect" `Quick test_degree_perfect;
          Alcotest.test_case "paper 60%" `Quick test_degree_paper_example;
          Alcotest.test_case "empty universe" `Quick test_degree_empty_universe;
        ] );
      ( "merge_set",
        [
          Alcotest.test_case "perfect only" `Quick test_merge_set_perfect_only;
          Alcotest.test_case "imperfect" `Quick test_merge_set_imperfect;
          Alcotest.test_case "disjoint consumption" `Quick test_merge_set_disjoint_consumption;
          Alcotest.test_case "zero threshold" `Quick test_merge_set_threshold_zero_blocks_imperfect;
          Alcotest.test_case "scales" `Slow test_merge_set_scales;
        ] );
    ]
