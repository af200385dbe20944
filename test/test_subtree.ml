(* Tests for Sub_tree: insertion cases, covering queries, removal,
   publication matching with pruning and invariants. *)

open Xroute_core
open Xroute_ref
open Xroute_xpath

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let xp = Xpe_parser.parse
let path s = Array.of_list (String.split_on_char '/' s)

let tree_of xpes =
  let t : int Sub_tree.t = Sub_tree.create () in
  List.iteri (fun i s -> ignore (Sub_tree.insert t (xp s) i)) xpes;
  t

let assert_invariants t =
  match Sub_tree.check_invariants t with
  | [] -> ()
  | errs -> Alcotest.failf "invariants violated: %s" (String.concat "; " errs)

let maximal_strings t =
  List.sort compare (List.map (fun n -> Xpe.to_string (Sub_tree.node_xpe n)) (Sub_tree.maximal t))

let test_empty () =
  let t : int Sub_tree.t = Sub_tree.create () in
  check ci "size" 0 (Sub_tree.size t);
  check ci "depth" 0 (Sub_tree.depth t);
  check cb "not covered" false (Sub_tree.is_covered t (xp "/a"));
  check (Alcotest.list ci) "no match" [] (Tree_match.match_names t (path "a"))

let test_insert_sibling () =
  let t = tree_of [ "/a/b"; "/a/c" ] in
  check ci "size" 2 (Sub_tree.size t);
  check (Alcotest.list Alcotest.string) "both maximal" [ "/a/b"; "/a/c" ] (maximal_strings t);
  assert_invariants t

let test_insert_case3_descend () =
  (* covered subscription goes below its coverer *)
  let t = tree_of [ "/a"; "/a/b" ] in
  check (Alcotest.list Alcotest.string) "one maximal" [ "/a" ] (maximal_strings t);
  check ci "depth" 2 (Sub_tree.depth t);
  assert_invariants t

let test_insert_case2_reparent () =
  (* a later, more general subscription adopts existing ones *)
  let t = tree_of [ "/a/b"; "/a/c"; "/a" ] in
  check (Alcotest.list Alcotest.string) "general on top" [ "/a" ] (maximal_strings t);
  check ci "depth" 2 (Sub_tree.depth t);
  assert_invariants t

let test_insert_equal_shares_node () =
  let t : int Sub_tree.t = Sub_tree.create () in
  let n1 = Sub_tree.insert t (xp "/a/b") 1 in
  let n2 = Sub_tree.insert t (xp "/a/b") 2 in
  check cb "same node" true (n1 == n2);
  check ci "size counts node once" 1 (Sub_tree.size t);
  check ci "payloads accumulate" 2 (List.length (Sub_tree.node_payloads n1));
  assert_invariants t

let test_paper_figure4 () =
  (* The subscription population of the paper's Figure 4. *)
  let xpes =
    [ "/a"; "/a/b"; "/a/b/a"; "/a/c"; "/a/b/b"; "/a/b/d"; "/a/c/d"; "/*/b"; "/*/b//c";
      "d/a"; "/b"; "/b/d"; "/b/e"; "/b/d/a"; "/b/e/c/f"; "/a/*/d" ]
  in
  let t = tree_of xpes in
  check ci "all stored" (List.length xpes) (Sub_tree.size t);
  assert_invariants t;
  (* /a covers its subtree *)
  let covered = Sub_tree.covered_nodes t (xp "/a") in
  let covered_strs = List.map (fun n -> Xpe.to_string (Sub_tree.node_xpe n)) covered in
  List.iter
    (fun s -> check cb ("/a covers " ^ s) true (List.mem s covered_strs))
    [ "/a/b"; "/a/b/a"; "/a/c"; "/a/c/d"; "/a/*/d" ]

let test_is_covered () =
  let t = tree_of [ "/a"; "/b/c" ] in
  check cb "covered by /a" true (Sub_tree.is_covered t (xp "/a/x/y"));
  check cb "equal counts" true (Sub_tree.is_covered t (xp "/a"));
  check cb "not covered" false (Sub_tree.is_covered t (xp "/b"))

let test_covered_roots () =
  let t = tree_of [ "/a/b"; "/a/c"; "/x" ] in
  let roots = Sub_tree.covered_roots t (xp "/a") in
  check ci "two covered" 2 (List.length roots)

let test_find_equal () =
  let t = tree_of [ "/a"; "/a/b"; "/c" ] in
  (match Sub_tree.find_equal t (xp "/a/b") with
  | Some n -> check Alcotest.string "found" "/a/b" (Xpe.to_string (Sub_tree.node_xpe n))
  | None -> Alcotest.fail "should find equal node");
  check cb "absent" true (Sub_tree.find_equal t (xp "/z") = None)

let test_remove_promotes_children () =
  let t : int Sub_tree.t = Sub_tree.create () in
  let top = Sub_tree.insert t (xp "/a") 0 in
  ignore (Sub_tree.insert t (xp "/a/b") 1);
  ignore (Sub_tree.insert t (xp "/a/c") 2);
  Sub_tree.remove_node t top;
  check ci "two remain" 2 (Sub_tree.size t);
  check (Alcotest.list Alcotest.string) "promoted" [ "/a/b"; "/a/c" ] (maximal_strings t);
  assert_invariants t

let test_remove_payload_keeps_shared_node () =
  let t : int Sub_tree.t = Sub_tree.create () in
  let n = Sub_tree.insert t (xp "/a") 1 in
  ignore (Sub_tree.insert t (xp "/a") 2);
  let p1 = List.nth (Sub_tree.node_payloads n) 0 in
  Sub_tree.remove_payload t n p1;
  check ci "node survives" 1 (Sub_tree.size t);
  let p2 = List.nth (Sub_tree.node_payloads n) 0 in
  Sub_tree.remove_payload t n p2;
  check ci "node gone" 0 (Sub_tree.size t)

let test_match_basic () =
  let t = tree_of [ "/a/b"; "/a/c"; "//d" ] in
  check (Alcotest.list ci) "matches ab" [ 0 ] (Tree_match.match_names t (path "a/b"));
  check (Alcotest.list ci) "matches d" [ 2 ] (Tree_match.match_names t (path "x/d"));
  check (Alcotest.list ci) "no match" [] (Tree_match.match_names t (path "q"))

let test_match_collects_nested () =
  let t = tree_of [ "/a"; "/a/b"; "/a/b/c" ] in
  check (Alcotest.list ci) "all on path" [ 0; 1; 2 ] (List.sort compare (Tree_match.match_names t (path "a/b/c")));
  check (Alcotest.list ci) "prefix only" [ 0 ] (Tree_match.match_names t (path "a/x"))

let test_match_pruning_agrees_with_linear () =
  let prng = Xroute_support.Prng.create 8080 in
  let alphabet = [| "a"; "b"; "c" |] in
  let random_xpe () =
    let len = 1 + Xroute_support.Prng.int prng 3 in
    let steps =
      List.init len (fun _ ->
          let test =
            if Xroute_support.Prng.bernoulli prng 0.3 then Xpe.Star
            else Xpe.Name (Xroute_support.Symbol.intern (Xroute_support.Prng.choose prng alphabet))
          in
          let axis = if Xroute_support.Prng.bernoulli prng 0.25 then Xpe.Desc else Xpe.Child in
          Xpe.step axis test)
    in
    match steps with
    | { Xpe.axis = Xpe.Desc; _ } :: _ -> Xpe.make steps
    | _ -> Xpe.make ~relative:(Xroute_support.Prng.bernoulli prng 0.2) steps
  in
  let t : int Sub_tree.t = Sub_tree.create () in
  for i = 1 to 150 do
    ignore (Sub_tree.insert t (random_xpe ()) i)
  done;
  assert_invariants t;
  for _ = 1 to 200 do
    let len = 1 + Xroute_support.Prng.int prng 4 in
    let p = Array.init len (fun _ -> Xroute_support.Prng.choose prng alphabet) in
    let attrs = Array.make len [] in
    let pruned = List.sort compare (Tree_match.match_path t p attrs) in
    let linear = List.sort compare (Tree_match.match_path_linear t p attrs) in
    if pruned <> linear then
      Alcotest.failf "pruned matching differs on %s" (String.concat "/" (Array.to_list p))
  done

let test_match_checks_reduced_by_pruning () =
  (* Covering-organized trees do less match work than a flat scan. *)
  let xpes = [ "/a"; "/a/b"; "/a/b/c"; "/a/b/d"; "/x"; "/x/y"; "/x/y/z" ] in
  let t = tree_of xpes in
  let checks = ref 0 in
  ignore (Tree_match.match_names ~checks t (path "q/r"));
  check cb "only maximal nodes tested" true (!checks <= 2)

let test_insert_random_invariants () =
  let prng = Xroute_support.Prng.create 2024 in
  let alphabet = [| "a"; "b" |] in
  let t : int Sub_tree.t = Sub_tree.create () in
  for i = 1 to 300 do
    let len = 1 + Xroute_support.Prng.int prng 3 in
    let steps =
      List.init len (fun _ ->
          let test =
            if Xroute_support.Prng.bernoulli prng 0.4 then Xpe.Star
            else Xpe.Name (Xroute_support.Symbol.intern (Xroute_support.Prng.choose prng alphabet))
          in
          Xpe.step Xpe.Child test)
    in
    ignore (Sub_tree.insert t (Xpe.make steps) i);
    if i mod 50 = 0 then assert_invariants t
  done;
  assert_invariants t;
  (* and random removals keep it healthy *)
  let nodes = Sub_tree.to_list t in
  List.iteri (fun i n -> if i mod 3 = 0 then Sub_tree.remove_node t n) nodes;
  assert_invariants t

let test_cover_checks_counted () =
  let t = tree_of [ "/a"; "/a/b" ] in
  check cb "cover checks counted" true (Sub_tree.cover_checks t > 0)

let test_no_cover_predicate_flat () =
  (* Flat mode is the no-covering baseline. *)
  let t : int Sub_tree.t = Sub_tree.create ~flat:true () in
  ignore (Sub_tree.insert t (xp "/a") 0);
  ignore (Sub_tree.insert t (xp "/a/b") 1);
  ignore (Sub_tree.insert t (xp "/a/b/c") 2);
  check ci "flat" 1 (Sub_tree.depth t);
  check ci "all maximal" 3 (List.length (Sub_tree.maximal t));
  check cb "nothing covered" false (Sub_tree.is_covered t (xp "/a/b"))

let () =
  Alcotest.run "sub_tree"
    [
      ( "insert",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "siblings" `Quick test_insert_sibling;
          Alcotest.test_case "descend (case 3)" `Quick test_insert_case3_descend;
          Alcotest.test_case "reparent (case 2)" `Quick test_insert_case2_reparent;
          Alcotest.test_case "equal shares node" `Quick test_insert_equal_shares_node;
          Alcotest.test_case "paper figure 4" `Quick test_paper_figure4;
          Alcotest.test_case "random invariants" `Quick test_insert_random_invariants;
        ] );
      ( "queries",
        [
          Alcotest.test_case "is_covered" `Quick test_is_covered;
          Alcotest.test_case "covered_roots" `Quick test_covered_roots;
          Alcotest.test_case "find_equal" `Quick test_find_equal;
          Alcotest.test_case "cover checks counted" `Quick test_cover_checks_counted;
        ] );
      ( "remove",
        [
          Alcotest.test_case "promotes children" `Quick test_remove_promotes_children;
          Alcotest.test_case "shared node payloads" `Quick test_remove_payload_keeps_shared_node;
        ] );
      ( "match",
        [
          Alcotest.test_case "basic" `Quick test_match_basic;
          Alcotest.test_case "nested" `Quick test_match_collects_nested;
          Alcotest.test_case "pruned = linear (random)" `Quick test_match_pruning_agrees_with_linear;
          Alcotest.test_case "pruning saves work" `Quick test_match_checks_reduced_by_pruning;
          Alcotest.test_case "flat baseline" `Quick test_no_cover_predicate_flat;
        ] );
    ]
