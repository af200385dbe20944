(* Tests for the symbolic automata library: regex construction, NFA
   acceptance, overlap and containment — including the paper's worked
   examples. *)

open Xroute_ref
open Xroute_xpath

let check = Alcotest.check
let cb = Alcotest.bool

let xp = Xpe_parser.parse
let ad = Adv.parse
let path s = Array.of_list (String.split_on_char '/' s)

(* ---------------- Regex / NFA acceptance ---------------- *)

let accepts regex p = Nfa.accepts (Nfa.of_regex regex) (path p)

let test_nfa_literal () =
  let r = Regex.seq [ Regex.exact "a"; Regex.exact "b" ] in
  check cb "accepts" true (accepts r "a/b");
  check cb "rejects prefix" false (accepts r "a");
  check cb "rejects longer" false (accepts r "a/b/c")

let test_nfa_star () =
  let r = Regex.seq [ Regex.exact "a"; Regex.star (Regex.exact "b") ] in
  check cb "zero" true (accepts r "a");
  check cb "many" true (accepts r "a/b/b/b");
  check cb "wrong" false (accepts r "a/c")

let test_nfa_plus () =
  let r = Regex.plus (Regex.exact "a") in
  check cb "one" true (accepts r "a");
  check cb "three" true (accepts r "a/a/a");
  check cb "zero rejected" false (Nfa.accepts (Nfa.of_regex r) [||])

let test_nfa_alt () =
  let r = Regex.alt [ Regex.exact "a"; Regex.exact "b" ] in
  check cb "left" true (accepts r "a");
  check cb "right" true (accepts r "b");
  check cb "other" false (accepts r "c")

let test_nfa_any () =
  let r = Regex.seq [ Regex.any; Regex.exact "b" ] in
  check cb "wildcard" true (accepts r "zzz/b");
  check cb "wrong tail" false (accepts r "zzz/c")

let test_nfa_eps () =
  check cb "empty word" true (Nfa.accepts (Nfa.of_regex Regex.eps) [||]);
  check cb "nonempty rejected" false (accepts Regex.eps "a")

(* ---------------- XPE language ---------------- *)

let xpe_lang_accepts s p = Nfa.accepts (Nfa.of_regex (Regex.of_xpe (xp s))) (path p)

let test_xpe_language_matches_eval () =
  (* The automata view must agree with the direct evaluator. *)
  let xpes = [ "/a/b"; "//b"; "/a//c"; "a/b"; "/*"; "/a/*//b"; "b//c" ] in
  let paths = [ "a"; "a/b"; "a/b/c"; "b"; "b/c"; "a/c/b"; "a/b/c/b"; "c" ] in
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          check cb
            (Printf.sprintf "%s vs %s" s p)
            (Xpe_eval.matches_names (xp s) (path p))
            (xpe_lang_accepts s p))
        paths)
    xpes

(* ---------------- Adv language ---------------- *)

let test_adv_language_matches_eval () =
  let advs = [ "/a/b"; "(/a)+"; "/a(/b)+/c"; "/a(/b(/c)+)+"; "/a/*" ] in
  let paths = [ "a"; "a/a"; "a/b"; "a/b/c"; "a/b/b/c"; "a/b/c/b/c"; "a/q" ] in
  List.iter
    (fun s ->
      let adv = ad s in
      let nfa = Nfa.of_regex (Regex.of_adv adv) in
      List.iter
        (fun p ->
          check cb
            (Printf.sprintf "%s vs %s" s p)
            (Adv.matches_names adv (path p))
            (Nfa.accepts nfa (path p)))
        paths)
    advs

(* ---------------- Overlap (paper Sec. 3 examples) ---------------- *)

let test_overlap_paper_examples () =
  (* Sec. 3.2: a = /b/*/*/c/c/d, s = /*/c/*/b/c do not overlap. *)
  check cb "AbsExprAndAdv example" false
    (Lang.xpe_overlaps_adv (xp "/*/c/*/b/c") (ad "/b/*/*/c/c/d"));
  (* Sec. 3.2: a = /a/*/e/*/d/*/c/b and s = * /a//d/*/c//b overlap. *)
  check cb "DesExprAndAdv example" true
    (Lang.xpe_overlaps_adv (xp "*/a//d/*/c//b") (ad "/a/*/e/*/d/*/c/b"));
  (* Sec. 3.3: a = /a/*/c(/e/d)+/*/c/e and s = /*/a/c/*/d/e/d/* overlap
     with the recursive pattern repeated twice. *)
  check cb "recursive example" true
    (Lang.xpe_overlaps_adv (xp "/*/a/c/*/d/e/d/*") (ad "/a/*/c(/e/d)+/*/c/e"))

let test_overlap_basic () =
  check cb "prefix overlap" true (Lang.xpe_overlaps_adv (xp "/a/b") (ad "/a/b/c"));
  check cb "xpe longer" false (Lang.xpe_overlaps_adv (xp "/a/b/c/d") (ad "/a/b/c"));
  check cb "disjoint roots" false (Lang.xpe_overlaps_adv (xp "/x") (ad "/a/b"));
  check cb "wildcards" true (Lang.xpe_overlaps_adv (xp "/*/*") (ad "/a/b"));
  check cb "recursive unbounded" true (Lang.xpe_overlaps_adv (xp "/a/b/b/b/b/b") (ad "/a(/b)+"))

let test_overlap_relative () =
  check cb "infix" true (Lang.xpe_overlaps_adv (xp "b/c") (ad "/a/b/c"));
  check cb "no fit" false (Lang.xpe_overlaps_adv (xp "c/b") (ad "/a/b/c"))

(* ---------------- Containment ---------------- *)

let contains a b = Lang.xpe_contains (xp a) (xp b)

let test_containment_basic () =
  check cb "shorter covers longer" true (contains "/a" "/a/b");
  check cb "longer not covers" false (contains "/a/b" "/a");
  check cb "wildcard covers name" true (contains "/*/b" "/a/b");
  check cb "name not covers wildcard" false (contains "/a/b" "/*/b");
  check cb "reflexive" true (contains "/a//b" "/a//b")

let test_containment_descendant () =
  check cb "// covers /" true (contains "/a//c" "/a/b/c");
  check cb "// covers deep" true (contains "//c" "/a/b/c");
  check cb "/ not covers //" false (contains "/a/b/c" "/a//c");
  check cb "// self" true (contains "/a//b" "/a/b");
  check cb "gap mismatch" false (contains "/a//d" "/a/b/c/e")

let test_containment_relative () =
  check cb "relative covers absolute" true (contains "a" "/a");
  check cb "relative covers deeper" true (contains "b" "/a/b");
  check cb "star covers relative" true (contains "/*" "d/a");
  check cb "relative not covers unrelated" false (contains "b" "/a/c")

let test_containment_star_gap () =
  (* /a/* requires a path of length >= 2 under a; /a//b guarantees it. *)
  check cb "star under a" true (contains "/a/*" "/a//b");
  check cb "two stars need depth 3" false (contains "/a/*/*" "/a//b")

let test_adv_containment () =
  check cb "same" true (Lang.adv_contains (ad "/a/b") (ad "/a/b"));
  check cb "wildcard covers" true (Lang.adv_contains (ad "/a/*") (ad "/a/b"));
  check cb "length matters" false (Lang.adv_contains (ad "/a") (ad "/a/b"));
  check cb "plus covers one rep" true (Lang.adv_contains (ad "/a(/b)+") (ad "/a/b"));
  check cb "plus covers many" true (Lang.adv_contains (ad "/a(/b)+") (ad "/a/b/b/b"));
  check cb "one rep not covers plus" false (Lang.adv_contains (ad "/a/b") (ad "/a(/b)+"))

let test_xpe_overlap_symmetric () =
  let pairs = [ ("/a/b", "/a//b"); ("/a", "/b"); ("//c", "/a/b/c"); ("a/b", "/x/a/b") ] in
  List.iter
    (fun (s1, s2) ->
      check cb
        (Printf.sprintf "sym %s %s" s1 s2)
        (Lang.xpe_overlaps (xp s1) (xp s2))
        (Lang.xpe_overlaps (xp s2) (xp s1)))
    pairs

let test_xpe_equiv () =
  check cb "relative vs //" true (Lang.xpe_equiv (xp "a/b") (xp "//a/b"));
  check cb "not equiv" false (Lang.xpe_equiv (xp "/a") (xp "//a"))

(* Containment validated against brute-force enumeration over a small
   alphabet. *)
let test_containment_brute_force () =
  let alphabet = [ "a"; "b"; "c" ] in
  let rec all_paths n =
    if n = 0 then [ [] ]
    else
      let shorter = all_paths (n - 1) in
      shorter @ List.concat_map (fun p -> List.map (fun x -> x :: p) alphabet)
                  (List.filter (fun p -> List.length p = n - 1) shorter)
  in
  let universe = List.filter (fun p -> p <> []) (all_paths 4) in
  let xpes = [ "/a"; "/a/b"; "//b"; "/a//c"; "a"; "b/c"; "/*"; "/*/b"; "/a/*" ] in
  List.iter
    (fun s1 ->
      List.iter
        (fun s2 ->
          let semantic =
            List.for_all
              (fun p ->
                let arr = Array.of_list p in
                (not (Xpe_eval.matches_names (xp s2) arr))
                || Xpe_eval.matches_names (xp s1) arr)
              universe
          in
          let exact = contains s1 s2 in
          (* exact containment implies containment on the finite sample *)
          if exact then
            check cb (Printf.sprintf "%s contains %s (sampled)" s1 s2) true semantic)
        xpes)
    xpes

let () =
  Alcotest.run "automata"
    [
      ( "nfa",
        [
          Alcotest.test_case "literal" `Quick test_nfa_literal;
          Alcotest.test_case "star" `Quick test_nfa_star;
          Alcotest.test_case "plus" `Quick test_nfa_plus;
          Alcotest.test_case "alt" `Quick test_nfa_alt;
          Alcotest.test_case "any" `Quick test_nfa_any;
          Alcotest.test_case "eps" `Quick test_nfa_eps;
        ] );
      ( "languages",
        [
          Alcotest.test_case "xpe language = eval" `Quick test_xpe_language_matches_eval;
          Alcotest.test_case "adv language = eval" `Quick test_adv_language_matches_eval;
        ] );
      ( "overlap",
        [
          Alcotest.test_case "paper examples" `Quick test_overlap_paper_examples;
          Alcotest.test_case "basic" `Quick test_overlap_basic;
          Alcotest.test_case "relative" `Quick test_overlap_relative;
          Alcotest.test_case "symmetric" `Quick test_xpe_overlap_symmetric;
        ] );
      ( "containment",
        [
          Alcotest.test_case "basic" `Quick test_containment_basic;
          Alcotest.test_case "descendant" `Quick test_containment_descendant;
          Alcotest.test_case "relative" `Quick test_containment_relative;
          Alcotest.test_case "star gap" `Quick test_containment_star_gap;
          Alcotest.test_case "advertisements" `Quick test_adv_containment;
          Alcotest.test_case "equivalence" `Quick test_xpe_equiv;
          Alcotest.test_case "brute force" `Quick test_containment_brute_force;
        ] );
    ]
