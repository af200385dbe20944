(* Tests for Cover: the paper's covering algorithms. The key property is
   soundness — [covers s1 s2] must imply P(s1) ⊇ P(s2) — checked both on
   hand-picked cases and randomly against the exact automata oracle.
   Incompleteness (missing some true covering) is allowed and expected
   in the places the paper calls out. *)

open Xroute_core
open Xroute_xpath

let check = Alcotest.check
let cb = Alcotest.bool

let xp = Xpe_parser.parse

let covers a b = Cover.covers (xp a) (xp b)

(* ---------------- AbsSimCov ---------------- *)

let test_abs_sim_basic () =
  check cb "equal" true (covers "/a/b" "/a/b");
  check cb "shorter covers" true (covers "/a" "/a/b");
  check cb "longer never" false (covers "/a/b" "/a");
  check cb "wildcard covers name" true (covers "/*/b" "/a/b");
  check cb "name not covers wildcard" false (covers "/a/b" "/*/b");
  check cb "diverging" false (covers "/a/b" "/a/c")

let test_abs_sim_wildcards () =
  check cb "all stars" true (covers "/*/*" "/a/b/c");
  check cb "star prefix" true (covers "/*" "/a");
  check cb "fig4 example" true (covers "/a/b" "/a/b/a")

(* ---------------- RelSimCov ---------------- *)

let test_rel_sim () =
  check cb "relative covers absolute" true (covers "a" "/a");
  check cb "relative inside" true (covers "b/c" "/a/b/c");
  check cb "relative covers relative" true (covers "b" "a/b");
  check cb "must fit" false (covers "b/c/d" "/a/b/c");
  check cb "overhang not allowed" false (covers "b/*" "/a/b");
  check cb "paper: absolute never covers relative" false (covers "/a" "a")

(* ---------------- DesCov ---------------- *)

let test_des_cov_paper_examples () =
  (* Sec. 4.2: s1 = /*/a//*/c covers s2 = /a/a/*//c/e/c/d. *)
  check cb "paper example 1" true (covers "/*/a//*/c" "/a/a/*//c/e/c/d");
  (* Sec. 4.2: s1 = /*/a//*/c does not cover s2 = /a/a/*//c/b/d. *)
  check cb "paper example 2" false (covers "/*/a//*/c" "/a/a/*//c/b/d");
  (* Sec. 4.2 special case: s1 = /a/*//*/d covers s2 = /a//b/c/d. *)
  check cb "paper wildcard overhang" true (covers "/a/*//*/d" "/a//b/c/d")

let test_des_cov_basic () =
  check cb "// covers /" true (covers "/a//c" "/a/b/c");
  check cb "// covers self" true (covers "/a//c" "/a//c");
  check cb "// not covers shorter" false (covers "/a//c" "/a");
  check cb "/ not covers //" false (covers "/a/b/c" "/a//c");
  check cb "// chain" true (covers "//c" "/a/b/c");
  check cb "// chain relative" true (covers "//b" "a/b")

let test_des_cov_segments () =
  check cb "two segments" true (covers "/a//c/d" "/a/b/c/d");
  check cb "segment gap" false (covers "/a//c/e" "/a/b/c/d/e");
  check cb "suffix anywhere" true (covers "//d" "/a//b/c/d")

let test_des_cov_length_guard () =
  check cb "longer s1 never covers" false (covers "/a//b//c//d" "/a/b/c")

(* ---------------- Predicates ---------------- *)

let test_predicate_covering () =
  check cb "pred-free covers pred" true (covers "/a/b" "/a/b[@x='1']");
  check cb "pred not covers pred-free" false (covers "/a/b[@x='1']" "/a/b");
  check cb "same pred" true (covers "/a/b[@x='1']" "/a/b[@x='1']");
  check cb "different value" false (covers "/a/b[@x='1']" "/a/b[@x='2']");
  check cb "subset of preds" true (covers "/a/b[@x='1']" "/a/b[@x='1'][@y='2']");
  check cb "wildcard with pred" false (covers "/*[@x='1']" "/a")

(* ---------------- Exact engine ---------------- *)

let test_exact_engine () =
  let ce a b = Cover.covers_exact (xp a) (xp b) in
  (* Exact engine finds relations the paper rules miss. *)
  check cb "absolute star covers relative" true (ce "/*" "d/a");
  check cb "paper misses it" false (covers "/*" "d/a");
  check cb "still rejects wrong" false (ce "/a/b" "/a/c")

(* ---------------- Adv covering ---------------- *)

let ad = Adv.parse

let test_adv_covering () =
  check cb "same" true (Cover.adv_covers (ad "/a/b") (ad "/a/b"));
  check cb "wildcard" true (Cover.adv_covers (ad "/a/*") (ad "/a/b"));
  check cb "length differs" false (Cover.adv_covers (ad "/a") (ad "/a/b"));
  check cb "prefix semantics do not apply" false (Cover.adv_covers (ad "/a/b") (ad "/a/b/c"));
  check cb "recursive covers unrolled" true (Cover.adv_covers (ad "/a(/b)+") (ad "/a/b/b"));
  check cb "unrolled not covers recursive" false (Cover.adv_covers (ad "/a/b") (ad "/a(/b)+"))

(* ---------------- Random soundness vs oracle ---------------- *)

let random_xpe prng =
  let alphabet = [| "a"; "b"; "c" |] in
  let len = 1 + Xroute_support.Prng.int prng 4 in
  let relative = Xroute_support.Prng.bernoulli prng 0.2 in
  let steps =
    List.init len (fun i ->
        let test =
          if Xroute_support.Prng.bernoulli prng 0.35 then Xpe.Star
          else Xpe.Name (Xroute_support.Symbol.intern (Xroute_support.Prng.choose prng alphabet))
        in
        let axis =
          if i = 0 && relative then Xpe.Child
          else if Xroute_support.Prng.bernoulli prng 0.3 then Xpe.Desc
          else Xpe.Child
        in
        Xpe.step axis test)
  in
  Xpe.make ~relative steps

let test_paper_covering_sound_random () =
  let prng = Xroute_support.Prng.create 90210 in
  let false_positives = ref [] in
  let hits = ref 0 in
  for _ = 1 to 4000 do
    let s1 = random_xpe prng and s2 = random_xpe prng in
    if Cover.covers s1 s2 then begin
      incr hits;
      if not (Xroute_automata.Lang.xpe_contains s1 s2) then
        false_positives := (Xpe.to_string s1, Xpe.to_string s2) :: !false_positives
    end
  done;
  (match !false_positives with
  | [] -> ()
  | (a, b) :: _ ->
    Alcotest.failf "unsound covering: %s claimed to cover %s (%d unsound of %d claims)" a b
      (List.length !false_positives) !hits);
  check cb "claims exist" true (!hits > 50)

(* The exact engine must agree with the oracle in both directions. *)
let test_exact_covering_complete_random () =
  let prng = Xroute_support.Prng.create 1833 in
  for _ = 1 to 1500 do
    let s1 = random_xpe prng and s2 = random_xpe prng in
    let exact = Cover.covers_exact s1 s2 in
    let oracle = Xroute_automata.Lang.xpe_contains s1 s2 in
    if exact <> oracle then
      Alcotest.failf "exact engine differs from oracle: %s vs %s (%b/%b)" (Xpe.to_string s1)
        (Xpe.to_string s2) exact oracle
  done

(* Transitivity spot-check: the data structure relies on it. *)
let test_covering_transitive_random () =
  let prng = Xroute_support.Prng.create 5150 in
  for _ = 1 to 2000 do
    let a = random_xpe prng and b = random_xpe prng and c = random_xpe prng in
    if
      Cover.covers_exact a b
      && Cover.covers_exact b c
      && not (Cover.covers_exact a c)
    then
      Alcotest.failf "containment not transitive: %s %s %s" (Xpe.to_string a) (Xpe.to_string b)
        (Xpe.to_string c)
  done

(* Pinned Paper-vs-Exact disagreement corpus, harvested with
   `xroute_check --soundness --witness-incomplete`. Each pair is a true
   containment (the exact engine and the automata oracle agree) that the
   paper's syntactic rules miss — incompleteness the paper accepts, and
   exactly the gap the soundness audit quantifies. Pinning them guards
   two regressions at once: the paper rules must never start *claiming*
   unsoundly, and the exact engine must keep deciding these pairs. *)
let disagreement_corpus =
  [
    ("/*", "a/c");
    ("/*", "c/c/c/*");
    ("/*", "//d//*");
    ("/*", "b/b/d//a");
    ("/*", "a/d/*//*");
    ("/*//c", "a/c/d");
    ("/*//*", "*/c/c");
    ("/*/*", "//c/*/c/*/d");
    ("/*//*/*", "//a/d/c");
    ("/*/*//d", "//c/a/d/b/d");
    ("//*/b/b", "*/*//b/b//b");
    ("/*/*/*//*", "//d//a//d//c");
  ]

let test_paper_exact_disagreements () =
  List.iter
    (fun (s1, s2) ->
      let a = xp s1 and b = xp s2 in
      check cb
        (Printf.sprintf "exact: %s covers %s" s1 s2)
        true (Cover.covers_exact a b);
      check cb
        (Printf.sprintf "oracle: L(%s) contains L(%s)" s1 s2)
        true
        (Xroute_automata.Lang.xpe_contains a b);
      check cb
        (Printf.sprintf "paper stays incomplete on %s vs %s" s1 s2)
        false (Cover.covers a b))
    disagreement_corpus

let () =
  Alcotest.run "cover"
    [
      ( "abs_sim",
        [
          Alcotest.test_case "basic" `Quick test_abs_sim_basic;
          Alcotest.test_case "wildcards" `Quick test_abs_sim_wildcards;
        ] );
      ("rel_sim", [ Alcotest.test_case "basic" `Quick test_rel_sim ]);
      ( "des",
        [
          Alcotest.test_case "paper examples" `Quick test_des_cov_paper_examples;
          Alcotest.test_case "basic" `Quick test_des_cov_basic;
          Alcotest.test_case "segments" `Quick test_des_cov_segments;
          Alcotest.test_case "length guard" `Quick test_des_cov_length_guard;
        ] );
      ("predicates", [ Alcotest.test_case "covering" `Quick test_predicate_covering ]);
      ("exact engine", [ Alcotest.test_case "extra relations" `Quick test_exact_engine ]);
      ( "disagreements",
        [ Alcotest.test_case "pinned paper-vs-exact corpus" `Quick test_paper_exact_disagreements ] );
      ("advertisements", [ Alcotest.test_case "covering" `Quick test_adv_covering ]);
      ( "random",
        [
          Alcotest.test_case "paper covering is sound" `Slow test_paper_covering_sound_random;
          Alcotest.test_case "exact = oracle" `Slow test_exact_covering_complete_random;
          Alcotest.test_case "transitivity" `Slow test_covering_transitive_random;
        ] );
    ]
