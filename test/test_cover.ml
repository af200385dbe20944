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

(* ---------------- Name-signature prefilter ---------------- *)

let may_cover s1 s2 = Cover.may_cover (Cover.signature s1) (Cover.signature s2)

(* [covers] and [covers_exact] must each imply [may_cover]: the
   subscription tree never calls them on a pair the signatures reject.
   Returns how many pairs some rule covered and how many the signature
   rejected, so the callers can check the sample is not vacuous. *)
let assert_prefilter_necessary pairs =
  List.fold_left
    (fun (covered, rejected) (s1, s2) ->
      let paper = Cover.covers s1 s2 and exact = Cover.covers_exact s1 s2 in
      let admitted = may_cover s1 s2 in
      if (paper || exact) && not admitted then
        Alcotest.failf "signature rejects %s vs %s, yet %s holds" (Xpe.to_string s1)
          (Xpe.to_string s2)
          (if paper then "covers" else "covers_exact");
      ( (if paper || exact then covered + 1 else covered),
        if admitted then rejected else rejected + 1 ))
    (0, 0) pairs

(* Over the analyzer's soundness corpus (the seeds [Soundness.run]
   sweeps by default) and the pinned disagreement corpus. *)
let test_prefilter_soundness_corpus () =
  let generated =
    List.concat_map
      (fun seed ->
        let prng = Xroute_support.Prng.create seed in
        List.init 1000 (fun _ ->
            let s1 = Xroute_check.Soundness.gen_xpe prng in
            (s1, Xroute_check.Soundness.gen_xpe prng)))
      [ 1; 2; 3; 4 ]
  in
  let pinned = List.map (fun (a, b) -> (xp a, xp b)) disagreement_corpus in
  let covered, rejected = assert_prefilter_necessary (generated @ pinned) in
  check cb "corpus has covering pairs" true (covered > 100);
  check cb "corpus has rejected pairs" true (rejected > 1000)

(* Two distinct names that share a signature bit: [b] interned after
   [a] until their one-step signatures admit each other both ways. *)
let colliding_names () =
  let a = "sig-collide-a" in
  let g name = Cover.signature (Xpe.absolute_of_names [ name ]) in
  let rec find i =
    if i > 10 * Sys.int_size then Alcotest.fail "no signature collision found"
    else begin
      let b = Printf.sprintf "sig-collide-%d" i in
      if Cover.may_cover (g a) (g b) && Cover.may_cover (g b) (g a) then (a, b)
      else find (i + 1)
    end
  in
  find 0

(* Seeded pairs with wildcards, leading and inner //, relative XPEs,
   predicates, and two names colliding in the mask. *)
let test_prefilter_random_pairs () =
  let a, b = colliding_names () in
  check cb "collision admitted" true (may_cover (xp ("/" ^ a)) (xp ("/" ^ b)));
  check cb "collision not covering" false (Cover.covers (xp ("/" ^ a)) (xp ("/" ^ b)));
  let alphabet = [| "a"; "b"; "c"; a; b |] in
  let preds = [| { Xpe.attr = "id"; value = "1" }; { Xpe.attr = "lang"; value = "en" } |] in
  let prng = Xroute_support.Prng.create 4711 in
  let module P = Xroute_support.Prng in
  let random_xpe () =
    let len = 1 + P.int prng 5 in
    let relative = P.bernoulli prng 0.2 in
    let steps =
      List.init len (fun i ->
          let test =
            if P.bernoulli prng 0.3 then Xpe.Star else Xpe.test_of_string (P.choose prng alphabet)
          in
          let axis =
            if i = 0 && relative then Xpe.Child
            else if P.bernoulli prng 0.3 then Xpe.Desc
            else Xpe.Child
          in
          let preds = if P.bernoulli prng 0.15 then [ P.choose prng preds ] else [] in
          Xpe.step ~preds axis test)
    in
    Xpe.make ~relative steps
  in
  let pairs =
    List.init 6000 (fun _ ->
        let s1 = random_xpe () in
        (* a prefix or a sibling of s1 now and then, so covering pairs
           are common *)
        let s2 =
          if P.bernoulli prng 0.3 then
            Xpe.make ~relative:(Xpe.is_relative s1) (s1.Xpe.steps @ (random_xpe ()).Xpe.steps)
          else random_xpe ()
        in
        (s1, s2))
  in
  let covered, rejected = assert_prefilter_necessary pairs in
  check cb "pairs include covering ones" true (covered > 500);
  check cb "pairs include rejected ones" true (rejected > 1000)

(* Insert/remove churn through a tree whose covering predicate counts
   its calls: the count equals [cover_tests], the structure stays
   sound after every step, and every covering query still returns what
   a brute-force scan of the stored XPEs with [Cover.covers] returns. *)
let test_prefilter_tree_churn () =
  let calls = ref 0 in
  let counting s1 s2 =
    incr calls;
    Cover.covers s1 s2
  in
  let t : int Sub_tree.t = Sub_tree.create ~covers:counting () in
  let prng = Xroute_support.Prng.create 2718 in
  let invariants what =
    (* [check_invariants] calls the predicate itself, outside the
       tree's count *)
    let before = !calls in
    (match Sub_tree.check_invariants t with
    | [] -> ()
    | errs -> Alcotest.failf "%s: invariants violated: %s" what (String.concat "; " errs));
    calls := before;
    check Alcotest.int (what ^ ": predicate calls = cover_tests") !calls (Sub_tree.cover_tests t)
  in
  let names xs = List.sort compare (List.map (fun n -> Xpe.to_string (Sub_tree.node_xpe n)) xs) in
  let live = ref [] in
  for step = 1 to 600 do
    let x = Xroute_check.Soundness.gen_xpe prng in
    let what = Printf.sprintf "step %d (%s)" step (Xpe.to_string x) in
    if !live <> [] && Xroute_support.Prng.bernoulli prng 0.4 then begin
      let i = Xroute_support.Prng.int prng (List.length !live) in
      let node, payload = List.nth !live i in
      live := List.filteri (fun j _ -> j <> i) !live;
      Sub_tree.remove_payload t node payload
    end
    else live := (Sub_tree.insert t x step, step) :: !live;
    invariants what;
    let stored = Sub_tree.to_list t in
    let brute f = names (List.filter f stored) in
    check cb (what ^ ": is_covered")
      (List.exists (fun n -> Cover.covers (Sub_tree.node_xpe n) x) stored)
      (Sub_tree.is_covered t x);
    check (Alcotest.list Alcotest.string) (what ^ ": coverers")
      (brute (fun n -> Cover.covers (Sub_tree.node_xpe n) x))
      (names (Sub_tree.coverers t x));
    check (Alcotest.list Alcotest.string) (what ^ ": covered_nodes")
      (brute (fun n -> Cover.covers x (Sub_tree.node_xpe n)))
      (names (Sub_tree.covered_nodes t x));
    check (Alcotest.list Alcotest.string) (what ^ ": covered_roots")
      (names (List.filter (fun n -> Cover.covers x (Sub_tree.node_xpe n)) (Sub_tree.maximal t)))
      (names (Sub_tree.covered_roots t x));
    invariants what
  done;
  check cb "prefilter skipped candidates" true (Sub_tree.cover_tests t < Sub_tree.cover_checks t)

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
      ( "prefilter",
        [
          Alcotest.test_case "necessary on the soundness corpus" `Quick
            test_prefilter_soundness_corpus;
          Alcotest.test_case "necessary on random pairs" `Quick test_prefilter_random_pairs;
          Alcotest.test_case "tree churn" `Quick test_prefilter_tree_churn;
        ] );
      ( "random",
        [
          Alcotest.test_case "paper covering is sound" `Slow test_paper_covering_sound_random;
          Alcotest.test_case "exact = oracle" `Slow test_exact_covering_complete_random;
          Alcotest.test_case "transitivity" `Slow test_covering_transitive_random;
        ] );
    ]
