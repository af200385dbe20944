(* Tests for subscription/advertisement matching: the paper's algorithms
   (Xroute_ref.Paper_match) and the SRT's compiled test (Adv_match),
   cross-checked against the exact automata oracle. *)

open Xroute_core
open Xroute_ref
open Xroute_xpath

let check = Alcotest.check
let cb = Alcotest.bool

let xp = Xpe_parser.parse
let ad = Adv.parse

let sym s = Xpe.test_of_string s
let syms l = Array.of_list (List.map sym l)

(* ---------------- AbsExprAndAdv ---------------- *)

let abs_match xpe advsyms =
  let x = xp xpe in
  Xpe.length x <= Array.length advsyms && Paper_match.abs_expr_and_adv x.Xpe.steps advsyms

let test_abs_basic () =
  check cb "exact" true (abs_match "/a/b" (syms [ "a"; "b" ]));
  check cb "prefix of adv" true (abs_match "/a/b" (syms [ "a"; "b"; "c" ]));
  check cb "xpe longer" false (abs_match "/a/b/c" (syms [ "a"; "b" ]));
  check cb "mismatch" false (abs_match "/a/c" (syms [ "a"; "b" ]))

let test_abs_wildcards () =
  (* Fig. 2(b): wildcards on either side overlap. *)
  check cb "star in xpe" true (abs_match "/*/b" (syms [ "a"; "b" ]));
  check cb "star in adv" true (abs_match "/a/b" (syms [ "a"; "*" ]));
  check cb "stars both" true (abs_match "/*" (syms [ "*" ]));
  check cb "name clash" false (abs_match "/a/b" (syms [ "a"; "c" ]))

let test_abs_paper_example () =
  (* Sec. 3.2: a = /b/*/*/c/c/d, s = /*/c/*/b/c fails at i = 4. *)
  check cb "paper example" false
    (abs_match "/*/c/*/b/c" (syms [ "b"; "*"; "*"; "c"; "c"; "d" ]))

(* ---------------- RelExprAndAdv ---------------- *)

let rel_fast xpe advsyms = Paper_match.rel_expr_and_adv (xp xpe).Xpe.steps advsyms

let test_rel_basic () =
  check cb "at start" true (rel_fast "a/b" (syms [ "a"; "b"; "c" ]));
  check cb "in middle" true (rel_fast "b/c" (syms [ "a"; "b"; "c" ]));
  check cb "at end" true (rel_fast "c" (syms [ "a"; "b"; "c" ]));
  check cb "absent" false (rel_fast "d" (syms [ "a"; "b"; "c" ]));
  check cb "non contiguous" false (rel_fast "a/c" (syms [ "a"; "b"; "c" ]))

let test_rel_too_long () =
  check cb "longer than adv" false (rel_fast "a/b/c/d" (syms [ "a"; "b"; "c" ]))

let test_rel_wildcard_nontransitive () =
  (* Cases where textbook KMP borders mislead: wildcard borders. *)
  check cb "a*ab window" true (rel_fast "a/*/a/b" (syms [ "a"; "c"; "a"; "b" ]));
  check cb "star border" true (rel_fast "*/a" (syms [ "b"; "a" ]));
  check cb "overlapping windows" true (rel_fast "a/*/a" (syms [ "a"; "b"; "a"; "c"; "a" ]));
  check cb "shifted occurrence" true
    (rel_fast "a/a/b" (syms [ "a"; "a"; "a"; "b" ]))

let test_rel_fast_equals_naive_random () =
  (* Randomized cross-check on a tiny alphabet to stress borders. *)
  let prng = Xroute_support.Prng.create 4242 in
  let random_tests n =
    List.init n (fun _ ->
        match Xroute_support.Prng.int prng 3 with 0 -> "*" | 1 -> "a" | _ -> "b")
  in
  for _ = 1 to 3000 do
    let k = 1 + Xroute_support.Prng.int prng 4 in
    let n = 1 + Xroute_support.Prng.int prng 8 in
    let pattern = random_tests k in
    let advsyms = syms (random_tests n) in
    let steps = List.map (fun t -> Xpe.step Xpe.Child (sym t)) pattern in
    let naive = Paper_match.rel_expr_and_adv_naive steps advsyms in
    let fast = Paper_match.rel_expr_and_adv steps advsyms in
    if naive <> fast then
      Alcotest.failf "rel mismatch: pattern=%s adv=%s naive=%b fast=%b"
        (String.concat "/" pattern)
        (String.concat "/" (Array.to_list (Array.map Xpe.test_to_string advsyms)))
        naive fast
  done

(* ---------------- DesExprAndAdv ---------------- *)

let des xpe advsyms = Paper_match.des_expr_and_adv (xp xpe) advsyms

let test_des_paper_example () =
  (* Sec. 3.2: a = /a/*/e/*/d/*/c/b and s = * /a//d/*/c//b. *)
  check cb "paper example" true
    (des "*/a//d/*/c//b" (syms [ "a"; "*"; "e"; "*"; "d"; "*"; "c"; "b" ]))

let test_des_basic () =
  check cb "simple gap" true (des "/a//c" (syms [ "a"; "b"; "c" ]));
  check cb "zero gap" true (des "/a//b" (syms [ "a"; "b" ]));
  check cb "anchored fail" false (des "/b//c" (syms [ "a"; "b"; "c" ]));
  check cb "leading //" true (des "//c" (syms [ "a"; "b"; "c" ]));
  check cb "order matters" false (des "/c//a" (syms [ "a"; "b"; "c" ]))

let test_des_multi_segment () =
  check cb "three segments" true (des "/a//c/d//f" (syms [ "a"; "b"; "c"; "d"; "e"; "f" ]));
  check cb "segment must be contiguous" false (des "/a//c/e" (syms [ "a"; "b"; "c"; "d"; "e" ]))

(* ---------------- Recursive advertisements ---------------- *)

let test_rec_paper_example () =
  (* Sec. 3.3 worked example. *)
  check cb "simple recursive" true
    (Paper_match.overlaps_paper (xp "/*/a/c/*/d/e/d/*") (ad "/a/*/c(/e/d)+/*/c/e"))

let test_rec_basic () =
  check cb "one rep" true (Paper_match.overlaps_paper (xp "/a/b/c") (ad "/a(/b)+/c"));
  check cb "needs reps" true (Paper_match.overlaps_paper (xp "/a/b/b/b/b/c") (ad "/a(/b)+/c"));
  check cb "wrong tail" false (Paper_match.overlaps_paper (xp "/a/b/d/x") (ad "/a(/b)+/c"));
  check cb "series" true (Paper_match.overlaps_paper (xp "/a/b/b/c/c/d") (ad "/a(/b)+(/c)+/d"));
  check cb "embedded" true (Paper_match.overlaps_paper (xp "/r/a/b/b/a/b") (ad "/r(/a(/b)+)+"))

let test_rec_relative_and_desc () =
  check cb "relative vs recursive" true (Paper_match.overlaps_paper (xp "b/c") (ad "/a(/b)+/c"));
  check cb "descendant vs recursive" true (Paper_match.overlaps_paper (xp "/a//c") (ad "/a(/b)+/c"));
  check cb "descendant no fit" false (Paper_match.overlaps_paper (xp "/a//q") (ad "/a(/b)+/c"))

(* ---------------- Paper engine vs exact oracle ---------------- *)

let test_paper_engine_equals_oracle () =
  let prng = Xroute_support.Prng.create 777 in
  let alphabet = [| "a"; "b"; "c" |] in
  let random_xpe () =
    let len = 1 + Xroute_support.Prng.int prng 4 in
    let relative = Xroute_support.Prng.bernoulli prng 0.25 in
    let steps =
      List.init len (fun i ->
          let test =
            if Xroute_support.Prng.bernoulli prng 0.3 then Xpe.Star
            else Xpe.Name (Xroute_support.Symbol.intern (Xroute_support.Prng.choose prng alphabet))
          in
          let axis =
            if i = 0 && relative then Xpe.Child
            else if Xroute_support.Prng.bernoulli prng 0.25 then Xpe.Desc
            else Xpe.Child
          in
          Xpe.step axis test)
    in
    Xpe.make ~relative steps
  in
  let random_adv () =
    let seg () =
      let len = 1 + Xroute_support.Prng.int prng 2 in
      Adv.Lit
        (Array.init len (fun _ ->
             if Xroute_support.Prng.bernoulli prng 0.2 then Xpe.Star
             else Xpe.Name (Xroute_support.Symbol.intern (Xroute_support.Prng.choose prng alphabet))))
    in
    (* A group holds a literal, and one time in three also a nested
       group and a trailing literal: embedded recursion. *)
    let group () =
      if Xroute_support.Prng.bernoulli prng 0.33 then
        Adv.Group [ seg (); Adv.Group [ seg () ]; seg () ]
      else Adv.Group [ seg () ]
    in
    let parts =
      List.concat
        (List.init
           (1 + Xroute_support.Prng.int prng 2)
           (fun _ -> if Xroute_support.Prng.bernoulli prng 0.4 then [ group () ] else [ seg () ]))
    in
    Adv.make parts
  in
  for _ = 1 to 1500 do
    let xpe = random_xpe () and adv = random_adv () in
    let paper = Paper_match.overlaps_paper xpe adv in
    let exact = Paper_match.overlaps_exact xpe adv in
    let compiled = Adv_match.overlaps xpe adv in
    if paper <> exact || compiled <> exact then
      Alcotest.failf "engine mismatch: xpe=%s adv=%s paper=%b exact=%b compiled=%b"
        (Xpe.to_string xpe) (Adv.to_string adv) paper exact compiled
  done

(* ---------------- Compiled overlap ---------------- *)

(* The SRT's compiled test against the paper's engine and the oracle,
   on every advertisement of two sample DTDs (NITF: 964, half of them
   recursive; book: recursive sections) and 500 Set-A plus 500 Set-B
   XPEs of each DTD. *)
let test_compiled_on_dtds () =
  let tests = ref 0 in
  List.iter
    (fun dtd ->
      let dtd = Lazy.force dtd in
      let advs =
        Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build dtd)
        |> List.map (fun adv -> (adv, Adv_match.compile adv))
      in
      let xpes params seed = Xroute_workload.Workload.xpes ~params ~count:500 ~seed () in
      let queries =
        xpes (Xroute_workload.Workload.set_a_params dtd) 41
        @ xpes (Xroute_workload.Workload.set_b_params dtd) 42
      in
      List.iter
        (fun xpe ->
          let q = Adv_match.query xpe in
          List.iter
            (fun (adv, c) ->
              let compiled = Adv_match.overlaps_compiled q c in
              let paper = Paper_match.overlaps_paper xpe adv in
              incr tests;
              if compiled <> paper then
                Alcotest.failf "compiled %b, paper %b: xpe=%s adv=%s" compiled paper
                  (Xpe.to_string xpe) (Adv.to_string adv))
            advs)
        queries)
    [ Xroute_dtd.Dtd_samples.nitf; Xroute_dtd.Dtd_samples.book ];
  check cb "ran the NITF and book grids" true (!tests > 964 * 1000)

(* The exact oracle on the same grid would take minutes; it is checked
   on a seeded sample of it, recursive advertisements first. *)
let test_compiled_equals_exact_sample () =
  let prng = Xroute_support.Prng.create 43 in
  List.iter
    (fun dtd ->
      let dtd = Lazy.force dtd in
      let advs =
        Array.of_list (Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build dtd))
      in
      let xpes =
        Array.of_list
          (Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_b_params dtd)
             ~count:500 ~seed:42 ())
      in
      for _ = 1 to 2000 do
        let xpe = Xroute_support.Prng.choose prng xpes
        and adv = Xroute_support.Prng.choose prng advs in
        let compiled = Adv_match.overlaps xpe adv and exact = Paper_match.overlaps_exact xpe adv in
        if compiled <> exact then
          Alcotest.failf "compiled %b, exact %b: xpe=%s adv=%s" compiled exact
            (Xpe.to_string xpe) (Adv.to_string adv)
      done)
    [ Xroute_dtd.Dtd_samples.nitf; Xroute_dtd.Dtd_samples.book ]

(* Past [max_positions] positions the compiled form takes multi-word
   position sets. Widths on both sides of one and two words (63, 64,
   124, 125), each flat, with nested groups, and with a [(...)+] group
   straddling a word boundary; the answers equal the paper's tests and
   the oracle. *)
let test_compiled_wide_fallback () =
  let names n =
    List.init n (fun i -> if i mod 7 = 3 then "*" else Printf.sprintf "n%d" (i mod 5))
  in
  let lit n = Adv.Lit (Array.of_list (List.map Xpe.test_of_string (names n))) in
  let word = Adv_match.max_positions in
  let shapes width =
    let flat = Adv.make [ lit width ] in
    let nested = Adv.make [ lit (width - 27); Adv.Group [ lit 15; Adv.Group [ lit 2 ] ]; lit 10 ] in
    (* A group over the positions around each word boundary inside the
       advertisement. *)
    let straddling =
      List.filter_map
        (fun b ->
          if b >= width then None
          else begin
            let inner = min 4 (width - b + 2) in
            Some (Adv.make [ lit (b - 2); Adv.Group [ lit inner ]; lit (width - b + 2 - inner) ])
          end)
        [ word; 2 * word ]
    in
    (flat, nested :: straddling)
  in
  let xpes =
    [ "/n0/n1/n2/*"; "/n1"; "//n4/n0"; "n2//n3/*/n0"; "//q"; "/n0//n2//n2//n1";
      "n3/n4/n0/n1/n2"; "/n0/n1/n2/*/n4"; "//n1/n2/n3//n0/n0"; "n4//n1/n1" ]
  in
  (* Anchored XPEs whose last step lands on each side of a boundary;
     only on flat advertisements, where the paper's test does not
     unroll. *)
  let anchored width =
    List.concat_map
      (fun last ->
        if last >= width + 1 then []
        else
          [ "/" ^ String.concat "/" (List.init last (fun _ -> "*"));
            "/" ^ String.concat "/" (List.init (last - 1) (fun _ -> "*")) ^ "/n0" ])
      [ word - 1; word; word + 1; 2 * word; 2 * word + 1; width + 1 ]
  in
  let checked = ref 0 in
  let check_pair adv s =
    let xpe = xp s in
    let compiled = Adv_match.overlaps xpe adv
    and paper = Paper_match.overlaps_paper xpe adv
    and exact = Paper_match.overlaps_exact xpe adv in
    incr checked;
    if compiled <> paper || compiled <> exact then
      Alcotest.failf "wide: xpe=%s adv=%s compiled=%b paper=%b exact=%b" s (Adv.to_string adv)
        compiled paper exact
  in
  List.iter
    (fun width ->
      let flat, recursive = shapes width in
      List.iter (check_pair flat) (xpes @ anchored width);
      List.iter (fun adv -> List.iter (check_pair adv) xpes) recursive)
    [ word + 1; word + 2; 2 * word; (2 * word) + 1 ];
  check cb "ran every shape" true (!checked > 150)

(* An advertisement a peer can send on one line: 65 positions in 8
   groups. The paper's unrolling grows exponentially with the groups
   (the third XPE takes it minutes and hundreds of MB); the compiled
   test answers at once, as the oracle does. *)
let test_compiled_wide_grouped () =
  let adv = ad ("/root" ^ String.concat "" (List.init 8 (fun _ -> "(/n0/n1/n2/n3/n4/n0/n1/n2)+"))) in
  check Alcotest.int "printed length" 221 (String.length (Adv.to_string adv));
  List.iter
    (fun s ->
      let xpe = xp s in
      check cb s (Paper_match.overlaps_exact xpe adv) (Adv_match.overlaps xpe adv))
    [ "//n0//n1//n2//n0/n0"; "//n0//n1//n2//n3//n4//n0//n0/n0";
      "//n0//n1//n2//n3//n4//n0//n1//n2//n3//n4//n0/n0"; "/root/n0/n1/n2/n3/n4/n0/n1/n2/n0";
      "/root/n0/n1/n2/n3/n4/n0/n1/n2/n3"; "//n3//n3//n3//n3//n3//n3//n3//n3//n3/n4";
      "/root//n2/n0/n1//n4/n0" ]

let test_length_precondition () =
  (* Publications have exactly the advertisement's length, so a longer
     XPE can never match (Sec. 3.2 observation). *)
  check cb "longer xpe" false (Paper_match.overlaps_paper (xp "/a/b/c") (ad "/a/b"));
  check cb "equal ok" true (Paper_match.overlaps_paper (xp "/a/b") (ad "/a/b"))

let () =
  Alcotest.run "adv_match"
    [
      ( "abs",
        [
          Alcotest.test_case "basic" `Quick test_abs_basic;
          Alcotest.test_case "wildcards" `Quick test_abs_wildcards;
          Alcotest.test_case "paper example" `Quick test_abs_paper_example;
        ] );
      ( "rel",
        [
          Alcotest.test_case "basic" `Quick test_rel_basic;
          Alcotest.test_case "too long" `Quick test_rel_too_long;
          Alcotest.test_case "wildcard borders" `Quick test_rel_wildcard_nontransitive;
          Alcotest.test_case "fast = naive (random)" `Quick test_rel_fast_equals_naive_random;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "NITF and book grids = paper" `Quick test_compiled_on_dtds;
          Alcotest.test_case "= exact (sampled grid)" `Quick test_compiled_equals_exact_sample;
          Alcotest.test_case "wide fallback" `Quick test_compiled_wide_fallback;
          Alcotest.test_case "wide, 8 groups" `Quick test_compiled_wide_grouped;
        ] );
      ( "des",
        [
          Alcotest.test_case "paper example" `Quick test_des_paper_example;
          Alcotest.test_case "basic" `Quick test_des_basic;
          Alcotest.test_case "multi segment" `Quick test_des_multi_segment;
        ] );
      ( "recursive",
        [
          Alcotest.test_case "paper example" `Quick test_rec_paper_example;
          Alcotest.test_case "basic" `Quick test_rec_basic;
          Alcotest.test_case "relative and descendant" `Quick test_rec_relative_and_desc;
        ] );
      ( "engines",
        [
          Alcotest.test_case "paper = oracle (random)" `Slow test_paper_engine_equals_oracle;
          Alcotest.test_case "length precondition" `Quick test_length_precondition;
        ] );
    ]
