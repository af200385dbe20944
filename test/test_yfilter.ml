(* Tests for the YFilter-style NFA index: hand-picked behaviors, pinned
   match charges, randomized equivalence with the linear reference
   matcher, and a call-for-call differential (results and charge)
   against the hash-table reference automaton of [Yfilter_ref]. *)

open Xroute_core
open Xroute_xpath

let check = Alcotest.check
let ci = Alcotest.int

let xp = Xpe_parser.parse
let path s = Array.of_list (String.split_on_char '/' s)

let index_of xpes =
  let t : int Yfilter.t = Yfilter.create () in
  List.iteri (fun i x -> Yfilter.insert t (xp x) i) xpes;
  t

let matches t p = List.sort compare (Yfilter.match_names t (path p))

let test_basic () =
  let t = index_of [ "/a/b"; "/a/c"; "/x" ] in
  check (Alcotest.list ci) "ab" [ 0 ] (matches t "a/b");
  check (Alcotest.list ci) "prefix" [ 0 ] (matches t "a/b/z");
  check (Alcotest.list ci) "x" [ 2 ] (matches t "x");
  check (Alcotest.list ci) "none" [] (matches t "q")

let test_wildcards_and_desc () =
  let t = index_of [ "/*/b"; "//c"; "/a//d"; "b/c" ] in
  check (Alcotest.list ci) "star" [ 0 ] (matches t "q/b");
  check (Alcotest.list ci) "desc deep" [ 1 ] (matches t "x/y/c");
  check (Alcotest.list ci) "a..d" [ 2 ] (matches t "a/x/y/d");
  check (Alcotest.list ci) "relative infix" [ 0; 1; 3 ] (matches t "a/b/c");
  check (Alcotest.list ci) "relative and desc" [ 1; 3 ] (matches t "b/c")

let test_child_edges_do_not_refire () =
  (* /a//b/c : after //b matches, /c must follow IMMEDIATELY after that
     b; a c appearing later must not be accepted from a stale state. *)
  let t = index_of [ "/a//b/c" ] in
  check (Alcotest.list ci) "direct" [ 0 ] (matches t "a/x/b/c");
  check (Alcotest.list ci) "gap breaks child edge" [] (matches t "a/x/b/x/c");
  (* but a later b re-arms it *)
  check (Alcotest.list ci) "re-armed" [ 0 ] (matches t "a/x/b/x/b/c")

let test_prefix_sharing () =
  let t = index_of [ "/a/b/c"; "/a/b/d"; "/a/b"; "/a/q" ] in
  (* states: root, a, b, c, d, q = 6 *)
  check ci "states shared" 6 (Yfilter.state_count t);
  check ci "size" 4 (Yfilter.size t);
  check (Alcotest.list ci) "all under ab" [ 0; 2 ] (matches t "a/b/c")

let test_duplicate_xpes_accumulate () =
  let t : int Yfilter.t = Yfilter.create () in
  Yfilter.insert t (xp "/a") 1;
  Yfilter.insert t (xp "/a") 2;
  check ci "two payloads" 2 (Yfilter.size t);
  check (Alcotest.list ci) "both match" [ 1; 2 ] (matches t "a")

let test_remove () =
  let t : int Yfilter.t = Yfilter.create () in
  Yfilter.insert t (xp "/a") 1;
  Yfilter.insert t (xp "/a") 2;
  Yfilter.insert t (xp "/a/b") 3;
  Yfilter.remove t (xp "/a") (fun p -> p = 1);
  check ci "one gone" 2 (Yfilter.size t);
  check (Alcotest.list ci) "match after remove" [ 2 ] (matches t "a");
  Yfilter.remove t (xp "/a") (fun _ -> true);
  check (Alcotest.list ci) "all gone" [] (matches t "a");
  check (Alcotest.list ci) "sibling untouched" [ 3 ] (matches t "a/b")

let test_state_count_after_remove () =
  let t : int Yfilter.t = Yfilter.create () in
  Yfilter.insert t (xp "/a/b/c") 1;
  Yfilter.insert t (xp "/a/q") 2;
  (* root, a, b, c, q *)
  check ci "live states" 5 (Yfilter.state_count t);
  check ci "allocated states" 5 (Yfilter.allocated_states t);
  Yfilter.remove t (xp "/a/b/c") (fun _ -> true);
  (* eager pruning: the b and c states die with their payload, and the
     allocation counter follows the live count *)
  check ci "live shrinks after remove" 3 (Yfilter.state_count t);
  check ci "allocated shrinks too" 3 (Yfilter.allocated_states t);
  Yfilter.remove t (xp "/a/q") (fun _ -> true);
  check ci "only the root is live" 1 (Yfilter.state_count t);
  check ci "only the root is allocated" 1 (Yfilter.allocated_states t)

(* Insert+remove cycles must land exactly on the fresh-build automaton:
   no leaked states, and the invariant audit stays clean throughout. *)
let test_churn_returns_to_fresh_build () =
  let base = [ "/a/b/c"; "/a/b/d"; "//x/y"; "/*/q" ] in
  let fresh = index_of base in
  let fresh_states = Yfilter.state_count fresh in
  let t : int Yfilter.t = Yfilter.create () in
  List.iteri (fun i x -> Yfilter.insert t (xp x) i) base;
  let extra = [ "/a/b/c/deep/er"; "/zz//ww"; "/a/b"; "//x/y/z[@k='v']" ] in
  for round = 1 to 3 do
    List.iteri (fun i x -> Yfilter.insert t (xp x) (100 + i)) extra;
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "round %d: invariants hold while grown" round)
      []
      (Yfilter.check_invariants t);
    List.iter (fun x -> Yfilter.remove t (xp x) (fun p -> p >= 100)) extra;
    check ci
      (Printf.sprintf "round %d: states back to fresh build" round)
      fresh_states (Yfilter.state_count t);
    check ci
      (Printf.sprintf "round %d: allocation counter agrees" round)
      fresh_states (Yfilter.allocated_states t);
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "round %d: invariants hold after churn" round)
      []
      (Yfilter.check_invariants t)
  done

let test_predicates_rechecked () =
  let t : int Yfilter.t = Yfilter.create () in
  Yfilter.insert t (xp "/a/b[@k='v']") 1;
  let p = path "a/b" in
  check (Alcotest.list ci) "pred ok" [ 1 ]
    (Yfilter.match_path t p [| []; [ ("k", "v") ] |]);
  check (Alcotest.list ci) "pred fails" [] (Yfilter.match_path t p [| []; [ ("k", "w") ] |])

(* Predicates do not take part in the automaton, so a predicate XPE
   shares its whole trail with a predicate-free twin: the NFA accepts
   both, and only the lazy exact-evaluator re-check separates them. *)
let test_predicates_shared_prefix () =
  let t : int Yfilter.t = Yfilter.create () in
  Yfilter.insert t (xp "/a/b") 1;
  Yfilter.insert t (xp "/a/b[@k='v']") 2;
  Yfilter.insert t (xp "/a/b[@k='v'][@m='n']") 3;
  (* one shared trail: root, a, b — predicates add no states *)
  check ci "predicates add no states" 3 (Yfilter.state_count t);
  let p = path "a/b" in
  (* NFA accepts all three; the re-check rejects the predicate XPEs *)
  check (Alcotest.list ci) "nfa accepts, evaluator rejects" [ 1 ]
    (Yfilter.match_path t p [| []; [] |]);
  check (Alcotest.list ci) "one predicate satisfied" [ 1; 2 ]
    (List.sort compare (Yfilter.match_path t p [| []; [ ("k", "v") ] |]));
  check (Alcotest.list ci) "both predicates satisfied" [ 1; 2; 3 ]
    (List.sort compare (Yfilter.match_path t p [| []; [ ("k", "v"); ("m", "n") ] |]));
  (* removing the predicate-free twin must keep the shared trail alive
     for the predicate XPEs *)
  Yfilter.remove t (xp "/a/b") (fun _ -> true);
  check ci "shared trail survives" 3 (Yfilter.state_count t);
  check (Alcotest.list ci) "predicate XPEs still reachable" [ 2 ]
    (Yfilter.match_path t p [| []; [ ("k", "v") ] |])

let test_to_list () =
  let t = index_of [ "/a"; "/a/b" ] in
  check ci "pairs" 2 (List.length (Yfilter.to_list t))

(* Randomized equivalence with the linear matcher over Sub_tree. *)
let test_equivalence_random () =
  let prng = Xroute_support.Prng.create 424242 in
  let alphabet = [| "a"; "b"; "c" |] in
  let random_xpe () =
    let len = 1 + Xroute_support.Prng.int prng 4 in
    let relative = Xroute_support.Prng.bernoulli prng 0.2 in
    let steps =
      List.init len (fun i ->
          let test =
            if Xroute_support.Prng.bernoulli prng 0.3 then Xpe.Star
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
  in
  for _round = 1 to 30 do
    let xpes = List.init (1 + Xroute_support.Prng.int prng 60) (fun _ -> random_xpe ()) in
    let yf : int Yfilter.t = Yfilter.create () in
    let tree : int Sub_tree.t = Sub_tree.create () in
    List.iteri
      (fun i x ->
        Yfilter.insert yf x i;
        ignore (Sub_tree.insert tree x i))
      xpes;
    for _ = 1 to 40 do
      let len = 1 + Xroute_support.Prng.int prng 6 in
      let p = Array.init len (fun _ -> Xroute_support.Prng.choose prng alphabet) in
      let attrs = Array.make len [] in
      let via_yf = List.sort compare (Yfilter.match_path yf p attrs) in
      let via_tree = List.sort compare (Sub_tree.match_path_linear tree p attrs) in
      if via_yf <> via_tree then
        Alcotest.failf "yfilter differs on %s: yf=[%s] tree=[%s] (xpes: %s)"
          (String.concat "/" (Array.to_list p))
          (String.concat ";" (List.map string_of_int via_yf))
          (String.concat ";" (List.map string_of_int via_tree))
          (String.concat " " (List.map Xpe.to_string xpes))
    done
  done

(* Exact charges on a small automaton. [match_ops] counts +1 for each
   edge followed and +1 for each accepting entry scanned, once per node
   per call; Broker.work and the bench's entries/pub build on it, so
   these numbers are derived by hand, step by step, and pinned.

   Trie: root -a-> A -b-> AB [p0 p1]; A -//b-> AdB -c-> AdBC [p2];
   root -//a-> D1 -//c-> D1C [p3]; D1 -//a-> D2 -//a-> D3 [p4]. *)
let pinned_index () =
  index_of [ "/a/b"; "/a/b[@k='v']"; "/a//b/c"; "//a//c"; "//a//a//a" ]

let charged t p attrs =
  let before = Yfilter.match_ops t in
  let got = List.sort compare (Yfilter.match_path t (path p) attrs) in
  (got, Yfilter.match_ops t - before)

let test_pinned_charges () =
  let t = pinned_index () in
  check ci "states" 9 (Yfilter.state_count t);
  let pin name p attrs (want, want_ops) =
    let got, ops = charged t p attrs in
    check (Alcotest.list ci) (name ^ ": result") want got;
    check ci (name ^ ": charge") want_ops ops
  in
  let none n = Array.make n [] in
  (* a: root fires /a (A) and //a (D1) = 2. b: A fires /b (AB, whose
     two entries are scanned = 3) and //b (AdB = 1); alive root finds
     no //b. The predicate entry is charged whether or not it holds. *)
  pin "accepting node with two XPEs" "a/b" (none 2) ([ 0 ], 6);
  pin "... predicate holds" "a/b" [| []; [ ("k", "v") ] |] ([ 0; 1 ], 6);
  (* a = 2; x reaches nothing; on b, A is alive but not fresh: its //b
     fires (AdB = 1), its /b must not (AB stays unreached). *)
  pin "alive node's child edges do not re-fire" "a/x/b" (none 3) ([], 3);
  (* a = 2. a: fresh D1 fires //a (D2); alive root fires //a into D1
     again = 2. a: fresh D1 fires //a into D2 again (D2 was fresh on
     this element too), fresh D2 fires //a (D3 and its entry = 2);
     alive D2 is fresh, so it must not fire a second time; alive root
     re-reaches D1 = 1. Total 2 + 2 + 4. *)
  pin "fresh node reached again on its element" "a/a/a" (none 3) ([ 4 ], 8);
  (* one more a: D1 -> D2, D2 -> D3 (entry not rescanned), root -> D1
     = 3: D3 is charged on two elements and reported once. *)
  pin "node reached twice, reported once" "a/a/a/a" (none 4) ([ 4 ], 11);
  (* a = 2; c: fresh D1 fires //c (D1C and its entry = 2). *)
  pin "descendant into accept" "a/c" (none 2) ([ 3 ], 4);
  (* /a//b/c: c right after b. a = 2, b = 4 (as above), c: fresh AdB
     fires /c (AdBC and its entry = 2), alive D1 fires //c (D1C and its
     entry = 2). *)
  pin "child after descendant" "a/b/c" (none 3) ([ 0; 2; 3 ], 10)

(* ---- differential against the reference automaton ---- *)

module Symbol = Xroute_support.Symbol
module Prng = Xroute_support.Prng

(* The name interned first, whose symbol id is 0: its edge code must
   not collide with the wildcard's. *)
let sym0_name () =
  ignore (Symbol.intern "a");
  Symbol.name (Symbol.of_id 0)

let random_xpe prng alphabet =
  let len = 1 + Prng.int prng 4 in
  let relative = Prng.bernoulli prng 0.2 in
  let steps =
    List.init len (fun i ->
        let test =
          if Prng.bernoulli prng 0.25 then Xpe.Star
          else Xpe.Name (Symbol.intern (Prng.choose prng alphabet))
        in
        let axis =
          if i = 0 && relative then Xpe.Child
          else if Prng.bernoulli prng 0.3 then Xpe.Desc
          else Xpe.Child
        in
        let preds =
          if Prng.bernoulli prng 0.15 then
            [ { Xpe.attr = "k"; value = Prng.choose prng [| "v"; "w" |] } ]
          else []
        in
        Xpe.step ~preds axis test)
  in
  Xpe.make ~relative steps

(* One to four random inserts and removes, applied by [insert] and
   [remove] to every automaton under test; [live] tracks the stored
   (xpe, payload) pairs. *)
let churn prng alphabet ~live ~next ~insert ~remove =
  for _ = 1 to 1 + Prng.int prng 4 do
    if !live <> [] && Prng.bernoulli prng 0.35 then begin
      let x, p = Prng.choose prng (Array.of_list !live) in
      live := List.filter (fun (_, q) -> q <> p) !live;
      remove x p
    end
    else begin
      let x =
        if !live <> [] && Prng.bernoulli prng 0.2 then fst (Prng.choose prng (Array.of_list !live))
        else random_xpe prng alphabet
      in
      incr next;
      live := (x, !next) :: !live;
      insert x !next
    end
  done

let live_to_string live =
  String.concat " " (List.map (fun (x, q) -> Printf.sprintf "%d:%s" q (Xpe.to_string x)) live)

let ints l = String.concat ";" (List.map string_of_int l)

let test_differential_reference () =
  let prng = Prng.create 1606 in
  let alphabet = [| "a"; "b"; "c"; sym0_name () |] in
  let late = ref 0 in
  let random_name () =
    if Prng.bernoulli prng 0.1 then begin
      (* a name interned only now, after the automaton was built *)
      incr late;
      Printf.sprintf "late-%d" !late
    end
    else Prng.choose prng alphabet
  in
  let calls = ref 0 in
  for round = 1 to 20 do
    let t : int Yfilter.t = Yfilter.create () in
    let r : int Yfilter_ref.t = Yfilter_ref.create () in
    let live = ref [] in
    let next = ref 0 in
    for _step = 1 to 30 do
      (* inserts and removes between matches: a stamp left stale by an
         earlier call, or a frontier buffer not reset, would show *)
      churn prng alphabet ~live ~next
        ~insert:(fun x p ->
          Yfilter.insert t x p;
          Yfilter_ref.insert r x p)
        ~remove:(fun x p ->
          Yfilter.remove t x (fun q -> q = p);
          Yfilter_ref.remove r x (fun q -> q = p));
      check (Alcotest.list Alcotest.string) "invariants" [] (Yfilter.check_invariants t);
      for _ = 1 to 5 do
        let len = Prng.int prng 7 in
        let p = Array.init len (fun _ -> random_name ()) in
        let attrs =
          Array.init len (fun _ ->
              if Prng.bernoulli prng 0.4 then [ ("k", Prng.choose prng [| "v"; "w" |]) ] else [])
        in
        let syms = Symbol.intern_path p in
        let ops_t = Yfilter.match_ops t and ops_r = Yfilter_ref.match_ops r in
        let got = List.sort compare (Yfilter.match_syms t syms attrs) in
        let want = List.sort compare (Yfilter_ref.match_syms r syms attrs) in
        incr calls;
        let ctx () =
          Printf.sprintf "round %d, /%s over {%s}" round
            (String.concat "/" (Array.to_list p))
            (live_to_string !live)
        in
        if got <> want then
          Alcotest.failf "%s: result [%s], reference [%s]" (ctx ()) (ints got) (ints want);
        let dt = Yfilter.match_ops t - ops_t and dr = Yfilter_ref.match_ops r - ops_r in
        if dt <> dr then Alcotest.failf "%s: charged %d, reference %d" (ctx ()) dt dr
      done
    done
  done;
  check ci "calls compared" (20 * 30 * 5) !calls

(* The root-to-leaf paths of a random tree over [alphabet], in
   document (depth-first) order, each element carrying a [k] attribute
   now and then: the sequence a broker receives for one document, in
   which consecutive paths share a prefix. *)
let random_doc_paths prng alphabet =
  let paths = ref [] in
  let rec node depth prefix =
    let elem =
      ( Prng.choose prng alphabet,
        if Prng.bernoulli prng 0.3 then [ ("k", Prng.choose prng [| "v"; "w" |]) ] else [] )
    in
    let prefix = elem :: prefix in
    match if depth >= 6 then 0 else Prng.int prng 4 with
    | 0 -> paths := Array.of_list (List.rev prefix) :: !paths
    | kids ->
      for _ = 1 to kids do
        node (depth + 1) prefix
      done
  in
  node 1 [];
  List.rev !paths

(* Call for call, over documents fed path by path in document order
   with inserts and removes between paths of one document: the resuming
   matcher against the reference automaton (results and charge) and
   against a twin that never resumes (results in the same order). The
   twin matches the empty path before each call, which leaves it a log
   no path resumes from. *)
let test_document_order_differential () =
  let prng = Prng.create 2803 in
  let alphabet = [| "a"; "b"; "c"; sym0_name () |] in
  let calls = ref 0 in
  let resumed = ref 0 in
  for round = 1 to 15 do
    let t : int Yfilter.t = Yfilter.create () in
    let twin : int Yfilter.t = Yfilter.create () in
    let r : int Yfilter_ref.t = Yfilter_ref.create () in
    let live = ref [] in
    let next = ref 0 in
    let mutate () =
      churn prng alphabet ~live ~next
        ~insert:(fun x p ->
          Yfilter.insert t x p;
          Yfilter.insert twin x p;
          Yfilter_ref.insert r x p)
        ~remove:(fun x p ->
          Yfilter.remove t x (fun q -> q = p);
          Yfilter.remove twin x (fun q -> q = p);
          Yfilter_ref.remove r x (fun q -> q = p));
      check (Alcotest.list Alcotest.string) "invariants" [] (Yfilter.check_invariants t)
    in
    for _ = 1 to 6 do
      mutate ()
    done;
    for doc = 1 to 12 do
      List.iter
        (fun elems ->
          if Prng.bernoulli prng 0.15 then mutate ();
          let p = Array.map fst elems and attrs = Array.map snd elems in
          let syms = Symbol.intern_path p in
          let ops_t = Yfilter.match_ops t and ops_r = Yfilter_ref.match_ops r in
          let ops_twin = Yfilter.match_ops twin in
          let got = Yfilter.match_syms t syms attrs in
          ignore (Yfilter.match_syms twin [||] [||]);
          let twin_ops_empty = Yfilter.match_ops twin - ops_twin in
          let from_root = Yfilter.match_syms twin syms attrs in
          let want = List.sort compare (Yfilter_ref.match_syms r syms attrs) in
          incr calls;
          let ctx () =
            Printf.sprintf "round %d, doc %d, /%s over {%s}" round doc
              (String.concat "/"
                 (Array.to_list
                    (Array.map
                       (fun (n, a) ->
                         match a with [ (_, v) ] -> Printf.sprintf "%s[k=%s]" n v | _ -> n)
                       elems)))
              (live_to_string !live)
          in
          if got <> from_root then
            Alcotest.failf "%s: result [%s], from the root [%s]" (ctx ()) (ints got)
              (ints from_root);
          if List.sort compare got <> want then
            Alcotest.failf "%s: result [%s], reference [%s]" (ctx ()) (ints got) (ints want);
          let dt = Yfilter.match_ops t - ops_t and dr = Yfilter_ref.match_ops r - ops_r in
          let dtwin = Yfilter.match_ops twin - ops_twin - twin_ops_empty in
          if dt <> dr || dtwin <> dr then
            Alcotest.failf "%s: charged %d, from the root %d, reference %d" (ctx ()) dt dtwin dr)
        (random_doc_paths prng alphabet)
    done;
    check ci "the twin never resumes" 0 (Yfilter.resumed_ops twin);
    check (Alcotest.list Alcotest.string) "invariants after the round" []
      (Yfilter.check_invariants t);
    resumed := !resumed + Yfilter.resumed_ops t
  done;
  if !calls < 1000 then Alcotest.failf "only %d calls compared" !calls;
  if !resumed = 0 then Alcotest.fail "no call resumed"

(* A predicate is judged against the whole path, so a run resumes no
   deeper than the element before the first predicate scan. Both cases
   share the prefix a/b[k=w] with the previous path, whose //b node
   scanned the predicate entry at depth 2. *)
let test_predicate_resume_cut () =
  let x = "//b[@k='v']" in
  let a = [] and bw = [ ("k", "w") ] and bv = [ ("k", "v") ] in
  let case name (p0, attrs0) (p1, attrs1) want =
    let t = index_of [ x ] in
    ignore (Yfilter.match_path t (path p0) attrs0);
    let got, ops = charged t p1 attrs1 in
    let fresh_got, fresh_ops = charged (index_of [ x ]) p1 attrs1 in
    check (Alcotest.list ci) (name ^ ": as a fresh automaton") fresh_got got;
    check ci (name ^ ": charge as a fresh automaton") fresh_ops ops;
    check (Alcotest.list ci) (name ^ ": result") want got
  in
  (* the prefix's b fails the predicate, a b in the new suffix holds it *)
  case "satisfied in the new suffix" ("a/b/c", [| a; bw; a |]) ("a/b/b", [| a; bw; bv |]) [ 0 ];
  (* the old path held it only through its suffix, the new one not *)
  case "satisfied only in the old suffix" ("a/b/b", [| a; bw; bv |]) ("a/b/c", [| a; bw; a |]) []

(* The log's must-fail mutation: a resume log stamped with another
   version is reported, and never replayed. *)
let test_stale_log_reported () =
  let t = index_of [ "/a/b"; "//c" ] in
  check (Alcotest.list ci) "first path" [ 0; 1 ] (matches t "a/b/c");
  check (Alcotest.list Alcotest.string) "clean after a match" [] (Yfilter.check_invariants t);
  Yfilter.plant_stale_log t;
  check Alcotest.bool "stale log reported" true (Yfilter.check_invariants t <> []);
  let resumed = Yfilter.resumed_ops t in
  check (Alcotest.list ci) "answered from the root" [ 0; 1 ] (matches t "a/b/c");
  check ci "nothing replayed" resumed (Yfilter.resumed_ops t);
  check (Alcotest.list Alcotest.string) "the run re-stamps the log" []
    (Yfilter.check_invariants t);
  ignore (matches t "a/b/d");
  check Alcotest.bool "the next path resumes" true (Yfilter.resumed_ops t > resumed);
  Yfilter.insert t (xp "/a/b/d") 2;
  check (Alcotest.list Alcotest.string) "an insert drops the log" []
    (Yfilter.check_invariants t)

(* Key collisions: the id-0 name and the wildcard live side by side
   under one node, on both axes, and each edge answers only for itself. *)
let test_sym0_beside_star () =
  let n0 = sym0_name () in
  let t = index_of [ "/" ^ n0 ^ "/x"; "/*/y"; "//" ^ n0; "/q//*" ] in
  check (Alcotest.list Alcotest.string) "invariants" [] (Yfilter.check_invariants t);
  check (Alcotest.list ci) "name edge" [ 0; 2 ] (matches t (n0 ^ "/x"));
  check (Alcotest.list ci) "star edge" [ 1 ] (matches t "zz/y");
  check (Alcotest.list ci) "both under one element" [ 1; 2 ] (matches t (n0 ^ "/y"));
  check (Alcotest.list ci) "descendant star" [ 3 ] (matches t "q/r")

let () =
  Alcotest.run "yfilter"
    [
      ( "behavior",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "wildcards and desc" `Quick test_wildcards_and_desc;
          Alcotest.test_case "child edges do not refire" `Quick test_child_edges_do_not_refire;
          Alcotest.test_case "prefix sharing" `Quick test_prefix_sharing;
          Alcotest.test_case "duplicates" `Quick test_duplicate_xpes_accumulate;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "state count after remove" `Quick test_state_count_after_remove;
          Alcotest.test_case "churn returns to fresh build" `Quick test_churn_returns_to_fresh_build;
          Alcotest.test_case "predicates" `Quick test_predicates_rechecked;
          Alcotest.test_case "predicates share prefixes" `Quick test_predicates_shared_prefix;
          Alcotest.test_case "to_list" `Quick test_to_list;
        ] );
      ( "charges",
        [
          Alcotest.test_case "pinned" `Quick test_pinned_charges;
          Alcotest.test_case "id-0 name beside star" `Quick test_sym0_beside_star;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "random vs linear" `Quick test_equivalence_random;
          Alcotest.test_case "differential vs reference automaton" `Quick
            test_differential_reference;
          Alcotest.test_case "document order vs reference automaton" `Quick
            test_document_order_differential;
        ] );
      ( "resume",
        [
          Alcotest.test_case "predicate cut" `Quick test_predicate_resume_cut;
          Alcotest.test_case "stale log reported" `Quick test_stale_log_reported;
        ] );
    ]
