(* Subscription/advertisement matching (Sec. 3.2 and 3.3 of the paper).

   A broker forwards a subscription towards the publishers whose
   advertisements overlap it: [overlaps s a] decides whether
   P(s) ∩ P(a) ≠ ∅. The algorithms mirror the paper:

   - [abs_expr_and_adv]   absolute simple XPE vs non-recursive adv;
   - [rel_expr_and_adv]   relative simple XPE vs non-recursive adv
                          (string matching with wildcards; see the note on
                          KMP below);
   - [des_expr_and_adv]   XPE with descendant operators vs non-recursive
                          adv (greedy segment matching);
   - [abs_expr_and_rec_adv] absolute XPE vs recursive adv: bounded
                          unrolling of the recursive patterns, the
                          general form of the paper's Fig. 3 covering
                          simple-, series- and embedded-recursive
                          advertisements uniformly.

   On the KMP claim: the paper applies KMP to relative-XPE matching. With
   wildcards on both sides the "overlap" relation is not transitive, so
   textbook KMP can skip genuine matches. [rel_expr_and_adv] therefore
   uses liberal-border shifts: the failure function is computed under the
   relation "some element satisfies both node tests", which never
   overshoots, and the shifted-to prefix is re-verified rather than
   assumed. This is sound and complete, O(n·k) worst case but with
   KMP-style skipping on exact elements; the naive reference and the
   micro-benchmark comparing them live alongside. *)

open Xroute_xpath

(* Attribute predicates never constrain advertisement overlap: an
   advertisement says nothing about attribute values, so a publication
   carrying the right values may exist whenever the names align. Hence
   all comparisons here are at the node-test level. *)

(* Fig. 2(b): does an advertisement symbol overlap a subscription node
   test? *)
let test_overlap (a : Adv.symbol) (s : Xpe.nodetest) =
  match (a, s) with
  | Xpe.Star, _ | _, Xpe.Star -> true
  | Xpe.Name x, Xpe.Name y -> Xroute_support.Symbol.equal x y

(* ------------------------------------------------------------------ *)
(* Non-recursive advertisements                                        *)
(* ------------------------------------------------------------------ *)

(* Absolute simple XPE vs non-recursive advertisement: the XPE must not be
   longer than the advertisement (publications have exactly the
   advertisement's length), and every aligned pair must overlap. *)
let abs_expr_and_adv (steps : Xpe.step list) (adv : Adv.symbol array) =
  let rec go i = function
    | [] -> true
    | (s : Xpe.step) :: rest ->
      i < Array.length adv && test_overlap adv.(i) s.test && go (i + 1) rest
  in
  go 0 steps

(* Naive matching of a relative simple XPE inside the advertisement: try
   every start offset. O(n·k); the reference implementation. *)
let rel_expr_and_adv_naive (steps : Xpe.step list) (adv : Adv.symbol array) =
  let k = List.length steps in
  let n = Array.length adv in
  let rec try_offset o =
    if o + k > n then false
    else begin
      let rec check i = function
        | [] -> true
        | (s : Xpe.step) :: rest -> test_overlap adv.(o + i) s.test && check (i + 1) rest
      in
      if check 0 steps then true else try_offset (o + 1)
    end
  in
  try_offset 0

(* Could two subscription node tests be satisfied by one element? Used
   for the liberal border: if the answer is yes we cannot rule the border
   out, so the shift must respect it. *)
let tests_compatible (a : Xpe.nodetest) (b : Xpe.nodetest) =
  match (a, b) with
  | Xpe.Star, _ | _, Xpe.Star -> true
  | Xpe.Name x, Xpe.Name y -> Xroute_support.Symbol.equal x y

(* Liberal failure function: fail.(j) = length of the longest proper
   border of pattern[0..j] under [tests_compatible]. *)
let liberal_failure pattern =
  let k = Array.length pattern in
  let fail = Array.make k 0 in
  for j = 1 to k - 1 do
    (* longest b < j+1 such that pattern[0..b-1] compatible with
       pattern[j-b+1..j] *)
    let rec best b =
      if b = 0 then 0
      else begin
        let ok = ref true in
        for i = 0 to b - 1 do
          if not (tests_compatible pattern.(i) pattern.(j - b + 1 + i)) then ok := false
        done;
        if !ok then b else best (b - 1)
      end
    in
    fail.(j) <- best j
  done;
  fail

(* Relative simple XPE matching with liberal-border shifts. On a mismatch
   at pattern position j, the window advances by j - fail.(j-1) (never
   past a viable occurrence) and matching restarts at the border length —
   but the border region is re-verified because compatibility is not
   transitive.

   The skipping is only sound when the advertisement itself is free of
   wildcards: an advertisement [*] satisfies any pair of pattern tests,
   so in its presence no shift can be ruled out and the scan degrades to
   the naive algorithm. DTD-generated advertisements are wildcard-free
   except for ANY content, so the fast path is the common one. *)
let rel_expr_and_adv (steps : Xpe.step list) (adv : Adv.symbol array) =
  let pattern = Array.of_list (List.map (fun (s : Xpe.step) -> s.Xpe.test) steps) in
  let k = Array.length pattern in
  let n = Array.length adv in
  if k = 0 then true
  else if k > n then false
  else if Array.exists (fun s -> s = Xpe.Star) adv then rel_expr_and_adv_naive steps adv
  else begin
    let fail = liberal_failure pattern in
    let rec attempt o j =
      (* invariant: positions o..o+j-1 verified against pattern[0..j-1] *)
      if j = k then true
      else if o + k > n then false
      else if test_overlap adv.(o + j) pattern.(j) then attempt o (j + 1)
      else if j = 0 then attempt (o + 1) 0
      else begin
        let b = fail.(j - 1) in
        let o' = o + j - b in
        (* Re-verify the border region instead of trusting it. *)
        let rec verify i = if i >= b then b else if test_overlap adv.(o' + i) pattern.(i) then verify (i + 1) else i in
        let verified = verify 0 in
        if verified = b then attempt o' b else attempt o' verified
      end
    in
    attempt 0 0
  end

(* XPE with descendant operators vs non-recursive advertisement: split
   the XPE into //-free segments and greedily match them left to right
   inside the advertisement (earliest feasible position is optimal since
   per-position overlap is independent). The first segment is anchored at
   position 0 when the XPE starts with '/'. *)
let des_expr_and_adv (xpe : Xpe.t) (adv : Adv.symbol array) =
  let segments = Xpe.split_on_desc xpe in
  let n = Array.length adv in
  let seg_matches_at seg o =
    let rec go i = function
      | [] -> true
      | (s : Xpe.step) :: rest ->
        o + i < n && test_overlap adv.(o + i) s.Xpe.test && go (i + 1) rest
    in
    go 0 seg
  in
  let rec place segs from anchored =
    match segs with
    | [] -> true
    | seg :: rest ->
      let len = List.length seg in
      if anchored then seg_matches_at seg from && place rest (from + len) false
      else begin
        let rec search o =
          if o + len > n then false
          else if seg_matches_at seg o && place rest (o + len) false then true
          else search (o + 1)
        in
        search from
      end
  in
  place segments 0 (Xpe.first_segment_anchored xpe)

(* Dispatcher for non-recursive advertisements. *)
let expr_and_adv (xpe : Xpe.t) (adv : Adv.symbol array) =
  if Xpe.is_simple xpe then begin
    if Xpe.is_absolute xpe then
      Xpe.length xpe <= Array.length adv && abs_expr_and_adv xpe.Xpe.steps adv
    else Xpe.length xpe <= Array.length adv && rel_expr_and_adv xpe.Xpe.steps adv
  end
  else des_expr_and_adv xpe adv

(* ------------------------------------------------------------------ *)
(* Recursive advertisements                                            *)
(* ------------------------------------------------------------------ *)

(* XPE vs recursive advertisement: try the unrollings with a bounded
   total number of repetition instances — the general form of the paper's
   AbsExprAndSimRecAdv / AbsExprAndSerRecAdv / AbsExprAndEmbRecAdv.

   Completeness of the bound: a match constrains at most [length xpe]
   positions, so at most that many repetition instances are touched; any
   untouched instance can be deleted (each group keeps its mandatory
   one), leaving at most [length xpe + group_count] instances. *)
(* Unrollings are memoized per advertisement value, a few budgets each:
   routers match thousands of subscriptions against the same
   advertisement set. The table is process-global on purpose: the
   brokers of one simulation advertise the same DTD, and sharing their
   unrollings is what keeps the overlap test cheap. *)
let expansion_cache : (int * Adv.symbol array list) list Adv.Tbl.t = Adv.Tbl.create 256

let expansions_of adv budget =
  let by_budget = Option.value ~default:[] (Adv.Tbl.find_opt expansion_cache adv) in
  match List.assoc_opt budget by_budget with
  | Some e -> e
  | None ->
    let e = Adv.expand_budget ~budget adv in
    Adv.Tbl.replace expansion_cache adv ((budget, e) :: by_budget);
    e

let expr_and_rec_adv (xpe : Xpe.t) (adv : Adv.t) =
  let budget = Xpe.length xpe + Adv.group_count adv in
  let expansions = expansions_of adv budget in
  List.exists (fun symbols -> expr_and_adv xpe symbols) expansions

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The paper's pipeline: the SRT's overlap test. *)
let overlaps_paper (xpe : Xpe.t) (adv : Adv.t) =
  if Adv.is_recursive adv then expr_and_rec_adv xpe adv
  else Xpe.length xpe <= Adv.length adv && expr_and_adv xpe (Adv.to_symbols adv)

(* Exact automata overlap: the oracle of the tests and the CLI. *)
let overlaps_exact (xpe : Xpe.t) (adv : Adv.t) = Xroute_automata.Lang.xpe_overlaps_adv xpe adv
