(* The paper's subscription/advertisement matching (Sec. 3.2 and 3.3),
   kept as the reference the production test ([Adv_match], compiled
   position automata) is checked against.

   [overlaps_paper s a] decides whether P(s) ∩ P(a) ≠ ∅ the way the
   paper does:

   - [abs_expr_and_adv]   absolute simple XPE vs non-recursive adv;
   - [rel_expr_and_adv]   relative simple XPE vs non-recursive adv
                          (string matching with wildcards; see the note on
                          KMP below);
   - [des_expr_and_adv]   XPE with descendant operators vs non-recursive
                          adv (greedy segment matching);
   - [expr_and_rec_adv]   any XPE vs recursive adv: bounded unrolling of
                          the recursive patterns, the general form of the
                          paper's Fig. 3 covering simple-, series- and
                          embedded-recursive advertisements uniformly.

   On the KMP claim: the paper applies KMP to relative-XPE matching. With
   wildcards on both sides the "overlap" relation is not transitive, so
   textbook KMP can skip genuine matches. [rel_expr_and_adv] therefore
   uses liberal-border shifts: the failure function is computed under the
   relation "some element satisfies both node tests", which never
   overshoots, and the shifted-to prefix is re-verified rather than
   assumed. This is sound and complete, O(n·k) worst case but with
   KMP-style skipping on exact elements; the naive reference lives
   alongside.

   The unrolling is exponential in the number of groups: it is a
   reference, never run on a peer's input. *)

open Xroute_xpath

(* Attribute predicates never constrain advertisement overlap: an
   advertisement says nothing about attribute values, so a publication
   carrying the right values may exist whenever the names align. Hence
   all comparisons here are at the node-test level, through Fig. 2(b)'s
   rule [Adv.symbols_overlap]. *)

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
      i < Array.length adv && Adv.symbols_overlap adv.(i) s.test && go (i + 1) rest
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
        | (s : Xpe.step) :: rest -> Adv.symbols_overlap adv.(o + i) s.test && check (i + 1) rest
      in
      if check 0 steps then true else try_offset (o + 1)
    end
  in
  try_offset 0

(* Liberal failure function: fail.(j) = length of the longest proper
   border of pattern[0..j] under "two subscription node tests could be
   satisfied by one element" (the overlap rule again): if the answer is
   yes the border cannot be ruled out, so the shift must respect it. *)
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
          if not (Adv.symbols_overlap pattern.(i) pattern.(j - b + 1 + i)) then ok := false
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
      else if Adv.symbols_overlap adv.(o + j) pattern.(j) then attempt o (j + 1)
      else if j = 0 then attempt (o + 1) 0
      else begin
        let b = fail.(j - 1) in
        let o' = o + j - b in
        (* Re-verify the border region instead of trusting it. *)
        let rec verify i = if i >= b then b else if Adv.symbols_overlap adv.(o' + i) pattern.(i) then verify (i + 1) else i in
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
        o + i < n && Adv.symbols_overlap adv.(o + i) s.Xpe.test && go (i + 1) rest
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
   positions. Delete every instance that holds none of them, keeping one
   instance of each group inside every instance kept (deletion keeps
   child steps adjacent and descendant steps ordered). With one
   constrained position this leaves one instance per group,
   [group_count] in all. Each further position adds at most a copy of
   one group's subtree: the group and, once each, every group nested in
   it, [w] instances at most, [w] being the largest number of groups one
   top-level group holds, itself included. So [group_count + (length xpe
   - 1) * w] instances suffice; the budget below adds one, which makes
   it the [length xpe + group_count] of advertisements without nesting
   ([w] = 1). With nesting an outer instance drags in an inner one:
   [/c//c//c] needs six instances of [(/*(/a)+/b)+], not five. *)
let rec groups_within = function
  | Adv.Lit _ -> 0
  | Adv.Group inner -> List.fold_left (fun acc p -> acc + groups_within p) 1 inner

(* Every unrolling is spelled with the advertisement's own symbols: an
   XPE naming an element the advertisement never mentions (and no
   wildcard stands for) overlaps none of them. *)
let names_available (xpe : Xpe.t) (adv : Adv.t) =
  let rec mentions test = function
    | Adv.Lit a -> Array.exists (fun s -> s = Xpe.Star || Xpe.equal_nodetest s test) a
    | Adv.Group inner -> List.exists (mentions test) inner
  in
  List.for_all
    (fun (s : Xpe.step) -> s.test = Xpe.Star || List.exists (mentions s.test) (Adv.parts adv))
    xpe.Xpe.steps

(* Unrollings are memoized per advertisement value and budget. The table
   is process-global and never evicted, which suits a reference run on
   fixed corpora (the tests, Fig. 8, the CLI). *)
let expansion_cache : (int * Adv.symbol array list) list ref Adv.Tbl.t = Adv.Tbl.create 256

let expr_and_rec_adv (xpe : Xpe.t) (adv : Adv.t) =
  names_available xpe adv
  &&
  let memo =
    match Adv.Tbl.find_opt expansion_cache adv with
    | Some m -> m
    | None ->
      let m = ref [] in
      Adv.Tbl.replace expansion_cache adv m;
      m
  in
  let w = List.fold_left (fun acc p -> max acc (groups_within p)) 1 (Adv.parts adv) in
  let budget = Adv.group_count adv + ((Xpe.length xpe - 1) * w) + 1 in
  let expansions =
    match List.assoc_opt budget !memo with
    | Some e -> e
    | None ->
      let e = Adv.expand_budget ~budget adv in
      memo := (budget, e) :: !memo;
      e
  in
  List.exists (fun symbols -> expr_and_adv xpe symbols) expansions

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let overlaps_paper (xpe : Xpe.t) (adv : Adv.t) =
  if Adv.is_recursive adv then expr_and_rec_adv xpe adv
  else Xpe.length xpe <= Adv.length adv && expr_and_adv xpe (Adv.to_symbols adv)

let overlaps_exact = Lang.xpe_overlaps_adv
