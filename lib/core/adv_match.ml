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
   [/c//c//c] needs six instances of [(/*(/a)+/b)+], not five.
   [memo] holds the unrollings computed so far, by budget. *)
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

type unrollings = (int * Adv.symbol array list) list ref

let rec_overlaps (memo : unrollings) (xpe : Xpe.t) (adv : Adv.t) =
  names_available xpe adv
  &&
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

(* Unrollings are memoized per advertisement value. The table is
   process-global and never evicted: it serves the reference test below
   (the tests, Fig. 8 and the CLI), not the SRT, which matches through
   the compiled form. *)
let expansion_cache : unrollings Adv.Tbl.t = Adv.Tbl.create 256

let expr_and_rec_adv (xpe : Xpe.t) (adv : Adv.t) =
  let memo =
    match Adv.Tbl.find_opt expansion_cache adv with
    | Some m -> m
    | None ->
      let m = ref [] in
      Adv.Tbl.replace expansion_cache adv m;
      m
  in
  rec_overlaps memo xpe adv

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The paper's pipeline: the reference the compiled test below is
   checked against. *)
let overlaps_paper (xpe : Xpe.t) (adv : Adv.t) =
  if Adv.is_recursive adv then expr_and_rec_adv xpe adv
  else Xpe.length xpe <= Adv.length adv && expr_and_adv xpe (Adv.to_symbols adv)

(* Exact automata overlap: the oracle of the tests and the CLI. *)
let overlaps_exact (xpe : Xpe.t) (adv : Adv.t) = Xroute_automata.Lang.xpe_overlaps_adv xpe adv

(* ------------------------------------------------------------------ *)
(* Compiled advertisements: the SRT's overlap test                     *)
(* ------------------------------------------------------------------ *)

(* An advertisement is a regular expression over its symbol occurrences
   (positions): literals concatenate, [(...)+] groups repeat. Its
   Glushkov position automaton has one state per position; [first] holds
   the positions a path may start with, [follow.(i)] the positions that
   may come right after position [i], and [reach.(i)] those that may
   come one or more steps later (the transitive closure of [follow]).
   [Adv.make] drops empty parts, so no part matches the empty path and
   every position lies on an accepting path: any walk through the
   automaton extends to a whole advertised path.

   An XPE overlaps the advertisement iff its semantic steps embed into
   such a walk: step 0 at a first position (at any position after [//]),
   each later step at a follow (child axis) or a reach (descendant
   axis) position of the previous one, every step at a position whose
   symbol overlaps its node test (Fig. 2(b)). The XPE matches prefix
   paths, so the walk may stop anywhere. One pass over the steps carries
   the set of feasible positions as an int bitset; this decides exactly
   what the bounded unrolling of [overlaps_paper] enumerates, without
   enumerating anything. Advertisements longer than [max_positions] fall
   back to the paper's algorithms. *)

let max_positions = 62

(* A symbol or node test as an int: 0 for [*], [Symbol.id + 1] for a
   name (the automaton's edge codes, {!Yfilter}). *)
let code_of = function Xpe.Star -> 0 | Xpe.Name n -> Xroute_support.Symbol.id n + 1

type bits = {
  sym : int array; (* code of each position's symbol *)
  stars : int; (* wildcard positions *)
  all : int;
  first : int;
  follow : int array;
  reach : int array;
}

type form =
  | Bits of bits
  (* Too many positions for an int: the paper's tests, with the
     unrollings memoized on the form, so they go with it. *)
  | Wide of unrollings

type compiled = { adv : Adv.t; form : form }

let rec count_positions parts =
  List.fold_left
    (fun acc -> function
      | Adv.Lit a -> acc + Array.length a
      | Adv.Group inner -> acc + count_positions inner)
    0 parts

let bits_of_parts parts width =
  let sym = Array.make width 0 and follow = Array.make width 0 in
  let link from_set to_set =
    for i = 0 to width - 1 do
      if from_set land (1 lsl i) <> 0 then follow.(i) <- follow.(i) lor to_set
    done
  in
  let next = ref 0 in
  (* (first, last) of a part sequence, linking each part's last
     positions to the next part's first ones; 0 stands for "no part
     yet" (a part's first and last sets are never empty). *)
  let rec sequence parts =
    List.fold_left
      (fun (first, last) part ->
        let f, l = one part in
        if first = 0 then (f, l)
        else begin
          link last f;
          (first, l)
        end)
      (0, 0) parts
  and one = function
    | Adv.Lit a ->
      let p0 = !next in
      Array.iteri
        (fun k s ->
          sym.(p0 + k) <- code_of s;
          if k > 0 then follow.(p0 + k - 1) <- follow.(p0 + k - 1) lor (1 lsl (p0 + k)))
        a;
      next := p0 + Array.length a;
      (1 lsl p0, 1 lsl (!next - 1))
    | Adv.Group inner ->
      let f, l = sequence inner in
      link l f;
      (f, l)
  in
  let first, _ = sequence parts in
  (* Warshall's closure over bitset rows. *)
  let reach = Array.copy follow in
  for k = 0 to width - 1 do
    for i = 0 to width - 1 do
      if reach.(i) land (1 lsl k) <> 0 then reach.(i) <- reach.(i) lor reach.(k)
    done
  done;
  let stars = ref 0 in
  Array.iteri (fun i c -> if c = 0 then stars := !stars lor (1 lsl i)) sym;
  { sym; stars = !stars; all = (1 lsl width) - 1; first; follow; reach }

let form_of adv =
  let parts = Adv.parts adv in
  let width = count_positions parts in
  if width <= max_positions then Bits (bits_of_parts parts width) else Wide (ref [])

(* Compiled forms are shared by value across the brokers of a process
   and held weakly: a form lives as long as some SRT entry (or other
   caller) keeps it, so the table is bounded by live advertisements.
   Brokers may run on threads of one process (the daemon tests), so the
   table is used under a lock; an entry takes it once, on its first
   test. *)
module Pool = Weak.Make (struct
  type t = compiled

  let equal a b = Adv.equal a.adv b.adv
  let hash c = Adv.hash c.adv
end)

let pool = Pool.create 256
let pool_lock = Mutex.create ()

(* The form a lookup key carries; never tested against. *)
let probe_form = Wide (ref [])

let compile adv =
  Mutex.protect pool_lock (fun () ->
      match Pool.find_opt pool { adv; form = probe_form } with
      | Some c -> c
      | None ->
        let c = { adv; form = form_of adv } in
        Pool.add pool c;
        c)

let live_compiled () = Mutex.protect pool_lock (fun () -> Pool.count pool)

(* An XPE as its semantic steps' keys, [code * 2 + 1] on the descendant
   axis and [code * 2] on the child axis. *)
type query = { xpe : Xpe.t; keys : int array }

let query xpe =
  let keys =
    Array.of_list
      (List.map
         (fun (s : Xpe.step) ->
           (code_of s.Xpe.test lsl 1) lor match s.Xpe.axis with Xpe.Child -> 0 | Xpe.Desc -> 1)
         (Xpe.semantic_steps xpe))
  in
  { xpe; keys }

(* Positions whose symbol overlaps the node test of code [code]. *)
let positions_for b code =
  if code = 0 then b.all
  else begin
    let m = ref b.stars in
    let sym = b.sym in
    for i = 0 to Array.length sym - 1 do
      if sym.(i) = code then m := !m lor (1 lsl i)
    done;
    !m
  end

(* Union of [table.(i)] over the positions [i] in [set]. *)
let step_set table set =
  let acc = ref 0 and s = ref set and i = ref 0 in
  while !s <> 0 do
    if !s land 1 <> 0 then acc := !acc lor table.(!i);
    s := !s lsr 1;
    incr i
  done;
  !acc

let overlaps_compiled q c =
  match c.form with
  | Bits b ->
    let keys = q.keys in
    let k0 = keys.(0) in
    let set = ref ((if k0 land 1 = 1 then b.all else b.first) land positions_for b (k0 lsr 1)) in
    let j = ref 1 in
    while !set <> 0 && !j < Array.length keys do
      let k = keys.(!j) in
      let next = step_set (if k land 1 = 1 then b.reach else b.follow) !set in
      set := next land positions_for b (k lsr 1);
      incr j
    done;
    !set <> 0
  | Wide memo ->
    let adv = c.adv in
    if Adv.is_recursive adv then rec_overlaps memo q.xpe adv
    else Xpe.length q.xpe <= Adv.length adv && expr_and_adv q.xpe (Adv.to_symbols adv)

let overlaps xpe adv = overlaps_compiled (query xpe) (compile adv)
