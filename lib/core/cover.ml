(* Covering detection between XPEs (Sec. 4.2 of the paper).

   [covers s1 s2] decides (soundly) whether P(s1) ⊇ P(s2). The paper's
   algorithms are deliberately incomplete in places — e.g. an absolute XPE
   is never reported to cover a relative one — which is safe for routing:
   a missed covering relation only costs compactness, never correctness.
   Soundness (never claiming a covering that does not hold) is what the
   property tests enforce against the exact automata oracle.

   Algorithms:
   - [abs_sim_cov]  two absolute simple XPEs: length test plus positional
     covering rules;
   - [rel_sim_cov]  relative simple s1 against simple s2: positional rules
     at some offset (string matching, same structure as RelExprAndAdv);
   - [des_cov]      XPEs with descendant operators: split both into
     //-free segments and search for an order-preserving placement of
     s1's segments inside s2's segments. A placement may overhang the end
     of an s2 segment into the following gap when the overhanging steps
     are unconstrained wildcards (the paper's special case); the overhang
     length becomes a "debt" that the next placement must clear by
     standing at least that far into later segments, which keeps the
     witness alignment valid for every gap size, including zero.

   Every rule above maps s1's steps one-to-one onto steps of s2, and a
   name covers only itself. So s1 can cover s2 only if s1 names nothing
   s2 does not and is no longer than s2. [signature] packs both facts
   into a name bitmask plus a step count, and [may_cover] compares two
   signatures with one [land]: the subscription tree runs the rules
   only on the pairs it admits (the argument, for [covers_exact] too,
   is at [signature]). *)

open Xroute_xpath

(* Positional covering rule: node test of s1 covers that of s2, and s1's
   predicates are a subset of s2's (fewer constraints select more). *)
let test_covers (a : Xpe.nodetest) (b : Xpe.nodetest) =
  match (a, b) with
  | Xpe.Star, _ -> true
  | Xpe.Name x, Xpe.Name y -> Xroute_support.Symbol.equal x y
  | Xpe.Name _, Xpe.Star -> false

let preds_subset (p1 : Xpe.predicate list) (p2 : Xpe.predicate list) =
  List.for_all (fun p -> List.exists (fun q -> p = q) p2) p1

let step_covers (s1 : Xpe.step) (s2 : Xpe.step) =
  test_covers s1.test s2.test && preds_subset s1.preds s2.preds

(* Is the step an unconstrained wildcard (covers any one element)? *)
let step_is_free (s : Xpe.step) = s.Xpe.test = Xpe.Star && s.preds = []

(* ------------------------------------------------------------------ *)
(* Simple XPEs                                                         *)
(* ------------------------------------------------------------------ *)

(* Both absolute, no descendant operators: s1 covers s2 iff s1 is not
   longer and covers positionally. *)
let abs_sim_cov (s1 : Xpe.t) (s2 : Xpe.t) =
  Xpe.length s1 <= Xpe.length s2
  &&
  let rec go l1 l2 =
    match (l1, l2) with
    | [], _ -> true
    | _ :: _, [] -> false
    | a :: r1, b :: r2 -> step_covers a b && go r1 r2
  in
  go s1.Xpe.steps s2.Xpe.steps

(* Relative simple s1 against simple s2 (absolute or relative): s1 must
   cover s2 positionally at some offset, fully inside s2's pattern. *)
let rel_sim_cov (s1 : Xpe.t) (s2 : Xpe.t) =
  let p1 = Array.of_list s1.Xpe.steps in
  let p2 = Array.of_list s2.Xpe.steps in
  let k = Array.length p1 and n = Array.length p2 in
  let rec try_offset o =
    if o + k > n then false
    else begin
      let rec check i = i >= k || (step_covers p1.(i) p2.(o + i) && check (i + 1)) in
      if check 0 then true else try_offset (o + 1)
    end
  in
  try_offset 0

(* ------------------------------------------------------------------ *)
(* Descendant operators                                                *)
(* ------------------------------------------------------------------ *)

type segment = { steps : Xpe.step array }

(* //-free segments of an XPE plus whether the first is anchored at the
   root. *)
let segments_of xpe =
  ( List.map (fun steps -> { steps = Array.of_list steps }) (Xpe.split_on_desc xpe),
    Xpe.first_segment_anchored xpe )

(* Place s1's segments into s2's, in order. Coordinates are "minimal":
   every gap of s2 taken as zero, so position p inside segment h_j at
   offset o is Σ|h_0..j-1)| + o. [debt] is the number of wildcard
   positions the previous placement overhung past its segment's end; the
   next placement must start at least [debt] positions into the
   following segments so the witness alignment stays monotone for every
   gap size. *)
let des_cov (s1 : Xpe.t) (s2 : Xpe.t) =
  if Xpe.length s1 > Xpe.length s2 then false
  else begin
    let g1, anchored1 = segments_of s1 in
    let h2, anchored2 = segments_of s2 in
    if anchored1 && not anchored2 then false
    else begin
      let h = Array.of_list h2 in
      let nseg = Array.length h in
      (* Total remaining length (minimal coordinates) from (j, o). *)
      let remaining =
        let suffix = Array.make (nseg + 1) 0 in
        for j = nseg - 1 downto 0 do
          suffix.(j) <- suffix.(j + 1) + Array.length h.(j).steps
        done;
        fun j o -> if j >= nseg then 0 else suffix.(j) - o
      in
      (* Try to place [seg] rigidly at segment [j], offset [o]: steps
         inside h_j must be covered positionally; steps past the end must
         be free wildcards overhanging into the gap after h_j (which must
         exist) and into later segments' minimal positions. Returns the
         continuation point and the new debt. *)
      let place_at (seg : segment) j o =
        let len_j = Array.length h.(j).steps in
        let klen = Array.length seg.steps in
        if remaining j o < klen then None
        else begin
          let rec go i =
            if i >= klen then true
            else if o + i < len_j then step_covers seg.steps.(i) h.(j).steps.(o + i) && go (i + 1)
            else
              (* Overhang: past the end of h_j. Requires a following gap
                 and unconstrained wildcards. *)
              j < nseg - 1 && step_is_free seg.steps.(i) && go (i + 1)
          in
          if not (go 0) then None
          else begin
            let overhang = max 0 ((o + klen) - len_j) in
            if overhang = 0 then Some (j, o + klen, 0) else Some (j + 1, 0, overhang)
          end
        end
      in
      (* Search: segments of s1 in order; (j, o) = earliest allowed
         position; [debt] = pending overhang length; [gap_before] tells
         whether a // precedes the segment being placed (true except for
         an anchored first segment). *)
      let rec search segs j o debt ~floating =
        match segs with
        | [] -> true (* trailing overhang constrains nothing further *)
        | seg :: rest ->
          if not floating then begin
            (* anchored: must sit exactly at (j, o) with debt 0 *)
            match place_at seg j o with
            | Some (j', o', debt') -> search rest j' o' debt' ~floating:true
            | None -> false
          end
          else begin
            (* floating: try every position at/after (j, o); clearing the
               debt requires standing [debt] past the segment start that
               follows the overhang. *)
            let rec try_from j o dist =
              if j >= nseg then false
              else if o >= Array.length h.(j).steps then try_from (j + 1) 0 dist
              else begin
                let here =
                  match place_at seg j o with
                  | Some (j', o', debt') when dist >= debt ->
                    search rest j' o' debt' ~floating:true
                  | Some _ | None -> false
                in
                here || try_from j (o + 1) (dist + 1)
              end
            in
            try_from j o 0
          end
      in
      match g1 with
      | [] -> true
      | _ -> search g1 0 0 0 ~floating:(not anchored1)
    end
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The paper's covering pipeline: the covering predicate of every
   broker. *)
let covers (s1 : Xpe.t) (s2 : Xpe.t) =
  if Xpe.equal s1 s2 then true
  else if Xpe.is_simple s1 && Xpe.is_simple s2 then begin
    if Xpe.is_relative s1 then rel_sim_cov s1 s2
    else if Xpe.is_relative s2 then false (* the paper: absolute never covers relative *)
    else abs_sim_cov s1 s2
  end
  else des_cov s1 s2

(* Exact covering, the oracle of the tests, the analyzer and the
   merger check: automata containment at the name level. Exact when
   [s1] carries no predicates; otherwise it falls back to the paper
   rules. *)
let covers_exact (s1 : Xpe.t) (s2 : Xpe.t) =
  if not (Xpe.has_predicates s1) then Xroute_automata.Lang.xpe_contains s1 s2
  else covers s1 s2

(* ------------------------------------------------------------------ *)
(* Name signature: a necessary condition for covering                  *)
(* ------------------------------------------------------------------ *)

(* Every branch of [covers] maps s1's steps one-to-one onto steps of s2:
   equality trivially, [abs_sim_cov] position by position, [rel_sim_cov]
   at an offset, [des_cov] segment by segment (an overhang only with
   free wildcards). A named step covers only the same name
   ([test_covers]), and [abs_sim_cov] and [des_cov] test the length
   first while [rel_sim_cov] fits s1 inside s2. So [covers s1 s2]
   implies names(s1) ⊆ names(s2) and |s1| <= |s2|. [covers_exact] implies
   the same: with predicates on s1 it is [covers]; without, s2's
   shortest witness path (wildcards read as the automata's "other"
   letter, every // gap empty) has |s2| elements named only from s2,
   and s1 matches no path shorter than |s1| or lacking one of its
   names.

   The signature packs both: the names as a bitmask (bit [Symbol.id
   mod Sys.int_size]; two names sharing a bit only let more pairs
   through) and the step count. [may_cover] is then one [land] and one
   comparison, and a [false] answer proves that neither rule covers. *)
type signature = { names : int; length : int }

let signature (x : Xpe.t) =
  let names =
    List.fold_left
      (fun acc (s : Xpe.step) ->
        match s.test with
        | Xpe.Name n -> acc lor (1 lsl (Xroute_support.Symbol.id n mod Sys.int_size))
        | Xpe.Star -> acc)
      0 x.steps
  in
  { names; length = Xpe.length x }

let may_cover g1 g2 = g1.names land lnot g2.names = 0 && g1.length <= g2.length

(* Covering between non-recursive advertisements reuses the subscription
   algorithm (Sec. 4.2 note): a non-recursive advertisement has the form
   of an absolute simple XPE, modulo full-length (not prefix) semantics,
   which makes equal length a requirement. Recursive advertisements use
   exact automata containment. *)
let adv_covers (a1 : Adv.t) (a2 : Adv.t) =
  if Adv.is_recursive a1 || Adv.is_recursive a2 then Xroute_automata.Lang.adv_contains a1 a2
  else begin
    let s1 = Adv.to_symbols a1 and s2 = Adv.to_symbols a2 in
    Array.length s1 = Array.length s2
    &&
    let rec go i =
      i >= Array.length s1 || (test_covers s1.(i) s2.(i) && go (i + 1))
    in
    go 0
  end
