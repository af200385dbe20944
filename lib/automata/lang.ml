(* Exact decision procedures on the path languages of XPEs and
   advertisements.

   [overlap] (intersection non-emptiness) and [contains] (language
   inclusion) are the semantic ground truth against which the paper's
   matching and covering algorithms are property-tested; [contains] also
   powers exact covering ([Cover.covers_exact]), ablated in the benchmarks.

   Inclusion is decided by determinizing over the finite alphabet of
   names mentioned by either side plus one representative "fresh" letter
   standing for every other name — wildcard edges treat all letters
   alike, so one representative suffices. *)

type letter = Name of string | Fresh

let letter_name = function Name n -> n | Fresh -> "\x00fresh\x00"

(* Deterministic simulation: the set of NFA states after reading a
   letter. *)
let dstep nfa set letter = Nfa.closure nfa (Nfa.step nfa set (letter_name letter))

(* L(a) ⊇ L(b): search for a word accepted by [b] but not by [a] via BFS
   over pairs (subset of a's states, subset of b's states). *)
let nfa_contains ~alphabet a b =
  let module Key = struct
    type t = Nfa.Int_set.t * Nfa.Int_set.t

    let compare (x1, y1) (x2, y2) =
      match Nfa.Int_set.compare x1 x2 with 0 -> Nfa.Int_set.compare y1 y2 | c -> c
  end in
  let module Seen = Set.Make (Key) in
  let seen = ref Seen.empty in
  let queue = Queue.create () in
  let push pair =
    if not (Seen.mem pair !seen) then begin
      seen := Seen.add pair !seen;
      Queue.push pair queue
    end
  in
  push (Nfa.start_set a, Nfa.start_set b);
  let exception Counterexample in
  try
    while not (Queue.is_empty queue) do
      let sa, sb = Queue.pop queue in
      if Nfa.is_accepting b sb && not (Nfa.is_accepting a sa) then raise Counterexample;
      if not (Nfa.Int_set.is_empty sb) then
        List.iter
          (fun letter ->
            let sb' = dstep b sb letter in
            if not (Nfa.Int_set.is_empty sb') then push (dstep a sa letter, sb'))
          alphabet
    done;
    true
  with Counterexample -> false

let alphabet_of regexes =
  let names = List.concat_map Regex.names regexes in
  let module S = Set.Make (String) in
  let distinct = S.elements (List.fold_left (fun acc n -> S.add n acc) S.empty names) in
  Fresh :: List.map (fun n -> Name n) distinct

(* ---------------- Cached compilation ---------------- *)

(* XPE/advertisement automata are requested repeatedly by the routing
   layer; memoize by printed form. *)
let xpe_cache : (string, Nfa.t) Hashtbl.t = Hashtbl.create 256
let adv_cache : (string, Nfa.t) Hashtbl.t = Hashtbl.create 256

let nfa_of_xpe xpe =
  let key = Xroute_xpath.Xpe.to_string xpe in
  match Hashtbl.find_opt xpe_cache key with
  | Some nfa -> nfa
  | None ->
    let nfa = Nfa.of_regex (Regex.of_xpe xpe) in
    Hashtbl.replace xpe_cache key nfa;
    nfa

let nfa_of_adv adv =
  let key = Xroute_xpath.Adv.to_string adv in
  match Hashtbl.find_opt adv_cache key with
  | Some nfa -> nfa
  | None ->
    let nfa = Nfa.of_regex (Regex.of_adv adv) in
    Hashtbl.replace adv_cache key nfa;
    nfa

(* ---------------- Public decisions ---------------- *)

(* P(adv) ∩ P(xpe) ≠ ∅ — the exact version of the paper's
   subscription/advertisement matching. *)
let xpe_overlaps_adv xpe adv = Nfa.intersect_nonempty (nfa_of_xpe xpe) (nfa_of_adv adv)

(* P(s1) ⊇ P(s2) at the element-name level — exact XPE containment
   (attribute predicates are ignored; callers must handle them). *)
let xpe_contains s1 s2 =
  let r1 = Regex.of_xpe s1 and r2 = Regex.of_xpe s2 in
  nfa_contains ~alphabet:(alphabet_of [ r1; r2 ]) (Nfa.of_regex r1) (Nfa.of_regex r2)

(* P(a1) ⊇ P(a2) for advertisements. *)
let adv_contains a1 a2 =
  let r1 = Regex.of_adv a1 and r2 = Regex.of_adv a2 in
  nfa_contains ~alphabet:(alphabet_of [ r1; r2 ]) (Nfa.of_regex r1) (Nfa.of_regex r2)

(* Do two XPE languages overlap? *)
let xpe_overlaps s1 s2 = Nfa.intersect_nonempty (nfa_of_xpe s1) (nfa_of_xpe s2)

(* Language equivalence of two XPEs. *)
let xpe_equiv s1 s2 = xpe_contains s1 s2 && xpe_contains s2 s1
