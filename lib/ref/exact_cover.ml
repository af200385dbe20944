(* Exact covering (containment) of XPEs and advertisements, the oracle
   the paper's covering rules ([Xroute_core.Cover]) are checked against.

   [Cover.may_cover] holds for every pair [covers_exact] accepts: with
   predicates on s1 it is [Cover.covers]; without, s2's shortest witness
   path (wildcards read as the automata's "other" letter, every // gap
   empty) has |s2| elements named only from s2, and s1 matches no path
   shorter than |s1| or lacking one of its names. *)

open Xroute_xpath
module Cover = Xroute_core.Cover

(* Automata containment at the name level; exact when [s1] carries no
   predicates, otherwise the paper rules. *)
let covers_exact (s1 : Xpe.t) (s2 : Xpe.t) =
  if not (Xpe.has_predicates s1) then Lang.xpe_contains s1 s2 else Cover.covers s1 s2

(* Covering between non-recursive advertisements reuses the subscription
   algorithm (Sec. 4.2 note): a non-recursive advertisement has the form
   of an absolute simple XPE, modulo full-length (not prefix) semantics,
   which makes equal length a requirement. Recursive advertisements use
   exact automata containment. *)
let adv_covers (a1 : Adv.t) (a2 : Adv.t) =
  if Adv.is_recursive a1 || Adv.is_recursive a2 then Lang.adv_contains a1 a2
  else begin
    let s1 = Adv.to_symbols a1 and s2 = Adv.to_symbols a2 in
    Array.length s1 = Array.length s2
    &&
    let rec go i =
      i >= Array.length s1 || (Cover.test_covers s1.(i) s2.(i) && go (i + 1))
    in
    go 0
  end
