(* Publication matching through the covering tree (Sec. 4.1): if a node
   fails to match, nothing it covers can match, so its subtree is
   skipped. This pruning is where the paper's covering-based routing
   gains its publication routing time. *)

open Xroute_xpath
module Sub_tree = Xroute_core.Sub_tree
module Symbol = Xroute_support.Symbol

let match_syms ?(checks = ref 0) t syms attrs =
  let acc = ref [] in
  let rec go n =
    incr checks;
    if Xpe_eval.matches_syms (Sub_tree.node_xpe n) syms attrs then begin
      acc := List.rev_append (Sub_tree.node_payloads n) !acc;
      List.iter go (Sub_tree.node_children n)
    end
  in
  List.iter go (Sub_tree.maximal t);
  List.rev !acc

let match_path ?checks t steps attrs = match_syms ?checks t (Symbol.intern_path steps) attrs

let match_names ?checks t steps = match_path ?checks t steps (Array.make (Array.length steps) [])

(* Exhaustive matching without pruning, for the no-covering baseline and
   for cross-checking the pruned version. *)
let match_syms_linear t syms attrs =
  let acc = ref [] in
  Sub_tree.iter
    (fun n ->
      if Xpe_eval.matches_syms (Sub_tree.node_xpe n) syms attrs then
        acc := List.rev_append (Sub_tree.node_payloads n) !acc)
    t;
  List.rev !acc

let match_path_linear t steps attrs = match_syms_linear t (Symbol.intern_path steps) attrs
