(* YFilter-style shared-prefix NFA index over a subscription set.

   The paper's evaluation contrasts its covering-organized routing table
   with YFilter (Diao et al.), the classic NFA-based XML filter: all
   XPEs are compiled into one automaton sharing common prefixes, and a
   publication is matched by simulating the automaton once, regardless
   of how many subscriptions are stored. This is the publication matcher
   of [Rtable.Prt] (gated by the differential harness against direct
   evaluation and the covering tree), not just a baseline.

   Because publications here are root-to-leaf paths, the automaton is a
   trie of location steps: child-axis edges consume exactly the next
   element; descendant-axis edges may consume any later element, which
   is realized by keeping nodes with descendant out-edges alive in the
   frontier. A relative XPE starts with a semantic descendant step
   (Xpe.semantic_steps), so it shares the same machinery. An XPE accepts
   as soon as its last step is consumed (prefix semantics).

   Edges are a per-node hash table keyed by (axis, node test); node
   tests carry interned names, so following an edge is one O(1) lookup
   and firing an element consults at most four keys (child/descendant ×
   name/wildcard) — per-element work is bounded by the automaton's
   branching into the publication, not by the table size.

   Attribute predicates are verified lazily: accepting nodes store the
   original XPE, and payloads whose XPE carries predicates are
   re-checked with the exact evaluator.

   Removal prunes eagerly: when the last payload under a trail of
   states goes, the now-dead suffix of the trail is unlinked, so the
   automaton shrinks back to what a fresh build would allocate
   ([state_count] = [allocated_states] is an audited invariant — a
   churning broker must not leak states). *)

open Xroute_xpath
module Symbol = Xroute_support.Symbol

type edge_key = Xpe.axis * Xpe.nodetest

type 'a node = {
  id : int;
  edges : (edge_key, 'a node) Hashtbl.t;
  mutable desc_edges : int; (* outgoing Desc-axis edges, for O(1) aliveness *)
  (* accepting entries: the source XPE (for predicate re-checks) plus
     its payloads *)
  mutable accepts : (Xpe.t * 'a list ref) list;
}

type 'a t = {
  root : 'a node;
  mutable next_id : int;
  mutable size : int; (* stored payloads *)
  mutable states : int;
  mutable match_ops : int; (* cumulative matching work, for the bench *)
}

let fresh_node id = { id; edges = Hashtbl.create 4; desc_edges = 0; accepts = [] }

let create () = { root = fresh_node 0; next_id = 1; size = 0; states = 1; match_ops = 0 }

let size t = t.size
let allocated_states t = t.states
let match_ops t = t.match_ops

(* Live states, counted by walking the trie. Removal prunes eagerly, so
   this must coincide with [allocated_states]; the walk is kept (rather
   than returning the counter) so tests and the invariant audit can
   catch a leak. *)
let state_count t =
  let rec walk node = Hashtbl.fold (fun _ child acc -> acc + walk child) node.edges 1 in
  walk t.root

(* Steps of an XPE normalized for the index: predicates do not take part
   in the automaton (they are re-checked at accept time). *)
let index_steps xpe =
  List.map (fun (s : Xpe.step) -> (s.Xpe.axis, s.Xpe.test)) (Xpe.semantic_steps xpe)

let add_edge t node key =
  match Hashtbl.find_opt node.edges key with
  | Some child -> child
  | None ->
    let child = fresh_node t.next_id in
    t.next_id <- t.next_id + 1;
    t.states <- t.states + 1;
    Hashtbl.replace node.edges key child;
    if fst key = Xpe.Desc then node.desc_edges <- node.desc_edges + 1;
    child

let insert t xpe payload =
  let final = List.fold_left (fun node key -> add_edge t node key) t.root (index_steps xpe) in
  (match List.find_opt (fun (x, _) -> Xpe.equal x xpe) final.accepts with
  | Some (_, payloads) -> payloads := payload :: !payloads
  | None -> final.accepts <- (xpe, ref [ payload ]) :: final.accepts);
  t.size <- t.size + 1

(* Remove payloads selected by [pred] under the exact XPE, then prune:
   walking back up the trail, every state left with no accepting entry
   and no outgoing edge is unlinked from its parent. The automaton ends
   exactly as a fresh build of the surviving XPEs would. *)
let remove t xpe pred =
  let rec walk node = function
    | [] ->
      List.iter
        (fun (x, payloads) ->
          if Xpe.equal x xpe then begin
            let kept = List.filter (fun p -> not (pred p)) !payloads in
            t.size <- t.size - (List.length !payloads - List.length kept);
            payloads := kept
          end)
        node.accepts;
      node.accepts <- List.filter (fun (_, payloads) -> !payloads <> []) node.accepts
    | key :: rest -> (
      match Hashtbl.find_opt node.edges key with
      | Some child ->
        walk child rest;
        if child.accepts = [] && Hashtbl.length child.edges = 0 then begin
          Hashtbl.remove node.edges key;
          if fst key = Xpe.Desc then node.desc_edges <- node.desc_edges - 1;
          t.states <- t.states - 1
        end
      | None -> ())
  in
  walk t.root (index_steps xpe)

(* Does the node keep itself alive in the frontier? True when some
   outgoing edge uses the descendant axis — it may fire at any later
   position. *)
let has_desc_edge node = node.desc_edges > 0

(* Simulate the automaton over a path, collecting accepting payloads.

   Two frontiers: [fresh] nodes were reached exactly at the previous
   position boundary — both their child and descendant edges may fire on
   the next element; [alive] nodes have descendant out-edges and, once
   reached, persist forever — but only their descendant edges keep
   firing (their child edges were only valid immediately after they
   were reached). *)
let match_syms t syms attrs =
  let acc = ref [] in
  let seen_accept = Hashtbl.create 8 in
  let collect node =
    if not (Hashtbl.mem seen_accept node.id) then begin
      Hashtbl.add seen_accept node.id ();
      List.iter
        (fun (xpe, payloads) ->
          t.match_ops <- t.match_ops + 1;
          if (not (Xpe.has_predicates xpe)) || Xpe_eval.matches_syms xpe syms attrs then
            acc := List.rev_append !payloads !acc)
        node.accepts
    end
  in
  let alive_set = Hashtbl.create 16 in
  let alive = ref [] in
  let keep_alive node =
    if has_desc_edge node && not (Hashtbl.mem alive_set node.id) then begin
      Hashtbl.add alive_set node.id ();
      alive := node :: !alive
    end
  in
  let fresh = ref [ t.root ] in
  collect t.root;
  keep_alive t.root;
  let n = Array.length syms in
  for i = 0 to n - 1 do
    let sym = syms.(i) in
    (* Snapshot: nodes becoming alive while consuming this element must
       not fire on the same element. *)
    let alive_now = !alive in
    let next_set = Hashtbl.create 16 in
    let next = ref [] in
    let reach child =
      t.match_ops <- t.match_ops + 1;
      collect child;
      keep_alive child;
      if not (Hashtbl.mem next_set child.id) then begin
        Hashtbl.add next_set child.id ();
        next := child :: !next
      end
    in
    let follow node key = Option.iter reach (Hashtbl.find_opt node.edges key) in
    let fire ~allow_child node =
      if allow_child then begin
        follow node (Xpe.Child, Xpe.Name sym);
        follow node (Xpe.Child, Xpe.Star)
      end;
      follow node (Xpe.Desc, Xpe.Name sym);
      follow node (Xpe.Desc, Xpe.Star)
    in
    List.iter (fire ~allow_child:true) !fresh;
    (* alive nodes not in the fresh set fire descendant edges only *)
    let fresh_ids = Hashtbl.create 8 in
    List.iter (fun node -> Hashtbl.replace fresh_ids node.id ()) !fresh;
    List.iter
      (fun node -> if not (Hashtbl.mem fresh_ids node.id) then fire ~allow_child:false node)
      alive_now;
    fresh := !next
  done;
  List.rev !acc

let match_path t steps attrs = match_syms t (Symbol.intern_path steps) attrs

let match_names t steps = match_path t steps (Array.make (Array.length steps) [])

(* All stored (xpe, payload) pairs, for diagnostics and tests. *)
let to_list t =
  let acc = ref [] in
  let rec walk node =
    List.iter
      (fun (xpe, payloads) -> List.iter (fun p -> acc := (xpe, p) :: !acc) !payloads)
      node.accepts;
    Hashtbl.iter (fun _ child -> walk child) node.edges
  in
  walk t.root;
  List.rev !acc

(* ---------------- invariants (audit) ---------------- *)

(* Structural invariants; returns violation messages, empty when
   healthy. Eager pruning promises: no dead states (every non-root state
   has an accepting entry or an out-edge — equivalently [state_count] =
   [allocated_states]), the size counter equals the stored payloads, no
   empty accepting entry survives, and per-node Desc-edge counters are
   exact. *)
let check_invariants t =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let walked = ref 0 in
  let payloads_seen = ref 0 in
  let rec walk node =
    incr walked;
    if node.id <> t.root.id && node.accepts = [] && Hashtbl.length node.edges = 0 then
      add "NFA state %d is dead (no accepting entry, no out-edge)" node.id;
    let desc = Hashtbl.fold (fun k _ acc -> if fst k = Xpe.Desc then acc + 1 else acc) node.edges 0 in
    if desc <> node.desc_edges then
      add "NFA state %d counts %d Desc edges, has %d" node.id node.desc_edges desc;
    List.iter
      (fun (xpe, payloads) ->
        if !payloads = [] then
          add "NFA state %d keeps an empty accepting entry for %s" node.id (Xpe.to_string xpe);
        payloads_seen := !payloads_seen + List.length !payloads)
      node.accepts;
    Hashtbl.iter (fun _ child -> walk child) node.edges
  in
  walk t.root;
  if !walked <> t.states then
    add "NFA allocates %d states but only %d are reachable" t.states !walked;
  if !payloads_seen <> t.size then
    add "NFA stores %d payloads, size says %d" !payloads_seen t.size;
  List.rev !problems

(* Test hook: allocate an unreachable-in-spirit dead state (an edge to a
   child with no accepts and no edges) that eager pruning would never
   leave behind — the must-fail mutation for the audit. *)
let plant_orphan t =
  ignore (add_edge t t.root (Xpe.Child, Xpe.Name (Symbol.intern "__orphan__")))
