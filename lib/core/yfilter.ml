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

   Edges are keyed by one int: [code * 2 + axis bit], where the axis bit
   is 0 for child and 1 for descendant, and the code is 0 for [*] and
   [Symbol.id + 1] for a name. Each node keeps its keys in a sorted int
   array beside the array of their targets, so following an edge is an
   allocation-free binary search. Firing an element consults at most
   four keys (child/descendant × name/wildcard), and fewer when the node
   has no child edges or no descendant edges: per-element work is
   bounded by the automaton's branching into the publication, not by
   the table size.

   Matching keeps no per-call tables. Two per-node generation stamps
   replace them: [seen] (call stamp: accepting entries scanned, node
   queued alive) and [fresh_at] (element stamp: in this element's fresh
   frontier, so the alive pass skips it). The next frontier needs no
   membership test: every node has exactly one in-edge and every node
   fires at most once per element, so no node is reached twice on one
   element. The frontiers are buffers owned by the automaton and reused
   across calls. Matching therefore mutates the automaton: one
   automaton must not be matched from two threads at once (each broker
   owns its own).

   Attribute predicates are verified lazily: accepting entries store the
   original XPE with a precomputed has-predicates flag, and payloads
   whose XPE carries predicates are re-checked with the exact evaluator.

   Document-order resumption. A document reaches a broker as its
   root-to-leaf paths, one after another (Sec. 3.1), and consecutive
   paths share a prefix. The run state after d elements depends only
   on the first d elements, unless a predicate entry was scanned by
   then (the exact evaluator judges a predicate against the whole path
   and its attributes). So a call keeps a per-depth log of its run:
   the fresh frontier (slices of one flat buffer, which is also where
   the run keeps its frontiers), the alive length, the found list
   (immutable, so shared), the charge so far and the number of nodes
   visited so far. The next call sharing L leading elements resumes at
   depth min(L, p - 1), p being the first depth whose accepts included
   a predicate entry, when that is at least 1 and the log carries the
   automaton's [version] (bumped by insert and remove, which also drop
   the log): it restamps the logged visits with its own call stamp,
   truncates the buffers, reloads the found list, adds the logged
   charge to [match_ops] (and to [resumed_ops]) and runs on from there.
   Results, their order and the charge are those of a run from the
   root. This is YFilter's runtime stack over SAX events (Diao et al.,
   TODS 2003), fitted to path publications.

   Removal prunes eagerly: when the last payload under a trail of
   states goes, the now-dead suffix of the trail is unlinked, so the
   automaton shrinks back to what a fresh build would allocate
   ([state_count] = [allocated_states] is an audited invariant — a
   churning broker must not leak states). *)

open Xroute_xpath
module Symbol = Xroute_support.Symbol

(* An accepting entry: one distinct XPE ending at the node. *)
type 'a entry = { xpe : Xpe.t; has_preds : bool; mutable payloads : 'a list }

type 'a node = {
  id : int;
  mutable keys : int array; (* edge keys, strictly increasing *)
  mutable kids : 'a node array; (* kids.(i) is the target of keys.(i) *)
  mutable desc_edges : int; (* odd keys: outgoing Desc-axis edges *)
  mutable accepts : 'a entry list;
  mutable seen : int;
  mutable fresh_at : int;
}

(* A reusable node buffer; [nodes] beyond [len] are stale. *)
type 'a frontier = { mutable nodes : 'a node array; mutable len : int }

type 'a t = {
  root : 'a node;
  mutable next_id : int;
  mutable size : int; (* stored payloads *)
  mutable states : int;
  mutable version : int; (* bumped by every insert and remove *)
  mutable match_ops : int; (* cumulative matching work, for the bench *)
  mutable resumed_ops : int; (* the part of [match_ops] charged from the log *)
  mutable gen : int; (* last stamp handed out *)
  frontiers : 'a frontier; (* the fresh frontier of depth d is [log_fr.(d), log_fr.(d+1)) *)
  visits : 'a frontier; (* nodes visited by the run, in visiting order *)
  alive : 'a frontier;
  mutable found : 'a list; (* payloads accepted so far, newest first *)
  mutable depth : int; (* the depth the run is producing *)
  (* The resume log of the last call: entries 0..[log_depth] describe
     the run after that many elements; [log_depth] = -1 is empty. *)
  mutable log_depth : int;
  mutable log_version : int;
  mutable pred_depth : int; (* first depth that scanned a predicate entry *)
  mutable log_syms : int array; (* the elements consumed *)
  mutable log_fr : int array;
  mutable log_alive : int array;
  mutable log_visits : int array;
  mutable log_ops : int array; (* charged by the run up to the depth *)
  mutable log_found : 'a list array;
}

let fresh_node id =
  { id; keys = [||]; kids = [||]; desc_edges = 0; accepts = []; seen = 0;
    fresh_at = 0 }

let frontier root = { nodes = Array.make 16 root; len = 0 }

let create () =
  let root = fresh_node 0 in
  { root; next_id = 1; size = 0; states = 1; version = 0; match_ops = 0; resumed_ops = 0;
    gen = 0; frontiers = frontier root; visits = frontier root; alive = frontier root;
    found = []; depth = 0; log_depth = -1; log_version = 0; pred_depth = max_int;
    log_syms = [||]; log_fr = [||]; log_alive = [||]; log_visits = [||]; log_ops = [||];
    log_found = [||] }

let size t = t.size
let allocated_states t = t.states
let match_ops t = t.match_ops
let resumed_ops t = t.resumed_ops

(* A mutation invalidates the log; dropping it also lets go of the
   payloads its found lists hold. *)
let mutated t =
  t.version <- t.version + 1;
  for d = 0 to t.log_depth do
    t.log_found.(d) <- []
  done;
  t.log_depth <- -1

(* Live states, counted by walking the trie. Removal prunes eagerly, so
   this must coincide with [allocated_states]; the walk is kept (rather
   than returning the counter) so tests and the invariant audit can
   catch a leak. *)
let state_count t =
  let rec walk node = Array.fold_left (fun acc child -> acc + walk child) 1 node.kids in
  walk t.root

(* ---------------- edge keys ---------------- *)

let edge_key (axis : Xpe.axis) (test : Xpe.nodetest) =
  let code = match test with Xpe.Star -> 0 | Xpe.Name s -> Symbol.id s + 1 in
  (code lsl 1) lor match axis with Xpe.Child -> 0 | Xpe.Desc -> 1

let is_desc key = key land 1 = 1

(* Steps of an XPE as edge keys: predicates do not take part in the
   automaton (they are re-checked at accept time). *)
let index_steps xpe =
  List.map (fun (s : Xpe.step) -> edge_key s.Xpe.axis s.Xpe.test) (Xpe.semantic_steps xpe)

(* First index in [lo, hi) whose key is >= [key]. *)
let rec lower_bound (keys : int array) (key : int) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if keys.(mid) < key then lower_bound keys key (mid + 1) hi else lower_bound keys key lo mid

(* Index of the edge under [key], or -1. *)
let find_edge node key =
  let keys = node.keys in
  let n = Array.length keys in
  let i = lower_bound keys key 0 n in
  if i < n && keys.(i) = key then i else -1

let insert_at a i x =
  Array.init (Array.length a + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

let remove_at a i = Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let add_edge t node key =
  let i = lower_bound node.keys key 0 (Array.length node.keys) in
  if i < Array.length node.keys && node.keys.(i) = key then node.kids.(i)
  else begin
    let child = fresh_node t.next_id in
    t.next_id <- t.next_id + 1;
    t.states <- t.states + 1;
    node.keys <- insert_at node.keys i key;
    node.kids <- insert_at node.kids i child;
    if is_desc key then node.desc_edges <- node.desc_edges + 1;
    child
  end

(* ---------------- insertion and removal ---------------- *)

let insert t xpe payload =
  mutated t;
  let final = List.fold_left (fun node key -> add_edge t node key) t.root (index_steps xpe) in
  (match List.find_opt (fun e -> Xpe.equal e.xpe xpe) final.accepts with
  | Some e -> e.payloads <- payload :: e.payloads
  | None ->
    final.accepts <-
      { xpe; has_preds = Xpe.has_predicates xpe; payloads = [ payload ] } :: final.accepts);
  t.size <- t.size + 1

(* Remove payloads selected by [pred] under the exact XPE, then prune:
   walking back up the trail, every state left with no accepting entry
   and no outgoing edge is unlinked from its parent. The automaton ends
   exactly as a fresh build of the surviving XPEs would. *)
let remove t xpe pred =
  mutated t;
  let rec walk node = function
    | [] ->
      List.iter
        (fun e ->
          if Xpe.equal e.xpe xpe then begin
            let kept = List.filter (fun p -> not (pred p)) e.payloads in
            t.size <- t.size - (List.length e.payloads - List.length kept);
            e.payloads <- kept
          end)
        node.accepts;
      node.accepts <- List.filter (fun e -> e.payloads <> []) node.accepts
    | key :: rest ->
      let i = find_edge node key in
      if i >= 0 then begin
        let child = node.kids.(i) in
        walk child rest;
        if child.accepts = [] && Array.length child.keys = 0 then begin
          node.keys <- remove_at node.keys i;
          node.kids <- remove_at node.kids i;
          if is_desc key then node.desc_edges <- node.desc_edges - 1;
          t.states <- t.states - 1
        end
      end
  in
  walk t.root (index_steps xpe)

(* ---------------- matching ---------------- *)

let push fr node =
  if fr.len = Array.length fr.nodes then begin
    let bigger = Array.make (2 * fr.len) node in
    Array.blit fr.nodes 0 bigger 0 fr.len;
    fr.nodes <- bigger
  end;
  fr.nodes.(fr.len) <- node;
  fr.len <- fr.len + 1

let rec scan_accepts t syms attrs = function
  | [] -> ()
  | e :: rest ->
    t.match_ops <- t.match_ops + 1;
    if not e.has_preds then t.found <- List.rev_append e.payloads t.found
    else begin
      if t.pred_depth > t.depth then t.pred_depth <- t.depth;
      if Xpe_eval.matches_syms e.xpe syms attrs then
        t.found <- List.rev_append e.payloads t.found
    end;
    scan_accepts t syms attrs rest

(* A node reached in call [call]: the first time, scan its accepting
   entries and, when it has descendant out-edges, keep it alive — it may
   fire those at any later position. *)
let visit t call syms attrs node =
  if node.seen <> call then begin
    node.seen <- call;
    push t.visits node;
    scan_accepts t syms attrs node.accepts;
    if node.desc_edges > 0 then push t.alive node
  end

(* Follow the edge under [key], if there is one: charged, and its
   target joins the next frontier. *)
let follow t call syms attrs node key =
  let i = find_edge node key in
  if i >= 0 then begin
    let child = node.kids.(i) in
    t.match_ops <- t.match_ops + 1;
    visit t call syms attrs child;
    push t.frontiers child
  end

(* Fire [node] on an element whose name has code [code]. Key lookups the
   node cannot answer are skipped. *)
let fire t call syms attrs ~allow_child node code =
  if allow_child && Array.length node.keys > node.desc_edges then begin
    follow t call syms attrs node (code lsl 1);
    follow t call syms attrs node 0
  end;
  if node.desc_edges > 0 then begin
    follow t call syms attrs node ((code lsl 1) lor 1);
    follow t call syms attrs node 1
  end

(* Room in the log for a path of [n] elements. *)
let reserve_log t n =
  if Array.length t.log_fr < n + 2 then begin
    let cap = max (n + 2) (2 * Array.length t.log_fr) in
    let grow a fill = Array.init cap (fun i -> if i < Array.length a then a.(i) else fill) in
    t.log_syms <- grow t.log_syms 0;
    t.log_fr <- grow t.log_fr 0;
    t.log_alive <- grow t.log_alive 0;
    t.log_visits <- grow t.log_visits 0;
    t.log_ops <- grow t.log_ops 0;
    t.log_found <- grow t.log_found []
  end

(* Log the run after [d] elements; the frontier of depth [d] ends where
   the buffer does. *)
let record t d ops =
  t.log_fr.(d + 1) <- t.frontiers.len;
  t.log_alive.(d) <- t.alive.len;
  t.log_visits.(d) <- t.visits.len;
  t.log_ops.(d) <- ops;
  t.log_found.(d) <- t.found

(* The depth a call over [syms] may resume at: its common prefix with
   the logged path, cut before the first predicate scan; 0 restarts. *)
let resume_depth t syms =
  if t.log_depth < 1 || t.log_version <> t.version then 0
  else begin
    let limit = min (Array.length syms) (min t.log_depth (t.pred_depth - 1)) in
    let l = ref 0 in
    while !l < limit && t.log_syms.(!l) = Symbol.id syms.(!l) do
      incr l
    done;
    !l
  end

(* Simulate the automaton over a path, collecting accepting payloads.

   Two frontiers: [fresh] nodes were reached exactly at the previous
   position boundary — both their child and descendant edges may fire on
   the next element; [alive] nodes have descendant out-edges and, once
   reached, persist for the rest of the call — but only their descendant
   edges keep firing (their child edges were only valid immediately
   after they were reached). Frontiers are walked newest first. The run
   starts from the logged state of the depth {!resume_depth} allows,
   or from the root. *)
let match_syms t syms attrs =
  let n = Array.length syms in
  reserve_log t n;
  t.gen <- t.gen + 1;
  let call = t.gen in
  let ops0 = t.match_ops in
  let start = resume_depth t syms in
  (* Until this run ends, only the entries it shares with the last one
     hold: a run cut short by an exception leaves a consistent log. *)
  t.log_depth <- start;
  t.pred_depth <- max_int;
  if start = 0 then begin
    t.found <- [];
    t.alive.len <- 0;
    t.visits.len <- 0;
    t.frontiers.len <- 0;
    t.log_version <- t.version;
    t.log_fr.(0) <- 0;
    push t.frontiers t.root;
    t.depth <- 0;
    visit t call syms attrs t.root;
    record t 0 (t.match_ops - ops0)
  end
  else begin
    let visited = t.log_visits.(start) in
    for j = 0 to visited - 1 do
      t.visits.nodes.(j).seen <- call
    done;
    t.visits.len <- visited;
    t.alive.len <- t.log_alive.(start);
    t.frontiers.len <- t.log_fr.(start + 1);
    t.found <- t.log_found.(start);
    let skipped = t.log_ops.(start) in
    t.match_ops <- t.match_ops + skipped;
    t.resumed_ops <- t.resumed_ops + skipped
  end;
  let i = ref start in
  while !i < n && (t.log_fr.(!i + 1) > t.log_fr.(!i) || t.alive.len > 0) do
    let d = !i in
    t.gen <- t.gen + 1;
    let elem = t.gen in
    let sym = Symbol.id syms.(d) in
    let code = sym + 1 in
    t.log_syms.(d) <- sym;
    t.depth <- d + 1;
    (* Snapshot: nodes becoming alive while consuming this element must
       not fire on the same element. *)
    let alive_now = t.alive.len in
    for j = t.log_fr.(d + 1) - 1 downto t.log_fr.(d) do
      let node = t.frontiers.nodes.(j) in
      node.fresh_at <- elem;
      fire t call syms attrs ~allow_child:true node code
    done;
    (* alive nodes not in the fresh frontier fire descendant edges only *)
    for j = alive_now - 1 downto 0 do
      let node = t.alive.nodes.(j) in
      if node.fresh_at <> elem then fire t call syms attrs ~allow_child:false node code
    done;
    record t (d + 1) (t.match_ops - ops0);
    incr i
  done;
  t.log_depth <- !i;
  let found = t.found in
  t.found <- [];
  List.rev found

let match_path t steps attrs = match_syms t (Symbol.intern_path steps) attrs

let match_names t steps = match_path t steps (Array.make (Array.length steps) [])

(* All stored (xpe, payload) pairs, for diagnostics and tests. *)
let to_list t =
  let acc = ref [] in
  let rec walk node =
    List.iter (fun e -> List.iter (fun p -> acc := (e.xpe, p) :: !acc) e.payloads) node.accepts;
    Array.iter walk node.kids
  in
  walk t.root;
  List.rev !acc

(* ---------------- invariants (audit) ---------------- *)

(* Structural invariants; returns violation messages, empty when
   healthy. Eager pruning promises: no dead states (every non-root state
   has an accepting entry or an out-edge — equivalently [state_count] =
   [allocated_states]), the size counter equals the stored payloads, no
   empty accepting entry survives, per-node Desc-edge counters are
   exact, and edge keys are strictly increasing, one per target. The
   resume log is empty or stamped with the current version: a stale one
   would replay a run of another automaton. *)
let check_invariants t =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let walked = ref 0 in
  let payloads_seen = ref 0 in
  let rec walk node =
    incr walked;
    let n = Array.length node.keys in
    if node.id <> t.root.id && node.accepts = [] && n = 0 then
      add "NFA state %d is dead (no accepting entry, no out-edge)" node.id;
    if Array.length node.kids <> n then
      add "NFA state %d has %d edge keys for %d targets" node.id n (Array.length node.kids);
    for i = 1 to n - 1 do
      if node.keys.(i - 1) >= node.keys.(i) then
        add "NFA state %d edge keys out of order at %d" node.id i
    done;
    let desc = Array.fold_left (fun acc k -> if is_desc k then acc + 1 else acc) 0 node.keys in
    if desc <> node.desc_edges then
      add "NFA state %d counts %d Desc edges, has %d" node.id node.desc_edges desc;
    List.iter
      (fun e ->
        if e.payloads = [] then
          add "NFA state %d keeps an empty accepting entry for %s" node.id (Xpe.to_string e.xpe);
        if e.has_preds <> Xpe.has_predicates e.xpe then
          add "NFA state %d caches a stale predicate flag for %s" node.id (Xpe.to_string e.xpe);
        payloads_seen := !payloads_seen + List.length e.payloads)
      node.accepts;
    Array.iter walk node.kids
  in
  walk t.root;
  if !walked <> t.states then
    add "NFA allocates %d states but only %d are reachable" t.states !walked;
  if !payloads_seen <> t.size then
    add "NFA stores %d payloads, size says %d" !payloads_seen t.size;
  if t.log_depth >= 0 && t.log_version <> t.version then
    add "NFA resume log is stamped version %d, the automaton is at %d" t.log_version t.version;
  List.rev !problems

(* Test hook: allocate an unreachable-in-spirit dead state (an edge to a
   child with no accepts and no edges) that eager pruning would never
   leave behind — the must-fail mutation for the audit. *)
let plant_orphan t =
  ignore (add_edge t t.root (edge_key Xpe.Child (Xpe.Name (Symbol.intern "__orphan__"))))

(* Test hook: stamp the resume log with an earlier version, as a
   mutation that forgot to drop it would leave it — the audit's
   must-fail mutation for the log. *)
let plant_stale_log t =
  if t.log_depth < 0 then begin
    reserve_log t 0;
    t.log_depth <- 0
  end;
  t.log_version <- t.version - 1
