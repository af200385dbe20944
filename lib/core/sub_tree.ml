(* The subscription tree (Sec. 4.1 of the paper).

   Subscriptions are stored so that every node's XPE covers the XPEs of
   its entire subtree. Because covering is only a partial order, a node
   may also be covered by subscriptions outside its ancestor chain. The
   paper records those relations as "super pointers"; nothing here needs
   them, since every query that must find such coverers ([coverers],
   [covered_nodes]) searches the tree for them.

   The protocol-relevant queries are:
   - [is_covered]: is a new subscription covered by a stored one? This is
     decided by scanning root children and descending only into covering
     children — complete, because covering is transitive, so if anything
     covers the new XPE then some maximal (depth-1) node does;
   - [covered_roots]: the depth-1 nodes a new subscription covers (these
     are the previously forwarded subscriptions that must be
     unsubscribed when the new one takes over).

   Brokers match publications through the PRT's automaton
   ({!Yfilter}); the paper's pruned matching over this tree is the
   reference [Tree_match] in lib/ref.

   The covering predicate is injected at creation: brokers use the
   paper's rules ({!Cover.covers}), the ablations and tests may plug in
   exact containment.

   Covering tests are prefiltered. Each node stores its XPE's name
   signature ({!Cover.signature}: a name bitmask plus the step count),
   computed once, and each query computes its own once. A candidate
   pair goes to the covering predicate only when [Cover.may_cover]
   admits it. That test is a necessary condition of both the paper's
   rules and exact containment (argued at [Cover.signature]), so no
   decision changes. On match-heavy set-up it rejects about 99 % of
   the candidates. The cost model does not see the prefilter:
   [cover_checks] charges every candidate the scan considers, while
   [cover_tests] counts the predicate calls that run. *)

open Xroute_xpath
module Symbol = Xroute_support.Symbol

type 'a node = {
  id : int;
  xpe : Xpe.t;
  mutable payloads : 'a list;
  mutable parent : 'a node option; (* None for the virtual root *)
  mutable children : 'a node list;
  signature : Cover.signature; (* prefilter for covering tests on [xpe] *)
}

type 'a t = {
  covers : Xpe.t -> Xpe.t -> bool;
  flat : bool; (* no covering organization: all nodes sit under the root *)
  root : 'a node; (* virtual: covers everything, holds no subscription *)
  by_xpe : 'a node Xpe.Tbl.t; (* equal XPEs share one node *)
  (* First-step index over the root fringe (the paper's Sec. 4.1 search
     optimizations): a subscription whose first semantic step is a plain
     child name test can only stand in a covering relation with root
     nodes sharing that name or root nodes in the [general] bucket
     (wildcard-first, descendant-first, relative). Root-level scans are
     the hot path of insertion and covering queries. *)
  (* Keyed by interned name: bucket lookups neither hash nor compare
     strings. *)
  root_named : (Symbol.t, 'a node list) Hashtbl.t;
  mutable root_general : 'a node list;
  mutable next_id : int;
  mutable count : int; (* stored subscriptions (root excluded) *)
  mutable cover_checks : int; (* covering tests charged, for metrics *)
  mutable cover_tests : int; (* of which the prefilter passed to [covers] *)
  (* Memoized covering queries. Workloads where many subscribers share
     an XPE repeat the same root-fringe scan per arrival, which was the
     hot loop of large simulations; results stay valid until the tree's
     shape changes ([version] stamps every attach/detach). A cache hit
     still charges [cover_checks] with exactly what the fresh scan it
     replaces would have performed, so the simulated cost model — and
     with it virtual time — is unchanged by the cache. *)
  mutable version : int;
  mutable cache_version : int;
  coverers_cache : ('a node list * int) Xpe.Tbl.t;
  covered_roots_cache : ('a node list * int) Xpe.Tbl.t;
}

(* The index key of an XPE: [Some name] when its first semantic step is a
   child-axis name test, [None] for the general bucket. *)
let first_step_key xpe =
  match Xpe.semantic_steps xpe with
  | { Xpe.axis = Xpe.Child; test = Xpe.Name n; _ } :: _ -> Some n
  | _ -> None

(* [flat] builds the no-covering baseline: insertion appends under the
   root in O(1) and no covering relation is ever reported. *)
let create ?(flat = false) ?(covers = fun s1 s2 -> Cover.covers s1 s2) () =
  let xpe = Xpe.absolute_of_names [ "*" ] in
  let root =
    {
      id = 0;
      (* placeholders; never consulted *)
      xpe;
      payloads = [];
      parent = None;
      children = [];
      signature = Cover.signature xpe;
    }
  in
  {
    covers = (if flat then fun _ _ -> false else covers);
    flat;
    root;
    by_xpe = Xpe.Tbl.create 64;
    root_named = Hashtbl.create 64;
    root_general = [];
    next_id = 1;
    count = 0;
    cover_checks = 0;
    cover_tests = 0;
    version = 0;
    cache_version = 0;
    coverers_cache = Xpe.Tbl.create 64;
    covered_roots_cache = Xpe.Tbl.create 64;
  }

let size t = t.count
let root t = t.root
let cover_checks t = t.cover_checks
let cover_tests t = t.cover_tests

let node_id n = n.id
let node_xpe n = n.xpe
let node_payloads n = n.payloads
let node_children n = n.children

let is_root n = n.parent = None

(* One covering test of [s1] against [s2], with signatures [g1], [g2]:
   charged whatever the prefilter says, run only when it admits the
   pair. *)
let covers_checked t s1 g1 s2 g2 =
  t.cover_checks <- t.cover_checks + 1;
  Cover.may_cover g1 g2
  && begin
       t.cover_tests <- t.cover_tests + 1;
       t.covers s1 s2
     end

(* Does stored node [n] cover the query [xpe] (signature [g])? *)
let node_covers t n xpe g = covers_checked t n.xpe n.signature xpe g

(* Does the query [xpe] (signature [g]) cover stored node [n]? *)
let covers_node t xpe g n = covers_checked t xpe g n.xpe n.signature

(* ---------------- root fringe index ---------------- *)

let root_index_add t n =
  match first_step_key n.xpe with
  | Some name ->
    let existing = Option.value ~default:[] (Hashtbl.find_opt t.root_named name) in
    Hashtbl.replace t.root_named name (n :: existing)
  | None -> t.root_general <- n :: t.root_general

let root_index_remove t n =
  match first_step_key n.xpe with
  | Some name ->
    let existing = Option.value ~default:[] (Hashtbl.find_opt t.root_named name) in
    Hashtbl.replace t.root_named name (List.filter (fun x -> x.id <> n.id) existing)
  | None -> t.root_general <- List.filter (fun x -> x.id <> n.id) t.root_general

(* Root nodes that can possibly cover [xpe] (complete: a coverer of a
   name-first XPE must share the name or be in the general bucket). *)
let root_cover_candidates t xpe =
  match first_step_key xpe with
  | Some name ->
    Option.value ~default:[] (Hashtbl.find_opt t.root_named name) @ t.root_general
  | None -> t.root.children

(* Root nodes that [xpe] can possibly cover: a name-first XPE only covers
   nodes sharing its first name; anything else may cover anything. *)
let root_covered_candidates t xpe =
  match first_step_key xpe with
  | Some name -> Option.value ~default:[] (Hashtbl.find_opt t.root_named name)
  | None -> t.root.children

let rec iter_subtree f n =
  f n;
  List.iter (iter_subtree f) n.children

(* All stored nodes (excluding the virtual root). *)
let iter f t = List.iter (iter_subtree f) t.root.children

let fold f acc t =
  let acc = ref acc in
  iter (fun n -> acc := f !acc n) t;
  !acc

let to_list t = List.rev (fold (fun acc n -> n :: acc) [] t)

(* Maximal stored subscriptions: the forwarded set under covering-based
   routing. *)
let maximal t = t.root.children

let depth t =
  let rec go n = 1 + List.fold_left (fun acc c -> max acc (go c)) 0 n.children in
  List.fold_left (fun acc c -> max acc (go c)) 0 t.root.children

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* Find the stored node whose XPE equals [xpe] (hash lookup by value;
   equal XPEs always share one node). *)
let find_equal t xpe = Xpe.Tbl.find_opt t.by_xpe xpe

(* Is [xpe] covered by a stored subscription (strictly or equally)? By
   transitivity it suffices to look at depth-1 nodes. *)
let is_covered t xpe =
  (not t.flat)
  && ((match find_equal t xpe with Some _ -> true | None -> false)
     ||
     let g = Cover.signature xpe in
     List.exists (fun c -> node_covers t c xpe g) (root_cover_candidates t xpe))

let cache_refresh t =
  if t.cache_version <> t.version then begin
    Xpe.Tbl.reset t.coverers_cache;
    Xpe.Tbl.reset t.covered_roots_cache;
    t.cache_version <- t.version
  end

(* Depth-1 nodes covered by [xpe]. *)
let covered_roots t xpe =
  if t.flat then []
  else begin
    cache_refresh t;
    match Xpe.Tbl.find_opt t.covered_roots_cache xpe with
    | Some (nodes, checks) ->
      t.cover_checks <- t.cover_checks + checks;
      nodes
    | None ->
      let c0 = t.cover_checks in
      let g = Cover.signature xpe in
      let nodes = List.filter (covers_node t xpe g) (root_covered_candidates t xpe) in
      Xpe.Tbl.add t.covered_roots_cache xpe (nodes, t.cover_checks - c0);
      nodes
  end

(* All stored nodes covered by [xpe]: the whole subtree of every node
   it covers, found by descending through the nodes it does not cover
   (a covered node may sit below one that is not). *)
let covered_nodes t xpe =
  let g = Cover.signature xpe in
  let acc = ref [] in
  let rec add n =
    acc := n :: !acc;
    List.iter add n.children
  in
  let rec scan n =
    List.iter (fun c -> if covers_node t xpe g c then add c else scan c) n.children
  in
  scan t.root;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)
(* ------------------------------------------------------------------ *)

let attach t parent n =
  t.version <- t.version + 1;
  n.parent <- Some parent;
  parent.children <- n :: parent.children;
  if is_root parent then root_index_add t n

let detach_from t parent n =
  t.version <- t.version + 1;
  parent.children <- List.filter (fun x -> x.id <> n.id) parent.children;
  if is_root parent then root_index_remove t n

(* Insert a subscription. Returns the node holding it (an existing node
   when an equal XPE is already stored — payloads accumulate). Cases
   follow Sec. 4.1:
   1. no covering relation with any child: new sibling; children of the
      parent that the new node covers are re-parented under it (case 2 of
      the paper, generalized to several nodes);
   3. a child covers the new subscription: descend into it. *)
let insert t xpe payload =
  match find_equal t xpe with
  | Some node ->
    (* equal XPEs share a node; payloads accumulate *)
    node.payloads <- payload :: node.payloads;
    node
  | None ->
    let g = Cover.signature xpe in
    let fresh () =
      let n =
        {
          id = t.next_id;
          xpe;
          payloads = [ payload ];
          parent = None;
          children = [];
          signature = g;
        }
      in
      t.next_id <- t.next_id + 1;
      t.count <- t.count + 1;
      Xpe.Tbl.replace t.by_xpe xpe n;
      n
    in
    if t.flat then begin
      let n = fresh () in
      attach t t.root n;
      n
    end
    else begin
      let rec place parent =
        let candidates =
          if is_root parent then root_cover_candidates t xpe else parent.children
        in
        let covering = List.find_opt (fun c -> node_covers t c xpe g) candidates in
        match covering with
        | Some c -> place c
        | None ->
          let covered_candidates =
            if is_root parent then root_covered_candidates t xpe else parent.children
          in
          let covered = List.filter (covers_node t xpe g) covered_candidates in
          let n = fresh () in
          (* attach the new node first: [attach]/[detach_from] maintain
             the root-fringe index based on the parent, so the node must
             know its place before it adopts children *)
          attach t parent n;
          (* re-parent covered siblings under the new node *)
          List.iter
            (fun c ->
              detach_from t parent c;
              attach t n c)
            covered;
          n
      in
      place t.root
    end

(* ------------------------------------------------------------------ *)
(* Removal                                                             *)
(* ------------------------------------------------------------------ *)

(* Delete a node, promoting its children to its parent (the parent
   covers them by transitivity). *)
let remove_node t n =
  match n.parent with
  | None -> invalid_arg "Sub_tree.remove_node: virtual root"
  | Some p ->
    Xpe.Tbl.remove t.by_xpe n.xpe;
    detach_from t p n;
    List.iter (fun c -> attach t p c) n.children;
    n.children <- [];
    t.count <- t.count - 1

(* Remove one occurrence (physical equality) of [payload]; the node is
   deleted with its children promoted when its last payload goes. *)
let remove_payload t n payload =
  let rec drop_one = function
    | [] -> []
    | x :: rest -> if x == payload then rest else x :: drop_one rest
  in
  n.payloads <- drop_one n.payloads;
  match n.payloads with [] -> remove_node t n | _ :: _ -> ()

(* ------------------------------------------------------------------ *)
(* Invariants (for tests)                                              *)
(* ------------------------------------------------------------------ *)

(* Check structural invariants; returns a list of violation messages. *)
let check_invariants t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let rec go n =
    List.iter
      (fun c ->
        (match c.parent with
        | Some p when p.id = n.id -> ()
        | _ -> err "node %d has a wrong parent pointer" c.id);
        if not (is_root n) && not (t.covers n.xpe c.xpe) then
          err "parent %s does not cover child %s" (Xpe.to_string n.xpe) (Xpe.to_string c.xpe);
        go c)
      n.children
  in
  go t.root;
  (* count consistency *)
  let counted = fold (fun acc _ -> acc + 1) 0 t in
  if counted <> t.count then err "size mismatch: counted %d, recorded %d" counted t.count;
  List.rev !errors

(* All stored nodes whose XPE covers [xpe] (strictly or equally). Found
   by descending into every covering child: any coverer's ancestors also
   cover, so the covering-descent frontier reaches them all. The root
   fringe is pre-filtered through the first-step index. *)
let coverers t xpe =
  if t.flat then []
  else begin
    cache_refresh t;
    match Xpe.Tbl.find_opt t.coverers_cache xpe with
    | Some (nodes, checks) ->
      t.cover_checks <- t.cover_checks + checks;
      nodes
    | None ->
      let c0 = t.cover_checks in
      let g = Cover.signature xpe in
      let acc = ref [] in
      let rec go children =
        List.iter
          (fun c ->
            if node_covers t c xpe g then begin
              acc := c :: !acc;
              go c.children
            end)
          children
      in
      go (root_cover_candidates t xpe);
      let nodes = List.rev !acc in
      Xpe.Tbl.add t.coverers_cache xpe (nodes, t.cover_checks - c0);
      nodes
  end

(* Total stored payloads (equal XPEs share one node but keep all their
   payloads). *)
let payload_count t = fold (fun acc n -> acc + List.length n.payloads) 0 t
