(* Routing tables of a content-based XML router (Sec. 2.1).

   The subscription routing table (SRT) stores <advertisement, last-hop>
   tuples: a subscription is forwarded to the last hops of the
   advertisements it overlaps, found through a root-element index. The
   publication routing table (PRT) stores <subscription, last-hop>
   tuples: a publication is forwarded to the last hops of the
   subscriptions it matches, found by the shared-prefix NFA
   ({!Yfilter}). The PRT also keeps a {!Sub_tree}, so covering-based
   compaction comes from the data structure; disabling covering just
   plugs in a constant-false covering predicate, degrading the tree to a
   flat list. Each table has one lookup path; the reference matchers it
   is checked against live in the tests and the bench. *)

open Xroute_xpath
module Symbol = Xroute_support.Symbol

type endpoint = Neighbor of int | Client of int

let endpoint_equal a b =
  match (a, b) with
  | Neighbor x, Neighbor y | Client x, Client y -> x = y
  | Neighbor _, Client _ | Client _, Neighbor _ -> false

let pp_endpoint ppf = function
  | Neighbor b -> Format.fprintf ppf "broker:%d" b
  | Client c -> Format.fprintf ppf "client:%d" c

(* ------------------------------------------------------------------ *)
(* Subscription routing table                                          *)
(* ------------------------------------------------------------------ *)

module Srt = struct
  type entry = {
    id : Message.sub_id;
    adv : Adv.t;
    hop : endpoint;
    seq : int;
    mutable compiled : Adv_match.compiled option;
  }

  (* Advertisements are absolute patterns, so the first symbol of an
     advertisement is a sound discriminator: a subscription anchored at
     root element [n] can only overlap advertisements rooted at [n] —
     plus the ones whose root is a wildcard or a recursive group, which
     live in a catch-all bucket scanned on every lookup. Buckets keep
     entries newest-first; [seq] restores the global newest-first scan
     order when a lookup spans several buckets, so the table is
     observationally identical to a flat newest-first list scan (the
     full-scan oracle the tests and the bench compare it against). *)
  type t = {
    (* Keyed by the interned root element: bucket routing never hashes
       or compares a string. *)
    buckets : (Symbol.t, entry list) Hashtbl.t;
    mutable catch_all : entry list; (* Star / recursive-rooted advertisements *)
    by_id : (Message.sub_id, entry) Hashtbl.t;
    mutable count : int;
    mutable next_seq : int;
    (* The paper's linear-scan cost model: every candidate entry of a
       lookup is charged, whether or not its overlap test runs. [Net]
       bills [Broker.work] as virtual time, so this count must not
       depend on how the lookup is implemented. *)
    mutable match_ops : int;
    (* Overlap tests actually run — what the per-hop early exit in
       [hops_for_sub] saves shows as the gap to [match_ops]. *)
    mutable overlap_tests : int;
    (* Memoized [hops_for_sub]: mass-subscription workloads look the
       same XPE up repeatedly against a table that only changes when an
       advertisement arrives or leaves. A hit charges [match_ops] with
       exactly the ops of the scan it replaces, so the simulated cost
       model is unchanged by the cache. Keyed by XPE value; the owner
       drops an XPE with [forget] when its last subscription leaves, so
       the memo is bounded by live state. *)
    hops_cache : (endpoint list * int) Xpe.Tbl.t;
  }

  let create () =
    {
      buckets = Hashtbl.create 64;
      catch_all = [];
      by_id = Hashtbl.create 64;
      count = 0;
      next_seq = 0;
      match_ops = 0;
      overlap_tests = 0;
      hops_cache = Xpe.Tbl.create 64;
    }

  let size t = t.count
  let match_ops t = t.match_ops
  let overlap_tests t = t.overlap_tests

  (* Root element of an advertisement, or [None] for the catch-all
     bucket (wildcard or recursive group at the root). *)
  let bucket_key adv =
    match Adv.parts adv with
    | Adv.Lit arr :: _ when Array.length arr > 0 -> (
      match arr.(0) with Xpe.Name n -> Some n | Xpe.Star -> None)
    | _ -> None

  let bucket t n = Option.value ~default:[] (Hashtbl.find_opt t.buckets n)

  (* Merge two newest-first (seq-descending) entry lists. *)
  let rec merge_desc a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: xs, y :: ys ->
      if x.seq > y.seq then x :: merge_desc xs b else y :: merge_desc a ys

  (* Every entry, newest first — the full scan's order. *)
  let all_entries t =
    if Hashtbl.length t.buckets = 0 then t.catch_all
    else
      Hashtbl.fold (fun _ es acc -> List.rev_append es acc) t.buckets t.catch_all
      |> List.sort (fun a b -> compare b.seq a.seq)

  let entries t = all_entries t

  (* Entries whose advertisement can possibly concern root element [n]:
     its bucket plus the catch-all, in global newest-first order. *)
  let candidates_for_root t n = merge_desc (bucket t n) t.catch_all

  let mem t id = Hashtbl.mem t.by_id id

  (* Store an advertisement under its root element's bucket, or in the
     catch-all. *)
  let add t id adv hop =
    if mem t id then `Duplicate
    else begin
      let entry = { id; adv; hop; seq = t.next_seq; compiled = None } in
      t.next_seq <- t.next_seq + 1;
      (match bucket_key adv with
      | Some n -> Hashtbl.replace t.buckets n (entry :: bucket t n)
      | None -> t.catch_all <- entry :: t.catch_all);
      Hashtbl.replace t.by_id id entry;
      t.count <- t.count + 1;
      Xpe.Tbl.reset t.hops_cache;
      `Stored
    end

  let remove t id =
    match Hashtbl.find_opt t.by_id id with
    | None -> None
    | Some entry ->
      Hashtbl.remove t.by_id id;
      t.count <- t.count - 1;
      let drop es = List.filter (fun e -> e.seq <> entry.seq) es in
      (match bucket_key entry.adv with
      | Some n -> (
        match drop (bucket t n) with
        | [] -> Hashtbl.remove t.buckets n
        | es -> Hashtbl.replace t.buckets n es)
      | None -> t.catch_all <- drop t.catch_all);
      Xpe.Tbl.reset t.hops_cache;
      Some entry.hop

  (* Entries a lookup walks, each charged to [match_ops] — which is how
     the bench shows the scans the index avoids. *)
  let scan_candidates t xpe =
    match Xpe.root_name xpe with
    | Some n -> candidates_for_root t n
    | None -> all_entries t

  (* The entry's advertisement in compiled form, built (or found in the
     process-wide sharing table) on the entry's first overlap test: the
     advertisement flood at set-up compiles nothing. *)
  let compiled e =
    match e.compiled with
    | Some c -> c
    | None ->
      let c = Adv_match.compile e.adv in
      e.compiled <- Some c;
      c

  let overlaps q e = Adv_match.overlaps_compiled q (compiled e)

  (* Neighbor last hops of the advertisements overlapping the
     subscription, first occurrence in newest-first scan order. The
     answer is a handful of distinct hops, so an entry's overlap test
     runs only when its hop could still change it: client hops are never
     forwarded to, and a hop already in the result stays there. Every
     candidate is still charged to [match_ops]. *)
  let hops_for_sub t xpe =
    match Xpe.Tbl.find_opt t.hops_cache xpe with
    | Some (hops, ops) ->
      t.match_ops <- t.match_ops + ops;
      hops
    | None ->
      let candidates = scan_candidates t xpe in
      let q = Adv_match.query xpe in
      let hops =
        List.fold_left
          (fun acc e ->
            match e.hop with
            | Client _ -> acc
            | Neighbor _ when List.exists (endpoint_equal e.hop) acc -> acc
            | Neighbor _ ->
              t.overlap_tests <- t.overlap_tests + 1;
              if overlaps q e then e.hop :: acc else acc)
          [] candidates
        |> List.rev
      in
      let ops = List.length candidates in
      t.match_ops <- t.match_ops + ops;
      Xpe.Tbl.add t.hops_cache xpe (hops, ops);
      hops

  (* A memo entry is a cache, never a decision: dropping one costs the
     next lookup of that XPE one scan, charged the same as a hit. *)
  let forget t xpe = Xpe.Tbl.remove t.hops_cache xpe

  (* Advertisements (ids) from a given hop. *)
  let ids_from t hop =
    List.filter_map
      (fun e -> if endpoint_equal e.hop hop then Some e.id else None)
      (all_entries t)

  (* Index shape, for the observability gauges. *)
  let bucket_count t = Hashtbl.length t.buckets
  let catch_all_size t = List.length t.catch_all

  let max_bucket_size t =
    Hashtbl.fold (fun _ es acc -> max acc (List.length es)) t.buckets 0

  (* Structural invariants of the index (see Check.audit_broker): the
     bucket partition, the by-id map and the counters must agree, every
     bucket must be keyed by its entries' root element and kept strictly
     newest-first, and no stored seq may reach [next_seq]. *)
  let check_invariants t =
    let problems = ref [] in
    let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    let listed = all_entries t in
    if List.length listed <> t.count then
      add "SRT size %d disagrees with stored entries %d" t.count (List.length listed);
    if Hashtbl.length t.by_id <> t.count then
      add "SRT by-id map holds %d entries, size says %d" (Hashtbl.length t.by_id) t.count;
    List.iter
      (fun e ->
        (match Hashtbl.find_opt t.by_id e.id with
        | None -> add "SRT entry (%d,%d) missing from the by-id map" e.id.origin e.id.seq
        | Some e' ->
          if e'.seq <> e.seq then
            add "SRT entry (%d,%d) stored twice with seq %d and %d" e.id.origin e.id.seq
              e.seq e'.seq);
        if e.seq < 0 || e.seq >= t.next_seq then
          add "SRT entry (%d,%d) has seq %d outside [0,%d)" e.id.origin e.id.seq e.seq
            t.next_seq)
      listed;
    let check_order where es =
      let rec go = function
        | a :: (b :: _ as rest) ->
          if a.seq <= b.seq then
            add "SRT %s not strictly newest-first: seq %d before %d" where a.seq b.seq;
          go rest
        | _ -> ()
      in
      go es
    in
    Hashtbl.iter
      (fun name es ->
        if es = [] then add "SRT keeps an empty bucket %S" (Symbol.name name);
        check_order (Printf.sprintf "bucket %S" (Symbol.name name)) es;
        List.iter
          (fun e ->
            match bucket_key e.adv with
            | Some k when Symbol.equal k name -> ()
            | Some k ->
              add "SRT entry (%d,%d) filed under %S, belongs in %S" e.id.origin e.id.seq
                (Symbol.name name) (Symbol.name k)
            | None ->
              add "SRT entry (%d,%d) filed under %S, belongs in the catch-all" e.id.origin
                e.id.seq (Symbol.name name))
          es)
      t.buckets;
    check_order "catch-all" t.catch_all;
    List.iter
      (fun e ->
        match bucket_key e.adv with
        | None -> ()
        | Some k ->
          add "SRT entry (%d,%d) in the catch-all, belongs in bucket %S" e.id.origin
            e.id.seq (Symbol.name k))
      t.catch_all;
    List.rev !problems
end

(* ------------------------------------------------------------------ *)
(* Publication routing table                                           *)
(* ------------------------------------------------------------------ *)

module Prt = struct
  type payload = {
    id : Message.sub_id;
    hop : endpoint;
    seq : int;
    mutable targets : endpoint list;
    mutable merger : Message.sub_id option;
  }

  module Id_map = Map.Make (struct
    type t = Message.sub_id

    let compare = Message.compare_sub_id
  end)

  type t = {
    (* The covering tree: answers covering queries, and holds the
       payloads. Equal XPEs share one node (Sec. 4.1). *)
    tree : payload Sub_tree.t;
    (* The YFilter automaton over the same XPE set: it answers
       publication matching, at a per-publication cost that grows with
       its branching into the publication, not with the table size. It
       holds one entry per tree node, the node itself, so only a new XPE
       or the last payload of one leaving touches it: churn among the
       subscribers of a stored XPE neither rewrites the automaton nor
       drops its resume log. *)
    nfa : payload Sub_tree.node Yfilter.t;
    (* Insertion sequence of payloads: match results come in this order,
       independent of hash-table iteration and of node sharing. *)
    mutable next_seq : int;
    mutable payloads : int; (* stored payloads: the gauge reads it in O(1) *)
    mutable by_id : (payload Sub_tree.node * payload) Id_map.t;
  }

  let create ?flat ?covers () =
    {
      tree = Sub_tree.create ?flat ?covers ();
      nfa = Yfilter.create ();
      next_seq = 0;
      payloads = 0;
      by_id = Id_map.empty;
    }

  let size t = Sub_tree.size t.tree
  let tree t = t.tree
  let nfa_states t = Yfilter.state_count t.nfa
  let nfa_allocated_states t = Yfilter.allocated_states t.nfa
  let mem t id = Id_map.mem id t.by_id
  let find t id = Id_map.find_opt id t.by_id

  let insert t id xpe hop =
    let payload = { id; hop; seq = t.next_seq; targets = []; merger = None } in
    t.next_seq <- t.next_seq + 1;
    let nodes = Sub_tree.size t.tree in
    let node = Sub_tree.insert t.tree xpe payload in
    if Sub_tree.size t.tree > nodes then Yfilter.insert t.nfa xpe node;
    t.payloads <- t.payloads + 1;
    t.by_id <- Id_map.add id (node, payload) t.by_id;
    (node, payload)

  let remove t id =
    match Id_map.find_opt id t.by_id with
    | None -> None
    | Some (node, payload) ->
      Sub_tree.remove_payload t.tree node payload;
      (* The node's last payload took it out of the tree; its automaton
         entry goes too, selected by physical equality. *)
      if Sub_tree.node_payloads node = [] then
        Yfilter.remove t.nfa (Sub_tree.node_xpe node) (fun n -> n == node);
      t.payloads <- t.payloads - 1;
      t.by_id <- Id_map.remove id t.by_id;
      Some (payload, node)

  (* Publication matching: payloads of the matching subscriptions, in
     insertion order. *)
  let match_pub t (pub : Xroute_xml.Xml_paths.publication) =
    match Yfilter.match_syms t.nfa pub.syms pub.attrs with
    | [] -> []
    | nodes ->
      List.fold_left (fun acc node -> List.rev_append (Sub_tree.node_payloads node) acc) [] nodes
      |> List.sort (fun (a : payload) b -> Int.compare a.seq b.seq)

  let match_checks t = Yfilter.match_ops t.nfa
  let match_checks_resumed t = Yfilter.resumed_ops t.nfa
  let cover_checks t = Sub_tree.cover_checks t.tree
  let cover_tests t = Sub_tree.cover_tests t.tree

  (* Total stored payloads ([size] counts distinct XPEs). *)
  let payload_count t = Sub_tree.payload_count t.tree
  let nfa_payloads t = t.payloads

  (* ------------------------------------------------------------------ *)
  (* NFA integrity audit                                                 *)
  (* ------------------------------------------------------------------ *)

  (* The automaton, the tree and the id ledger must describe the same
     subscription set: the automaton holds exactly one entry per live
     tree node, the node the tree files under that XPE; every ledger
     record sits on its node with a unique in-range seq; the payload
     counter agrees with the tree; and the automaton's structural
     invariants (no dead states after churn, exact counters) hold. *)
  let nfa_invariants t =
    let problems = ref [] in
    let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    List.iter (fun msg -> problems := msg :: !problems) (Yfilter.check_invariants t.nfa);
    let entries = Yfilter.to_list t.nfa in
    let nodes = Sub_tree.size t.tree in
    if List.length entries <> nodes then
      add "NFA holds %d entries, the PRT tree %d nodes" (List.length entries) nodes;
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (xpe, node) ->
        let nid = Sub_tree.node_id node in
        if Hashtbl.mem seen nid then add "NFA holds tree node %d twice" nid
        else Hashtbl.add seen nid ();
        match Sub_tree.find_equal t.tree xpe with
        | Some n when n == node -> ()
        | Some n ->
          add "NFA files node %d under %s, the tree's node for it is %d" nid
            (Xpe.to_string xpe) (Sub_tree.node_id n)
        | None -> add "NFA entry %s has no node in the PRT tree" (Xpe.to_string xpe))
      entries;
    let ledger = payload_count t in
    if t.payloads <> ledger then
      add "PRT counts %d payloads, its tree holds %d" t.payloads ledger;
    if Id_map.cardinal t.by_id <> ledger then
      add "PRT ledger holds %d ids, its tree %d payloads" (Id_map.cardinal t.by_id) ledger;
    let seqs = Hashtbl.create 16 in
    Id_map.iter
      (fun id (node, (payload : payload)) ->
        if payload.seq < 0 || payload.seq >= t.next_seq then
          add "PRT payload (%d,%d) carries out-of-range seq %d" id.origin id.seq payload.seq;
        if Hashtbl.mem seqs payload.seq then add "PRT payloads share seq %d" payload.seq
        else Hashtbl.add seqs payload.seq ();
        if not (List.memq payload (Sub_tree.node_payloads node)) then
          add "PRT payload (%d,%d) is not on its ledger node" id.origin id.seq;
        match Sub_tree.find_equal t.tree (Sub_tree.node_xpe node) with
        | Some n when n == node -> ()
        | _ -> add "PRT ledger files (%d,%d) under a node gone from the tree" id.origin id.seq)
      t.by_id;
    List.rev !problems

  (* Test hook: corrupt the automaton with a state eager pruning could
     never leave behind, a resume log a mutation failed to drop, a
     second entry for a stored node, or an entry for a node the tree
     does not hold — the audit's must-fail mutations. *)
  let corrupt_nfa t = function
    | `Orphan_state -> Yfilter.plant_orphan t.nfa
    | `Stale_log -> Yfilter.plant_stale_log t.nfa
    | `Duplicate_entry -> (
      match Sub_tree.to_list t.tree with
      | node :: _ -> Yfilter.insert t.nfa (Sub_tree.node_xpe node) node
      | [] -> invalid_arg "Prt.corrupt_nfa: no stored node to duplicate")
    | `Nodeless_entry ->
      let xpe = Xpe.absolute_of_names [ "__nodeless__" ] in
      let stray = Sub_tree.create () in
      let hop = Client (-1) in
      let id = { Message.origin = -1; seq = -1 } in
      let node = Sub_tree.insert stray xpe { id; hop; seq = -1; targets = []; merger = None } in
      Yfilter.insert t.nfa xpe node
end
