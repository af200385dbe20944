(* Reference publication matcher for the differential tests of
   [Yfilter]: the straightforward shared-prefix NFA, with per-node hash
   tables keyed by (axis, node test) and per-call hash sets for the
   frontiers. It builds the same trie as [Yfilter] (eager pruning
   included) and charges [match_ops] by the same rule — +1 per edge
   followed, +1 per accepting entry scanned once per node per call — so
   both its results and its charge must agree with the production
   matcher call for call. *)

open Xroute_xpath

type edge_key = Xpe.axis * Xpe.nodetest

type 'a node = {
  id : int;
  edges : (edge_key, 'a node) Hashtbl.t;
  mutable desc_edges : int;
  mutable accepts : (Xpe.t * 'a list ref) list;
}

type 'a t = { root : 'a node; mutable next_id : int; mutable match_ops : int }

let fresh_node id = { id; edges = Hashtbl.create 4; desc_edges = 0; accepts = [] }
let create () = { root = fresh_node 0; next_id = 1; match_ops = 0 }
let match_ops t = t.match_ops

let index_steps xpe =
  List.map (fun (s : Xpe.step) -> (s.Xpe.axis, s.Xpe.test)) (Xpe.semantic_steps xpe)

let add_edge t node key =
  match Hashtbl.find_opt node.edges key with
  | Some child -> child
  | None ->
    let child = fresh_node t.next_id in
    t.next_id <- t.next_id + 1;
    Hashtbl.replace node.edges key child;
    if fst key = Xpe.Desc then node.desc_edges <- node.desc_edges + 1;
    child

let insert t xpe payload =
  let final = List.fold_left (fun node key -> add_edge t node key) t.root (index_steps xpe) in
  match List.find_opt (fun (x, _) -> Xpe.equal x xpe) final.accepts with
  | Some (_, payloads) -> payloads := payload :: !payloads
  | None -> final.accepts <- (xpe, ref [ payload ]) :: final.accepts

let remove t xpe pred =
  let rec walk node = function
    | [] ->
      List.iter
        (fun (x, payloads) ->
          if Xpe.equal x xpe then payloads := List.filter (fun p -> not (pred p)) !payloads)
        node.accepts;
      node.accepts <- List.filter (fun (_, payloads) -> !payloads <> []) node.accepts
    | key :: rest -> (
      match Hashtbl.find_opt node.edges key with
      | Some child ->
        walk child rest;
        if child.accepts = [] && Hashtbl.length child.edges = 0 then begin
          Hashtbl.remove node.edges key;
          if fst key = Xpe.Desc then node.desc_edges <- node.desc_edges - 1
        end
      | None -> ())
  in
  walk t.root (index_steps xpe)

(* [fresh] nodes were reached at the previous position boundary and may
   fire child and descendant edges on the next element; [alive] nodes
   have descendant out-edges and keep firing those (only) forever after
   they are first reached. *)
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
    if node.desc_edges > 0 && not (Hashtbl.mem alive_set node.id) then begin
      Hashtbl.add alive_set node.id ();
      alive := node :: !alive
    end
  in
  let fresh = ref [ t.root ] in
  collect t.root;
  keep_alive t.root;
  for i = 0 to Array.length syms - 1 do
    let sym = syms.(i) in
    (* nodes becoming alive on this element must not fire on it *)
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
    let fresh_ids = Hashtbl.create 8 in
    List.iter (fun node -> Hashtbl.replace fresh_ids node.id ()) !fresh;
    List.iter
      (fun node -> if not (Hashtbl.mem fresh_ids node.id) then fire ~allow_child:false node)
      alive_now;
    fresh := !next
  done;
  List.rev !acc
