(* The content-based XML router (broker).

   A broker holds an SRT and a PRT, talks to neighbor brokers and local
   clients, and implements the routing strategies of the paper's
   evaluation (Tables 2-3):

   - advertisement-based routing on/off: with advertisements,
     subscriptions follow the reverse advertisement paths; without, they
     flood;
   - covering on/off: a covered subscription is stored but not
     forwarded, and forwarding a new subscription unsubscribes the
     maximal subscriptions it covers;
   - merging off / perfect / imperfect: a periodic merge pass replaces
     sets of forwarded subscriptions by mergers (Sec. 4.3); originals
     stay in the local PRT, so false positives die here and never reach
     clients. A merger lives only while every member is stored: when
     one leaves, the merger is withdrawn like an unsubscription and its
     other members are forwarded again.

   [handle] is a pure-ish state machine: it consumes one message and
   returns the messages to emit, so the overlay simulator (and the
   tests) stay in full control of delivery order and timing. *)

open Xroute_xpath

let log_src = Logs.Src.create "xroute.broker" ~doc:"Content-based XML router"

module Log = (val Logs.src_log log_src : Logs.LOG)

type merge_mode = No_merging | Perfect | Imperfect of float

type strategy = {
  use_adv : bool;  (* advertisement-based subscription routing *)
  use_cover : bool;  (* covering-based forwarding suppression *)
  merging : merge_mode;
}

let default_strategy = { use_adv = true; use_cover = true; merging = No_merging }

(* The six rows of Tables 2 and 3. *)
let strategy_of_name = function
  | "no-Adv-no-Cov" -> Some { default_strategy with use_adv = false; use_cover = false }
  | "no-Adv-with-Cov" -> Some { default_strategy with use_adv = false; use_cover = true }
  | "with-Adv-no-Cov" -> Some { default_strategy with use_adv = true; use_cover = false }
  | "with-Adv-with-Cov" -> Some { default_strategy with use_adv = true; use_cover = true }
  | "with-Adv-with-CovPM" -> Some { default_strategy with merging = Perfect }
  | "with-Adv-with-CovIPM" -> Some { default_strategy with merging = Imperfect 0.1 }
  | _ -> None

let strategy_names =
  [
    "no-Adv-no-Cov";
    "no-Adv-with-Cov";
    "with-Adv-no-Cov";
    "with-Adv-with-Cov";
    "with-Adv-with-CovPM";
    "with-Adv-with-CovIPM";
  ]

module M = Xroute_obs.Metrics

(* Handles into the broker's metrics registry, resolved once at creation
   so the hot paths never do a name lookup. *)
type meters = {
  m_msgs_in : M.counter;
  m_advs_in : M.counter;
  m_subs_in : M.counter;
  m_pubs_in : M.counter;
  m_unsubs_in : M.counter;
  m_pubs_dropped : M.counter;
  m_deliveries : M.counter;
  m_mergers_applied : M.counter;
  m_srt_match_ops : M.counter; (* mirrors Srt.match_ops *)
  m_srt_overlap_tests : M.counter; (* mirrors Srt.overlap_tests *)
  m_prt_match_checks : M.counter; (* mirrors Prt.match_checks *)
  m_prt_match_resumed : M.counter; (* mirrors Prt.match_checks_resumed *)
  m_prt_cover_checks : M.counter; (* mirrors Prt.cover_checks *)
  m_prt_cover_tests : M.counter; (* mirrors Prt.cover_tests *)
  m_srt_size : M.gauge;
  m_srt_buckets : M.gauge; (* non-empty SRT root-element buckets *)
  m_srt_bucket_max : M.gauge; (* fullest bucket's occupancy *)
  m_srt_catch_all : M.gauge; (* wildcard/recursive catch-all size *)
  m_prt_size : M.gauge;
  m_prt_payloads : M.gauge;
  m_nfa_states : M.gauge;
  m_forwarded : M.gauge;
  m_mergers_active : M.gauge;
  m_suppressed : M.gauge;
  m_sub_match_ops : M.histogram; (* SRT match ops per subscription *)
  m_pub_match_ops : M.histogram; (* PRT match/cover ops per publication *)
  m_merge_pass_ms : M.histogram;
}

let make_meters reg =
  {
    m_msgs_in = M.counter reg ~help:"Messages handled" "xroute_broker_msgs_in_total";
    m_advs_in = M.counter reg ~help:"Advertisements handled" "xroute_broker_advs_in_total";
    m_subs_in = M.counter reg ~help:"Subscriptions handled" "xroute_broker_subs_in_total";
    m_pubs_in = M.counter reg ~help:"Publications handled" "xroute_broker_pubs_in_total";
    m_unsubs_in = M.counter reg ~help:"Unsubscriptions handled" "xroute_broker_unsubs_in_total";
    m_pubs_dropped =
      M.counter reg ~help:"Publications matching no subscription" "xroute_broker_pubs_dropped_total";
    m_deliveries =
      M.counter reg ~help:"Publications handed to local clients" "xroute_broker_deliveries_total";
    m_mergers_applied =
      M.counter reg ~help:"Mergers created by merge passes" "xroute_broker_mergers_applied_total";
    m_srt_match_ops =
      M.counter reg ~help:"SRT candidate entries charged by the cost model"
        "xroute_srt_match_ops_total";
    m_srt_overlap_tests =
      M.counter reg ~help:"SRT advertisement overlap tests run" "xroute_srt_overlap_tests_total";
    m_prt_match_checks =
      M.counter reg ~help:"PRT publication match checks" "xroute_prt_match_checks_total";
    m_prt_match_resumed =
      M.counter reg ~help:"PRT match checks replayed from the NFA resume log, not re-run"
        "xroute_prt_match_ops_resumed_total";
    m_prt_cover_checks =
      M.counter reg ~help:"PRT covering checks" "xroute_prt_cover_checks_total";
    m_prt_cover_tests =
      M.counter reg ~help:"PRT covering checks the name-signature prefilter let through"
        "xroute_prt_cover_tests_total";
    m_srt_size = M.gauge reg ~help:"SRT entries" "xroute_srt_size";
    m_srt_buckets =
      M.gauge reg ~help:"Non-empty SRT root-element buckets" "xroute_srt_buckets";
    m_srt_bucket_max =
      M.gauge reg ~help:"Occupancy of the fullest SRT bucket" "xroute_srt_bucket_max";
    m_srt_catch_all =
      M.gauge reg ~help:"SRT wildcard/recursive catch-all entries" "xroute_srt_catch_all";
    m_prt_size = M.gauge reg ~help:"PRT distinct XPEs" "xroute_prt_size";
    m_prt_payloads = M.gauge reg ~help:"PRT stored payloads" "xroute_prt_payloads";
    m_nfa_states = M.gauge reg ~help:"PRT NFA automaton states" "xroute_nfa_states";
    m_forwarded =
      M.gauge reg ~help:"Subscriptions forwarded upstream" "xroute_broker_forwarded_subs";
    m_mergers_active = M.gauge reg ~help:"Active mergers" "xroute_broker_mergers_active";
    m_suppressed =
      M.gauge reg ~help:"Subscriptions suppressed by a merger" "xroute_broker_suppressed_subs";
    m_sub_match_ops =
      M.histogram reg ~help:"SRT match ops per subscription" "xroute_srt_sub_match_ops";
    m_pub_match_ops =
      M.histogram reg ~help:"PRT match/cover ops per publication" "xroute_prt_pub_match_ops";
    m_merge_pass_ms =
      M.histogram reg ~help:"Merge pass CPU time (ms)" "xroute_broker_merge_pass_ms";
  }

(* A live merger (Sec. 4.3): a broker-made subscription that replaced
   its members upstream. Each member is a stored subscription whose
   payload names this merger in its [merger] field; the merger dissolves
   when any member leaves. *)
type merger = {
  xpe : Xpe.t;
  mutable targets : Rtable.endpoint list; (* where the merger was forwarded *)
  members : Message.sub_id list; (* ascending *)
}

type t = {
  id : int;
  strategy : strategy;
  covers : Xpe.t -> Xpe.t -> bool; (* the covering predicate in force *)
  neighbors : int list;
  srt : Rtable.Srt.t;
  prt : Rtable.Prt.t;
  (* Where a stored subscription was forwarded lives on its PRT payload
     ([targets], [merger]). This indexes the forwarded ones: for each
     PRT node (keyed by its [Sub_tree.node_id]; equal XPEs share one
     node), the payloads stored there whose [targets] are non-empty. Lets
     [served_endpoints] consult a coverer node without scanning its
     payload list, which is one entry per subscriber on a popular XPE. *)
  fwd_active : (int, Rtable.Prt.payload list) Hashtbl.t;
  (* live mergers by id; merger ids share one origin and count up, so
     the map's ascending order is creation order *)
  mutable mergers : merger Rtable.Prt.Id_map.t;
  mutable merge_seq : int;
  (* path universe for the imperfect degree (publisher DTD knowledge) *)
  mutable universe : string array list;
  metrics : M.t;
  meters : meters;
}

let create ?(strategy = default_strategy) ~id ~neighbors () =
  let covers = if strategy.use_cover then Cover.covers else fun _ _ -> false in
  let flat = not strategy.use_cover in
  let metrics = M.create () in
  {
    id;
    strategy;
    covers;
    neighbors;
    srt = Rtable.Srt.create ();
    prt = Rtable.Prt.create ~flat ~covers ();
    fwd_active = Hashtbl.create 64;
    mergers = Rtable.Prt.Id_map.empty;
    merge_seq = 0;
    universe = [];
    metrics;
    meters = make_meters metrics;
  }

let id t = t.id
let strategy t = t.strategy
let metrics t = t.metrics
let srt_size t = Rtable.Srt.size t.srt
let prt_size t = Rtable.Prt.size t.prt
let set_universe t universe = t.universe <- universe

(* Match-work performed so far: the quantity the processing-delay model
   charges for (covering shrinks it). *)
let work t =
  Rtable.Srt.match_ops t.srt + Rtable.Prt.match_checks t.prt + Rtable.Prt.cover_checks t.prt

(* The same cumulative work split by table/stage — (SRT match ops, PRT
   match checks, PRT cover checks) — so the transport can size per-stage
   spans from before/after deltas. Sums to {!work}. *)
let stage_ops t =
  (Rtable.Srt.match_ops t.srt, Rtable.Prt.match_checks t.prt, Rtable.Prt.cover_checks t.prt)

(* Forwarded routing table size: the subscriptions and mergers this
   broker has forwarded to at least one neighbor, which its upstream
   neighbors store because of it — the paper's compaction metric counts
   the local table instead, which [prt_size] reports. *)
let forwarded_count t =
  Hashtbl.fold (fun _ ps n -> n + List.length ps) t.fwd_active 0
  + Rtable.Prt.Id_map.fold (fun _ m n -> if m.targets = [] then n else n + 1) t.mergers 0

(* Push the derived quantities — index sizes as gauges, the tables'
   cumulative match counters — into the registry. Call before export;
   the event counters and histograms are maintained inline. The NFA
   gauges read the automaton's counters instead of walking it (the
   audit checks the counters against the walks). *)
let refresh_metrics t =
  let m = t.meters in
  M.counter_set m.m_srt_match_ops (Rtable.Srt.match_ops t.srt);
  M.counter_set m.m_srt_overlap_tests (Rtable.Srt.overlap_tests t.srt);
  M.counter_set m.m_prt_match_checks (Rtable.Prt.match_checks t.prt);
  M.counter_set m.m_prt_match_resumed (Rtable.Prt.match_checks_resumed t.prt);
  M.counter_set m.m_prt_cover_checks (Rtable.Prt.cover_checks t.prt);
  M.counter_set m.m_prt_cover_tests (Rtable.Prt.cover_tests t.prt);
  M.set_int m.m_srt_size (Rtable.Srt.size t.srt);
  M.set_int m.m_srt_buckets (Rtable.Srt.bucket_count t.srt);
  M.set_int m.m_srt_bucket_max (Rtable.Srt.max_bucket_size t.srt);
  M.set_int m.m_srt_catch_all (Rtable.Srt.catch_all_size t.srt);
  M.set_int m.m_prt_size (Rtable.Prt.size t.prt);
  M.set_int m.m_prt_payloads (Rtable.Prt.nfa_payloads t.prt);
  M.set_int m.m_nfa_states (Rtable.Prt.nfa_allocated_states t.prt);
  M.set_int m.m_forwarded (forwarded_count t);
  M.set_int m.m_mergers_active (Rtable.Prt.Id_map.cardinal t.mergers);
  M.set_int m.m_suppressed
    (Rtable.Prt.Id_map.fold (fun _ mg n -> n + List.length mg.members) t.mergers 0)

let corrupt_nfa_for_test t = Rtable.Prt.corrupt_nfa t.prt

let neighbor_endpoints ?(except = []) t =
  List.filter_map
    (fun n ->
      let ep = Rtable.Neighbor n in
      if List.exists (Rtable.endpoint_equal ep) except then None else Some ep)
    t.neighbors

let is_neighbor_ep = function Rtable.Neighbor _ -> true | Rtable.Client _ -> false

(* The one writer of a payload's [targets]: keeps [fwd_active] holding
   exactly the payloads with a non-empty target list. A node's bucket
   holds its few actual forwarders, typically one, so the list
   operations here are O(1). *)
let set_targets t node (p : Rtable.Prt.payload) targets =
  let key = Sub_tree.node_id node in
  let bucket () = Option.value ~default:[] (Hashtbl.find_opt t.fwd_active key) in
  (match (p.targets, targets) with
  | [], _ :: _ -> Hashtbl.replace t.fwd_active key (p :: bucket ())
  | _ :: _, [] -> (
    match List.filter (fun q -> q != p) (bucket ()) with
    | [] -> Hashtbl.remove t.fwd_active key
    | kept -> Hashtbl.replace t.fwd_active key kept)
  | [], [] | _ :: _, _ :: _ -> ());
  p.targets <- targets

(* Add [targets] to where a stored subscription was forwarded; returns
   the ones it had not been forwarded to yet. *)
let record_forwarded t node (p : Rtable.Prt.payload) targets =
  let added =
    List.filter (fun ep -> not (List.exists (Rtable.endpoint_equal ep) p.targets)) targets
  in
  if added <> [] then set_targets t node p (added @ p.targets);
  added

(* Replaced upstream by a live merger. *)
let is_suppressed (p : Rtable.Prt.payload) = Option.is_some p.merger

let mergers_newest_first t =
  Rtable.Prt.Id_map.fold (fun id m acc -> (id, m) :: acc) t.mergers []

(* Every stored subscription as (node, payload), parents before
   children: the tree's iteration order. *)
let iter_stored t f =
  Sub_tree.iter
    (fun node -> List.iter (f node) (Sub_tree.node_payloads node))
    (Rtable.Prt.tree t.prt)

(* Targets a subscription should be forwarded to (before covering
   decisions): matching advertisement hops, or all neighbors when not
   advertisement-based. Never back to where it came from; never to
   clients (the SRT lookup returns neighbor hops only). *)
let sub_targets t ~from xpe =
  let raw =
    if t.strategy.use_adv then Rtable.Srt.hops_for_sub t.srt xpe
    else neighbor_endpoints t
  in
  List.filter (fun ep -> not (Rtable.endpoint_equal ep from)) raw

(* Covering-based suppression is per next hop: forwarding [xpe] to [ep]
   is redundant exactly when some other subscription covering [xpe] has
   already been forwarded to [ep] (a coverer from the direction of [ep]
   itself draws no publications from there, hence "other" and
   "forwarded"). Active mergers count as coverers of their members. *)

(* Endpoints already served for [xpe] by some other subscription or
   merger: the union of the coverers' forwarded-target sets. Coverer
   nodes are consulted through [fwd_active] rather than their payload
   lists: payloads with nothing forwarded contribute nothing to the
   union, so the served set is unchanged, and a hot node with thousands
   of equal subscribers costs one index lookup instead of a scan. *)
let served_endpoints t ~self_id xpe =
  if not t.strategy.use_cover then []
  else begin
    let from_tree =
      List.concat_map
        (fun node ->
          match Hashtbl.find_opt t.fwd_active (Sub_tree.node_id node) with
          | None -> []
          | Some ps ->
            List.concat_map
              (fun (p : Rtable.Prt.payload) ->
                if Message.compare_sub_id p.id self_id = 0 then [] else p.targets)
              ps)
        (Sub_tree.coverers (Rtable.Prt.tree t.prt) xpe)
    in
    let from_mergers =
      Rtable.Prt.Id_map.fold
        (fun _ m acc -> if t.covers m.xpe xpe then m.targets @ acc else acc)
        t.mergers []
    in
    from_tree @ from_mergers
  end

let unserved_targets t ~self_id xpe targets =
  match targets with
  | [] -> []
  | targets ->
    let served = served_endpoints t ~self_id xpe in
    List.filter (fun ep -> not (List.exists (Rtable.endpoint_equal ep) served)) targets

(* ------------------------------------------------------------------ *)
(* Advertisements                                                      *)
(* ------------------------------------------------------------------ *)

(* Forward stored subscriptions and live mergers toward [ep] where
   [admit xpe last_hop] holds and [ep] is still unserved. Parents come
   before children, then mergers newest first: a coverer is forwarded
   first and then serves its covered subtree per target. Never back to a
   subscription's own last hop, never twice to one target. *)
let forward_stored t ~ep admit =
  let msgs = ref [] in
  (* The tests run in this order, since [served_endpoints] charges
     covering checks. *)
  let wanted id xpe hop targets =
    (not (Rtable.endpoint_equal hop ep))
    && (not (List.exists (Rtable.endpoint_equal ep) targets))
    && admit xpe hop
    && not (List.exists (Rtable.endpoint_equal ep) (served_endpoints t ~self_id:id xpe))
  in
  let send id xpe = msgs := (ep, Message.Subscribe { id; xpe }) :: !msgs in
  iter_stored t (fun node (p : Rtable.Prt.payload) ->
      let xpe = Sub_tree.node_xpe node in
      if (not (is_suppressed p)) && wanted p.id xpe p.hop p.targets then begin
        set_targets t node p (ep :: p.targets);
        send p.id xpe
      end);
  List.iter
    (fun (id, m) ->
      if wanted id m.xpe (Rtable.Neighbor t.id) m.targets then begin
        m.targets <- ep :: m.targets;
        send id m.xpe
      end)
    (mergers_newest_first t);
  List.rev !msgs

let handle_advertise t ~from id adv =
  M.incr t.meters.m_advs_in;
  match Rtable.Srt.add t.srt id adv from with
  | `Duplicate -> []
  | `Stored ->
    (* Flood on. *)
    let flood =
      List.map
        (fun ep -> (ep, Message.Advertise { id; adv }))
        (neighbor_endpoints ~except:[ from ] t)
    in
    (* Forward stored subscriptions that overlap the new advertisement
       towards it (otherwise subscribers that registered first would
       never reach this publisher). *)
    let sub_msgs =
      if (not t.strategy.use_adv) || not (is_neighbor_ep from) then []
      else begin
        let c = lazy (Adv_match.compile adv) in
        forward_stored t ~ep:from (fun xpe _ ->
            Adv_match.overlaps_compiled (Adv_match.query xpe) (Lazy.force c))
      end
    in
    flood @ sub_msgs

let handle_unadvertise t ~from id =
  match Rtable.Srt.remove t.srt id with
  | None -> []
  | Some _ ->
    List.map
      (fun ep -> (ep, Message.Unadvertise { id }))
      (neighbor_endpoints ~except:[ from ] t)

(* ------------------------------------------------------------------ *)
(* Subscriptions                                                       *)
(* ------------------------------------------------------------------ *)

let handle_subscribe t ~from id xpe =
  M.incr t.meters.m_subs_in;
  if Rtable.Prt.mem t.prt id then [] (* duplicate *)
  else begin
    (* Subscriptions this one strictly covers (equal XPEs are kept:
       they already serve their targets). Computed before insertion.
       The equal node is dropped before its payloads are expanded — on
       a popular XPE it holds one payload per subscriber, and
       materializing them per arrival made subscribing quadratic. *)
    let displaced =
      if t.strategy.use_cover then
        Sub_tree.covered_roots (Rtable.Prt.tree t.prt) xpe
        |> List.concat_map (fun node ->
               if Xpe.equal (Sub_tree.node_xpe node) xpe then []
               else List.map (fun p -> (node, p)) (Sub_tree.node_payloads node))
      else []
    in
    let targets = sub_targets t ~from xpe in
    let needed = unserved_targets t ~self_id:id xpe targets in
    let node, p = Rtable.Prt.insert t.prt id xpe from in
    let fresh = record_forwarded t node p needed in
    let sub_msgs = List.map (fun ep -> (ep, Message.Subscribe { id; xpe })) fresh in
    (* Unsubscribe displaced subscriptions, but only at next hops now
       served by this subscription (elsewhere they must keep drawing
       publications for their own subscribers). *)
    let mine = p.targets in
    let unsub_msgs =
      List.concat_map
        (fun (node, (q : Rtable.Prt.payload)) ->
          if is_suppressed q then []
          else begin
            let redundant, kept =
              List.partition (fun ep -> List.exists (Rtable.endpoint_equal ep) mine) q.targets
            in
            set_targets t node q kept;
            List.map (fun ep -> (ep, Message.Unsubscribe { id = q.id })) redundant
          end)
        displaced
    in
    sub_msgs @ unsub_msgs
  end

(* Forward one stored subscription wherever it must go and is now
   unserved. *)
let reforward t node (p : Rtable.Prt.payload) =
  if is_suppressed p then []
  else begin
    let xpe = Sub_tree.node_xpe node in
    let targets = sub_targets t ~from:p.hop xpe in
    let needed = unserved_targets t ~self_id:p.id xpe targets in
    let fresh = record_forwarded t node p needed in
    List.map (fun ep -> (ep, Message.Subscribe { id = p.id; xpe })) fresh
  end

(* Withdraw a departed subscription or a dissolved merger [id] with XPE
   [xpe], which was forwarded to [where]: unsubscribe it there, then
   re-forward what may have relied on that forwarding, wherever it is no
   longer served. That is [members] first — a dissolved merger's
   surviving members, in ascending id order, named because the syntactic
   covering test need not see them under the merger — then every
   subscription [xpe] covered: its former children, equal subscriptions
   sharing its node, and covered subscriptions in other subtrees (the
   relations the paper's super pointers record; [Sub_tree.covered_nodes]
   finds them by searching the tree). The covered ones need a look only
   when [id] was forwarded at all. *)
let withdraw t id xpe ~where ~members =
  let upstream = List.map (fun ep -> (ep, Message.Unsubscribe { id })) where in
  let from_members = List.concat_map (fun (node, p) -> reforward t node p) members in
  let from_covered =
    if (not t.strategy.use_cover) || where = [] then []
    else
      List.concat_map
        (fun n -> List.concat_map (reforward t n) (Sub_tree.node_payloads n))
        (Sub_tree.covered_nodes (Rtable.Prt.tree t.prt) xpe)
  in
  upstream @ from_members @ from_covered

(* [p] has left the PRT. If it was a merger's member, the merger
   dissolves: its record goes, its surviving members are released, and
   it is withdrawn with them re-forwarded ([p], no longer stored, is not
   among them). Its SRT memo entry goes too, unless a stored
   subscription still looks that XPE up. *)
let dissolve_merger_of t (p : Rtable.Prt.payload) =
  match p.merger with
  | None -> []
  | Some mid ->
    let m = Rtable.Prt.Id_map.find mid t.mergers in
    t.mergers <- Rtable.Prt.Id_map.remove mid t.mergers;
    let members = List.filter_map (Rtable.Prt.find t.prt) m.members in
    List.iter (fun (_, (q : Rtable.Prt.payload)) -> q.merger <- None) members;
    if Sub_tree.find_equal (Rtable.Prt.tree t.prt) m.xpe = None then
      Rtable.Srt.forget t.srt m.xpe;
    withdraw t mid m.xpe ~where:m.targets ~members

let handle_unsubscribe t ~from id =
  M.incr t.meters.m_unsubs_in;
  ignore from;
  match Rtable.Prt.remove t.prt id with
  | None -> []
  | Some (p, node) ->
    let xpe = Sub_tree.node_xpe node in
    (* The node went with its last payload: no live subscription looks
       this XPE up any more, so its SRT memo entry goes too. *)
    if Sub_tree.node_payloads node = [] then Rtable.Srt.forget t.srt xpe;
    let where = p.targets in
    set_targets t node p [];
    let own = withdraw t id xpe ~where ~members:[] in
    own @ dissolve_merger_of t p

(* ------------------------------------------------------------------ *)
(* Publications                                                        *)
(* ------------------------------------------------------------------ *)

(* Match a publication against the PRT, group the matches by next hop,
   account drops and deliveries, and emit one Publish per hop. An inbound
   trail is ignored and every output carries [trail = []]: the broker
   always matches against its full PRT (Sec. 3). The trace context [ctx]
   is copied verbatim onto every output: the broker decides routing, the
   transport decides spans (and rewrites [parent_span] to the hop span it
   opens before forwarding). *)
let handle_publish t ~from pub ctx =
  M.incr t.meters.m_pubs_in;
  let payloads = Rtable.Prt.match_pub t.prt pub in
  (* Hop lookup by hashing, not an assoc scan: at an edge broker every
     local subscriber is a distinct hop, so the scan was quadratic in
     matched payloads. [hops] holds each hop once, in reverse order of
     first encounter: the output order the golden digests pin. *)
  let seen : (Rtable.endpoint, unit) Hashtbl.t = Hashtbl.create 16 in
  let hops =
    List.fold_left
      (fun hops (p : Rtable.Prt.payload) ->
        if Rtable.endpoint_equal p.hop from || Hashtbl.mem seen p.hop then hops
        else begin
          Hashtbl.add seen p.hop ();
          p.hop :: hops
        end)
      [] payloads
  in
  if hops = [] then M.incr t.meters.m_pubs_dropped;
  List.map
    (fun ep ->
      (match ep with
      | Rtable.Client _ -> M.incr t.meters.m_deliveries
      | Rtable.Neighbor _ -> ());
      (ep, Message.Publish { pub; trail = []; ctx }))
    hops

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let handle t ~from (msg : Message.t) =
  M.incr t.meters.m_msgs_in;
  Log.debug (fun m ->
      m "broker %d <- %a: %a" t.id Rtable.pp_endpoint from Message.pp msg);
  let srt0 = Rtable.Srt.match_ops t.srt in
  let prt0 = Rtable.Prt.match_checks t.prt + Rtable.Prt.cover_checks t.prt in
  let outs =
    match msg with
    | Message.Advertise { id; adv } -> handle_advertise t ~from id adv
    | Message.Unadvertise { id } -> handle_unadvertise t ~from id
    | Message.Subscribe { id; xpe } -> handle_subscribe t ~from id xpe
    | Message.Unsubscribe { id } -> handle_unsubscribe t ~from id
    | Message.Publish { pub; trail = _; ctx } -> handle_publish t ~from pub ctx
  in
  (match msg with
  | Message.Subscribe _ ->
    M.observe t.meters.m_sub_match_ops (float_of_int (Rtable.Srt.match_ops t.srt - srt0))
  | Message.Publish _ ->
    let prt1 = Rtable.Prt.match_checks t.prt + Rtable.Prt.cover_checks t.prt in
    M.observe t.meters.m_pub_match_ops (float_of_int (prt1 - prt0))
  | Message.Advertise _ | Message.Unadvertise _ | Message.Unsubscribe _ -> ());
  outs

(* ------------------------------------------------------------------ *)
(* Merging pass                                                        *)
(* ------------------------------------------------------------------ *)

(* Periodic merging (Sec. 4.3): replace forwarded subscriptions by
   mergers within the configured imperfect degree. Originals stay in the
   PRT for exact local delivery; upstream they are unsubscribed and the
   merger subscribed in their place. *)
let merge_pass t =
  match t.strategy.merging with
  | No_merging -> []
  | mode ->
    let t_start = Sys.time () in
    Fun.protect
      ~finally:(fun () ->
        M.observe t.meters.m_merge_pass_ms ((Sys.time () -. t_start) *. 1000.0))
    @@ fun () ->
    let max_degree = match mode with Perfect -> 0.0 | Imperfect d -> d | No_merging -> 0.0 in
    (* Mergeable population: maximal, not suppressed, forwarded somewhere. *)
    let population =
      Sub_tree.maximal (Rtable.Prt.tree t.prt)
      |> List.concat_map (fun node ->
             List.filter_map
               (fun (p : Rtable.Prt.payload) ->
                 if is_suppressed p || p.targets = [] then None else Some (node, p))
               (Sub_tree.node_payloads node))
    in
    let xpes =
      List.sort_uniq Xpe.compare (List.map (fun (node, _) -> Sub_tree.node_xpe node) population)
    in
    let applied, _kept = Merge.merge_set ~max_degree ~universe:t.universe xpes in
    List.concat_map
      (fun (mg : Merge.merger) ->
        let members =
          List.filter
            (fun (node, _) -> List.exists (Xpe.equal (Sub_tree.node_xpe node)) mg.originals)
            population
        in
        if List.length members < 2 then []
        else begin
          t.merge_seq <- t.merge_seq + 1;
          let merger_id = { Message.origin = (t.id * 1_000_000) + 999_000; seq = t.merge_seq } in
          let ids = List.map (fun (_, (p : Rtable.Prt.payload)) -> p.id) members in
          let m = { xpe = mg.xpe; targets = []; members = List.sort Message.compare_sub_id ids } in
          t.mergers <- Rtable.Prt.Id_map.add merger_id m t.mergers;
          M.incr t.meters.m_mergers_applied;
          List.iter (fun (_, (p : Rtable.Prt.payload)) -> p.merger <- Some merger_id) members;
          (* Subscribe the merger along its own (unserved) targets. *)
          let targets = sub_targets t ~from:(Rtable.Neighbor t.id) m.xpe in
          m.targets <- unserved_targets t ~self_id:merger_id m.xpe targets;
          let sub_msgs =
            List.map (fun ep -> (ep, Message.Subscribe { id = merger_id; xpe = m.xpe })) m.targets
          in
          (* Unsubscribe the originals wherever they had been forwarded. *)
          let unsub_msgs =
            List.concat_map
              (fun (node, (p : Rtable.Prt.payload)) ->
                let where = p.targets in
                set_targets t node p [];
                List.map (fun ep -> (ep, Message.Unsubscribe { id = p.id })) where)
              members
          in
          sub_msgs @ unsub_msgs
        end)
      applied

(* ------------------------------------------------------------------ *)
(* Crash recovery (fault injection)                                    *)
(* ------------------------------------------------------------------ *)

let srt_ids_from t ep = Rtable.Srt.ids_from t.srt ep
let srt_ids t = List.map (fun (e : Rtable.Srt.entry) -> e.id) (Rtable.Srt.entries t.srt)

let prt_fold t f =
  let acc = ref [] in
  iter_stored t (fun node p -> match f node p with Some x -> acc := x :: !acc | None -> ());
  List.rev !acc

let prt_ids t = prt_fold t (fun _ (p : Rtable.Prt.payload) -> Some p.id)

let prt_ids_from t ep =
  prt_fold t (fun _ (p : Rtable.Prt.payload) ->
      if Rtable.endpoint_equal p.hop ep then Some p.id else None)

(* ------------------------------------------------------------------ *)
(* Audit view (static analysis)                                        *)
(* ------------------------------------------------------------------ *)

(* Read-only snapshot of the routing state for the invariant checks in
   [Xroute_check.Check]. Everything the analyzer needs crosses here, so
   the broker internals stay private; the closures close over the live
   tables, so take the view and use it in one go. *)
type audit_view = {
  av_id : int;
  av_strategy : strategy;
  av_neighbors : int list;
  av_srt_entries : Rtable.Srt.entry list;
  av_srt_invariants : string list; (* Rtable.Srt.check_invariants *)
  av_prt_invariants : string list; (* Sub_tree.check_invariants *)
  av_nfa_invariants : string list; (* Rtable.Prt.nfa_invariants *)
  av_subs : (Message.sub_id * Xpe.t * Rtable.endpoint) list; (* stored payloads *)
  av_forwarded : (Message.sub_id * Rtable.endpoint list) list;
  av_mergers : (Message.sub_id * Xpe.t * Message.sub_id list) list;
      (* merger id, merger XPE, suppressed member ids *)
  av_suppressed : Message.sub_id list;
  av_covers : Xpe.t -> Xpe.t -> bool; (* the covering predicate in force *)
  av_required_targets : Xpe.t -> Rtable.endpoint list;
      (* neighbor hops a subscription must reach under the current SRT
         (all neighbors under flooding); does not charge match_ops *)
}

let audit_view t =
  let required_targets xpe =
    let raw =
      if t.strategy.use_adv then begin
        let q = Adv_match.query xpe in
        List.filter_map
          (fun (e : Rtable.Srt.entry) -> if Rtable.Srt.overlaps q e then Some e.hop else None)
          (Rtable.Srt.entries t.srt)
      end
      else neighbor_endpoints t
    in
    List.fold_left
      (fun acc ep ->
        if is_neighbor_ep ep && not (List.exists (Rtable.endpoint_equal ep) acc) then
          ep :: acc
        else acc)
      [] raw
    |> List.rev
  in
  {
    av_id = t.id;
    av_strategy = t.strategy;
    av_neighbors = t.neighbors;
    av_srt_entries = Rtable.Srt.entries t.srt;
    av_srt_invariants = Rtable.Srt.check_invariants t.srt;
    av_prt_invariants = Sub_tree.check_invariants (Rtable.Prt.tree t.prt);
    av_nfa_invariants = Rtable.Prt.nfa_invariants t.prt;
    av_subs =
      prt_fold t (fun node (p : Rtable.Prt.payload) ->
          Some (p.id, Sub_tree.node_xpe node, p.hop));
    av_forwarded =
      prt_fold t (fun _ (p : Rtable.Prt.payload) ->
          if p.targets = [] then None else Some (p.id, p.targets))
      @ List.filter_map
          (fun (id, m) -> if m.targets = [] then None else Some (id, m.targets))
          (mergers_newest_first t)
      |> List.sort (fun (a, _) (b, _) -> Message.compare_sub_id a b);
    av_mergers = List.map (fun (id, m) -> (id, m.xpe, m.members)) (mergers_newest_first t);
    av_suppressed =
      prt_fold t (fun _ (p : Rtable.Prt.payload) -> if is_suppressed p then Some p.id else None)
      |> List.sort Message.compare_sub_id;
    av_covers = t.covers;
    av_required_targets = required_targets;
  }

(* The peer behind [ep] crashed and restarted empty-handed: forget
   everything learned from it, and everything sent to it. Routing state
   is rebuilt from the survivors (see [resync_for]), never resurrected
   from the dead process. Forwarded-target records pointing at [ep] are
   dropped first so the purge's upstream unsubscriptions skip [ep] and
   the resync pass re-sends what the fresh peer needs; then SRT entries
   learned from [ep] leave through the normal unadvertise flood and PRT
   entries through the unsubscribe path, which re-forwards the covered
   survivors they were shadowing and dissolves their mergers. *)
let neighbor_reset t ~ep =
  let drop = List.filter (fun e -> not (Rtable.endpoint_equal e ep)) in
  iter_stored t (fun node p -> set_targets t node p (drop p.targets));
  Rtable.Prt.Id_map.iter (fun _ m -> m.targets <- drop m.targets) t.mergers;
  let stale_advs = srt_ids_from t ep in
  let stale_subs = prt_ids_from t ep in
  Log.info (fun m ->
      m "broker %d: resetting %a (%d advs, %d subs purged)" t.id Rtable.pp_endpoint ep
        (List.length stale_advs) (List.length stale_subs));
  List.concat_map (fun id -> handle_unadvertise t ~from:ep id) stale_advs
  @ List.concat_map (fun id -> handle_unsubscribe t ~from:ep id) stale_subs

(* Re-send the state a freshly restarted [ep] needs from this side of
   the network: every surviving advertisement (under advertisement
   routing the re-advertisements make the far side re-forward its
   overlapping subscriptions, so subscriptions need no special casing),
   plus — under flooding, where no advertisement will trigger it —
   direct re-forwarding of stored subscriptions toward [ep]. Call after
   [neighbor_reset] so decisions use the purged tables. *)
let resync_for t ~ep =
  let adv_msgs =
    List.filter_map
      (fun (e : Rtable.Srt.entry) ->
        if Rtable.endpoint_equal e.hop ep then None
        else Some (ep, Message.Advertise { id = e.id; adv = e.adv }))
      (List.rev (Rtable.Srt.entries t.srt))
  in
  let sub_msgs =
    if t.strategy.use_adv then []
    else
      forward_stored t ~ep (fun xpe hop ->
          List.exists (Rtable.endpoint_equal ep) (sub_targets t ~from:hop xpe))
  in
  adv_msgs @ sub_msgs
