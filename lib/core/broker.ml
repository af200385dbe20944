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

type t = {
  id : int;
  strategy : strategy;
  covers : Xpe.t -> Xpe.t -> bool; (* the covering predicate in force *)
  neighbors : int list;
  srt : Rtable.Srt.t;
  prt : Rtable.Prt.t;
  (* where each subscription id was forwarded (undone on unsubscribe) *)
  mutable forwarded : Rtable.endpoint list Rtable.Prt.Id_map.t;
  (* per-node index over [forwarded]: for each PRT node (keyed by its
     [Sub_tree.node_id]; equal XPEs share one node), the subscription
     ids stored there whose forwarded-target set is non-empty. Lets
     [served_endpoints] consult a coverer node without scanning its
     payload list, which is one entry per subscriber on a popular XPE. *)
  fwd_active : (int, Message.sub_id list) Hashtbl.t;
  (* merge bookkeeping: each live merger's XPE by merger id, and each
     member (a stored subscription the merger replaced upstream) to its
     merger. Membership is stored only here; a merger dissolves when any
     member leaves, so both maps are bounded by live subscriptions. *)
  mutable mergers : Xpe.t Rtable.Prt.Id_map.t;
  mutable member_of : Message.sub_id Rtable.Prt.Id_map.t;
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
    forwarded = Rtable.Prt.Id_map.empty;
    fwd_active = Hashtbl.create 64;
    mergers = Rtable.Prt.Id_map.empty;
    member_of = Rtable.Prt.Id_map.empty;
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
  M.set_int m.m_forwarded (Rtable.Prt.Id_map.cardinal t.forwarded);
  M.set_int m.m_mergers_active (Rtable.Prt.Id_map.cardinal t.mergers);
  M.set_int m.m_suppressed (Rtable.Prt.Id_map.cardinal t.member_of)

let corrupt_nfa_for_test t = Rtable.Prt.corrupt_nfa t.prt

let neighbor_endpoints ?(except = []) t =
  List.filter_map
    (fun n ->
      let ep = Rtable.Neighbor n in
      if List.exists (Rtable.endpoint_equal ep) except then None else Some ep)
    t.neighbors

let is_neighbor_ep = function Rtable.Neighbor _ -> true | Rtable.Client _ -> false

(* [fwd_active] maintenance. The invariant: a tree payload's id is in
   its node's bucket iff its forwarded-target set is non-empty. Merger
   ids never enter (they have no tree node; [served_endpoints] folds
   over [t.mergers] directly). Buckets hold the few actual forwarders of a
   node — typically one — so the list operations here are O(1). *)
let fwd_active_add t node id =
  let key = Sub_tree.node_id node in
  let ids = Option.value ~default:[] (Hashtbl.find_opt t.fwd_active key) in
  if not (List.exists (fun i -> Message.compare_sub_id i id = 0) ids) then
    Hashtbl.replace t.fwd_active key (id :: ids)

let fwd_active_remove t node id =
  let key = Sub_tree.node_id node in
  match Hashtbl.find_opt t.fwd_active key with
  | None -> ()
  | Some ids -> (
    match List.filter (fun i -> Message.compare_sub_id i id <> 0) ids with
    | [] -> Hashtbl.remove t.fwd_active key
    | kept -> Hashtbl.replace t.fwd_active key kept)

(* Re-sync one id's index entry from the forwarded map; for ids with no
   tree node (mergers, already-removed subscriptions) this is a no-op. *)
let fwd_active_sync t sub_id =
  match Rtable.Prt.find t.prt sub_id with
  | None -> ()
  | Some (node, _) -> (
    match Rtable.Prt.Id_map.find_opt sub_id t.forwarded with
    | Some (_ :: _) -> fwd_active_add t node sub_id
    | Some [] | None -> fwd_active_remove t node sub_id)

let record_forwarded t sub_id targets =
  let existing =
    Option.value ~default:[] (Rtable.Prt.Id_map.find_opt sub_id t.forwarded)
  in
  let added =
    List.filter
      (fun ep -> not (List.exists (Rtable.endpoint_equal ep) existing))
      targets
  in
  t.forwarded <- Rtable.Prt.Id_map.add sub_id (added @ existing) t.forwarded;
  if added <> [] || existing <> [] then fwd_active_sync t sub_id;
  added

let forwarded_targets t sub_id =
  Option.value ~default:[] (Rtable.Prt.Id_map.find_opt sub_id t.forwarded)

let is_suppressed t id = Rtable.Prt.Id_map.mem id t.member_of

(* Live mergers as (id, XPE), newest first: merger ids share one origin
   and count up, so the map's ascending order is creation order. *)
let mergers_newest_first t =
  Rtable.Prt.Id_map.fold (fun id xpe acc -> (id, xpe) :: acc) t.mergers []

(* Every stored subscription as (id, XPE, last hop), parents before
   children: the tree's iteration order. *)
let iter_stored t f =
  Sub_tree.iter
    (fun node ->
      let xpe = Sub_tree.node_xpe node in
      List.iter (fun (p : Rtable.Prt.payload) -> f p.id xpe p.hop) (Sub_tree.node_payloads node))
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
          | Some ids ->
            List.concat_map
              (fun id ->
                if Message.compare_sub_id id self_id = 0 then []
                else forwarded_targets t id)
              ids)
        (Sub_tree.coverers (Rtable.Prt.tree t.prt) xpe)
    in
    let from_mergers =
      Rtable.Prt.Id_map.fold
        (fun id mx acc -> if t.covers mx xpe then forwarded_targets t id @ acc else acc)
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
  let visit sub_id xpe hop =
    if
      (not (is_suppressed t sub_id))
      && (not (Rtable.endpoint_equal hop ep))
      && (not (List.exists (Rtable.endpoint_equal ep) (forwarded_targets t sub_id)))
      && admit xpe hop
      && not (List.exists (Rtable.endpoint_equal ep) (served_endpoints t ~self_id:sub_id xpe))
    then begin
      ignore (record_forwarded t sub_id [ ep ]);
      msgs := (ep, Message.Subscribe { id = sub_id; xpe }) :: !msgs
    end
  in
  iter_stored t visit;
  List.iter (fun (id, xpe) -> visit id xpe (Rtable.Neighbor t.id)) (mergers_newest_first t);
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
    ignore (Rtable.Prt.insert t.prt id xpe from);
    let fresh = record_forwarded t id needed in
    let sub_msgs = List.map (fun ep -> (ep, Message.Subscribe { id; xpe })) fresh in
    (* Unsubscribe displaced subscriptions, but only at next hops now
       served by this subscription (elsewhere they must keep drawing
       publications for their own subscribers). *)
    let mine = forwarded_targets t id in
    let unsub_msgs =
      List.concat_map
        (fun (node, (p : Rtable.Prt.payload)) ->
          if is_suppressed t p.id then []
          else begin
            let where = forwarded_targets t p.id in
            let redundant, kept =
              List.partition (fun ep -> List.exists (Rtable.endpoint_equal ep) mine) where
            in
            t.forwarded <- Rtable.Prt.Id_map.add p.id kept t.forwarded;
            if kept = [] then fwd_active_remove t node p.id;
            List.map (fun ep -> (ep, Message.Unsubscribe { id = p.id })) redundant
          end)
        displaced
    in
    sub_msgs @ unsub_msgs
  end

(* Forward one stored subscription wherever it must go and is now
   unserved. *)
let reforward t sub_id xpe hop =
  if is_suppressed t sub_id then []
  else begin
    let targets = sub_targets t ~from:hop xpe in
    let needed = unserved_targets t ~self_id:sub_id xpe targets in
    let fresh = record_forwarded t sub_id needed in
    List.map (fun ep -> (ep, Message.Subscribe { id = sub_id; xpe })) fresh
  end

(* Withdraw a departed subscription or a dissolved merger [id] with XPE
   [xpe]: unsubscribe it wherever it was forwarded, then re-forward what
   may have relied on that forwarding, wherever it is no longer served.
   That is [members] first — a dissolved merger's surviving members,
   named by id because the syntactic covering test need not see them
   under the merger — then every subscription [xpe] covered: its former
   children, equal subscriptions sharing its node, and covered
   subscriptions in other subtrees (the relations the paper's super
   pointers record; [Sub_tree.covered_nodes] finds them by searching the
   tree). The covered ones need a look only when [id] was forwarded at
   all. *)
let withdraw t id xpe ~members =
  let where = forwarded_targets t id in
  t.forwarded <- Rtable.Prt.Id_map.remove id t.forwarded;
  let upstream = List.map (fun ep -> (ep, Message.Unsubscribe { id })) where in
  let from_members =
    List.concat_map
      (fun m ->
        match Rtable.Prt.find t.prt m with
        | Some (node, p) -> reforward t m (Sub_tree.node_xpe node) p.hop
        | None -> [])
      members
  in
  let from_covered =
    if (not t.strategy.use_cover) || where = [] then []
    else
      List.concat_map
        (fun n ->
          let nx = Sub_tree.node_xpe n in
          List.concat_map
            (fun (p : Rtable.Prt.payload) -> reforward t p.id nx p.hop)
            (Sub_tree.node_payloads n))
        (Sub_tree.covered_nodes (Rtable.Prt.tree t.prt) xpe)
  in
  upstream @ from_members @ from_covered

(* [id] has left the PRT. If it was a merger's member, the merger
   dissolves: its record and every membership go, and it is withdrawn
   with its surviving members re-forwarded ([withdraw] skips [id], no
   longer stored). Its SRT memo entry goes too, unless a stored
   subscription still looks that XPE up. *)
let dissolve_merger_of t id =
  match Rtable.Prt.Id_map.find_opt id t.member_of with
  | None -> []
  | Some mid ->
    let mxpe = Rtable.Prt.Id_map.find mid t.mergers in
    t.mergers <- Rtable.Prt.Id_map.remove mid t.mergers;
    let members, kept =
      Rtable.Prt.Id_map.partition (fun _ m -> Message.compare_sub_id m mid = 0) t.member_of
    in
    t.member_of <- kept;
    if Sub_tree.find_equal (Rtable.Prt.tree t.prt) mxpe = None then
      Rtable.Srt.forget t.srt mxpe;
    withdraw t mid mxpe ~members:(List.map fst (Rtable.Prt.Id_map.bindings members))

let handle_unsubscribe t ~from id =
  M.incr t.meters.m_unsubs_in;
  ignore from;
  match Rtable.Prt.remove t.prt id with
  | None -> []
  | Some (_payload, node) ->
    let xpe = Sub_tree.node_xpe node in
    (* The node went with its last payload: no live subscription looks
       this XPE up any more, so its SRT memo entry goes too. *)
    if Sub_tree.node_payloads node = [] then Rtable.Srt.forget t.srt xpe;
    fwd_active_remove t node id;
    let own = withdraw t id xpe ~members:[] in
    own @ dissolve_merger_of t id

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
                 if is_suppressed t p.id then None
                 else if forwarded_targets t p.id = [] then None
                 else Some (Sub_tree.node_xpe node, p.id))
               (Sub_tree.node_payloads node))
    in
    let xpes = List.sort_uniq Xpe.compare (List.map fst population) in
    let applied, _kept = Merge.merge_set ~max_degree ~universe:t.universe xpes in
    List.concat_map
      (fun (m : Merge.merger) ->
        let member_ids =
          List.filter_map
            (fun (xpe, sub_id) ->
              if List.exists (Xpe.equal xpe) m.originals then Some sub_id else None)
            population
        in
        if List.length member_ids < 2 then []
        else begin
          t.merge_seq <- t.merge_seq + 1;
          let merger_id = { Message.origin = (t.id * 1_000_000) + 999_000; seq = t.merge_seq } in
          t.mergers <- Rtable.Prt.Id_map.add merger_id m.xpe t.mergers;
          M.incr t.meters.m_mergers_applied;
          List.iter
            (fun id -> t.member_of <- Rtable.Prt.Id_map.add id merger_id t.member_of)
            member_ids;
          (* Subscribe the merger along its own (unserved) targets. *)
          let targets = sub_targets t ~from:(Rtable.Neighbor t.id) m.xpe in
          let targets = unserved_targets t ~self_id:merger_id m.xpe targets in
          let fresh = record_forwarded t merger_id targets in
          let sub_msgs =
            List.map (fun ep -> (ep, Message.Subscribe { id = merger_id; xpe = m.xpe })) fresh
          in
          (* Unsubscribe the originals wherever they had been forwarded. *)
          let unsub_msgs =
            List.concat_map
              (fun sub_id ->
                let where = forwarded_targets t sub_id in
                t.forwarded <- Rtable.Prt.Id_map.remove sub_id t.forwarded;
                fwd_active_sync t sub_id;
                List.map (fun ep -> (ep, Message.Unsubscribe { id = sub_id })) where)
              member_ids
          in
          sub_msgs @ unsub_msgs
        end)
      applied

(* Forwarded routing table size: what this broker's upstream neighbors
   store because of it — the paper's compaction metric counts the local
   table instead, which [prt_size] reports. *)
let forwarded_count t = Rtable.Prt.Id_map.cardinal t.forwarded

(* ------------------------------------------------------------------ *)
(* Crash recovery (fault injection)                                    *)
(* ------------------------------------------------------------------ *)

let srt_ids_from t ep = Rtable.Srt.ids_from t.srt ep
let srt_ids t = List.map (fun (e : Rtable.Srt.entry) -> e.id) (Rtable.Srt.entries t.srt)

let prt_fold t f =
  let acc = ref [] in
  iter_stored t (fun id xpe hop -> match f id xpe hop with Some x -> acc := x :: !acc | None -> ());
  List.rev !acc

let prt_ids t = prt_fold t (fun id _ _ -> Some id)

let prt_ids_from t ep =
  prt_fold t (fun id _ hop -> if Rtable.endpoint_equal hop ep then Some id else None)

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
    av_subs = prt_fold t (fun id xpe hop -> Some (id, xpe, hop));
    av_forwarded = Rtable.Prt.Id_map.bindings t.forwarded;
    av_mergers =
      List.map
        (fun (mid, mx) ->
          let members =
            Rtable.Prt.Id_map.fold
              (fun m owner acc -> if Message.compare_sub_id owner mid = 0 then m :: acc else acc)
              t.member_of []
          in
          (mid, mx, List.rev members))
        (mergers_newest_first t);
    av_suppressed = List.map fst (Rtable.Prt.Id_map.bindings t.member_of);
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
  let emptied = ref [] in
  t.forwarded <-
    Rtable.Prt.Id_map.filter_map
      (fun id targets ->
        match List.filter (fun e -> not (Rtable.endpoint_equal e ep)) targets with
        | [] ->
          emptied := id :: !emptied;
          None
        | kept -> Some kept)
      t.forwarded;
  List.iter (fun id -> fwd_active_sync t id) !emptied;
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
