(* Scale-parameterized simulation scenarios: seeded workload shapes that
   drive the overlay simulator at anything from smoke scale to a million
   subscribers.

   The scale trick is laziness at both edges. Subscribers are *virtual*
   clients ([Net.alloc_cids] + [Net.subscribe_virtual]): no client
   record, ledger, or delivery table is ever materialized — the only
   per-client state is what the brokers themselves hold (their PRTs,
   which covering keeps compressed). Subscriptions are emitted by
   self-rescheduling generator events, [batch] clients at a time, so the
   event queue holds one batch of arrivals — never the full population.
   Deliveries come back through the network's edge sink and land in a
   chunked arena ledger (full rows at small scale, a running digest at
   large scale).

   Every scenario is bit-for-bit deterministic from its spec: the same
   spec and seed produce identical delivery ledgers, fault statistics
   and routing decisions across runs. [diff] checks that replay, and it
   is the standing gate that makes the million-client numbers
   trustworthy. *)

open Xroute_overlay
module Pool = Xroute_support.Pool
module Prng = Xroute_support.Prng
module Zipf = Xroute_support.Zipf
module Message = Xroute_core.Message
module Rtable = Xroute_core.Rtable
module Broker = Xroute_core.Broker

type kind =
  | Flash_crowd  (** burst arrival of subscribers on one hot DTD subtree *)
  | Diurnal  (** sinusoidally modulated publish rate over [rounds] cycles *)
  | Churn  (** mass unsubscribe/resubscribe waves after the initial load *)
  | Fanout  (** [channels] feeds, each client on one channel *)

let kind_to_string = function
  | Flash_crowd -> "flash"
  | Diurnal -> "diurnal"
  | Churn -> "churn"
  | Fanout -> "fanout"

let kind_of_string = function
  | "flash" | "flash-crowd" -> Some Flash_crowd
  | "diurnal" -> Some Diurnal
  | "churn" -> Some Churn
  | "fanout" -> Some Fanout
  | _ -> None

let all_kinds = [ Flash_crowd; Diurnal; Churn; Fanout ]

type spec = {
  kind : kind;
  clients : int;
  docs : int;
  levels : int; (* binary-tree topology levels *)
  xpes : int; (* distinct subscription pool size *)
  batch : int; (* subscribers emitted per generator event *)
  rounds : int; (* churn waves / diurnal cycles *)
  channels : int; (* fanout feeds *)
  seed : int;
  dtd : string;
  zipf : float option; (* pool-assignment skew override, None = per-kind *)
}

let default_spec =
  {
    kind = Flash_crowd;
    clients = 2_000;
    docs = 12;
    levels = 4;
    xpes = 128;
    batch = 512;
    rounds = 3;
    channels = 8;
    seed = 42;
    dtd = "nitf";
    zipf = None;
  }

let spec_to_string s =
  Printf.sprintf
    "kind=%s,clients=%d,docs=%d,levels=%d,xpes=%d,batch=%d,rounds=%d,channels=%d,seed=%d,dtd=%s%s"
    (kind_to_string s.kind) s.clients s.docs s.levels s.xpes s.batch s.rounds s.channels
    s.seed s.dtd
    (match s.zipf with None -> "" | Some z -> Printf.sprintf ",zipf=%g" z)

let spec_of_string s =
  let parse_field spec kv =
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "bad scenario field %S (want key=value)" kv)
    | Some i -> (
      let key = String.sub kv 0 i in
      let value = String.sub kv (i + 1) (String.length kv - i - 1) in
      let int_of ~min:lo () =
        match int_of_string_opt value with
        | Some n when n >= lo -> Ok n
        | _ -> Error (Printf.sprintf "bad count %S for %s" value key)
      in
      match key with
      | "kind" -> (
        match kind_of_string value with
        | Some k -> Ok { spec with kind = k }
        | None -> Error (Printf.sprintf "unknown scenario kind %S" value))
      | "clients" -> Result.map (fun n -> { spec with clients = n }) (int_of ~min:0 ())
      | "docs" -> Result.map (fun n -> { spec with docs = n }) (int_of ~min:0 ())
      | "levels" -> Result.map (fun n -> { spec with levels = n }) (int_of ~min:2 ())
      | "xpes" -> Result.map (fun n -> { spec with xpes = n }) (int_of ~min:1 ())
      | "batch" -> Result.map (fun n -> { spec with batch = n }) (int_of ~min:1 ())
      | "rounds" -> Result.map (fun n -> { spec with rounds = n }) (int_of ~min:1 ())
      | "channels" -> Result.map (fun n -> { spec with channels = n }) (int_of ~min:1 ())
      | "seed" -> Result.map (fun n -> { spec with seed = n }) (int_of ~min:0 ())
      | "dtd" ->
        if List.mem value Xroute_dtd.Dtd_samples.names then Ok { spec with dtd = value }
        else Error (Printf.sprintf "unknown dtd %S" value)
      | "zipf" -> (
        match float_of_string_opt value with
        | Some z when z >= 0.0 && z <= 16.0 ->
          Ok { spec with zipf = Some z }
        | _ -> Error (Printf.sprintf "bad zipf exponent %S (want 0 <= s <= 16)" value))
      | _ -> Error (Printf.sprintf "unknown scenario key %S" key))
  in
  List.fold_left
    (fun acc kv -> Result.bind acc (fun spec -> parse_field spec kv))
    (Ok default_spec)
    (List.filter (fun f -> f <> "") (String.split_on_char ',' s))

type ledger_mode = [ `Full | `Digest | `Auto ]

type outcome = {
  spec : spec;
  subs_sent : int;
  unsubs_sent : int;
  docs_published : int;
  deliveries : int; (* edge-sink rows (one per path-publication delivery) *)
  events : int; (* simulator events executed *)
  virtual_ms : float; (* final virtual clock *)
  ledger : Pool.Arena.t option; (* rows (cid, doc_id, time), [`Full] mode only *)
  ledger_digest : int64; (* always: Arena-compatible running digest *)
  decisions : string list; (* per-broker next-hop probe lines, when probed *)
  decision_digest : int64;
  fault_line : string; (* rendered fault_stats *)
  prt_total : int;
  srt_total : int;
  dropped_pubs : int;
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let string_digest h s = Pool.Arena.digest_row h (Hashtbl.hash s) (String.length s) 0.0

let fault_line (fs : Net.fault_stats) =
  Printf.sprintf
    "crashes=%d restarts=%d requeues=%d dups=%d destroyed=%d destroyed_pubs=%d \
     disconnects=%d reconnects=%d replayed=%d recoveries=%d"
    fs.Net.crashes fs.Net.restarts fs.Net.requeues fs.Net.dup_deliveries fs.Net.destroyed
    fs.Net.destroyed_pubs fs.Net.client_disconnects fs.Net.client_reconnects fs.Net.replayed
    (List.length fs.Net.recovery_times)

(* Per-broker next-hop decisions, read by replaying every path
   publication through [Broker.handle] from a phantom endpoint (the
   test_fault.ml convention): what must be identical across runs is
   where each publication goes. Mutates broker
   counters — call it after every other metric is collected. *)
let probe_decisions net docs =
  let pubs =
    List.concat (List.mapi (fun i doc -> Xroute_xml.Xml_paths.decompose ~doc_id:i doc) docs)
  in
  let phantom = Rtable.Client (-1) in
  Array.to_list (Net.brokers net)
  |> List.concat_map (fun b ->
         List.concat
           (List.mapi
              (fun j (pub : Xroute_xml.Xml_paths.publication) ->
                Broker.handle b ~from:phantom (Message.Publish { pub; trail = []; ctx = None })
                |> List.map (fun (ep, _) ->
                       Format.asprintf "b%d p%d -> %a" (Broker.id b) j Rtable.pp_endpoint ep)
                |> List.sort compare)
              pubs))

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

let run ?(ledger = `Auto) ?decisions ?fault_spec spec =
  let dtd =
    match Xroute_dtd.Dtd_samples.by_name spec.dtd with
    | Some d -> d
    | None -> invalid_arg (Printf.sprintf "Scenario.run: unknown dtd %S" spec.dtd)
  in
  let topo = Topology.binary_tree ~levels:spec.levels in
  let leaves = Array.of_list (Topology.binary_tree_leaves ~levels:spec.levels) in
  let nleaves = Array.length leaves in
  let config = { Net.default_config with Net.seed = spec.seed } in
  let net = Net.create ~config topo in
  let sim = Net.sim net in

  (* Delivery ledger: full rows at small scale, running digest always. *)
  let full =
    match ledger with `Full -> true | `Digest -> false | `Auto -> spec.clients <= 20_000
  in
  let arena = if full then Some (Pool.Arena.create ()) else None in
  let digest = ref Pool.Arena.digest_empty in
  let rows = ref 0 in
  Net.set_edge_sink net (fun cid doc_id time ->
      (match arena with Some a -> ignore (Pool.Arena.add a cid doc_id time) | None -> ());
      digest := Pool.Arena.digest_row !digest cid doc_id time;
      incr rows);

  (* Publishers are real (materialized) clients: one at the root broker,
     or one per channel spread over the leaves for [Fanout]. Each
     advertises the DTD's advertisement set so subscriptions route
     toward every feed. *)
  let npubs =
    match spec.kind with Fanout -> max 1 (min spec.channels nleaves) | _ -> 1
  in
  let publishers =
    Array.init npubs (fun i ->
        Net.add_client net ~broker:(if npubs = 1 then 0 else leaves.(i mod nleaves)))
  in
  let advs = Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build dtd) in
  Array.iter (fun p -> ignore (Net.advertise_dtd net p advs)) publishers;
  Net.run net;

  (* Subscription pool: [xpes] distinct expressions drawn once. The
     flash crowd concentrates DTD walks (high Zipf skew over child
     choices -> one subtree dominates) and assigns clients to pool
     entries with a steep Zipf, so the crowd piles onto a few hot
     expressions of one subtree. *)
  let params = Workload.set_a_params dtd in
  let params =
    match spec.kind with
    | Flash_crowd -> { params with Xpath_gen.skew = 1.5 }
    | _ -> params
  in
  let pool =
    Array.of_list (Workload.xpes ~params ~count:spec.xpes ~seed:(spec.seed + 101) ())
  in
  if Array.length pool = 0 then invalid_arg "Scenario.run: empty XPE pool";
  let assign_prng = Prng.create (spec.seed + 202) in
  let zipf =
    let exponent =
      match spec.zipf with
      | Some s -> s
      | None -> ( match spec.kind with Flash_crowd -> 1.1 | _ -> 0.6)
    in
    Zipf.create ~n:(Array.length pool) ~exponent
  in
  let pick i =
    match spec.kind with
    | Fanout ->
      (* Channel c = client mod channels; its sub-pool is every index
         congruent to c. *)
      let c = i mod spec.channels in
      let per = (Array.length pool + spec.channels - 1 - c + spec.channels) / spec.channels in
      let per = max 1 (min per ((Array.length pool - c + spec.channels - 1) / spec.channels)) in
      let j = c + (spec.channels * Prng.int assign_prng per) in
      pool.(min j (Array.length pool - 1))
    | _ -> pool.(Zipf.sample zipf assign_prng)
  in

  (* Virtual subscribers: an id block, no records. *)
  let cid0 = Net.alloc_cids net spec.clients in
  let subs_sent = ref 0 in
  let unsubs_sent = ref 0 in
  let seqs = match spec.kind with Churn -> Array.make (max spec.clients 1) 0 | _ -> [||] in
  let subscribe_client i =
    let xpe = pick i in
    let id = Net.subscribe_virtual net ~broker:leaves.(i mod nleaves) ~cid:(cid0 + i) xpe in
    if spec.kind = Churn then seqs.(i) <- id.Message.seq;
    incr subs_sent
  in

  (* Lazy batched emission: each generator event materializes [batch]
     arrivals, then re-schedules itself — the queue never holds the
     population. [gap] is the inter-batch virtual time. *)
  let emit_range ~gap ~start ~stop ~f () =
    let rec go i () =
      if i < stop then begin
        let upto = min (i + spec.batch) stop in
        for j = i to upto - 1 do
          f j
        done;
        if upto < stop then Sim.schedule sim ~delay:gap (go upto)
      end
    in
    go start ()
  in
  let gap = match spec.kind with Flash_crowd -> 0.25 | _ -> 1.0 in
  let nbatches = (max spec.clients 1 + spec.batch - 1) / spec.batch in
  let sub_start = 10.0 in
  let sub_end = sub_start +. (float_of_int nbatches *. gap) +. 50.0 in

  Sim.schedule sim ~delay:sub_start
    (emit_range ~gap ~start:0 ~stop:spec.clients ~f:subscribe_client);

  (* Publications, shaped per kind. *)
  let docs_published = ref 0 in
  let documents =
    Array.of_list (Workload.documents ~dtd ~count:spec.docs ~seed:(spec.seed + 303) ())
  in
  let publish_at ~publisher ~at doc_id =
    Sim.schedule sim ~delay:at (fun () ->
        incr docs_published;
        ignore (Net.publish_doc net publishers.(publisher) ~doc_id documents.(doc_id)))
  in
  let horizon_end = ref sub_end in
  (match spec.kind with
  | Flash_crowd ->
    (* Docs land while the crowd arrives: early ones see the thin
       pre-crowd population, late ones the full crowd. *)
    let span = sub_end +. 50.0 -. sub_start in
    for d = 0 to spec.docs - 1 do
      let at = sub_start +. ((float_of_int d +. 0.5) /. float_of_int (max spec.docs 1) *. span) in
      publish_at ~publisher:0 ~at d
    done;
    horizon_end := sub_start +. span
  | Diurnal ->
    (* Publish intervals modulated by a sinusoidal "day": dense at the
       peak, sparse in the trough, [rounds] cycles. *)
    let period = 500.0 in
    let start = sub_end in
    let base = float_of_int spec.rounds *. period /. float_of_int (max spec.docs 1) in
    let t = ref start in
    for d = 0 to spec.docs - 1 do
      publish_at ~publisher:0 ~at:!t d;
      let phase = (!t -. start) /. period in
      t := !t +. (base /. (1.0 +. (0.8 *. sin (2.0 *. Float.pi *. phase))))
    done;
    horizon_end := !t
  | Churn ->
    (* After the initial load, [rounds] waves: wave r drops the clients
       with [i mod rounds = r] (batched), then re-subscribes them half a
       round later with fresh picks. Docs land throughout, so deliveries
       see the population mid-churn. *)
    let churn_per_round = (spec.clients + spec.rounds - 1) / max spec.rounds 1 in
    let churn_batches = (max churn_per_round 1 + spec.batch - 1) / spec.batch in
    let round_len = Float.max 150.0 ((float_of_int churn_batches *. gap *. 2.0) +. 60.0) in
    for r = 0 to spec.rounds - 1 do
      let at = sub_end +. (float_of_int r *. round_len) in
      let in_wave i = i mod spec.rounds = r in
      Sim.schedule sim ~delay:at
        (emit_range ~gap ~start:0 ~stop:spec.clients ~f:(fun i ->
             if in_wave i then begin
               Net.unsubscribe_virtual net ~broker:leaves.(i mod nleaves)
                 { Message.origin = cid0 + i; seq = seqs.(i) };
               incr unsubs_sent
             end));
      Sim.schedule sim ~delay:(at +. (round_len /. 2.0))
        (emit_range ~gap ~start:0 ~stop:spec.clients ~f:(fun i ->
             if in_wave i then subscribe_client i))
    done;
    let churn_end = sub_end +. (float_of_int spec.rounds *. round_len) in
    for d = 0 to spec.docs - 1 do
      let at =
        sub_start
        +. ((float_of_int d +. 0.5) /. float_of_int (max spec.docs 1) *. (churn_end -. sub_start))
      in
      publish_at ~publisher:0 ~at d
    done;
    horizon_end := churn_end
  | Fanout ->
    (* Each channel's feed publishes its share of the docs, spread over
       a broadcast window after the population is in place. *)
    let span = 500.0 in
    for d = 0 to spec.docs - 1 do
      let c = d mod npubs in
      let at =
        sub_end +. ((float_of_int (d / npubs) +. 0.5) /. float_of_int (max 1 ((spec.docs + npubs - 1) / npubs)) *. span)
      in
      publish_at ~publisher:c ~at d
    done;
    horizon_end := sub_end +. span);

  (* Optional deterministic fault plan over the scenario horizon. *)
  (match fault_spec with
  | None -> ()
  | Some fspec ->
    let plan =
      Xroute_fault.Plan.generate ~seed:(spec.seed + 7000)
        ~brokers:(Topology.broker_count topo) ~edges:(Topology.edges topo)
        ~clients:(Array.to_list (Array.map (fun (c : Net.client) -> c.Net.cid) publishers))
        ~spec:fspec ()
    in
    Net.install_plan net plan);

  Net.run net;

  (* Collect before probing: the probe replays publications through the
     brokers and perturbs their counters. *)
  let prt_total = Net.total_prt_size net in
  let srt_total = Net.total_srt_size net in
  let dropped_pubs = Net.dropped_publications net in
  let fl = fault_line (Net.fault_stats net) in
  let events = Sim.executed sim in
  let virtual_ms = Sim.now sim in
  let do_decisions =
    match decisions with Some b -> b | None -> spec.clients <= 20_000
  in
  let decision_lines =
    if do_decisions then probe_decisions net (Array.to_list documents) else []
  in
  let decision_digest =
    Pool.Arena.digest_close
      (List.fold_left string_digest Pool.Arena.digest_empty decision_lines)
      (List.length decision_lines)
  in
  {
    spec;
    subs_sent = !subs_sent;
    unsubs_sent = !unsubs_sent;
    docs_published = !docs_published;
    deliveries = !rows;
    events;
    virtual_ms;
    ledger = arena;
    ledger_digest = Pool.Arena.digest_close !digest !rows;
    decisions = decision_lines;
    decision_digest;
    fault_line = fl;
    prt_total;
    srt_total;
    dropped_pubs;
  }

(* Full-row ledger equality (small scale): same rows, same order. *)
let equal_ledgers a b =
  match (a.ledger, b.ledger) with
  | Some la, Some lb ->
    Pool.Arena.length la = Pool.Arena.length lb
    && a.ledger_digest = b.ledger_digest
    &&
    let n = Pool.Arena.length la in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      ok :=
        Pool.Arena.get_a la !i = Pool.Arena.get_a lb !i
        && Pool.Arena.get_b la !i = Pool.Arena.get_b lb !i
        && Pool.Arena.get_time la !i = Pool.Arena.get_time lb !i;
      incr i
    done;
    !ok
  | None, None -> a.ledger_digest = b.ledger_digest && a.deliveries = b.deliveries
  | _ -> false

(* The replay check: two outcomes of the same spec must carry
   byte-identical ledgers (full rows when both kept them), identical
   decisions and fault accounting. Returns the discrepancies (empty =
   the outcomes agree). *)
let diff a b =
  let diffs = ref [] in
  let check name ok = if not ok then diffs := name :: !diffs in
  check "ledger" (equal_ledgers a b);
  check "deliveries" (a.deliveries = b.deliveries);
  check "subs" (a.subs_sent = b.subs_sent);
  check "unsubs" (a.unsubs_sent = b.unsubs_sent);
  check "decisions" (a.decisions = b.decisions && a.decision_digest = b.decision_digest);
  check "fault_stats" (a.fault_line = b.fault_line);
  check "events" (a.events = b.events);
  check "virtual_ms" (a.virtual_ms = b.virtual_ms);
  List.rev !diffs
