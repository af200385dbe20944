(* Observability audit (see obs.mli).

   The first two sections are pure: seeded distributions through the
   sketch against exact order statistics, and the algebraic laws the
   federation protocol leans on. The third drives a real 3-broker line
   overlay (the sim twin of the daemon deployment) so the counter
   monotonicity, gauge sanity, span/metric cross-consistency and
   federation checks all run against telemetry produced by the actual
   routing path, not synthetic fixtures. *)

open Xroute_support
module Sketch = Xroute_obs.Sketch
module Health = Xroute_obs.Health
module M = Xroute_obs.Metrics
module Timeseries = Xroute_obs.Timeseries
module Span = Xroute_obs.Span
module Net = Xroute_overlay.Net
module Sim = Xroute_overlay.Sim
module Topology = Xroute_overlay.Topology

let err code subject witness =
  Finding.make ~severity:Finding.Error ~family:"obs" ~code ~subject ~witness

(* ------------------------------------------------------------------ *)
(* Sketch accuracy: estimates vs exact order statistics                 *)
(* ------------------------------------------------------------------ *)

let quantile_points = [ 0.5; 0.9; 0.95; 0.99; 0.999 ]

(* Seeded distributions spanning the shapes the sketches actually see:
   flat (egress backlog), heavy-tailed (hop latency under bursts), ranked
   (Zipf subscription popularity), and a bimodal latency mixture. All
   strictly positive, so relative error is well-defined. *)
let distributions ~samples ~seed =
  let prng = Prng.create seed in
  let zipf = Zipf.create ~n:1000 ~exponent:1.1 in
  let gen name f = (name, Array.init samples (fun _ -> f ())) in
  [
    gen "uniform" (fun () -> 1.0 +. Prng.float prng 1000.0);
    gen "exponential" (fun () -> -50.0 *. log (1.0 -. Prng.unit_float prng));
    gen "zipf" (fun () -> float_of_int (1 + Zipf.sample zipf prng));
    gen "latency-mix" (fun () ->
        if Prng.bernoulli prng 0.05 then 100.0 +. Prng.float prng 900.0
        else 0.5 +. Prng.float prng 4.5);
  ]

let sketch_accuracy ~samples ~seed =
  let findings = ref [] in
  let max_err = ref 0.0 in
  let dists = distributions ~samples ~seed in
  List.iter
    (fun (name, xs) ->
      let sk = Sketch.create () in
      Array.iter (fun v -> Sketch.observe sk v) xs;
      List.iter
        (fun q ->
          let exact = Stats.percentile xs q in
          let est = Sketch.quantile sk q in
          let rel = abs_float (est -. exact) /. abs_float exact in
          if rel > !max_err then max_err := rel;
          if rel > Sketch.alpha sk +. 1e-9 then
            findings :=
              err "obs-sketch-error"
                (Printf.sprintf "sketch quantile outside the advertised bound on %s" name)
                (Printf.sprintf "q=%g: sketch %g vs exact %g (rel %.5f > alpha %.5f)" q est
                   exact rel (Sketch.alpha sk))
              :: !findings)
        quantile_points)
    dists;
  (List.rev !findings, !max_err, List.length dists)

(* ------------------------------------------------------------------ *)
(* Merge algebra: the laws federation relies on                         *)
(* ------------------------------------------------------------------ *)

let merge_properties ~seed =
  let findings = ref [] in
  let prng = Prng.create ((seed * 31) + 17) in
  let chunk () =
    let s = Sketch.create () in
    for _ = 1 to 2000 do
      Sketch.observe s (0.1 +. Prng.float prng 500.0)
    done;
    s
  in
  let a = chunk () and b = chunk () and c = chunk () in
  if not (Sketch.equal (Sketch.merge a b) (Sketch.merge b a)) then
    findings :=
      err "obs-merge-noncommutative" "sketch merge is order-sensitive"
        (Printf.sprintf "encode(a+b) <> encode(b+a) for two %d-sample chunks" 2000)
      :: !findings;
  let left = Sketch.merge (Sketch.merge a b) c in
  let right = Sketch.merge a (Sketch.merge b c) in
  if Sketch.count left <> Sketch.count right then
    findings :=
      err "obs-merge-nonassociative" "sketch merge loses observations under regrouping"
        (Printf.sprintf "count (a+b)+c = %d, a+(b+c) = %d" (Sketch.count left)
           (Sketch.count right))
      :: !findings;
  List.iter
    (fun q ->
      let l = Sketch.quantile left q and r = Sketch.quantile right q in
      if l <> r then
        findings :=
          err "obs-merge-nonassociative" "sketch quantiles depend on merge grouping"
            (Printf.sprintf "q=%g: (a+b)+c says %g, a+(b+c) says %g" q l r)
          :: !findings)
    quantile_points;
  (match Sketch.decode (Sketch.encode left) with
  | Some s when Sketch.equal s left -> ()
  | Some _ ->
    findings :=
      err "obs-codec-roundtrip" "sketch decode(encode) is not the identity"
        (Sketch.encode left)
      :: !findings
  | None ->
    findings :=
      err "obs-codec-roundtrip" "sketch encoding does not decode" (Sketch.encode left)
      :: !findings);
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Overlay harness: a 3-broker line under a book-DTD workload           *)
(* ------------------------------------------------------------------ *)

type harness = {
  net : Net.t;
  spans : Span.t;
  ts_samples : Timeseries.sample list;  (** one per publish round, plus a baseline *)
}

let overlay_harness ~seed =
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.book in
  let spans = Span.create ~capacity:65536 () in
  let topo = Topology.line 3 in
  let net = Net.create ~config:{ Net.default_config with Net.seed } ~spans topo in
  let publisher = Net.add_client net ~broker:0 in
  let edge = List.map (fun b -> Net.add_client net ~broker:b) [ 1; 2 ] in
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  ignore (Net.advertise_dtd net publisher (Xroute_dtd.Dtd_paths.advertisements graph));
  Net.run net;
  let params = Xroute_workload.Workload.set_b_params dtd in
  let xpes = Xroute_workload.Workload.xpes ~params ~count:24 ~seed () in
  List.iteri
    (fun i x -> ignore (Net.subscribe net (List.nth edge (i mod 2)) x))
    xpes;
  Net.run net;
  let ts = Timeseries.create (Net.metrics net) in
  Timeseries.snapshot ts ~at:(Sim.now (Net.sim net));
  let docs = Xroute_workload.Workload.documents ~dtd ~count:9 ~seed () in
  List.iteri
    (fun i doc ->
      ignore (Net.publish_doc net publisher ~doc_id:(i + 1) doc);
      (* One snapshot per 3-document round, so monotonicity has several
         consecutive deltas to look at. *)
      if (i + 1) mod 3 = 0 then begin
        Net.run net;
        Timeseries.snapshot ts ~at:(Sim.now (Net.sim net))
      end)
    docs;
  Net.run net;
  Net.refresh_metrics net;
  { net; spans; ts_samples = Timeseries.to_list ts }

(* The --inject-obs-drift plant: roll one counter of the final snapshot
   back to zero, the signature of a silently restarted (or wrongly
   re-registered) metric source. The monotonicity check must catch it. *)
let plant_drift samples =
  match List.rev samples with
  | [] -> samples
  | last :: earlier ->
    let values =
      List.map
        (fun (name, v) ->
          if name = "xroute_net_msgs_pub_total" then (name, 0.0) else (name, v))
        last.Timeseries.values
    in
    List.rev ({ last with Timeseries.values } :: earlier)

let check_monotonic samples =
  let findings = ref [] in
  let counters = ref 0 in
  let rec walk = function
    | ({ Timeseries.values = prev; at = t0 } : Timeseries.sample)
      :: ({ Timeseries.values = next; at = t1 } as s)
      :: rest ->
      List.iter
        (fun (name, v1) ->
          let is_counter =
            String.length name > 6
            && String.sub name (String.length name - 6) 6 = "_total"
          in
          if is_counter then begin
            incr counters;
            match List.assoc_opt name prev with
            | Some v0 when v1 < v0 ->
              findings :=
                err "obs-counter-regression"
                  (Printf.sprintf "counter %s moved backwards" name)
                  (Printf.sprintf "%g at t=%g, then %g at t=%g" v0 t0 v1 t1)
                :: !findings
            | _ -> ()
          end)
        next;
      walk (s :: rest)
    | _ -> ()
  in
  walk samples;
  (List.rev !findings, !counters)

(* [xroute_net_msgs_total] is a counter of its own, not a sum taken at
   read time, so at every snapshot it must equal the sum of the five
   per-kind counters. *)
let check_traffic_sum samples =
  let kinds = [ "adv"; "unadv"; "sub"; "unsub"; "pub" ] in
  List.filter_map
    (fun ({ Timeseries.values; at } : Timeseries.sample) ->
      let get name = Option.value ~default:0.0 (List.assoc_opt name values) in
      let total = get "xroute_net_msgs_total" in
      let by_kind =
        List.fold_left
          (fun acc k -> acc +. get (Printf.sprintf "xroute_net_msgs_%s_total" k))
          0.0 kinds
      in
      if total = by_kind then None
      else
        Some
          (err "obs-traffic-sum" "the message total is not the sum of the per-kind counters"
             (Printf.sprintf "xroute_net_msgs_total=%g, per-kind sum=%g at t=%g" total by_kind
                at)))
    samples

let check_gauges registry =
  let findings = ref [] in
  let gauges = ref 0 in
  List.iter
    (fun (name, _, metric) ->
      match metric with
      | M.Gauge g ->
        incr gauges;
        let v = M.gauge_value g in
        if not (Float.is_finite v) then
          findings :=
            err "obs-gauge-nonfinite" (Printf.sprintf "gauge %s is not finite" name)
              (Printf.sprintf "value %h" v)
            :: !findings
      | M.Counter c ->
        if M.value c < 0 then
          findings :=
            err "obs-counter-regression" (Printf.sprintf "counter %s is negative" name)
              (Printf.sprintf "value %d" (M.value c))
            :: !findings
      | M.Histogram h ->
        let s = M.summary h in
        if s.Stats.count > 0 && not (Float.is_finite s.Stats.p99) then
          findings :=
            err "obs-gauge-nonfinite"
              (Printf.sprintf "histogram %s has a non-finite quantile" name)
              (Printf.sprintf "p99 %h over %d observations" s.Stats.p99 s.Stats.count)
            :: !findings)
    (M.metrics registry);
  (List.rev !findings, !gauges)

(* Three independent observers of the same events — the Publish-message
   counter, the per-visit hop spans, and the federated health pub
   counts — must agree exactly. *)
let check_cross_consistency h =
  let findings = ref [] in
  let pub_msgs =
    match M.scalar (Net.metrics h.net) "xroute_net_msgs_pub_total" with
    | Some v -> int_of_float v
    | None -> -1
  in
  let hop_spans =
    List.length (List.filter (fun s -> s.Span.name = "hop") (Span.to_list h.spans))
  in
  let view = Net.fedstats h.net ~root:0 () in
  let health_pubs = List.fold_left (fun acc (_, s) -> acc + Health.pubs s) 0 view in
  if pub_msgs <= 0 then
    findings :=
      err "obs-empty-harness" "the overlay harness produced no publish traffic"
        (Printf.sprintf "xroute_net_msgs_pub_total = %d" pub_msgs)
      :: !findings
  else if Span.length h.spans > Span.capacity h.spans then
    findings :=
      err "obs-empty-harness" "span ring overflowed; hop counts are incomparable"
        (Printf.sprintf "%d spans started, capacity %d" (Span.length h.spans)
           (Span.capacity h.spans))
      :: !findings
  else if hop_spans <> pub_msgs || health_pubs <> pub_msgs then
    findings :=
      err "obs-span-metric-mismatch"
        "publish counter, hop spans and health pub counts disagree"
        (Printf.sprintf "xroute_net_msgs_pub_total=%d, hop spans=%d, health pubs=%d"
           pub_msgs hop_spans health_pubs)
      :: !findings;
  (List.rev !findings, pub_msgs, hop_spans)

let check_federation h =
  let findings = ref [] in
  let brokers = Topology.broker_count (Net.topology h.net) in
  let full = Net.fedstats h.net ~root:0 () in
  let direct =
    Health.view_of (List.init brokers (fun b -> Net.health h.net b))
  in
  let merge_diffs =
    List.fold_left
      (fun acc (origin, s) ->
        match List.assoc_opt origin full with
        | Some s' when String.equal (Health.encode_summary s) (Health.encode_summary s')
          ->
          acc
        | _ -> acc + 1)
      (abs (List.length full - List.length direct))
      direct
  in
  if merge_diffs <> 0 then
    findings :=
      err "obs-fed-divergence"
        "the federated view differs from the union of per-broker summaries"
        (Printf.sprintf "%d per-origin diffs over %d brokers" merge_diffs brokers)
      :: !findings;
  if not (Health.view_equal (Health.merge_views full full) full) then
    findings :=
      err "obs-fed-idempotence" "merging the overlay view with itself changed it"
        (String.concat " / " (Health.encode_view full))
      :: !findings;
  List.iter
    (fun (ttl, want) ->
      let got = List.length (Net.fedstats h.net ~root:0 ~ttl ()) in
      if got <> want then
        findings :=
          err "obs-fed-divergence"
            (Printf.sprintf "ttl=%d pull returned the wrong origin set" ttl)
            (Printf.sprintf "%d origins, expected %d on a %d-broker line" got want brokers)
          :: !findings)
    [ (0, 1); (1, 2); (brokers - 1, brokers) ];
  (List.rev !findings, List.length full, merge_diffs)

(* ------------------------------------------------------------------ *)
(* The audit                                                            *)
(* ------------------------------------------------------------------ *)

let audit ?(seed = 1) ?(samples = 4000) ?(inject = false) () =
  let acc_findings, max_rel_err, dist_count = sketch_accuracy ~samples ~seed in
  let law_findings = merge_properties ~seed in
  let h = overlay_harness ~seed in
  let ts_samples = if inject then plant_drift h.ts_samples else h.ts_samples in
  let mono_findings, counters = check_monotonic ts_samples in
  let sum_findings = check_traffic_sum ts_samples in
  let gauge_findings, gauges = check_gauges (Net.aggregate_metrics h.net) in
  let cross_findings, pub_msgs, hop_spans = check_cross_consistency h in
  let fed_findings, fed_origins, merge_diffs = check_federation h in
  let f = float_of_int in
  Finding.report
    ~stats:
      [
        ("obs_sketch_distributions", f dist_count);
        ("obs_sketch_samples", f samples);
        ("obs_sketch_max_rel_error", max_rel_err);
        ("obs_sketch_alpha", Sketch.default_alpha);
        ("obs_snapshots", f (List.length ts_samples));
        ("obs_counters_checked", f counters);
        ("obs_gauges_checked", f gauges);
        ("obs_pub_msgs", f pub_msgs);
        ("obs_hop_spans", f hop_spans);
        ("obs_fed_origins", f fed_origins);
        ("obs_fed_merge_diffs", f merge_diffs);
      ]
    (acc_findings @ law_findings @ mono_findings @ sum_findings @ gauge_findings
   @ cross_findings @ fed_findings)
