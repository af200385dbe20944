(* Tests for the observability library: metrics registry semantics,
   causal spans, and golden tests for both exposition formats. *)

open Xroute_obs

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.float 1e-9
let cs = Alcotest.string

(* ---------------- counters ---------------- *)

let test_counter_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "xroute_test_events_total" in
  check ci "starts at zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 5;
  check ci "incr and add accumulate" 7 (Metrics.value c)

let test_counter_monotonic () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "xroute_test_events_total" in
  Metrics.add c 3;
  check cb "negative add raises" true
    (try
       Metrics.add c (-1);
       false
     with Invalid_argument _ -> true);
  check ci "value unchanged after rejected add" 3 (Metrics.value c);
  (* mirror semantics: external cumulative sources only move forward *)
  Metrics.counter_set c 10;
  check ci "counter_set advances" 10 (Metrics.value c);
  Metrics.counter_set c 4;
  check ci "counter_set never regresses" 10 (Metrics.value c)

let test_registration_idempotent () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg "xroute_test_events_total" in
  Metrics.incr a;
  let b = Metrics.counter reg "xroute_test_events_total" in
  Metrics.incr b;
  check ci "same handle" 2 (Metrics.value a);
  check ci "one registration" 1 (List.length (Metrics.metrics reg));
  check cb "type conflict raises" true
    (try
       ignore (Metrics.gauge reg "xroute_test_events_total");
       false
     with Invalid_argument _ -> true)

(* ---------------- gauges ---------------- *)

let test_gauge () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "xroute_test_depth" in
  check cf "starts at zero" 0.0 (Metrics.gauge_value g);
  Metrics.set g 2.5;
  check cf "set" 2.5 (Metrics.gauge_value g);
  Metrics.set_int g 7;
  check cf "set_int" 7.0 (Metrics.gauge_value g);
  Metrics.set_int g 3;
  check cf "gauges may go down" 3.0 (Metrics.gauge_value g)

(* ---------------- histograms ---------------- *)

let test_histogram_summary_matches_stats () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "xroute_test_latency_ms" in
  let prng = Xroute_support.Prng.create 99 in
  let values = Array.init 500 (fun _ -> Xroute_support.Prng.float prng 100.0) in
  Array.iter (Metrics.observe h) values;
  let expect = Xroute_support.Stats.summarize values in
  let got = Metrics.summary h in
  check ci "count" expect.count got.count;
  check cf "mean" expect.mean got.mean;
  check cf "p50" expect.p50 got.p50;
  check cf "p95" expect.p95 got.p95;
  check cf "p99" expect.p99 got.p99;
  check cf "sum matches" (Array.fold_left ( +. ) 0.0 values) (Metrics.sum h)

let test_histogram_cap () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~cap:10 "xroute_test_latency_ms" in
  for i = 1 to 25 do
    Metrics.observe h (float_of_int i)
  done;
  check ci "retains at most cap samples" 10 (Array.length (Metrics.samples h));
  check ci "total counts past the cap" 25 (Metrics.observations h);
  check cf "sum counts past the cap" 325.0 (Metrics.sum h)

(* Interleaved updates from simulator callbacks: events scheduled out of
   order must still produce a consistent registry. *)
let test_interleaved_sim_updates () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "xroute_test_events_total" in
  let h = Metrics.histogram reg "xroute_test_latency_ms" in
  let sim = Xroute_overlay.Sim.create () in
  (* schedule in shuffled order; the sim executes by virtual time *)
  List.iter
    (fun delay ->
      Xroute_overlay.Sim.schedule sim ~delay (fun () ->
          Metrics.incr c;
          Metrics.observe h (Xroute_overlay.Sim.now sim)))
    [ 5.0; 1.0; 9.0; 3.0; 7.0; 2.0; 8.0; 4.0; 10.0; 6.0 ];
  Xroute_overlay.Sim.run sim;
  check ci "every callback counted" 10 (Metrics.value c);
  check ci "every callback observed" 10 (Metrics.observations h);
  check cf "sum of virtual times" 55.0 (Metrics.sum h);
  let s = Metrics.summary h in
  check cf "min is earliest event" 1.0 s.min;
  check cf "max is latest event" 10.0 s.max

(* ---------------- lookup and aggregation ---------------- *)

let test_scalar_and_find () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "xroute_test_events_total" in
  let g = Metrics.gauge reg "xroute_test_depth" in
  let h = Metrics.histogram reg "xroute_test_latency_ms" in
  Metrics.add c 4;
  Metrics.set g 1.5;
  Metrics.observe h 3.0;
  Metrics.observe h 9.0;
  check cb "counter scalar" true (Metrics.scalar reg "xroute_test_events_total" = Some 4.0);
  check cb "gauge scalar" true (Metrics.scalar reg "xroute_test_depth" = Some 1.5);
  check cb "histogram scalar is count" true
    (Metrics.scalar reg "xroute_test_latency_ms" = Some 2.0);
  check cb "missing scalar" true (Metrics.scalar reg "nope" = None);
  check cb "find missing" true (Metrics.find reg "nope" = None)

let test_aggregate () =
  let mk cv gv hs =
    let reg = Metrics.create () in
    Metrics.add (Metrics.counter reg "xroute_test_events_total") cv;
    Metrics.set (Metrics.gauge reg "xroute_test_depth") gv;
    let h = Metrics.histogram reg "xroute_test_latency_ms" in
    List.iter (Metrics.observe h) hs;
    reg
  in
  let a = mk 3 1.0 [ 1.0; 2.0 ] in
  let b = mk 4 2.5 [ 10.0 ] in
  let agg = Metrics.aggregate [ a; b ] in
  check cb "counters sum" true (Metrics.scalar agg "xroute_test_events_total" = Some 7.0);
  check cb "gauges sum" true (Metrics.scalar agg "xroute_test_depth" = Some 3.5);
  (match Metrics.find agg "xroute_test_latency_ms" with
  | Some (Metrics.Histogram h) ->
    check ci "samples pooled" 3 (Metrics.observations h);
    check cf "sums pooled" 13.0 (Metrics.sum h)
  | _ -> Alcotest.fail "aggregated histogram missing")

(* Aggregation must survive capped histograms: the pooled registry keeps
   only each source's retained samples, but the observation count and
   sum must stay the true totals, not the retained ones. *)
let test_aggregate_capped_histograms () =
  let mk n base =
    let reg = Metrics.create () in
    let h = Metrics.histogram reg ~cap:4 "xroute_test_latency_ms" in
    for i = 1 to n do
      Metrics.observe h (base +. float_of_int i)
    done;
    reg
  in
  let a = mk 10 0.0 (* retains 4 of 10, sum 55 *) in
  let b = mk 6 100.0 (* retains 4 of 6, sum 621 *) in
  match Metrics.find (Metrics.aggregate [ a; b ]) "xroute_test_latency_ms" with
  | Some (Metrics.Histogram h) ->
    check ci "true observation total past both caps" 16 (Metrics.observations h);
    check cf "true sum past both caps" 676.0 (Metrics.sum h);
    check cb "retained pool still bounded by the cap" true
      (Array.length (Metrics.samples h) <= 4)
  | _ -> Alcotest.fail "aggregated histogram missing"

(* counter_set mirrors an external cumulative source; after aggregation
   the merged value exceeds any single source, and a later mirror of one
   source must not drag it back down. *)
let test_aggregate_counter_set_no_regression () =
  let mk v =
    let reg = Metrics.create () in
    Metrics.add (Metrics.counter reg "xroute_test_events_total") v;
    reg
  in
  match Metrics.find (Metrics.aggregate [ mk 3; mk 4 ]) "xroute_test_events_total" with
  | Some (Metrics.Counter c) ->
    check ci "aggregated" 7 (Metrics.value c);
    Metrics.counter_set c 5;
    check ci "mirror below the merged total is ignored" 7 (Metrics.value c);
    Metrics.counter_set c 9;
    check ci "mirror above it advances" 9 (Metrics.value c)
  | _ -> Alcotest.fail "aggregated counter missing"

let test_aggregate_preserves_help () =
  let mk () =
    let reg = Metrics.create () in
    ignore (Metrics.counter reg ~help:"Messages handled." "xroute_test_msgs_total");
    ignore (Metrics.gauge reg ~help:"Table size." "xroute_test_size");
    ignore (Metrics.histogram reg ~help:"Latency." "xroute_test_latency_ms");
    reg
  in
  let agg = Metrics.aggregate [ mk (); mk () ] in
  let helps = List.map (fun (n, h, _) -> (n, h)) (Metrics.metrics agg) in
  List.iter
    (fun pair -> check cb "help text survives aggregation" true (List.mem pair helps))
    [
      ("xroute_test_msgs_total", "Messages handled.");
      ("xroute_test_size", "Table size.");
      ("xroute_test_latency_ms", "Latency.");
    ];
  let prom = Metrics.to_prometheus agg in
  check cb "HELP lines in the merged exposition" true
    (let needle = "# HELP xroute_test_msgs_total Messages handled." in
     let n = String.length needle in
     let rec scan i =
       i + n <= String.length prom && (String.sub prom i n = needle || scan (i + 1))
     in
     scan 0)

(* ---------------- golden expositions ---------------- *)

(* These pin the exact exposition byte-for-byte: the daemon streams it
   over the wire and external scrapers parse it, so format drift is an
   interface break, not a cosmetic change. *)
let golden_registry () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"Messages handled." "xroute_test_msgs_total" in
  Metrics.add c 42;
  let g = Metrics.gauge reg ~help:"Table size." "xroute_test_size" in
  Metrics.set g 17.5;
  let h = Metrics.histogram reg "xroute_test_latency_ms" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  reg

let test_golden_prometheus () =
  let expect =
    String.concat "\n"
      [
        "# TYPE xroute_test_latency_ms summary";
        "xroute_test_latency_ms{quantile=\"0.5\"} 2";
        "xroute_test_latency_ms{quantile=\"0.95\"} 4";
        "xroute_test_latency_ms{quantile=\"0.99\"} 4";
        "xroute_test_latency_ms_sum 10";
        "xroute_test_latency_ms_count 4";
        "# HELP xroute_test_msgs_total Messages handled.";
        "# TYPE xroute_test_msgs_total counter";
        "xroute_test_msgs_total 42";
        "# HELP xroute_test_size Table size.";
        "# TYPE xroute_test_size gauge";
        "xroute_test_size 17.5";
        "";
      ]
  in
  check cs "prometheus text" expect (Metrics.to_prometheus (golden_registry ()))

let test_golden_json () =
  let expect =
    "{\"metrics\":["
    ^ "{\"name\":\"xroute_test_latency_ms\",\"help\":\"\",\"type\":\"histogram\",\
       \"count\":4,\"sum\":10,\"mean\":2.5,\"min\":1,\"max\":4,\"p50\":2,\"p95\":4,\"p99\":4},"
    ^ "{\"name\":\"xroute_test_msgs_total\",\"help\":\"Messages handled.\",\
       \"type\":\"counter\",\"value\":42},"
    ^ "{\"name\":\"xroute_test_size\",\"help\":\"Table size.\",\"type\":\"gauge\",\
       \"value\":17.5}]}"
  in
  check cs "json" expect (Metrics.to_json (golden_registry ()))

(* ---------------- causal spans ---------------- *)

let test_span_tree_and_stage_sum () =
  let t = Span.create () in
  let root = Span.start_span t ~trace:7 ~name:"pub" ~broker:(-1) ~at:0.0 () in
  let hop = Span.start_span t ~parent:root.Span.id ~trace:7 ~name:"hop" ~broker:0 ~at:0.0 () in
  ignore
    (Span.record t ~parent:hop.Span.id ~trace:7 ~name:"queue" ~broker:0 ~start:0.0
       ~stop:1.0 ());
  ignore
    (Span.record t ~parent:hop.Span.id ~trace:7 ~name:"proc" ~broker:0 ~start:1.0
       ~stop:3.0 ());
  Span.finish hop ~at:3.0;
  Span.extend root ~at:3.0;
  let spans = Span.spans_for t ~trace:7 in
  check ci "four spans in the trace" 4 (List.length spans);
  (match Span.check_tree spans with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("well-formed tree rejected: " ^ e));
  check cf "stage leaves sum to end-to-end" 3.0 (Span.stage_sum spans);
  check cb "root_for finds the root" true
    (match Span.root_for t ~trace:7 with Some r -> r.Span.id = root.Span.id | None -> false);
  check cb "extend never moves stop back" true
    (Span.extend root ~at:1.0;
     root.Span.stop = 3.0)

let test_span_check_tree_rejects () =
  let expect_error label spans =
    check cb label true (Result.is_error (Span.check_tree spans))
  in
  let mk () =
    let t = Span.create () in
    let root = Span.start_span t ~trace:1 ~name:"pub" ~broker:(-1) ~at:0.0 () in
    let hop = Span.start_span t ~parent:root.Span.id ~trace:1 ~name:"hop" ~broker:0 ~at:0.0 () in
    Span.finish hop ~at:3.0;
    Span.extend root ~at:3.0;
    (t, root, hop)
  in
  (* leaf escaping its parent's interval *)
  let t, _, hop = mk () in
  ignore
    (Span.record t ~parent:hop.Span.id ~trace:1 ~name:"proc" ~broker:0 ~start:1.0
       ~stop:5.0 ());
  expect_error "leaf past its parent" (Span.to_list t);
  (* two roots in one trace *)
  let t, _, _ = mk () in
  ignore (Span.record t ~trace:1 ~name:"pub" ~broker:(-1) ~start:0.0 ~stop:1.0 ());
  expect_error "second root" (Span.to_list t);
  (* dangling parent *)
  let t, _, _ = mk () in
  ignore (Span.record t ~parent:999 ~trace:1 ~name:"proc" ~broker:0 ~start:0.0 ~stop:1.0 ());
  expect_error "unresolved parent" (Span.to_list t);
  (* negative duration *)
  let t, _, hop = mk () in
  ignore
    (Span.record t ~parent:hop.Span.id ~trace:1 ~name:"proc" ~broker:0 ~start:2.0
       ~stop:1.0 ());
  expect_error "span ends before it starts" (Span.to_list t);
  (* an INTERIOR child may start after its parent ended: a hop chained
     across daemons, where the message was in flight when the upstream
     hop closed *)
  let t, _, hop = mk () in
  let hop2 = Span.start_span t ~parent:hop.Span.id ~trace:1 ~name:"hop" ~broker:1 ~at:5.0 () in
  ignore
    (Span.record t ~parent:hop2.Span.id ~trace:1 ~name:"proc" ~broker:1 ~start:5.0
       ~stop:6.0 ());
  Span.finish hop2 ~at:6.0;
  check cb "late interior hop accepted (in-flight gap)" true
    (Result.is_ok (Span.check_tree (Span.to_list t)))

let test_span_ring_and_lookup_cost () =
  let t = Span.create ~capacity:64 () in
  for i = 0 to 199 do
    ignore (Span.record t ~trace:2 ~name:"hop" ~broker:0 ~start:(float_of_int i)
              ~stop:(float_of_int i) ())
  done;
  ignore (Span.record t ~trace:1 ~name:"pub" ~broker:(-1) ~start:500.0 ~stop:500.0 ());
  ignore (Span.record t ~trace:1 ~name:"hop" ~broker:0 ~start:500.0 ~stop:501.0 ());
  check ci "length counts all spans ever" 202 (Span.length t);
  check ci "ring retains capacity" 64 (List.length (Span.to_list t));
  check ci "trace bucket intact under noise" 2
    (List.length (Span.spans_for t ~trace:1));
  check ci "lookup cost = this trace's spans" 2 (Span.last_lookup_cost t);
  check cb "evicted spans are unfindable" true (Span.find t 1 = None);
  Span.clear t;
  check ci "clear resets" 0 (Span.length t)

let test_span_wire_roundtrip () =
  let t = Span.create () in
  let nasty = "hop|with\npipes\rand 100% escapes" in
  let s =
    Span.record t ~parent:3 ~trace:9 ~name:nasty ~broker:2
      ~meta:[ ("k|ey", "v|al\nue"); ("pct", "100%") ]
      ~start:1.5 ~stop:2.5 ()
  in
  match Span.of_wire_line (Span.to_wire_line s) with
  | None -> Alcotest.fail "wire line did not parse back"
  | Some s' ->
    check ci "id" s.Span.id s'.Span.id;
    check ci "trace" 9 s'.Span.trace;
    check cb "parent" true (s'.Span.parent = Some 3);
    check cs "hostile name intact" nasty s'.Span.name;
    check ci "broker" 2 s'.Span.broker;
    check cf "start" 1.5 s'.Span.start;
    check cf "stop" 2.5 s'.Span.stop;
    check cb "hostile meta intact" true (s'.Span.meta = s.Span.meta)

(* ---------------- monotonic clock ---------------- *)

let test_mono_never_decreases () =
  (* the anchor sample (100) is taken by create; then the source steps
     backwards from 105 to 50 *)
  let readings = ref [ 100.0; 105.0; 50.0; 52.0 ] in
  let source () =
    match !readings with
    | [] -> 60.0
    | x :: rest ->
      readings := rest;
      x
  in
  let m = Xroute_support.Mono.create ~source () in
  check cf "advances with the source" 105.0 (Xroute_support.Mono.now m);
  check cf "backward step held at the last reading" 105.0 (Xroute_support.Mono.now m);
  check cf "resumes at the source's rate" 107.0 (Xroute_support.Mono.now m);
  check cf "compensation accounted" 55.0 (Xroute_support.Mono.offset m)

(* ---------------- timeseries ---------------- *)

let test_timeseries_deltas_and_rates () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "xroute_test_events_total" in
  let g = Metrics.gauge reg "xroute_test_depth" in
  let ts = Timeseries.create ~capacity:4 reg in
  check cb "no deltas before two snapshots" true (Timeseries.deltas ts = []);
  Metrics.add c 10;
  Metrics.set g 2.0;
  Timeseries.snapshot ts ~at:1000.0;
  Metrics.add c 5;
  Metrics.set g 1.0;
  Timeseries.snapshot ts ~at:3000.0;
  check cf "counter delta" 5.0 (List.assoc "xroute_test_events_total" (Timeseries.deltas ts));
  check cf "gauge delta may be negative" (-1.0)
    (List.assoc "xroute_test_depth" (Timeseries.deltas ts));
  check cf "rate is per second" 2.5
    (List.assoc "xroute_test_events_total" (Timeseries.rates ts));
  for i = 1 to 6 do
    Timeseries.snapshot ts ~at:(3000.0 +. float_of_int i)
  done;
  check ci "snapshots ever" 8 (Timeseries.length ts);
  check ci "ring retains capacity" 4 (List.length (Timeseries.to_list ts));
  check cb "last is the newest" true
    (match Timeseries.last ts with Some s -> s.Timeseries.at = 3006.0 | None -> false)

(* ---------------- flight recorder ---------------- *)

let test_recorder_dump () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xroute-flight-test-%d" (Unix.getpid ()))
  in
  let r = Recorder.create ~dir () in
  let t = Span.create () in
  ignore (Span.record t ~trace:1 ~name:"hop" ~broker:0 ~start:0.0 ~stop:1.0 ());
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter reg "xroute_test_events_total") 3;
  (match
     Recorder.trigger r ~reason:"Broker 2 crashed!" ~at:123.0 ~metrics:reg
       ~spans:(Span.to_list t)
       ~rates:[ ("xroute_test_events_total", 1.5) ]
       ()
   with
  | Error e -> Alcotest.fail ("dump failed: " ^ e)
  | Ok path ->
    check cb "dump file exists" true (Sys.file_exists path);
    check cb "path recorded newest-first" true (Recorder.dumps r = [ path ]);
    let ic = open_in_bin path in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (match Xroute_support.Json.parse body with
    | Error e -> Alcotest.fail ("dump is not JSON: " ^ e)
    | Ok j ->
      let str k = Option.bind (Xroute_support.Json.member k j) Xroute_support.Json.to_str in
      check cb "flight schema" true (str "schema" = Some "xroute-flight/2");
      check cb "no hops field" true (Xroute_support.Json.member "hops" j = None);
      check cb "reason embedded" true (str "reason" = Some "Broker 2 crashed!");
      check cb "spans field is a chrome trace object" true
        (match Xroute_support.Json.member "spans" j with
        | Some spans -> Xroute_support.Json.member "traceEvents" spans <> None
        | None -> false));
    Sys.remove path);
  (try Sys.rmdir dir with Sys_error _ -> ());
  (* a broken directory is reported, never raised *)
  let bad = Recorder.create ~dir:"/dev/null/nope" () in
  check cb "broken dir reported as Error" true
    (match bad |> fun b -> Recorder.trigger b ~reason:"x" ~at:0.0 () with
    | Error _ -> true
    | Ok _ -> false)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter monotonic" `Quick test_counter_monotonic;
          Alcotest.test_case "registration idempotent" `Quick test_registration_idempotent;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram summary = Stats.summarize" `Quick
            test_histogram_summary_matches_stats;
          Alcotest.test_case "histogram cap" `Quick test_histogram_cap;
          Alcotest.test_case "interleaved sim updates" `Quick test_interleaved_sim_updates;
          Alcotest.test_case "scalar and find" `Quick test_scalar_and_find;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "aggregate capped histograms" `Quick
            test_aggregate_capped_histograms;
          Alcotest.test_case "aggregate then counter_set" `Quick
            test_aggregate_counter_set_no_regression;
          Alcotest.test_case "aggregate preserves help" `Quick test_aggregate_preserves_help;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "golden prometheus" `Quick test_golden_prometheus;
          Alcotest.test_case "golden json" `Quick test_golden_json;
        ] );
      ( "span",
        [
          Alcotest.test_case "tree and stage sum" `Quick test_span_tree_and_stage_sum;
          Alcotest.test_case "check_tree rejects malformed trees" `Quick
            test_span_check_tree_rejects;
          Alcotest.test_case "ring and lookup cost" `Quick test_span_ring_and_lookup_cost;
          Alcotest.test_case "wire round-trip" `Quick test_span_wire_roundtrip;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic under backward steps" `Quick test_mono_never_decreases ] );
      ( "timeseries",
        [ Alcotest.test_case "deltas and rates" `Quick test_timeseries_deltas_and_rates ] );
      ( "recorder",
        [ Alcotest.test_case "dump and error path" `Quick test_recorder_dump ] );
    ]
