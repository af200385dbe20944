(* Tests for the observability library: metrics registry semantics,
   causal spans, and golden tests for both exposition formats. *)

open Xroute_obs
module Prng = Xroute_support.Prng
module Stats = Xroute_support.Stats

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

(* Streams on both sides of 65 536 observations: seeded uniform values
   and an ascending run, whose quantiles a sample-prefix store would
   bias toward the first values. *)
let histogram_streams () =
  let prng = Prng.create 17 in
  List.concat_map
    (fun n ->
      [
        ( Printf.sprintf "uniform %d" n,
          Array.init n (fun _ -> 0.5 +. Prng.float prng 1000.0) );
        (Printf.sprintf "ascending %d" n, Array.init n (fun i -> float_of_int (i + 1)));
      ])
    [ 1_000; 70_000 ]

let histogram_of values =
  let h = Metrics.histogram (Metrics.create ()) "xroute_test_latency_ms" in
  Array.iter (Metrics.observe h) values;
  h

(* The summary agrees with [Stats.summarize] over the same values:
   count and mean exactly, stddev to rounding, and each quantile within
   the sketch's relative error. *)
let test_histogram_summary_matches_stats () =
  List.iter
    (fun (name, values) ->
      let s : Stats.summary = Metrics.summary (histogram_of values) in
      let want : Stats.summary = Stats.summarize values in
      check ci (name ^ ": count") want.count s.count;
      check cb (name ^ ": mean exact") true (want.mean = s.mean);
      check cb
        (Printf.sprintf "%s: stddev %g matches %g" name s.stddev want.stddev)
        true
        (abs_float (s.stddev -. want.stddev) <= 1e-6 *. want.stddev);
      List.iter
        (fun (q, got) ->
          let exact = Stats.percentile values q in
          check cb
            (Printf.sprintf "%s: p%g = %g within alpha of %g" name (q *. 100.0) got exact)
            true
            (abs_float (got -. exact) <= (Sketch.default_alpha *. abs_float exact) +. 1e-9))
        [ (0.5, s.p50); (0.95, s.p95); (0.99, s.p99) ])
    (histogram_streams ())

let test_histogram_moments_exact () =
  List.iter
    (fun (name, values) ->
      let h = histogram_of values in
      let s = Metrics.summary h in
      let want : Stats.summary = Stats.summarize values in
      let exact what a b = check cb (Printf.sprintf "%s: %s exact" name what) true (a = b) in
      exact "count" (float_of_int want.count) (float_of_int s.count);
      exact "observations" (float_of_int want.count) (float_of_int (Metrics.observations h));
      exact "sum" (Array.fold_left ( +. ) 0.0 values) (Metrics.sum h);
      exact "min" want.min s.min;
      exact "max" want.max s.max;
      exact "mean" want.mean s.mean)
    (histogram_streams ())

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
    check ci "observations pooled" 3 (Metrics.observations h);
    check cf "sums pooled" 13.0 (Metrics.sum h)
  | _ -> Alcotest.fail "aggregated histogram missing")

(* Aggregating three registries gives the histogram one registry would
   have held had it seen every observation: the sketches merge exactly.
   Quarter-integer values keep every float sum exact in any order. *)
let test_aggregate_equals_one_histogram () =
  let prng = Prng.create 5 in
  let whole = Metrics.histogram (Metrics.create ()) "xroute_test_latency_ms" in
  let part n =
    let reg = Metrics.create () in
    let h = Metrics.histogram reg "xroute_test_latency_ms" in
    for _ = 1 to n do
      let v = float_of_int (1 + Prng.int prng 2000) /. 4.0 in
      Metrics.observe h v;
      Metrics.observe whole v
    done;
    reg
  in
  let parts = [ part 300; part 1; part 2000 ] in
  match Metrics.find (Metrics.aggregate parts) "xroute_test_latency_ms" with
  | Some (Metrics.Histogram h) ->
    check cb "merged sketch equals the single-histogram sketch" true
      (Sketch.equal (Metrics.sketch h) (Metrics.sketch whole));
    check ci "observations" 2301 (Metrics.observations h)
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
        "xroute_test_latency_ms{quantile=\"0.5\"} 1.99366";
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
       \"count\":4,\"sum\":10,\"mean\":2.5,\"min\":1,\"max\":4,\"p50\":1.99366,\"p95\":4,\"p99\":4},"
    ^ "{\"name\":\"xroute_test_msgs_total\",\"help\":\"Messages handled.\",\
       \"type\":\"counter\",\"value\":42},"
    ^ "{\"name\":\"xroute_test_size\",\"help\":\"Table size.\",\"type\":\"gauge\",\
       \"value\":17.5}]}"
  in
  check cs "json" expect (Metrics.to_json (golden_registry ()))

(* An empty histogram exposes zeros, never the sketch's infinite
   extrema, so both expositions stay parseable. *)
let test_empty_histogram_zeros () =
  let reg = Metrics.create () in
  ignore (Metrics.histogram reg "xroute_test_latency_ms");
  check cs "prometheus zeros"
    (String.concat "\n"
       [
         "# TYPE xroute_test_latency_ms summary";
         "xroute_test_latency_ms{quantile=\"0.5\"} 0";
         "xroute_test_latency_ms{quantile=\"0.95\"} 0";
         "xroute_test_latency_ms{quantile=\"0.99\"} 0";
         "xroute_test_latency_ms_sum 0";
         "xroute_test_latency_ms_count 0";
         "";
       ])
    (Metrics.to_prometheus reg);
  check cs "json zeros"
    "{\"metrics\":[{\"name\":\"xroute_test_latency_ms\",\"help\":\"\",\"type\":\"histogram\",\
     \"count\":0,\"sum\":0,\"mean\":0,\"min\":0,\"max\":0,\"p50\":0,\"p95\":0,\"p99\":0}]}"
    (Metrics.to_json reg)

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
     match Span.find t root.Span.id with Some r -> r.Span.stop = 3.0 | None -> false)

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
  let h =
    Span.record t ~parent:3 ~trace:9 ~name:nasty ~broker:2
      ~meta:[ ("k|ey", "v|al\nue"); ("pct", "100%") ]
      ~start:1.5 ~stop:2.5 ()
  in
  let s = Option.get (Span.find t h.Span.id) in
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

(* ---------------- span store vs a naive model ---------------- *)

(* Random sequences of collector calls over a few interleaved traces,
   checked after every step against a list of every span ever created.
   A span is retained while it is among the newest [capacity] spans
   created since the last [clear]. *)

type span_op =
  | Start of int * int * float (* trace, parent choice, at *)
  | Record of int * int * float * float * bool (* trace, parent choice, start, stop, meta *)
  | Finish of int * float (* handle choice *)
  | Extend of int * float
  | Int_meta of int * int
  | Clear

let span_traces = 4
let model_id_base = 5000

let print_span_op = function
  | Start (tr, p, at) -> Printf.sprintf "start(tr=%d,p=%d,at=%g)" tr p at
  | Record (tr, p, a, b, m) -> Printf.sprintf "record(tr=%d,p=%d,%g..%g,meta=%b)" tr p a b m
  | Finish (h, at) -> Printf.sprintf "finish(h=%d,%g)" h at
  | Extend (h, at) -> Printf.sprintf "extend(h=%d,%g)" h at
  | Int_meta (h, v) -> Printf.sprintf "int_meta(h=%d,%d)" h v
  | Clear -> "clear"

let gen_span_ops =
  QCheck.Gen.(
    let time = map float_of_int (int_bound 20) in
    let trace = int_bound (span_traces - 1) in
    (* parent choice: 0 = root, 1 = an id never allocated, k = handle k-2 *)
    let parent = frequency [ (1, return 0); (1, return 1); (5, int_range 2 1000) ] in
    let handle = int_bound 1000 in
    list_size (int_bound 250)
      (frequency
         [
           (6, map3 (fun tr p at -> Start (tr, p, at)) trace parent time);
           ( 6,
             map3
               (fun (tr, p) (a, b) m -> Record (tr, p, a, b, m))
               (pair trace parent) (pair time time) bool );
           (2, map2 (fun h at -> Finish (h, at)) handle time);
           (2, map2 (fun h at -> Extend (h, at)) handle time);
           (2, map2 (fun h v -> Int_meta (h, v)) handle (int_bound 99));
           (1, return Clear);
         ]))

type mspan = {
  m_id : int;
  m_trace : int;
  m_parent : int option;
  m_name : string;
  m_start : float;
  mutable m_stop : float;
  m_meta : (string * string) list;
  mutable m_ints : (string * int) list;
}

let span_of_model m : Span.span =
  {
    id = m.m_id;
    trace = m.m_trace;
    parent = m.m_parent;
    name = m.m_name;
    broker = m.m_trace + 10;
    start = m.m_start;
    stop = m.m_stop;
    meta = m.m_meta @ List.map (fun (k, v) -> (k, string_of_int v)) m.m_ints;
  }

let run_span_model capacity ops =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let t = Span.create ~capacity ~id_base:model_id_base () in
  let created = ref [] (* newest first *)
  and handles : (Span.handle * mspan) array ref = ref [||] in
  let n = ref 0 and lo = ref 0 in
  let live m =
    let i = m.m_id - model_id_base - 1 in
    i >= !lo && !n - i <= capacity
  in
  let pick k = if Array.length !handles = 0 then None else Some (k mod Array.length !handles) in
  let parent_of = function
    | 0 -> None
    | 1 -> Some 999_999
    | k -> (
      match pick (k - 2) with
      | Some j -> Some (fst !handles.(j)).Span.id
      | None -> None)
  in
  let add (h : Span.handle) m =
    if h.Span.id <> m.m_id then fail "handle id %d, expected %d" h.Span.id m.m_id;
    handles := Array.append !handles [| (h, m) |];
    created := m :: !created;
    incr n
  in
  let fresh trace parent name start stop meta =
    {
      m_id = model_id_base + 1 + !n;
      m_trace = trace;
      m_parent = parent;
      m_name = name;
      m_start = start;
      m_stop = stop;
      m_meta = meta;
      m_ints = [];
    }
  in
  let step = function
    | Start (trace, p, at) ->
      let parent = parent_of p in
      let name = if parent = None then "pub" else "hop" in
      let h = Span.start_span t ?parent ~trace ~name ~broker:(trace + 10) ~at () in
      add h (fresh trace parent name at at [])
    | Record (trace, p, start, stop, with_meta) ->
      let parent = parent_of p in
      let meta = if with_meta then [ ("k", string_of_int trace); ("x|y", "") ] else [] in
      let h =
        Span.record t ?parent ~meta ~trace ~name:"leaf" ~broker:(trace + 10) ~start ~stop ()
      in
      add h (fresh trace parent "leaf" start stop meta)
    | Finish (k, at) ->
      Option.iter
        (fun j ->
          let h, m = !handles.(j) in
          Span.finish h ~at;
          if live m then m.m_stop <- at)
        (pick k)
    | Extend (k, at) ->
      Option.iter
        (fun j ->
          let h, m = !handles.(j) in
          Span.extend h ~at;
          if live m && at > m.m_stop then m.m_stop <- at)
        (pick k)
    | Int_meta (k, v) ->
      Option.iter
        (fun j ->
          let h, m = !handles.(j) in
          let key = "i" ^ string_of_int (List.length m.m_ints) in
          match Span.add_int_meta h key v with
          | () ->
            if live m then
              if List.length m.m_ints = 3 then fail "a fourth int meta entry was accepted"
              else m.m_ints <- m.m_ints @ [ (key, v) ]
          | exception Invalid_argument _ ->
            if not (live m && List.length m.m_ints = 3) then fail "int meta refused")
        (pick k)
    | Clear ->
      Span.clear t;
      lo := !n
  in
  let check_all () =
    let all = List.rev !created in
    let retained = List.filter live all in
    if Span.length t <> !n - !lo then fail "length %d, expected %d" (Span.length t) (!n - !lo);
    if Span.to_list t <> List.map span_of_model retained then fail "to_list differs";
    List.iter
      (fun m ->
        if Span.find t m.m_id <> (if live m then Some (span_of_model m) else None) then
          fail "find %d differs" m.m_id)
      all;
    if Span.find t model_id_base <> None || Span.find t (model_id_base + !n + 1) <> None then
      fail "find outside the allocated ids";
    for trace = 0 to span_traces - 1 do
      let mine = List.filter (fun m -> m.m_trace = trace) retained in
      if Span.spans_for t ~trace <> List.map span_of_model mine then
        fail "spans_for %d differs" trace;
      if Span.last_lookup_cost t <> List.length mine then
        fail "last_lookup_cost %d, expected %d" (Span.last_lookup_cost t) (List.length mine);
      let want = List.find_opt (fun m -> m.m_parent = None) mine in
      match (Span.root_for t ~trace, want) with
      | None, None -> ()
      | Some h, Some m when h.Span.id = m.m_id -> ()
      | _ -> fail "root_for %d differs" trace
    done
  in
  List.iter
    (fun op ->
      step op;
      check_all ())
    ops;
  true

let span_model_props =
  List.map
    (fun capacity ->
      QCheck.Test.make
        ~name:(Printf.sprintf "store = model, capacity %d" capacity)
        ~count:100
        (QCheck.make ~print:(QCheck.Print.list print_span_op) gen_span_ops)
        (run_span_model capacity))
    [ 1; 2; 3; 7; 64; 65; 130 ]

(* Once the ring is full, recording a hop's spans on traces that already
   have spans retains nothing: every write lands in the preallocated
   columns, so a forced minor collection promotes no words per span.
   Each hop records what Daemon.handle_publish records at a first
   broker. *)
let test_span_ring_allocation_free () =
  let t = Span.create ~id_base:1_000_000_000 () in
  let traces = 16 in
  let hop i =
    let trace = i mod traces and at = float_of_int i in
    let root =
      match Span.root_for t ~trace with
      | Some r -> r
      | None -> Span.start_span t ~trace ~name:"pub" ~broker:(-1) ~at ()
    in
    let h = Span.start_span t ~parent:root.Span.id ~trace ~name:"hop" ~broker:0 ~at () in
    let leaf name k =
      Span.record t ~parent:h.Span.id ~trace ~name ~broker:0 ~start:(at +. k)
        ~stop:(at +. k +. 0.1) ()
    in
    ignore (leaf "queue" 0.0);
    ignore (leaf "parse" 0.1);
    let m = leaf "match" 0.2 in
    Span.add_int_meta m "srt_ops" i;
    Span.add_int_meta m "prt_ops" (i + 1);
    Span.add_int_meta m "cover_ops" (i + 2);
    ignore (leaf "serialize" 0.3);
    Span.finish h ~at:(at +. 0.4);
    Span.extend root ~at:(at +. 0.4)
  in
  let hops = 10_000 in
  for i = 0 to Span.capacity t do
    hop i
  done;
  check cb "ring full" true (Span.length t > Span.capacity t);
  let before = Span.length t in
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  for i = 1 to hops do
    hop i
  done;
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. p0 in
  let spans = Span.length t - before in
  check cb "at least five spans a hop" true (spans >= 5 * hops);
  (* What a minor collection inside the loop finds live (the current
     hop's handles) is promoted; that is a few words per collection, far
     below one word per 100 spans. The old store promoted every span. *)
  if promoted *. 100.0 >= float_of_int spans then
    Alcotest.failf "%.0f words promoted over %d spans" promoted spans

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
  let ts = Timeseries.create reg in
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
  for i = 1 to 198 do
    Timeseries.snapshot ts ~at:(3000.0 +. float_of_int i)
  done;
  check ci "snapshots ever" 200 (Timeseries.length ts);
  let kept = Timeseries.to_list ts in
  check ci "ring retains the newest 128" 128 (List.length kept);
  check cb "oldest retained is snapshot 73" true ((List.hd kept).Timeseries.at = 3071.0);
  check cb "last is the newest" true
    (match Timeseries.last ts with Some s -> s.Timeseries.at = 3198.0 | None -> false)

(* ---------------- flight recorder ---------------- *)

let test_recorder_dump () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xroute-flight-test-%d" (Unix.getpid ()))
  in
  let r = Recorder.create ~dir in
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
  let bad = Recorder.create ~dir:"/dev/null/nope" in
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
          Alcotest.test_case "histogram moments exact" `Quick test_histogram_moments_exact;
          Alcotest.test_case "interleaved sim updates" `Quick test_interleaved_sim_updates;
          Alcotest.test_case "scalar and find" `Quick test_scalar_and_find;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "aggregate equals one histogram" `Quick
            test_aggregate_equals_one_histogram;
          Alcotest.test_case "aggregate then counter_set" `Quick
            test_aggregate_counter_set_no_regression;
          Alcotest.test_case "aggregate preserves help" `Quick test_aggregate_preserves_help;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "golden prometheus" `Quick test_golden_prometheus;
          Alcotest.test_case "golden json" `Quick test_golden_json;
          Alcotest.test_case "empty histogram exposes zeros" `Quick test_empty_histogram_zeros;
        ] );
      ( "span",
        [
          Alcotest.test_case "tree and stage sum" `Quick test_span_tree_and_stage_sum;
          Alcotest.test_case "check_tree rejects malformed trees" `Quick
            test_span_check_tree_rejects;
          Alcotest.test_case "ring and lookup cost" `Quick test_span_ring_and_lookup_cost;
          Alcotest.test_case "wire round-trip" `Quick test_span_wire_roundtrip;
          Alcotest.test_case "full ring promotes no words" `Quick test_span_ring_allocation_free;
        ] );
      ("span model", List.map QCheck_alcotest.to_alcotest span_model_props);
      ( "clock",
        [ Alcotest.test_case "monotonic under backward steps" `Quick test_mono_never_decreases ] );
      ( "timeseries",
        [ Alcotest.test_case "deltas and rates" `Quick test_timeseries_deltas_and_rates ] );
      ( "recorder",
        [ Alcotest.test_case "dump and error path" `Quick test_recorder_dump ] );
    ]
