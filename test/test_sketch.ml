(* Tests for the mergeable quantile sketch and the health summaries
   built on it: the relative-error bound on seeded distributions
   (including Zipf ranks), the merge algebra the FEDSTATS federation
   relies on, the canonical wire encoding, quantiles of a Metrics
   histogram past the old sample cap, and the Health view merge. *)

open Xroute_obs
open Xroute_support

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string
let cf = Alcotest.float 1e-9

(* ---------------- relative-error bound ---------------- *)

let distributions ~samples ~seed =
  let prng = Prng.create seed in
  let zipf = Zipf.create ~n:500 ~exponent:1.2 in
  let gen name f = (name, Array.init samples (fun _ -> f ())) in
  [
    gen "uniform" (fun () -> 1.0 +. Prng.float prng 1000.0);
    gen "exponential" (fun () -> -50.0 *. log (1.0 -. Prng.unit_float prng));
    gen "zipf" (fun () -> float_of_int (1 + Zipf.sample zipf prng));
    gen "latency-mix" (fun () ->
        if Prng.bernoulli prng 0.05 then 100.0 +. Prng.float prng 900.0
        else 0.5 +. Prng.float prng 4.5);
  ]

let test_accuracy_bound () =
  List.iter
    (fun seed ->
      List.iter
        (fun (name, xs) ->
          let sk = Sketch.create () in
          Array.iter (Sketch.observe sk) xs;
          List.iter
            (fun q ->
              let exact = Stats.percentile xs q in
              let est = Sketch.quantile sk q in
              let rel = abs_float (est -. exact) /. abs_float exact in
              if rel > Sketch.alpha sk +. 1e-9 then
                Alcotest.failf "%s seed %d q=%g: sketch %g vs exact %g (rel %.5f)" name
                  seed q est exact rel)
            [ 0.5; 0.9; 0.95; 0.99 ])
        (distributions ~samples:2000 ~seed))
    [ 1; 2; 3; 4; 5 ]

(* ---------------- merge algebra ---------------- *)

let chunks ~seed n =
  let prng = Prng.create seed in
  List.init n (fun _ ->
      let s = Sketch.create () in
      for _ = 1 to 500 do
        Sketch.observe s (0.01 +. Prng.float prng 200.0)
      done;
      s)

let test_merge_commutative () =
  match chunks ~seed:11 2 with
  | [ a; b ] ->
    check cs "a+b = b+a"
      (Sketch.encode (Sketch.merge a b))
      (Sketch.encode (Sketch.merge b a))
  | _ -> assert false

let test_merge_associative () =
  match chunks ~seed:12 3 with
  | [ a; b; c ] ->
    let l = Sketch.merge (Sketch.merge a b) c in
    let r = Sketch.merge a (Sketch.merge b c) in
    check ci "count" (Sketch.count l) (Sketch.count r);
    List.iter
      (fun q ->
        check cf (Printf.sprintf "q=%g" q) (Sketch.quantile l q) (Sketch.quantile r q))
      [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]
  | _ -> assert false

let test_merge_deterministic () =
  (* Folding the same sketches in any order gives the same buckets:
     counts are ints, so the bucket tables agree exactly; quantiles
     must too. *)
  let sks = chunks ~seed:13 5 in
  let fwd = List.fold_left (fun acc s -> Sketch.merge acc s) (Sketch.create ()) sks in
  let bwd =
    List.fold_left (fun acc s -> Sketch.merge s acc) (Sketch.create ()) (List.rev sks)
  in
  check ci "count" (Sketch.count fwd) (Sketch.count bwd);
  List.iter
    (fun q ->
      check cf (Printf.sprintf "q=%g" q) (Sketch.quantile fwd q) (Sketch.quantile bwd q))
    [ 0.5; 0.95; 0.99 ]

let test_merge_alpha_mismatch () =
  let a = Sketch.create ~alpha:0.01 () and b = Sketch.create ~alpha:0.02 () in
  check cb "mismatched alphas raise" true
    (try
       ignore (Sketch.merge a b);
       false
     with Invalid_argument _ -> true)

(* ---------------- wire encoding ---------------- *)

(* Pinned canonical encoding: alpha, count, zero-bucket count, sum, min,
   max as hex floats, then the positive and mirrored-negative bucket
   tables. A platform where the log/ceil bucket indexing diverged would
   break this golden — which is the point: summaries must be
   byte-identical across brokers for the federation merge tie-break. *)
let golden = "sk1;0x1.47ae147ae147bp-7;5;1;0x1p+2;-0x1.8p+1;0x1p+2;0:1,35:1,70:1;55:1"

let test_encode_golden () =
  let s = Sketch.create () in
  List.iter (Sketch.observe s) [ 1.0; 2.0; 4.0; 0.0; -3.0 ];
  check cs "canonical encoding" golden (Sketch.encode s);
  match Sketch.decode golden with
  | None -> Alcotest.fail "golden does not decode"
  | Some d ->
    check cb "decode(golden) = original" true (Sketch.equal d s);
    check ci "count" 5 (Sketch.count d);
    check cf "min" (-3.0) (Sketch.min_value d);
    check cf "max" 4.0 (Sketch.max_value d);
    (* rank ceil(0.5*5)=3 -> third smallest (1.0), within 1% *)
    check cb "median within bound" true
      (abs_float (Sketch.quantile d 0.5 -. 1.0) <= 0.01 +. 1e-9)

let test_roundtrip_random () =
  List.iter
    (fun seed ->
      let prng = Prng.create (seed * 97) in
      let s = Sketch.create () in
      for _ = 1 to 300 do
        Sketch.observe s (Prng.float prng 2000.0 -. 500.0)
      done;
      match Sketch.decode (Sketch.encode s) with
      | Some d -> check cs "roundtrip" (Sketch.encode s) (Sketch.encode d)
      | None -> Alcotest.fail "encoding did not decode")
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_decode_rejects_garbage () =
  List.iter
    (fun s -> check cb s true (Sketch.decode s = None))
    [
      "";
      "nonsense";
      "sk2;0x1p-7;0;0;0x0p+0;infinity;-infinity;;";
      "sk1;0x0p+0;0;0;0x0p+0;infinity;-infinity;;" (* alpha = 0 *);
      "sk1;0x1.47ae147ae147bp-7;-1;0;0x0p+0;infinity;-infinity;;" (* count < 0 *);
      "sk1;0x1.47ae147ae147bp-7;1;0;0x0p+0;0x1p+0;0x1p+0;0:0;" (* bucket n = 0 *);
    ]

(* ---------------- edge cases ---------------- *)

let test_edges () =
  let s = Sketch.create () in
  check cf "empty quantile" 0.0 (Sketch.quantile s 0.5);
  Sketch.observe s 0.0;
  Sketch.observe s 1e-12;
  check cf "zero bucket estimates 0" 0.0 (Sketch.quantile s 0.5);
  Sketch.observe s (-7.0);
  check cf "negative min exact" (-7.0) (Sketch.min_value s);
  check cb "negative estimate within bound" true
    (abs_float (Sketch.quantile s 0.0 +. 7.0) <= 0.07 +. 1e-9);
  check cb "NaN raises" true
    (try
       Sketch.observe s Float.nan;
       false
     with Invalid_argument _ -> true);
  check cb "q out of range raises" true
    (try
       ignore (Sketch.quantile s 1.5);
       false
     with Invalid_argument _ -> true);
  Sketch.clear s;
  check ci "clear empties" 0 (Sketch.count s);
  check cf "alpha survives clear" 0.01 (Sketch.alpha s)

(* ---------------- Metrics: quantiles past the old sample cap ---------------- *)

(* Histograms once kept a prefix of their samples, and an ascending
   stream past that cap made every quantile report one of the first
   values. Quantiles come from the sketch alone; on an ascending run
   longer than the old 65 536-sample cap they stay within the bound. *)
let test_capped_histogram_unbiased () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "xroute_test_latency_ms" in
  let n = 70_000 in
  let values = Array.init n (fun i -> float_of_int (i + 1)) in
  Array.iter (Metrics.observe h) values;
  let s = Metrics.summary h in
  check ci "count exact" n s.Stats.count;
  check cf "min exact" 1.0 s.Stats.min;
  check cf "max exact" (float_of_int n) s.Stats.max;
  let unbiased what got q =
    let exact = Stats.percentile values q in
    check cb what true (abs_float (got -. exact) /. exact <= 0.011)
  in
  unbiased "p50 unbiased" s.Stats.p50 0.5;
  unbiased "p99 unbiased" s.Stats.p99 0.99;
  unbiased "arbitrary quantile unbiased" (Sketch.quantile (Metrics.sketch h) 0.9) 0.9

(* ---------------- Health summaries and views ---------------- *)

let test_health_roundtrip () =
  let h = Health.create 7 in
  Health.record_pub h;
  Health.record_hop_latency h 1.5;
  Health.record_backlog h 128.0;
  Health.record_send h ~peer:3;
  Health.record_send h ~peer:9;
  Health.record_link_drop h ~peer:9;
  Health.record_link_latency h ~peer:3 0.25;
  Health.tick h ~now:0.0;
  Health.tick h ~now:1000.0;
  let line = Health.encode_summary h in
  match Health.decode_summary line with
  | None -> Alcotest.fail "summary does not decode"
  | Some d ->
    check cs "roundtrip" line (Health.encode_summary d);
    check ci "origin" 7 (Health.origin d);
    check ci "epoch" 2 (Health.epoch d);
    check ci "pubs" 1 (Health.pubs d);
    check ci "links" 2 (List.length (Health.links d))

(* A line from a daemon that still sent the retired queue-depth sketch
   ([qd=]): it decodes with the same counts and links, and re-encodes
   as the same line without that field. *)
let test_health_pre_change_line () =
  let line =
    "hs1|o=4|e=2|p=3|d=1|hl=sk1;0x1.47ae147ae147bp-7;1;0;0x1.8p+0;0x1.8p+0;0x1.8p+0;21:1;"
    ^ "|qd=sk1;0x1.47ae147ae147bp-7;1;1;0x0p+0;0x0p+0;0x0p+0;;"
    ^ "|eb=sk1;0x1.47ae147ae147bp-7;1;0;0x1p+6;0x1p+6;0x1p+6;208:1;"
    ^ "|l=3 2 0 0x1.733d4a7a67a9cp-2 sk1;0x1.47ae147ae147bp-7;1;0;0x1p-2;0x1p-2;0x1p-2;-69:1;"
    ^ "|l=5 1 1 0x1.733d4a7a67a9cp-3 sk1;0x1.47ae147ae147bp-7;0;0;0x0p+0;infinity;-infinity;;"
  in
  match Health.decode_summary line with
  | None -> Alcotest.fail "pre-change summary does not decode"
  | Some d ->
    check ci "origin" 4 (Health.origin d);
    check ci "epoch" 2 (Health.epoch d);
    check ci "pubs" 3 (Health.pubs d);
    check ci "drops" 1 (Health.drops d);
    check (Alcotest.list (Alcotest.pair ci ci)) "links" [ (3, 2); (5, 1) ]
      (List.map (fun l -> (Health.link_peer l, Health.link_sends l)) (Health.links d));
    let without_qd =
      String.split_on_char '|' line
      |> List.filter (fun f -> not (String.starts_with ~prefix:"qd=" f))
      |> String.concat "|"
    in
    check cs "re-encodes without qd=" without_qd (Health.encode_summary d)

(* A summary line comes off a neighbor's socket: a negative count or a
   sketch of another alpha (which cannot merge into the summary's
   histograms) makes it malformed, never an exception. *)
let test_health_rejects_malformed () =
  let good = Health.encode_summary (Health.create 3) in
  check cb "well-formed decodes" true (Health.decode_summary good <> None);
  let other_alpha = Xroute_obs.Sketch.encode (Xroute_obs.Sketch.create ~alpha:0.05 ()) in
  List.iter
    (fun line -> check cb line true (Health.decode_summary line = None))
    [
      "hs1|o=3|p=-1";
      "hs1|o=3|l=2 -4 0 0x0p+0 " ^ Xroute_obs.Sketch.encode (Xroute_obs.Sketch.create ());
      "hs1|o=3|hl=" ^ other_alpha;
      "hs1|p=1|o=3";
    ]

(* Decoding registers three series per link in a private registry: a
   summary with 20 000 links (a 1 MiB FEDSTATS line holds up to about
   50 000) decodes and re-encodes byte-identically. *)
let test_health_many_links () =
  let n = 20_000 in
  let buf = Buffer.create (n * 40) in
  Buffer.add_string buf "hs1|o=1|e=1|p=0|d=0";
  let empty = Xroute_obs.Sketch.encode (Xroute_obs.Sketch.create ()) in
  Buffer.add_string buf (Printf.sprintf "|hl=%s|eb=%s" empty empty);
  for peer = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "|l=%d %d 0 0x0p+0 %s" peer (peer mod 7) empty)
  done;
  let line = Buffer.contents buf in
  match Health.decode_summary line with
  | None -> Alcotest.fail "20 000-link summary does not decode"
  | Some d ->
    check ci "links kept" n (List.length (Health.links d));
    check cs "re-encodes byte-identically" line (Health.encode_summary d)

let test_view_merge () =
  let stale = Health.create 1 in
  Health.record_pub stale;
  Health.tick stale ~now:0.0;
  let fresh = Health.create 1 in
  Health.record_pub fresh;
  Health.record_pub fresh;
  Health.tick fresh ~now:0.0;
  Health.tick fresh ~now:500.0;
  let other = Health.create 2 in
  Health.tick other ~now:0.0;
  let a = Health.view_of [ stale; other ] in
  let b = Health.view_of [ fresh ] in
  let merged = Health.merge_views a b in
  check ci "origins union" 2 (List.length merged);
  (match List.assoc_opt 1 merged with
  | Some s -> check ci "freshest epoch wins" 2 (Health.pubs s)
  | None -> Alcotest.fail "origin 1 lost");
  check cb "commutative" true (Health.view_equal merged (Health.merge_views b a));
  check cb "idempotent" true
    (Health.view_equal merged (Health.merge_views merged merged));
  match Health.decode_view (Health.encode_view merged) with
  | Some v -> check cb "view roundtrip" true (Health.view_equal v merged)
  | None -> Alcotest.fail "view does not decode"

let () =
  Alcotest.run "sketch"
    [
      ( "accuracy",
        [
          Alcotest.test_case "relative-error bound on seeded distributions" `Quick
            test_accuracy_bound;
        ] );
      ( "merge",
        [
          Alcotest.test_case "commutative" `Quick test_merge_commutative;
          Alcotest.test_case "associative" `Quick test_merge_associative;
          Alcotest.test_case "fold-order independent" `Quick test_merge_deterministic;
          Alcotest.test_case "alpha mismatch raises" `Quick test_merge_alpha_mismatch;
        ] );
      ( "codec",
        [
          Alcotest.test_case "golden encoding" `Quick test_encode_golden;
          Alcotest.test_case "random roundtrip" `Quick test_roundtrip_random;
          Alcotest.test_case "rejects garbage" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "edge cases" `Quick test_edges;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "capped histogram quantiles unbiased" `Quick
            test_capped_histogram_unbiased;
        ] );
      ( "health",
        [
          Alcotest.test_case "summary roundtrip" `Quick test_health_roundtrip;
          Alcotest.test_case "pre-change line with qd=" `Quick test_health_pre_change_line;
          Alcotest.test_case "20 000 links" `Quick test_health_many_links;
          Alcotest.test_case "malformed summaries rejected" `Quick
            test_health_rejects_malformed;
          Alcotest.test_case "view merge laws" `Quick test_view_merge;
        ] );
    ]
