(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Sec. 5) plus the ablations DESIGN.md calls out, printing
   paper-shaped tables. See EXPERIMENTS.md for the experiment index and
   the measured-vs-paper discussion.

   Scaling: XROUTE_BENCH_SCALE (a float, default 1.0) multiplies the
   workload sizes; the defaults are chosen so the full run finishes in a
   few minutes on a laptop. The paper's original sizes correspond to
   roughly XROUTE_BENCH_SCALE=10 for the table-size experiments. *)

open Xroute_core
open Xroute_overlay
module Metrics = Xroute_obs.Metrics

let scale =
  match Sys.getenv_opt "XROUTE_BENCH_SCALE" with
  | Some s -> (try float_of_string s with _ -> 1.0)
  | None -> 1.0

let scaled n = max 1 (int_of_float (float_of_int n *. scale))

(* ------------------------------------------------------------------ *)
(* Machine-readable reports: BENCH_5/6/7.json                          *)
(* ------------------------------------------------------------------ *)

(* Every experiment records (name, fields); the runner adds wall time.
   Written next to the printed tables so runs can be diffed/gated by
   tooling (schema documented in EXPERIMENTS.md). The match-scaling
   experiment writes to a second sink (schema xroute-bench/6) so its
   records can be regenerated without touching BENCH_5.json. *)
module Report = struct
  type value = F of float | I of int | B of bool

  let records : (string * (string * value) list) list ref = ref []
  let records6 : (string * (string * value) list) list ref = ref []
  let records7 : (string * (string * value) list) list ref = ref []
  let records8 : (string * (string * value) list) list ref = ref []
  let records10 : (string * (string * value) list) list ref = ref []

  (* Append fields to the experiment's record (merging by name; a
     re-recorded field replaces the old value rather than duplicating
     the JSON key). *)
  let record_in records name fields =
    match List.assoc_opt name !records with
    | Some existing ->
      let kept =
        List.filter (fun (k, _) -> not (List.mem_assoc k fields)) existing
      in
      records := (name, kept @ fields) :: List.remove_assoc name !records
    | None -> records := (name, fields) :: !records

  let record name fields = record_in records name fields
  let record6 name fields = record_in records6 name fields
  let record7 name fields = record_in records7 name fields
  let record8 name fields = record_in records8 name fields
  let record10 name fields = record_in records10 name fields

  let render_value = function
    | F f -> if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
    | I i -> string_of_int i
    | B b -> if b then "true" else "false"

  let render_record (name, fields) =
    let body =
      List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (render_value v)) fields
    in
    Printf.sprintf "{\"name\":%S,%s}" name (String.concat "," body)

  let write_sink ~schema path records =
    let oc = open_out path in
    Printf.fprintf oc "{\"schema\":%S,\"scale\":%.3f,\"experiments\":[%s]}\n" schema scale
      (String.concat "," (List.rev_map render_record records));
    close_out oc;
    Printf.printf "\nwrote %s (%d experiment records)\n%!" path (List.length records)

  let write path =
    write_sink ~schema:"xroute-bench/5" path !records;
    if !records6 <> [] then
      write_sink ~schema:"xroute-bench/6"
        (Option.value ~default:"BENCH_6.json" (Sys.getenv_opt "XROUTE_BENCH_JSON6"))
        !records6;
    if !records7 <> [] then
      write_sink ~schema:"xroute-bench/7"
        (Option.value ~default:"BENCH_7.json" (Sys.getenv_opt "XROUTE_BENCH_JSON7"))
        !records7;
    if !records8 <> [] then
      write_sink ~schema:"xroute-bench/8"
        (Option.value ~default:"BENCH_8.json" (Sys.getenv_opt "XROUTE_BENCH_JSON8"))
        !records8;
    if !records10 <> [] then
      write_sink ~schema:"xroute-bench/10"
        (Option.value ~default:"BENCH_10.json" (Sys.getenv_opt "XROUTE_BENCH_JSON10"))
        !records10
end

(* Process peak RSS (VmHWM) in bytes, from /proc/self/status — a
   monotone high-water mark, so the scenario scale series runs its
   points in ascending order and each reading reflects the largest
   population simulated so far. *)
let peak_rss_bytes () =
  try
    let ic = open_in "/proc/self/status" in
    let rec find () =
      match input_line ic with
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
          close_in ic;
          let digits = String.to_seq line |> Seq.filter (fun c -> c >= '0' && c <= '9') in
          int_of_string (String.of_seq digits) * 1024
        end
        else find ()
      | exception End_of_file ->
        close_in ic;
        0
    in
    find ()
  with Sys_error _ -> 0

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let time_it f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let nitf = Lazy.force Xroute_dtd.Dtd_samples.nitf
let psd = Lazy.force Xroute_dtd.Dtd_samples.psd
let nitf_graph = Xroute_dtd.Dtd_graph.build nitf
let psd_graph = Xroute_dtd.Dtd_graph.build psd
let nitf_advs = Xroute_dtd.Dtd_paths.advertisements nitf_graph
let psd_advs = Xroute_dtd.Dtd_paths.advertisements psd_graph

let tree_of_xpes ?covers xpes =
  let tree : int Sub_tree.t = Sub_tree.create ?covers () in
  List.iteri (fun i x -> ignore (Sub_tree.insert tree x i)) xpes;
  tree

(* ------------------------------------------------------------------ *)
(* SRT root-element index vs flat list scan                            *)
(* ------------------------------------------------------------------ *)

(* A dissemination broker hosts the advertisement sets of every feed it
   serves; a subscription anchored at one feed's root element should not
   pay a match operation for every other feed's advertisements. The SRT
   differential loads all four bundled feeds into the indexed table,
   pushes a subscription workload through [hops_for_sub], and checks it
   against the full-scan reference (routing decisions byte-identical,
   every candidate entry charged). The reference itself is the flat
   list scan: it pays one match operation per stored entry, which
   measures the scans the index avoided. *)

let all_feed_advs =
  lazy
    (let book = Lazy.force Xroute_dtd.Dtd_samples.book in
     let insurance = Lazy.force Xroute_dtd.Dtd_samples.insurance in
     nitf_advs
     @ psd_advs
     @ Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build book)
     @ Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build insurance))

(* Every fifth advertisement comes from a local client (the publisher's
   own broker), the rest from four neighbors: many entries per hop, and
   client hops the lookup must leave out. *)
let srt_fill advs =
  let srt = Rtable.Srt.create () in
  List.iteri
    (fun i adv ->
      let hop = if i mod 5 = 4 then Rtable.Client (i mod 3) else Rtable.Neighbor (i mod 4) in
      ignore (Rtable.Srt.add srt { Message.origin = 1; seq = i } adv hop))
    advs;
  srt

let decision_string hops =
  String.concat ";" (List.map (fun ep -> Format.asprintf "%a" Rtable.pp_endpoint ep) hops)

(* The full-scan reference: every stored entry in newest-first order,
   neighbor hops deduplicated by first occurrence. An entry whose hop
   is already in the answer cannot change it, so its overlap test is
   skipped. *)
let srt_reference_hops entries xpe =
  List.fold_left
    (fun acc (e : Rtable.Srt.entry) ->
      match e.hop with
      | Rtable.Neighbor _
        when (not (List.exists (Rtable.endpoint_equal e.hop) acc))
             && Adv_match.overlaps_paper xpe e.adv ->
        e.hop :: acc
      | Rtable.Neighbor _ | Rtable.Client _ -> acc)
    [] entries
  |> List.rev

(* The entries the cost model charges a lookup: the whole table for an
   unanchored subscription, else the entries rooted at the
   subscription's root element plus the star- and group-rooted ones. *)
let srt_reference_candidates srt xpe =
  let entries = Rtable.Srt.entries srt in
  let rooted_at n (e : Rtable.Srt.entry) =
    match Xroute_xpath.Adv.parts e.adv with
    | Xroute_xpath.Adv.Lit steps :: _ -> (
      match steps.(0) with
      | Xroute_xpath.Xpe.Name m -> Xroute_support.Symbol.equal m n
      | Xroute_xpath.Xpe.Star -> true)
    | _ -> true
  in
  match Rtable.Srt.sub_root xpe with
  | Some n -> List.length (List.filter (rooted_at n) entries)
  | None -> List.length entries

(* Run [xpes] through the indexed SRT and the full-scan reference;
   returns (identical, ops_list, ops_indexed, wall_list_s, wall_indexed_s,
   indexed_srt), where the list side is the reference, charged one op
   per stored entry. [identical] holds when, for every XPE, the table
   returns the reference's hops and charges its candidate count. *)
let srt_differential ~advs xpes =
  let srt = srt_fill advs in
  let entries = Rtable.Srt.entries srt in
  let list_decisions, t_list =
    time_it (fun () -> List.map (fun x -> decision_string (srt_reference_hops entries x)) xpes)
  in
  let idx_decisions, t_idx =
    time_it (fun () ->
        List.map
          (fun x ->
            let ops0 = Rtable.Srt.match_ops srt in
            let d = decision_string (Rtable.Srt.hops_for_sub srt x) in
            (d, Rtable.Srt.match_ops srt - ops0))
          xpes)
  in
  let identical =
    List.for_all2
      (fun x (expected, (d_idx, ops_idx)) ->
        String.equal d_idx expected && ops_idx = srt_reference_candidates srt x)
      xpes
      (List.combine list_decisions idx_decisions)
  in
  let ops_list = List.length entries * List.length xpes in
  (identical, ops_list, Rtable.Srt.match_ops srt, t_list, t_idx, srt)

let srt_bucket_bench () =
  section
    "SRT index - root-element buckets vs flat list scan\n\
     (Figure-6 workload: Set A at 10k XPEs, NITF; SRT holds the\n\
     advertisement sets of all four bundled feeds. Decisions must be\n\
     byte-identical; the index only avoids provably non-overlapping scans)";
  let advs = Lazy.force all_feed_advs in
  let count = scaled 10_000 in
  let xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params nitf)
      ~count ~seed:11 ()
  in
  let identical, ops_list, ops_idx, t_list, t_idx, idx_srt = srt_differential ~advs xpes in
  let saved_pct =
    100.0 *. float_of_int (ops_list - ops_idx) /. float_of_int (max 1 ops_list)
  in
  Printf.printf "%d advertisements (%d buckets, max occupancy %d, catch-all %d), %d XPEs\n"
    (Rtable.Srt.size idx_srt) (Rtable.Srt.bucket_count idx_srt)
    (Rtable.Srt.max_bucket_size idx_srt) (Rtable.Srt.catch_all_size idx_srt)
    (List.length xpes);
  Printf.printf "%-12s match_ops %10d  wall %8.1f ms\n" "flat list" ops_list (t_list *. 1000.0);
  Printf.printf "%-12s match_ops %10d  wall %8.1f ms  (%.1f%% scans avoided)\n" "indexed"
    ops_idx (t_idx *. 1000.0) saved_pct;
  Printf.printf "routing decisions and charged ops identical to the full scan: %b\n%!"
    identical;
  Report.record "srt-index"
    [
      ("advertisements", Report.I (Rtable.Srt.size idx_srt));
      ("xpes", Report.I (List.length xpes));
      ("srt_buckets", Report.I (Rtable.Srt.bucket_count idx_srt));
      ("srt_bucket_max", Report.I (Rtable.Srt.max_bucket_size idx_srt));
      ("srt_catch_all", Report.I (Rtable.Srt.catch_all_size idx_srt));
      ("match_ops_list", Report.I ops_list);
      ("match_ops_indexed", Report.I ops_idx);
      ("scans_avoided_pct", Report.F saved_pct);
      ("wall_ms_list", Report.F (t_list *. 1000.0));
      ("wall_ms_indexed", Report.F (t_idx *. 1000.0));
      ("decisions_identical", Report.B identical);
    ];
  if not identical then begin
    Printf.printf "ERROR: indexed SRT diverged from the full-scan reference\n";
    exit 1
  end;
  (* The same table seen from the small feed: PSD subscriptions skip the
     dominant NITF bucket, the situation the index is built for. *)
  let psd_xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params psd)
      ~count ~seed:13 ()
  in
  let identical_p, ops_list_p, ops_idx_p, t_list_p, t_idx_p, _ =
    srt_differential ~advs psd_xpes
  in
  let saved_pct_p =
    100.0 *. float_of_int (ops_list_p - ops_idx_p) /. float_of_int (max 1 ops_list_p)
  in
  Printf.printf "PSD subscriptions against the same table:\n";
  Printf.printf "%-12s match_ops %10d  wall %8.1f ms\n" "flat list" ops_list_p
    (t_list_p *. 1000.0);
  Printf.printf "%-12s match_ops %10d  wall %8.1f ms  (%.1f%% scans avoided)\n" "indexed"
    ops_idx_p (t_idx_p *. 1000.0) saved_pct_p;
  Printf.printf "routing decisions and charged ops identical to the full scan: %b\n%!"
    identical_p;
  Report.record "srt-index-psd"
    [
      ("xpes", Report.I (List.length psd_xpes));
      ("match_ops_list", Report.I ops_list_p);
      ("match_ops_indexed", Report.I ops_idx_p);
      ("scans_avoided_pct", Report.F saved_pct_p);
      ("wall_ms_list", Report.F (t_list_p *. 1000.0));
      ("wall_ms_indexed", Report.F (t_idx_p *. 1000.0));
      ("decisions_identical", Report.B identical_p);
    ];
  if not identical_p then begin
    Printf.printf
      "ERROR: indexed SRT diverged from the full-scan reference (PSD workload)\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Daemon throughput: loopback pub/sub burst over real sockets         *)
(* ------------------------------------------------------------------ *)

let daemon_throughput () =
  section
    "Daemon throughput - loopback pub/sub burst (2 brokers over TCP)\n\
     (exercises the daemon's buffered write path under publication\n\
     fan-out; throughput is end-to-end: publish, route, deliver)";
  let open Xroute_daemon in
  let d0 = Daemon.create ~id:0 ~port:0 ~neighbors:[ (1, ("127.0.0.1", 0)) ] () in
  let d1 =
    Daemon.create ~id:1 ~port:0 ~neighbors:[ (0, ("127.0.0.1", Daemon.port d0)) ] ()
  in
  let threads =
    List.map (fun d -> Thread.create (fun () -> Daemon.run ~timeout:0.005 d) ()) [ d0; d1 ]
  in
  Thread.delay 0.3;
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port:(Daemon.port d0) in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port:(Daemon.port d1) in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/burst/item"));
  Thread.delay 0.2;
  ignore (Client.subscribe subscriber (Xroute_xpath.Xpe_parser.parse "/burst"));
  Thread.delay 0.2;
  let n = scaled 1000 in
  let doc = Xroute_xml.Xml_parser.parse "<burst><item/></burst>" in
  let t0 = Unix.gettimeofday () in
  for doc_id = 0 to n - 1 do
    ignore (Client.publish_doc publisher ~doc_id doc)
  done;
  let deadline = t0 +. 60.0 in
  let received = ref 0 in
  while !received < n && Unix.gettimeofday () < deadline do
    received := !received + List.length (Client.drain_deliveries ~timeout:0.2 subscriber)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let per_sec = float_of_int !received /. wall in
  Printf.printf "%d publications published, %d delivered in %.2f s  (%.0f msgs/s end-to-end)\n%!"
    n !received wall per_sec;
  Client.close publisher;
  Client.close subscriber;
  List.iter Daemon.request_stop [ d0; d1 ];
  List.iter Thread.join threads;
  Report.record "daemon-throughput"
    [
      ("published", Report.I n);
      ("delivered", Report.I !received);
      ("burst_wall_ms", Report.F (wall *. 1000.0));
      ("msgs_per_sec", Report.F per_sec);
    ];
  if !received < n then begin
    Printf.printf "ERROR: daemon burst lost %d publications\n" (n - !received);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Saturation: pipelined multi-root burst against the daemon          *)
(* ------------------------------------------------------------------ *)

(* The saturation burst: a 2-broker line saturated by four pipelined
   publishers (one advertisement root each, publications pre-framed and
   written in ~56 KB chunks so the event loop sees deep batches, not one
   line per syscall). The subscriber side holds a mixed selection — one
   shallow anchored XPE, one deep anchored XPE, one unanchored
   ("//...") — and one root is deliberately unsubscribed so selectivity
   is real; every expected doc id must arrive. *)

let saturation_run ?(telemetry = true) ~docs_per_root () =
  let open Xroute_daemon in
  let d0 =
    Daemon.create ~telemetry ~id:0 ~port:0 ~neighbors:[ (1, ("127.0.0.1", 0)) ] ()
  in
  let d1 =
    Daemon.create ~telemetry ~id:1 ~port:0
      ~neighbors:[ (0, ("127.0.0.1", Daemon.port d0)) ] ()
  in
  let threads =
    List.map (fun d -> Thread.create (fun () -> Daemon.run ~timeout:0.005 d) ()) [ d0; d1 ]
  in
  Thread.delay 0.3;
  let roots = 4 in
  let publishers =
    List.init roots (fun k ->
        Client.connect ~client_id:(100 + k) ~host:"127.0.0.1" ~port:(Daemon.port d0))
  in
  List.iteri
    (fun k p ->
      ignore (Client.advertise p (Xroute_xpath.Adv.parse (Printf.sprintf "/burst%d/item%d" k k))))
    publishers;
  Thread.delay 0.3;
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port:(Daemon.port d1) in
  (* roots 0-2 subscribed (anchored shallow / anchored deep / unanchored),
     root 3 withheld *)
  ignore (Client.subscribe subscriber (Xroute_xpath.Xpe_parser.parse "/burst0"));
  ignore (Client.subscribe subscriber (Xroute_xpath.Xpe_parser.parse "/burst1/item1"));
  ignore (Client.subscribe subscriber (Xroute_xpath.Xpe_parser.parse "//item2"));
  Thread.delay 0.3;
  (* Pre-frame each publisher's burst into chunks of whole lines: the
     publisher writes a chunk per syscall, which is what lets a 1-core
     box saturate the daemon's batched read path. *)
  let chunks_for k =
    let doc =
      Xroute_xml.Xml_parser.parse (Printf.sprintf "<burst%d><item%d/></burst%d>" k k k)
    in
    let chunks = ref [] in
    let chunk = Buffer.create (1 lsl 16) in
    for i = 0 to docs_per_root - 1 do
      let doc_id = (k * 10_000_000) + i in
      List.iter
        (fun pub ->
          Buffer.add_string chunk
            ("M|" ^ Codec.encode (Message.Publish { pub; trail = []; ctx = None }) ^ "\n"))
        (Xroute_xml.Xml_paths.decompose ~doc_id doc);
      if Buffer.length chunk >= 56 * 1024 then begin
        chunks := Buffer.contents chunk :: !chunks;
        Buffer.clear chunk
      end
    done;
    if Buffer.length chunk > 0 then chunks := Buffer.contents chunk :: !chunks;
    List.rev !chunks
  in
  let bursts = List.mapi (fun k p -> (p, ref (chunks_for k))) publishers in
  let expected =
    List.concat_map
      (fun k -> List.init docs_per_root (fun i -> (k * 10_000_000) + i))
      [ 0; 1; 2 ]
  in
  let published = roots * docs_per_root in
  let t0 = Unix.gettimeofday () in
  (* round-robin one chunk per publisher so the roots interleave on the
     wire *)
  let remaining = ref true in
  while !remaining do
    remaining := false;
    List.iter
      (fun (p, chunks) ->
        match !chunks with
        | [] -> ()
        | c :: rest ->
          Client.send_line p c;
          chunks := rest;
          if rest <> [] then remaining := true)
      bursts
  done;
  let deadline = t0 +. 120.0 in
  let got = Hashtbl.create (List.length expected) in
  while Hashtbl.length got < List.length expected && Unix.gettimeofday () < deadline do
    List.iter
      (fun i -> Hashtbl.replace got i ())
      (Client.drain_deliveries ~timeout:0.2 subscriber)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let delivered = List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) got []) in
  let per_sec = float_of_int (Hashtbl.length got) /. wall in
  let hops =
    Xroute_obs.Span.to_list (Daemon.spans d1)
    |> List.filter (fun (s : Xroute_obs.Span.span) -> s.name = "hop" && s.stop > s.start)
    |> List.map Xroute_obs.Span.duration
    |> List.sort compare
  in
  let percentile p =
    match hops with
    | [] -> 0.0
    | l ->
      let n = List.length l in
      List.nth l (min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  List.iter Client.close (subscriber :: publishers);
  List.iter Daemon.request_stop [ d0; d1 ];
  List.iter Thread.join threads;
  (published, delivered, expected, wall, per_sec, percentile 0.5, percentile 0.99)

let saturation () =
  section
    "Saturation - pipelined 4-root burst through the daemon\n\
     (pre-framed publications written in 56KB chunks through a 2-broker\n\
     line; every expected doc id must arrive)";
  let docs_per_root = scaled 5000 in
  let published, delivered, expected, wall, per_sec, p50, p99 =
    saturation_run ~docs_per_root ()
  in
  Printf.printf
    "%d published, %d/%d delivered in %.2f s  (%.0f msgs/s, hop p50 %.2f ms, p99 %.2f ms)\n%!"
    published (List.length delivered) (List.length expected) wall per_sec p50 p99;
  if delivered <> expected then begin
    Printf.printf "ERROR: saturation burst lost or misrouted publications\n";
    exit 1
  end;
  Report.record7 "saturation-domains-1"
    [
      ("domains", Report.I 1);
      ("roots", Report.I 4);
      ("published", Report.I published);
      ("delivered", Report.I (List.length delivered));
      ("burst_wall_ms", Report.F (wall *. 1000.0));
      ("msgs_per_sec", Report.F per_sec);
      ("p50_hop_ms", Report.F p50);
      ("p99_hop_ms", Report.F p99);
    ]

(* ------------------------------------------------------------------ *)
(* Telemetry federation: sketch error, convergence, overhead (BENCH_10)*)
(* ------------------------------------------------------------------ *)

(* Three claims of the telemetry-federation PR, each committed as a
   BENCH_10 record. (a) The DDSketch-style quantile sketch stays within
   its advertised relative-error bound against exact order statistics on
   every seeded distribution shape the overlay actually produces. (b) A
   hop-bounded FEDSTATS pull over a line overlay converges: the merged
   view is exactly the union of the per-broker summaries — zero merge
   diffs — at every overlay size, and is idempotent under self-merge.
   (c) Telemetry is cheap: the BENCH_7 saturation burst re-run with the
   per-link health summary on vs off must land within 1.1x. *)
let obs_telemetry () =
  section
    "Telemetry federation - sketch error, FEDSTATS convergence, overhead\n\
     (sketch quantiles vs exact order statistics per distribution; the\n\
     sim FEDSTATS pull vs the union of broker healths at 3/5/7 brokers;\n\
     the BENCH_7 burst with --no-telemetry vs the default)";
  let module Sketch = Xroute_obs.Sketch in
  let module Health = Xroute_obs.Health in
  let module Prng = Xroute_support.Prng in
  let alpha = Sketch.default_alpha in
  let quantiles = [ 0.5; 0.9; 0.95; 0.99; 0.999 ] in
  let samples = scaled 20_000 in
  let prng = Prng.create 10 in
  let zipf = Xroute_support.Zipf.create ~n:1000 ~exponent:1.1 in
  let dists =
    [
      ("uniform", fun () -> 1.0 +. Prng.float prng 1000.0);
      ("exponential", fun () -> -50.0 *. log (1.0 -. Prng.unit_float prng));
      ("zipf", fun () -> float_of_int (1 + Xroute_support.Zipf.sample zipf prng));
      ( "latency-mix",
        fun () ->
          if Prng.bernoulli prng 0.05 then 100.0 +. Prng.float prng 900.0
          else 0.5 +. Prng.float prng 4.5 );
    ]
  in
  Printf.printf "sketch error (alpha %.3f, %d samples per distribution):\n" alpha samples;
  let worst = ref 0.0 in
  List.iter
    (fun (name, gen) ->
      let sketch = Sketch.create () in
      let raw = Array.init samples (fun _ -> gen ()) in
      Array.iter (Sketch.observe sketch) raw;
      let max_err =
        List.fold_left
          (fun acc q ->
            let exact = Xroute_support.Stats.percentile raw q in
            let est = Sketch.quantile sketch q in
            Float.max acc (Float.abs (est -. exact) /. Float.max 1e-12 (Float.abs exact)))
          0.0 quantiles
      in
      worst := Float.max !worst max_err;
      Printf.printf "  %-12s max rel error %.5f  (bound %.3f)\n%!" name max_err alpha;
      Report.record10
        ("sketch-error-" ^ name)
        [
          ("samples", Report.I samples);
          ("alpha", Report.F alpha);
          ("max_rel_error", Report.F max_err);
          ("within_bound", Report.B (max_err <= alpha +. 1e-9));
        ])
    dists;
  Report.record10 "sketch-error"
    [
      ("distributions", Report.I (List.length dists));
      ("alpha", Report.F alpha);
      ("max_rel_error", Report.F !worst);
      ("within_bound", Report.B (!worst <= alpha +. 1e-9));
    ];
  if !worst > alpha +. 1e-9 then begin
    Printf.printf "ERROR: sketch quantile outside the advertised bound\n";
    exit 1
  end;
  (* FEDSTATS convergence vs overlay size: publish down a line, pull the
     federated view from one end, and diff it origin-by-origin against
     the union of the brokers' own summaries. *)
  Printf.printf "\nFEDSTATS convergence (line overlays):\n";
  List.iter
    (fun brokers ->
      let net =
        Net.create
          ~config:{ Net.default_config with Net.latency = Latency.constant 1.0; seed = 10 }
          (Topology.line brokers)
      in
      let publisher = Net.add_client net ~broker:0 in
      let subscriber = Net.add_client net ~broker:(brokers - 1) in
      ignore (Net.advertise_dtd net publisher psd_advs);
      Net.run net;
      ignore
        (Net.subscribe net subscriber
           (Xroute_xpath.Xpe_parser.parse ("/" ^ Xroute_dtd.Dtd_ast.root psd)));
      Net.run net;
      let docs = Xroute_workload.Workload.documents ~dtd:psd ~count:(scaled 20) ~seed:10 () in
      List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
      Net.run net;
      let view = Net.fedstats net ~root:0 () in
      let expected = Health.view_of (List.init brokers (Net.health net)) in
      let merge_diffs =
        List.fold_left
          (fun acc (origin, s) ->
            match List.assoc_opt origin view with
            | Some got when Health.encode_summary got = Health.encode_summary s -> acc
            | _ -> acc + 1)
          0 expected
      in
      let pubs_total = List.fold_left (fun acc (_, s) -> acc + Health.pubs s) 0 view in
      let idempotent = Health.view_equal (Health.merge_views view view) view in
      Printf.printf
        "  %d brokers: %d origins, %d merge diffs, %d pubs federated, idempotent %b\n%!"
        brokers (List.length view) merge_diffs pubs_total idempotent;
      Report.record10
        (Printf.sprintf "fed-convergence-%d" brokers)
        [
          ("brokers", Report.I brokers);
          ("origins", Report.I (List.length view));
          ("merge_diffs", Report.I merge_diffs);
          ("pubs_federated", Report.I pubs_total);
          ("idempotent", Report.B idempotent);
        ];
      if merge_diffs <> 0 || List.length view <> brokers then begin
        Printf.printf "ERROR: FEDSTATS view diverged from the union of broker healths\n";
        exit 1
      end)
    [ 3; 5; 7 ];
  (* Telemetry overhead: the BENCH_7 burst with the health summary on vs
     off (the daemon's --no-telemetry switch). Best of two runs per mode
     so the committed ratio reflects the shim cost, not scheduler
     noise. *)
  let docs_per_root = scaled 5000 in
  let best telemetry =
    let one () =
      let published, delivered, expected, _, per_sec, _, _ =
        saturation_run ~telemetry ~docs_per_root ()
      in
      if delivered <> expected then begin
        Printf.printf "ERROR: telemetry overhead burst lost or misrouted publications\n";
        exit 1
      end;
      (published, per_sec)
    in
    let published, a = one () in
    let _, b = one () in
    (published, Float.max a b)
  in
  let published, per_sec_on = best true in
  let _, per_sec_off = best false in
  let ratio = per_sec_off /. per_sec_on in
  (* BENCH_7.json saturation-domains-1 msgs_per_sec: the same burst. *)
  let bench7_msgs_per_sec = 27424.8 in
  Printf.printf
    "\ntelemetry overhead (BENCH_7 burst, best of 2):\n\
    \  on  %8.0f msgs/s\n\
    \  off %8.0f msgs/s   ratio off/on %.3f  (gate <= 1.1)\n%!"
    per_sec_on per_sec_off ratio;
  Report.record10 "telemetry-overhead"
    [
      ("domains", Report.I 1);
      ("published", Report.I published);
      ("msgs_per_sec_on", Report.F per_sec_on);
      ("msgs_per_sec_off", Report.F per_sec_off);
      ("ratio_off_over_on", Report.F ratio);
      ("bench7_msgs_per_sec", Report.F bench7_msgs_per_sec);
      ("ratio_vs_bench7", Report.F (per_sec_on /. bench7_msgs_per_sec));
      ("within_gate", Report.B (ratio <= 1.1));
    ];
  if ratio > 1.1 then begin
    Printf.printf "ERROR: telemetry costs more than 10%% of burst throughput\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fault recovery: seeded outage plan, convergence after healing       *)
(* ------------------------------------------------------------------ *)

(* Set by --seed / --fault-plan (parsed in the entry point); the
   defaults match the convergence suite in test/test_fault.ml. *)
let fault_seed = ref 3
let fault_spec = ref Xroute_fault.Plan.default_spec

(* Crash brokers, break links, and drop clients on a seeded schedule
   while publications stream through the tree; once the plan heals, a
   post-heal publication batch must reach exactly the subscribers it
   reaches on an identical network that never saw a fault. *)
let fault_recovery () =
  let module Plan = Xroute_fault.Plan in
  let spec = !fault_spec and seed = !fault_seed in
  section
    (Printf.sprintf
       "Fault recovery - seeded fault plan on the 7-broker tree (seed %d)\n\
        (brokers crash and restart empty, links fail with requeue+backoff,\n\
        clients reconnect and replay their ledgers; post-heal deliveries\n\
        must match a fault-free control run)"
       seed);
  let levels = 3 in
  let topo = Topology.binary_tree ~levels in
  let subs_per_client = scaled 40 in
  let strategy = Option.get (Broker.strategy_of_name "with-Adv-with-Cov") in
  (* Deterministic in [seed]: the faulted run and the control run build
     byte-identical advertisement/subscription state. *)
  let build () =
    let config =
      { Net.default_config with Net.strategy; seed; latency = Latency.constant 2.0 }
    in
    let net = Net.create ~config topo in
    let publisher = Net.add_client net ~broker:0 in
    let leaves = Topology.binary_tree_leaves ~levels in
    let subs = List.map (fun b -> Net.add_client net ~broker:b) leaves in
    ignore (Net.advertise_dtd net publisher psd_advs);
    Net.run net;
    let prng = Xroute_support.Prng.create (seed + 99) in
    let params = Xroute_workload.Xpath_gen.default_params psd in
    List.iter
      (fun c ->
        let xpes =
          Xroute_workload.Xpath_gen.generate ~distinct:false params
            (Xroute_support.Prng.split prng) ~count:subs_per_client
        in
        List.iter (fun x -> ignore (Net.subscribe net c x)) xpes)
      subs;
    Net.run net;
    (net, publisher, subs)
  in
  let docs_during = Xroute_workload.Workload.documents ~dtd:psd ~count:(scaled 30) ~seed:61 () in
  let docs_after = Xroute_workload.Workload.documents ~dtd:psd ~count:(scaled 20) ~seed:62 () in
  (* Faulted run: publications spread across the fault horizon, then a
     post-heal batch once every fault window has closed. *)
  let net, publisher, subs = build () in
  let cids = List.map (fun c -> c.Net.cid) (publisher :: subs) in
  let plan =
    Plan.generate ~seed ~brokers:(Topology.broker_count topo)
      ~edges:(Topology.edges topo) ~clients:cids ~spec ()
  in
  let n_during = List.length docs_during in
  List.iteri
    (fun i d ->
      let at = plan.Plan.horizon *. float_of_int (i + 1) /. float_of_int (n_during + 1) in
      Sim.schedule (Net.sim net) ~delay:at (fun () ->
          ignore (Net.publish_doc net publisher ~doc_id:i d)))
    docs_during;
  Net.install_plan net plan;
  let (), wall_faulted = time_it (fun () -> Net.run net) in
  List.iteri
    (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:(10_000 + i) d))
    docs_after;
  Net.run net;
  let post_heal c =
    Hashtbl.fold
      (fun doc_id _ acc -> if doc_id >= 10_000 then doc_id :: acc else acc)
      c.Net.delivered []
    |> List.sort compare
  in
  let faulted_deliveries = List.map post_heal subs in
  (* Control: same seed, same subscriptions, no faults, only the
     post-heal batch. *)
  let control_net, control_pub, control_subs = build () in
  List.iteri
    (fun i d -> ignore (Net.publish_doc control_net control_pub ~doc_id:(10_000 + i) d))
    docs_after;
  Net.run control_net;
  let convergent = faulted_deliveries = List.map post_heal control_subs in
  let st = Net.fault_stats net in
  let mean l =
    if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let fmax l = List.fold_left Float.max 0.0 l in
  let recovery = st.Net.recovery_times in
  let post_heal_total =
    List.fold_left (fun acc l -> acc + List.length l) 0 faulted_deliveries
  in
  Printf.printf
    "plan: %d events over %.0f ms virtual (%d crashes, %d link-downs, %d delays, %d dups, %d client-drops requested)\n"
    (List.length plan.Plan.events) plan.Plan.horizon spec.Plan.crashes
    spec.Plan.link_downs spec.Plan.link_delays spec.Plan.link_dups spec.Plan.client_drops;
  Printf.printf
    "faults:   %d crashes, %d restarts, %d requeued sends, %d duplicated deliveries\n"
    st.Net.crashes st.Net.restarts st.Net.requeues st.Net.dup_deliveries;
  Printf.printf
    "losses:   %d messages destroyed at dead brokers (%d publications dropped end-to-end)\n"
    st.Net.destroyed (Net.dropped_publications net);
  Printf.printf
    "recovery: %d episodes, mean %.1f ms, max %.1f ms virtual; %d ledger entries replayed\n"
    (List.length recovery) (mean recovery) (fmax recovery) st.Net.replayed;
  Printf.printf "post-heal: %d deliveries, %s the fault-free control\n%!" post_heal_total
    (if convergent then "identical to" else "DIVERGED from");
  Report.record "fault-recovery"
    [
      ("seed", Report.I seed);
      ("plan_events", Report.I (List.length plan.Plan.events));
      ("horizon_ms", Report.F plan.Plan.horizon);
      ("crashes", Report.I st.Net.crashes);
      ("restarts", Report.I st.Net.restarts);
      ("requeues", Report.I st.Net.requeues);
      ("dup_deliveries", Report.I st.Net.dup_deliveries);
      ("destroyed", Report.I st.Net.destroyed);
      ("destroyed_pubs", Report.I st.Net.destroyed_pubs);
      ("dropped_publications", Report.I (Net.dropped_publications net));
      ("client_disconnects", Report.I st.Net.client_disconnects);
      ("client_reconnects", Report.I st.Net.client_reconnects);
      ("replayed", Report.I st.Net.replayed);
      ("recovery_episodes", Report.I (List.length recovery));
      ("recovery_ms_mean", Report.F (mean recovery));
      ("recovery_ms_max", Report.F (fmax recovery));
      ("post_heal_deliveries", Report.I post_heal_total);
      ("convergent", Report.B convergent);
      ("faulted_wall_ms", Report.F (wall_faulted *. 1000.0));
    ];
  if not convergent then begin
    Printf.printf "ERROR: post-heal deliveries diverged from the fault-free control\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Figure 6: routing table size vs number of XPEs (Sets A and B)       *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section
    "Figure 6 - Routing table size vs #XPath queries (NITF)\n\
     (paper: covering compacts Set A by ~90% and Set B by ~50%;\n\
     without covering the table grows linearly)";
  let max_count = scaled 10_000 in
  let steps = List.init 5 (fun i -> max_count * (i + 1) / 5) in
  Printf.printf "%10s %14s %18s %18s\n" "#queries" "no covering" "Set A covering" "Set B covering";
  List.iter
    (fun count ->
      let set_a =
        Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params nitf)
          ~count ~seed:11 ()
      in
      let set_b =
        Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_b_params nitf)
          ~count ~seed:12 ()
      in
      let rts_a = List.length (Sub_tree.maximal (tree_of_xpes set_a)) in
      let rts_b = List.length (Sub_tree.maximal (tree_of_xpes set_b)) in
      if count = max_count then
        Report.record "fig6"
          [
            ("xpes", Report.I count);
            ("prt_size_no_cover", Report.I count);
            ("prt_size_set_a_cover", Report.I rts_a);
            ("prt_size_set_b_cover", Report.I rts_b);
          ];
      (* without covering the routing table holds every distinct XPE *)
      Printf.printf "%10d %14d %11d (-%2.0f%%) %11d (-%2.0f%%)\n%!" count count rts_a
        (100.0 *. float_of_int (count - rts_a) /. float_of_int (max 1 count))
        rts_b
        (100.0 *. float_of_int (List.length set_b - rts_b)
        /. float_of_int (max 1 (List.length set_b))))
    steps

(* ------------------------------------------------------------------ *)
(* Figure 7: covering vs perfect vs imperfect merging (Set B)          *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section
    "Figure 7 - Routing table size: covering vs merging (Set B, NITF)\n\
     (paper: perfect merging compacts the covered table to ~87%, \n\
     imperfect merging with D<=0.1 to ~67%)";
  let universe =
    Xroute_dtd.Dtd_paths.sample_paths ~count:30_000 ~max_depth:10
      (Xroute_support.Prng.create 99) nitf_graph
    |> List.sort_uniq Stdlib.compare
  in
  let max_count = scaled 10_000 in
  let steps = List.init 4 (fun i -> max_count * (i + 1) / 4) in
  Printf.printf "%10s %10s %16s %18s\n" "#queries" "covering" "perfect merging" "imperfect (D<=0.1)";
  List.iter
    (fun count ->
      let xpes =
        Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_b_params nitf)
          ~count ~seed:12 ()
      in
      let maximal = List.map Sub_tree.node_xpe (Sub_tree.maximal (tree_of_xpes xpes)) in
      let rts_cov = List.length maximal in
      let merged_size max_degree =
        let applied, kept = Merge.merge_set ~max_degree ~universe maximal in
        List.length applied + List.length kept
      in
      let rts_pm = merged_size 0.0 in
      let rts_ipm = merged_size 0.1 in
      Printf.printf "%10d %10d %10d (%3.0f%%) %10d (%3.0f%%)\n%!" (List.length xpes) rts_cov
        rts_pm
        (100.0 *. float_of_int rts_pm /. float_of_int (max 1 rts_cov))
        rts_ipm
        (100.0 *. float_of_int rts_ipm /. float_of_int (max 1 rts_cov)))
    steps

(* ------------------------------------------------------------------ *)
(* Figure 8: XPE processing time with/without covering                 *)
(* ------------------------------------------------------------------ *)

(* Processing an arriving XPE: with covering, check the tree first and
   only match uncovered XPEs against the advertisements; without, match
   every XPE against every advertisement. *)
let fig8 () =
  section
    "Figure 8 - XPE processing time, NITF vs PSD, covering on/off\n\
     (paper: covering improves NITF processing by up to 49.2%; NITF\n\
     benefits more because its advertisement set is far larger)";
  let total = scaled 5000 in
  let batch = max 1 (total / 10) in
  let process dtd_name advs params =
    let xpes =
      Xroute_workload.Workload.xpes ~params ~count:total ~seed:21 ()
    in
    (* without covering *)
    let (), t_nocov =
      time_it (fun () ->
          List.iter
            (fun xpe ->
              List.iter (fun adv -> ignore (Adv_match.overlaps_paper xpe adv)) advs)
            xpes)
    in
    (* with covering *)
    let tree : int Sub_tree.t = Sub_tree.create () in
    let covered = ref 0 in
    let (), t_cov =
      time_it (fun () ->
          List.iteri
            (fun i xpe ->
              if Sub_tree.is_covered tree xpe then incr covered
              else
                List.iter (fun adv -> ignore (Adv_match.overlaps_paper xpe adv)) advs;
              ignore (Sub_tree.insert tree xpe i))
            xpes)
    in
    Printf.printf
      "%-5s (%4d advs): no-cov %7.1f ms  with-cov %7.1f ms  (%4.1f%% faster; %2.0f%% covered)\n%!"
      dtd_name (List.length advs) (t_nocov *. 1000.0) (t_cov *. 1000.0)
      (100.0 *. (t_nocov -. t_cov) /. t_nocov)
      (100.0 *. float_of_int !covered /. float_of_int (List.length xpes));
    ignore batch
  in
  process "NITF" nitf_advs (Xroute_workload.Workload.set_a_params nitf);
  process "PSD" psd_advs (Xroute_workload.Workload.set_a_params psd)

(* ------------------------------------------------------------------ *)
(* Table 1: publication routing time                                   *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section
    "Table 1 - Publication routing time per message (NITF, Sets A/B)\n\
     (paper: covering cuts Set A from 13.96 to 2.15 ms (-84.6%) and\n\
     Set B from 14.23 to 7.47 ms (-47.5%); merging improves it further)";
  let count = scaled 10_000 in
  let docs = Xroute_workload.Workload.documents ~dtd:nitf ~count:(scaled 100) ~seed:31 () in
  let pubs = Xroute_workload.Workload.publications_of_documents docs in
  let n_pubs = List.length pubs in
  let universe =
    Xroute_dtd.Dtd_paths.sample_paths ~count:30_000 ~max_depth:10
      (Xroute_support.Prng.create 99) nitf_graph
    |> List.sort_uniq Stdlib.compare
  in
  Printf.printf "%-20s %14s %14s   (%d XPEs, %d publications)\n" "Method" "Set A (ms)"
    "Set B (ms)" count n_pubs;
  let route_time tree =
    let (), t =
      time_it (fun () ->
          List.iter
            (fun (p : Xroute_xml.Xml_paths.publication) ->
              ignore (Sub_tree.match_path tree p.steps p.attrs))
            pubs)
    in
    t *. 1000.0 /. float_of_int n_pubs
  in
  let per_set params seed =
    let xpes = Xroute_workload.Workload.xpes ~params ~count ~seed () in
    let flat = let t : int Sub_tree.t = Sub_tree.create ~flat:true () in List.iteri (fun i x -> ignore (Sub_tree.insert t x i)) xpes; t in
    let covered = tree_of_xpes xpes in
    let maximal = List.map Sub_tree.node_xpe (Sub_tree.maximal covered) in
    let merged_tree max_degree =
      let applied, kept = Merge.merge_set ~max_degree ~universe maximal in
      tree_of_xpes (List.map (fun m -> m.Merge.xpe) applied @ kept)
    in
    let t_none = route_time flat in
    let t_cov = route_time covered in
    let t_pm = route_time (merged_tree 0.0) in
    let t_ipm = route_time (merged_tree 0.1) in
    (t_none, t_cov, t_pm, t_ipm)
  in
  let a = per_set (Xroute_workload.Workload.set_a_params nitf) 11 in
  let b = per_set (Xroute_workload.Workload.set_b_params nitf) 12 in
  let row name fa fb = Printf.printf "%-20s %14.4f %14.4f\n%!" name fa fb in
  let a1, a2, a3, a4 = a and b1, b2, b3, b4 = b in
  row "No Covering" a1 b1;
  row "Covering" a2 b2;
  row "Perfect Merging" a3 b3;
  row "Imperfect Merging" a4 b4;
  Printf.printf "Set A covering speedup: %.1f%%  (paper: 84.6%%)\n"
    (100.0 *. (a1 -. a2) /. a1);
  Printf.printf "Set B covering speedup: %.1f%%  (paper: 47.5%%)\n%!"
    (100.0 *. (b1 -. b2) /. b1)

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3: network traffic and delay, 7 and 127 brokers        *)
(* ------------------------------------------------------------------ *)

let run_network ~levels ~subs_per_client ~doc_count strategy_name =
  let strategy = Option.get (Broker.strategy_of_name strategy_name) in
  let topo = Topology.binary_tree ~levels in
  let config = { Net.default_config with Net.strategy; latency = Latency.cluster } in
  let net = Net.create ~config topo in
  let prng = Xroute_support.Prng.create 404 in
  let publisher = Net.add_client net ~broker:0 in
  let leaves = Topology.binary_tree_leaves ~levels in
  let clients = List.map (fun b -> Net.add_client net ~broker:b) leaves in
  ignore (Net.advertise_dtd net publisher psd_advs);
  Net.run net;
  let params = Xroute_workload.Xpath_gen.default_params psd in
  List.iter
    (fun c ->
      let xpes =
        Xroute_workload.Xpath_gen.generate ~distinct:false params
          (Xroute_support.Prng.split prng) ~count:subs_per_client
      in
      List.iter (fun x -> ignore (Net.subscribe net c x)) xpes)
    clients;
  Net.run net;
  (match strategy.Broker.merging with
  | Broker.No_merging -> ()
  | _ ->
    Net.set_universe net
      (Xroute_dtd.Dtd_paths.enumerate_paths ~max_depth:10 ~max_count:3000 psd_graph);
    Net.merge_all net);
  let docs = Xroute_workload.Workload.documents ~dtd:psd ~count:doc_count ~seed:51 () in
  let t_pub_start = Sim.now (Net.sim net) in
  List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
  Net.run net;
  ignore t_pub_start;
  (* Report from the metrics registry — the same surface a daemon
     exposes over STATS|. *)
  let reg = Net.aggregate_metrics net in
  let scalar name = Option.value ~default:0.0 (Metrics.scalar reg name) in
  let delay =
    match Metrics.find reg "xroute_net_delivery_delay_ms" with
    | Some (Metrics.Histogram h) -> (Metrics.summary h).Xroute_support.Stats.mean
    | _ -> 0.0
  in
  ( int_of_float (scalar "xroute_net_msgs_total"),
    delay,
    int_of_float (scalar "xroute_net_deliveries_total") )

let network_table ~levels ~subs_per_client ~doc_count title paper_hint =
  section (title ^ "\n" ^ paper_hint);
  Printf.printf "%-24s %16s %12s %12s\n" "Method" "Network Traffic" "Delay (ms)" "Deliveries";
  let base = ref 0 in
  List.iter
    (fun name ->
      let traffic, delay, deliveries =
        run_network ~levels ~subs_per_client ~doc_count name
      in
      if !base = 0 then base := traffic;
      Printf.printf "%-24s %16d %12.3f %12d   (%.1f%% of baseline)\n%!" name traffic delay
        deliveries
        (100.0 *. float_of_int traffic /. float_of_int !base))
    Broker.strategy_names

let table2 () =
  network_table ~levels:3 ~subs_per_client:(scaled 1000) ~doc_count:(scaled 50)
    "Table 2 - 7-broker network (PSD, 1000 XPEs per subscriber, 50 docs)"
    "(paper: adv+cov reduce traffic to ~66%; covering cuts delay ~4x;\n merging compacts further at slight traffic increase for IPM)"

let table3 () =
  (* The paper uses 1000 XPEs per subscriber; the flooding baselines make
     that a long run (every subscription crosses all 126 links and every
     publication is matched against every broker's full table), so the
     default is scaled down; XROUTE_BENCH_SCALE=10 restores paper size. *)
  network_table ~levels:7
    ~subs_per_client:(scaled 100)
    ~doc_count:(scaled 20)
    "Table 3 - 127-broker network (PSD, 100 XPEs per subscriber, 20 docs)"
    "(paper: adv+cov reduce traffic to ~50%; benefits grow with size)"

(* ------------------------------------------------------------------ *)
(* Figure 9: false positives vs imperfect degree                       *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  section
    "Figure 9 - False positives vs imperfect merging degree (PSD)\n\
     (paper: false positives grow with the degree bound; D <= 0.1 keeps\n\
     them under ~2%)";
  (* Subscribers are interested in most-but-not-all children of each
     container element: the canonical situation where merging a sibling
     group to a wildcard overshoots by exactly the missing siblings.
     False positives are the *extra* in-network drops relative to a
     no-merging control (publications for which no subscriber exists at
     all are dropped at the publisher's edge in every strategy and do
     not count). *)
  let paths = Xroute_dtd.Dtd_paths.enumerate_paths ~max_depth:10 ~max_count:3000 psd_graph in
  let groups : (string, string array list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun path ->
      let n = Array.length path in
      if n >= 2 then begin
        let prefix = String.concat "/" (Array.to_list (Array.sub path 0 (n - 1))) in
        let existing = Option.value ~default:[] (Hashtbl.find_opt groups prefix) in
        Hashtbl.replace groups prefix (path :: existing)
      end)
    paths;
  let run merging =
    let strategy = { Broker.default_strategy with Broker.merging } in
    let topo = Topology.binary_tree ~levels:3 in
    let net = Net.create ~config:{ Net.default_config with Net.strategy } topo in
    let prng = Xroute_support.Prng.create 640 in
    let publisher = Net.add_client net ~broker:0 in
    let leaves = Topology.binary_tree_leaves ~levels:3 in
    let clients = List.map (fun b -> Net.add_client net ~broker:b) leaves in
    ignore (Net.advertise_dtd net publisher psd_advs);
    Net.run net;
    List.iter
      (fun c ->
        Hashtbl.iter
          (fun _prefix members ->
            if List.length members >= 3 then begin
              let members = Xroute_support.Prng.shuffle prng (Array.of_list members) in
              let drop = 1 + Xroute_support.Prng.int prng (Array.length members / 3 + 1) in
              Array.iteri
                (fun i path ->
                  if i >= drop then
                    ignore
                      (Net.subscribe net c
                         (Xroute_xpath.Xpe.absolute_of_names (Array.to_list path))))
                members
            end)
          groups)
      clients;
    Net.run net;
    Net.set_universe net paths;
    Net.merge_all net;
    let docs = Xroute_workload.Workload.documents ~dtd:psd ~count:(scaled 40) ~seed:61 () in
    List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
    Net.run net;
    ((Net.traffic net).Net.pub, Net.dropped_publications net, Net.total_deliveries net)
  in
  let base_pubs, base_dropped, base_deliveries = run Broker.No_merging in
  Printf.printf "(control without merging: %d pub messages, %d edge drops)\n" base_pubs
    base_dropped;
  Printf.printf "%10s %18s %16s\n" "Degree" "pub messages" "false pos (%)";
  List.iter
    (fun degree ->
      let merging = if degree = 0.0 then Broker.Perfect else Broker.Imperfect degree in
      let pubs, dropped, deliveries = run merging in
      if deliveries <> base_deliveries then
        Printf.printf "WARNING: deliveries changed (%d vs %d)\n" deliveries base_deliveries;
      Printf.printf "%10.2f %18d %15.2f%%\n%!" degree pubs
        (100.0 *. float_of_int (max 0 (dropped - base_dropped)) /. float_of_int (max 1 pubs)))
    [ 0.0; 0.05; 0.1; 0.15; 0.2 ]

(* ------------------------------------------------------------------ *)
(* Figures 10 and 11: notification delay vs hops (PlanetLab model)     *)
(* ------------------------------------------------------------------ *)

let delay_vs_hops ~dtd ~advs ~doc_sizes title paper_hint =
  section (title ^ "\n" ^ paper_hint);
  let hops = [ 2; 3; 4; 5; 6 ] in
  Printf.printf "%8s" "size";
  List.iter (fun h -> Printf.printf "  %8s" (Printf.sprintf "%d hops" h)) hops;
  Printf.printf "\n";
  let subs_per_client = scaled 400 in
  List.iter
    (fun target_bytes ->
      let run_with use_cover =
        let strategy = { Broker.default_strategy with Broker.use_cover } in
        let config =
          { Net.default_config with Net.strategy; latency = Latency.planetlab; seed = 7 }
        in
        let topo = Topology.line 7 in
        let net = Net.create ~config topo in
        let publisher = Net.add_client net ~broker:0 in
        let subscribers = List.map (fun h -> (h, Net.add_client net ~broker:h)) hops in
        ignore (Net.advertise_dtd net publisher advs);
        Net.run net;
        let prng = Xroute_support.Prng.create 777 in
        let params = Xroute_workload.Workload.set_a_params dtd in
        List.iter
          (fun (_, c) ->
            List.iter
              (fun x -> ignore (Net.subscribe net c x))
              (Xroute_workload.Xpath_gen.generate ~distinct:false params
                 (Xroute_support.Prng.split prng) ~count:subs_per_client);
            (* one catch-all marker so every document is delivered *)
            ignore
              (Net.subscribe net c
                 (Xroute_xpath.Xpe_parser.parse ("/" ^ Xroute_dtd.Dtd_ast.root dtd))))
          subscribers;
        Net.run net;
        let gen_prng = Xroute_support.Prng.create 888 in
        let gparams = Xroute_workload.Xml_gen.default_params dtd in
        for doc_id = 0 to scaled 10 - 1 do
          let doc = Xroute_workload.Xml_gen.generate_sized gparams gen_prng ~target_bytes in
          ignore (Net.publish_doc net publisher ~doc_id doc)
        done;
        Net.run net;
        let delays = Net.delivery_delays net in
        List.map
          (fun (h, c) ->
            let ds =
              List.filter_map
                (fun (cid, _, d) -> if cid = c.Net.cid then Some d else None)
                delays
            in
            ( h,
              if ds = [] then nan
              else List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds) ))
          subscribers
      in
      let with_cov = run_with true in
      let without_cov = run_with false in
      Printf.printf "%5dK +cov" (target_bytes / 1024);
      List.iter (fun h -> Printf.printf "  %8.2f" (List.assoc h with_cov)) hops;
      Printf.printf "\n%5dK -cov" (target_bytes / 1024);
      List.iter (fun h -> Printf.printf "  %8.2f" (List.assoc h without_cov)) hops;
      Printf.printf "\n%!")
    doc_sizes

let fig10 () =
  delay_vs_hops ~dtd:psd ~advs:psd_advs
    ~doc_sizes:[ 2048; 10240; 20480 ]
    "Figure 10 - Notification delay vs hops, PSD documents (PlanetLab model)"
    "(paper: delay linear in hops; covering cuts it by up to 74%;\n larger documents take longer)"

let fig11 () =
  delay_vs_hops ~dtd:nitf ~advs:nitf_advs
    ~doc_sizes:[ 2048; 20480; 40960 ]
    "Figure 11 - Notification delay vs hops, NITF documents (PlanetLab model)"
    "(paper: same shape as Fig. 10 with larger documents and tables)"

(* ------------------------------------------------------------------ *)
(* Latency breakdown: per-stage percentiles from the causal spans      *)
(* ------------------------------------------------------------------ *)

(* The causal-span layer (lib/obs/span) decomposes every delivery into
   stage leaves — queue wait, SRT/PRT match, cover check, per-message
   processing, transmit, link, FIFO queueing, delivery. This experiment
   publishes a seeded workload down a 7-broker line under three
   strategies and reports p50/p95/p99 per stage: the view *behind* the
   aggregate delay numbers of Figures 10-11, showing covering cutting
   the match stages while the wire stages stay strategy-invariant.
   Virtual time, so every reported value is deterministic in the
   seeds. *)
let latency_breakdown () =
  section
    "Latency breakdown - per-stage p50/p95/p99 from causal spans\n\
     (7-broker line, PSD; stage leaves of the span trees the TRACE|\n\
     command exposes; no-optimization vs covering vs perfect merging)";
  let stages =
    [ "queue"; "srt_match"; "prt_match"; "cover"; "proc"; "transmit"; "link"; "deliver" ]
  in
  let run strategy_name =
    let strategy = Option.get (Broker.strategy_of_name strategy_name) in
    let spans = Xroute_obs.Span.create ~capacity:262_144 () in
    let config =
      { Net.default_config with Net.strategy; latency = Latency.planetlab; seed = 7 }
    in
    let net = Net.create ~config ~spans (Topology.line 7) in
    let publisher = Net.add_client net ~broker:0 in
    let subscriber = Net.add_client net ~broker:6 in
    ignore (Net.advertise_dtd net publisher psd_advs);
    Net.run net;
    let prng = Xroute_support.Prng.create 777 in
    let params = Xroute_workload.Workload.set_a_params psd in
    List.iter
      (fun x -> ignore (Net.subscribe net subscriber x))
      (Xroute_workload.Xpath_gen.generate ~distinct:false params
         (Xroute_support.Prng.split prng) ~count:(scaled 200));
    (* catch-all so every document is delivered end-to-end *)
    ignore
      (Net.subscribe net subscriber
         (Xroute_xpath.Xpe_parser.parse ("/" ^ Xroute_dtd.Dtd_ast.root psd)));
    Net.run net;
    (match strategy.Broker.merging with
    | Broker.No_merging -> ()
    | _ ->
      Net.set_universe net
        (Xroute_dtd.Dtd_paths.enumerate_paths ~max_depth:10 ~max_count:3000 psd_graph);
      Net.merge_all net);
    let docs = Xroute_workload.Workload.documents ~dtd:psd ~count:(scaled 20) ~seed:51 () in
    List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
    Net.run net;
    let all = Xroute_obs.Span.to_list spans in
    let durations name =
      List.filter_map
        (fun (s : Xroute_obs.Span.span) ->
          if s.Xroute_obs.Span.name = name then Some (Xroute_obs.Span.duration s) else None)
        all
      |> Array.of_list
    in
    ( List.map (fun st -> (st, Xroute_support.Stats.summarize (durations st))) stages,
      Xroute_support.Stats.summarize (durations "pub") )
  in
  List.iter
    (fun strategy_name ->
      let per_stage, e2e = run strategy_name in
      Printf.printf "\n%s  (end-to-end: n=%d  p50 %.3f  p95 %.3f  p99 %.3f ms)\n" strategy_name
        e2e.Xroute_support.Stats.count e2e.Xroute_support.Stats.p50
        e2e.Xroute_support.Stats.p95 e2e.Xroute_support.Stats.p99;
      Printf.printf "%-12s %8s %10s %10s %10s\n" "stage" "n" "p50 (ms)" "p95 (ms)" "p99 (ms)";
      List.iter
        (fun (st, (s : Xroute_support.Stats.summary)) ->
          Printf.printf "%-12s %8d %10.4f %10.4f %10.4f\n%!" st s.count s.p50 s.p95 s.p99)
        per_stage;
      Report.record
        ("latency-breakdown-" ^ strategy_name)
        (List.concat_map
           (fun (st, (s : Xroute_support.Stats.summary)) ->
             [
               (st ^ "_n", Report.I s.count);
               (st ^ "_p50_ms", Report.F s.p50);
               (st ^ "_p95_ms", Report.F s.p95);
               (st ^ "_p99_ms", Report.F s.p99);
             ])
           (("e2e", e2e) :: per_stage)))
    [ "no-Adv-no-Cov"; "with-Adv-with-Cov"; "with-Adv-with-CovPM" ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_exact_cover () =
  section
    "Ablation - paper covering rules vs exact automata containment\n\
     (completeness buys extra table compaction at a CPU price)";
  let count = scaled 4000 in
  let xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_b_params nitf) ~count
      ~seed:71 ()
  in
  let run name covers =
    let (tree : int Sub_tree.t), t =
      time_it (fun () ->
          let tree = Sub_tree.create ~covers () in
          List.iteri (fun i x -> ignore (Sub_tree.insert tree x i)) xpes;
          tree)
    in
    Printf.printf "%-14s table=%6d  build time=%8.1f ms\n%!" name
      (List.length (Sub_tree.maximal tree))
      (t *. 1000.0)
  in
  run "paper rules" (fun a b -> Cover.covers a b);
  run "exact" Cover.covers_exact

let ablation_yfilter () =
  section
    "Ablation - covering tree vs YFilter-style shared NFA (matching)\n\
     (the paper's table organization vs the classic NFA filter; Sec. 6\n\
     discussion. Build cost, table size and per-publication match time)";
  let count = scaled 10_000 in
  let xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params nitf) ~count
      ~seed:11 ()
  in
  let docs = Xroute_workload.Workload.documents ~dtd:nitf ~count:(scaled 60) ~seed:35 () in
  let pubs = Xroute_workload.Workload.publications_of_documents docs in
  let n_pubs = List.length pubs in
  (* covering tree *)
  let tree, t_tree_build = time_it (fun () -> tree_of_xpes xpes) in
  let (), t_tree_match =
    time_it (fun () ->
        List.iter
          (fun (p : Xroute_xml.Xml_paths.publication) ->
            ignore (Sub_tree.match_path tree p.steps p.attrs))
          pubs)
  in
  (* yfilter *)
  let yf, t_yf_build =
    time_it (fun () ->
        let yf : int Yfilter.t = Yfilter.create () in
        List.iteri (fun i x -> Yfilter.insert yf x i) xpes;
        yf)
  in
  let (), t_yf_match =
    time_it (fun () ->
        List.iter
          (fun (p : Xroute_xml.Xml_paths.publication) ->
            ignore (Yfilter.match_path yf p.steps p.attrs))
          pubs)
  in
  Printf.printf "%-16s build %8.1f ms  match %8.4f ms/pub  (state: %d nodes)\n"
    "covering tree" (t_tree_build *. 1000.)
    (t_tree_match *. 1000. /. float_of_int n_pubs)
    (Sub_tree.size tree);
  Printf.printf "%-16s build %8.1f ms  match %8.4f ms/pub  (state: %d NFA states)\n%!"
    "yfilter" (t_yf_build *. 1000.)
    (t_yf_match *. 1000. /. float_of_int n_pubs)
    (Yfilter.state_count yf)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core algorithms                    *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  section "Micro-benchmarks (Bechamel; ns per operation)";
  let open Bechamel in
  let xp = Xroute_xpath.Xpe_parser.parse in
  let ad = Xroute_xpath.Adv.parse in
  let abs_xpe = xp "/nitf/body/*/block/p" in
  let rel_xpe = xp "block/p/em" in
  let des_xpe = xp "/nitf//block/*//em" in
  let rec_adv = ad "/nitf/body/body.content(/block)+/p/em" in
  let plain_adv = Xroute_xpath.Adv.of_names [ "nitf"; "body"; "body.content"; "block"; "p"; "em" ] in
  let plain_syms = Xroute_xpath.Adv.to_symbols plain_adv in
  let s1 = xp "/nitf/body/*//p" and s2 = xp "/nitf/body/body.content/block/p/em" in
  let tree = tree_of_xpes
      (Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params nitf)
         ~count:2000 ~seed:91 ()) in
  let path = [| "nitf"; "body"; "body.content"; "block"; "p"; "em" |] in
  let tests =
    [
      Test.make ~name:"AbsExprAndAdv"
        (Staged.stage (fun () -> Adv_match.abs_expr_and_adv abs_xpe.Xroute_xpath.Xpe.steps plain_syms));
      Test.make ~name:"RelExprAndAdv"
        (Staged.stage (fun () -> Adv_match.rel_expr_and_adv rel_xpe.Xroute_xpath.Xpe.steps plain_syms));
      Test.make ~name:"RelExprAndAdv-naive"
        (Staged.stage (fun () -> Adv_match.rel_expr_and_adv_naive rel_xpe.Xroute_xpath.Xpe.steps plain_syms));
      Test.make ~name:"DesExprAndAdv"
        (Staged.stage (fun () -> Adv_match.des_expr_and_adv des_xpe plain_syms));
      Test.make ~name:"RecAdvMatch"
        (Staged.stage (fun () -> Adv_match.expr_and_rec_adv abs_xpe rec_adv));
      Test.make ~name:"ExactOverlap(NFA)"
        (Staged.stage (fun () -> Adv_match.overlaps_exact abs_xpe rec_adv));
      Test.make ~name:"Cover.covers"
        (Staged.stage (fun () -> Cover.covers s1 s2));
      Test.make ~name:"Cover.covers-exact"
        (Staged.stage (fun () -> Cover.covers_exact s1 s2));
      Test.make ~name:"SubTree.match(2k)"
        (Staged.stage (fun () -> Sub_tree.match_names tree path));
      Test.make ~name:"SubTree.is_covered(2k)"
        (Staged.stage (fun () -> Sub_tree.is_covered tree s2));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> e
            | _ -> nan
          in
          Printf.printf "%-28s %12.1f ns/op\n%!" name estimate)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Match scaling - flat scan vs covering tree vs shared-prefix NFA     *)
(* ------------------------------------------------------------------ *)

(* Per-publication match cost as the PRT grows from 1k to 100k
   subscriptions: the PRT's shared-prefix NFA against two references
   built from {!Sub_tree} — the flat list (no covering) and the covering
   tree (pruned DFS, the paper's matcher). Decisions must be
   byte-identical across all three at every size; the NFA's
   per-publication cost must track its branching into the publication,
   not the table size. Records go to BENCH_6.json. *)

let ids_decision ids =
  List.sort_uniq compare ids
  |> List.map (fun (id : Message.sub_id) -> Printf.sprintf "%d.%d" id.origin id.seq)
  |> String.concat ";"

let prt_decision (prt : Rtable.Prt.t) (pub : Xroute_xml.Xml_paths.publication) =
  ids_decision (List.map (fun (p : Rtable.Prt.payload) -> p.id) (Rtable.Prt.match_pub prt pub))

let tree_decision (tree : Message.sub_id Sub_tree.t) (pub : Xroute_xml.Xml_paths.publication) =
  ids_decision (Sub_tree.match_syms tree pub.syms pub.attrs)

let match_scaling () =
  section
    "Match scaling - flat list vs covering tree vs shared-prefix NFA\n\
     (PRT publication matching as the table grows; Set A, NITF; the\n\
     PRT's NFA and both Sub_tree references must agree decision-for-\n\
     decision while the NFA's cost stays flat in the table size)";
  let sizes = List.sort_uniq compare [ scaled 1_000; scaled 10_000; scaled 100_000 ] in
  let requested = List.fold_left max 1 sizes in
  let xpes =
    Array.of_list
      (Xroute_workload.Workload.xpes
         ~params:(Xroute_workload.Workload.set_a_params nitf) ~count:requested ~seed:71 ())
  in
  (* the generator caps at the DTD's distinct-XPE space *)
  let avail = Array.length xpes in
  if avail < requested then
    Printf.printf "(workload yields %d distinct XPEs for %d requested)\n" avail requested;
  let docs = Xroute_workload.Workload.documents ~dtd:nitf ~count:(scaled 10) ~seed:72 () in
  let pubs = Xroute_workload.Workload.publications_of_documents docs in
  let n_pubs = List.length pubs in
  let flat = Sub_tree.create ~flat:true () in
  let tree = Sub_tree.create () in
  let nfa = Rtable.Prt.create () in
  let inserted = ref 0 in
  let fill upto =
    for i = !inserted to min upto avail - 1 do
      let id : Message.sub_id = { origin = 1; seq = i } in
      ignore (Sub_tree.insert flat xpes.(i) id);
      ignore (Sub_tree.insert tree xpes.(i) id);
      ignore (Rtable.Prt.insert nfa id xpes.(i) (Rtable.Client 0))
    done;
    inserted := min upto avail
  in
  Printf.printf "%d publications from %d documents\n" n_pubs (scaled 10);
  Printf.printf "%-9s %-9s | %13s %13s %13s | %11s %11s %11s | %5s\n" "xpes" "(stored)"
    "flat ent/pub" "tree ent/pub" "nfa ent/pub" "flat ms/pub" "tree ms/pub" "nfa ms/pub"
    "diffs";
  let last_ratio = ref 0.0 in
  List.iter
    (fun size ->
      fill size;
      let run checks decide =
        let before = checks () in
        let decisions, wall = time_it (fun () -> List.map decide pubs) in
        (decisions, checks () - before, wall)
      in
      let run_tree t = run (fun () -> Sub_tree.match_checks t) (tree_decision t) in
      let d_flat, ops_flat, t_flat = run_tree flat in
      let d_tree, ops_tree, t_tree = run_tree tree in
      let d_nfa, ops_nfa, t_nfa =
        run (fun () -> Rtable.Prt.match_checks nfa) (prt_decision nfa)
      in
      let diffs l = List.fold_left2 (fun n a b -> if String.equal a b then n else n + 1) 0 d_flat l in
      let decision_diffs = diffs d_tree + diffs d_nfa in
      let per ops = float_of_int ops /. float_of_int (max 1 n_pubs) in
      let ms t = t *. 1000.0 /. float_of_int (max 1 n_pubs) in
      let ratio = per ops_flat /. Float.max 1.0 (per ops_nfa) in
      last_ratio := ratio;
      Printf.printf
        "%-9d %-9d | %13.1f %13.1f %13.1f | %11.4f %11.4f %11.4f | %5d  (flat/nfa %.1fx)\n%!"
        size !inserted (per ops_flat) (per ops_tree) (per ops_nfa) (ms t_flat) (ms t_tree)
        (ms t_nfa) decision_diffs ratio;
      Report.record6
        (Printf.sprintf "match-scaling-%d" size)
        [
          ("xpes_requested", Report.I size);
          ("xpes_stored", Report.I !inserted);
          ("publications", Report.I n_pubs);
          ("entries_per_pub_flat", Report.F (per ops_flat));
          ("entries_per_pub_tree", Report.F (per ops_tree));
          ("entries_per_pub_nfa", Report.F (per ops_nfa));
          ("ms_per_pub_flat", Report.F (ms t_flat));
          ("ms_per_pub_tree", Report.F (ms t_tree));
          ("ms_per_pub_nfa", Report.F (ms t_nfa));
          ("nfa_states", Report.I (Rtable.Prt.nfa_states nfa));
          ("flat_over_nfa", Report.F ratio);
          ("decision_diffs", Report.I decision_diffs);
          ("decisions_identical", Report.B (decision_diffs = 0));
        ];
      if decision_diffs <> 0 then begin
        Printf.printf "match-scaling FAILED: %d decision diffs at %d XPEs\n" decision_diffs
          size;
        exit 1
      end)
    sizes;
  Report.record6 "match-scaling"
    [
      ("sizes", Report.I (List.length sizes));
      ("flat_over_nfa_at_max", Report.F !last_ratio);
    ]

(* ------------------------------------------------------------------ *)
(* Million-client scenario engine: sim-events/sec and peak RSS          *)
(* ------------------------------------------------------------------ *)

module Scenario = Xroute_workload.Scenario

(* Two halves, one experiment. First the trust gate: at small scale,
   every scenario kind runs twice and the replay must reproduce the
   delivery ledger byte for byte (full rows), with identical per-broker
   next-hop decisions and fault accounting — the determinism that makes
   the large-scale numbers below meaningful. Then the scale
   series: the flash-crowd scenario at 10k/100k/1M virtual subscribers,
   reporting sim-events/sec and process peak RSS per point, so simulator
   performance is tracked by the same BENCH machinery as broker
   performance. Points run in ascending order (peak RSS is a high-water
   mark). *)
let scenario_scale () =
  section "Scenario engine: replay gate + scale series (BENCH_8.json)";
  Printf.printf "replay gate (1000 clients, full ledgers, all kinds):\n%!";
  let gate_failed = ref false in
  List.iter
    (fun kind ->
      let spec =
        {
          Scenario.default_spec with
          Scenario.kind;
          clients = 1_000;
          docs = 8;
          levels = 3;
          xpes = 64;
          batch = 128;
        }
      in
      let (a, diffs), wall =
        time_it (fun () ->
            let a = Scenario.run ~ledger:`Full spec in
            (a, Scenario.diff a (Scenario.run ~ledger:`Full spec)))
      in
      let name = Scenario.kind_to_string kind in
      Printf.printf "  %-8s deliveries=%-7d subs=%-6d diffs=%d (%.0f ms)\n%!" name
        a.Scenario.deliveries a.Scenario.subs_sent (List.length diffs) (wall *. 1000.0);
      if diffs <> [] then gate_failed := true;
      Report.record8
        (Printf.sprintf "scenario-differential-%s" name)
        [
          ("clients", Report.I spec.Scenario.clients);
          ("deliveries", Report.I a.Scenario.deliveries);
          ("subs", Report.I a.Scenario.subs_sent);
          ("unsubs", Report.I a.Scenario.unsubs_sent);
          ("ledger_diffs", Report.I (List.length diffs));
          ("ledgers_identical", Report.B (diffs = []));
        ])
    Scenario.all_kinds;
  if !gate_failed then begin
    Printf.printf "scenario-scale FAILED: a scenario replay diverged\n";
    exit 1
  end;
  let points =
    [
      (scaled 10_000, 4, 8, 1_024);
      (scaled 100_000, 5, 6, 4_096);
      (scaled 1_000_000, 6, 4, 8_192);
    ]
  in
  Printf.printf "\nflash-crowd scale series:\n";
  Printf.printf "%-9s %-8s | %10s %12s %12s %10s | %9s\n" "clients" "brokers" "deliveries"
    "sim events" "events/sec" "wall s" "peakRSS MB";
  List.iter
    (fun (clients, levels, docs, batch) ->
      let spec =
        {
          Scenario.default_spec with
          Scenario.kind = Scenario.Flash_crowd;
          clients;
          docs;
          levels;
          batch;
        }
      in
      let o, wall =
        time_it (fun () -> Scenario.run ~ledger:`Digest ~decisions:false spec)
      in
      let rss = peak_rss_bytes () in
      let eps = float_of_int o.Scenario.events /. Float.max 1e-9 wall in
      Printf.printf "%-9d %-8d | %10d %12d %12.0f %10.2f | %9.1f\n%!" clients
        ((1 lsl levels) - 1) o.Scenario.deliveries o.Scenario.events eps wall
        (float_of_int rss /. 1.0e6);
      Report.record8
        (Printf.sprintf "scenario-scale-%d" clients)
        [
          ("clients", Report.I clients);
          ("brokers", Report.I ((1 lsl levels) - 1));
          ("docs", Report.I o.Scenario.docs_published);
          ("subs", Report.I o.Scenario.subs_sent);
          ("deliveries", Report.I o.Scenario.deliveries);
          ("events", Report.I o.Scenario.events);
          ("events_per_sec", Report.F eps);
          ("wall_s", Report.F wall);
          ("peak_rss_bytes", Report.I rss);
          ("prt_total", Report.I o.Scenario.prt_total);
          ("virtual_ms", Report.F o.Scenario.virtual_ms);
        ])
    points;
  Report.record8 "scenario-scale"
    [
      ("scale_points", Report.I (List.length points));
      ("max_clients", Report.I (List.fold_left (fun m (c, _, _, _) -> max m c) 0 points));
      ("differential_gate", Report.B (not !gate_failed));
    ]

(* ------------------------------------------------------------------ *)
(* Instrumentation smoke check (wired into dune runtest)               *)
(* ------------------------------------------------------------------ *)

(* [Rtable.Prt.match_checks] of the smoke gate's PRT corpus below: the
   742 PSD Set-A XPEs of seed 13 against the 483 publications of 8 PSD
   and 4 NITF documents (seeds 14, 15). *)
let smoke_nfa_charge = 44490

(* Drive a tiny workload through the simulator and fail if any
   registered hot-path metric stays at zero — the canary for silently
   dead instrumentation. *)
let smoke () =
  let topo = Topology.line 3 in
  let net = Net.create topo in
  let publisher = Net.add_client net ~broker:0 in
  let subscriber = Net.add_client net ~broker:2 in
  ignore (Net.advertise_dtd net publisher psd_advs);
  Net.run net;
  let xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params psd)
      ~count:40 ~seed:5 ()
  in
  List.iter (fun x -> ignore (Net.subscribe net subscriber x)) xpes;
  (* catch-all so every document is delivered *)
  ignore
    (Net.subscribe net subscriber
       (Xroute_xpath.Xpe_parser.parse ("/" ^ Xroute_dtd.Dtd_ast.root psd)));
  Net.run net;
  let docs = Xroute_workload.Workload.documents ~dtd:psd ~count:5 ~seed:6 () in
  List.iteri (fun i d -> ignore (Net.publish_doc net publisher ~doc_id:i d)) docs;
  Net.run net;
  let reg = Net.aggregate_metrics net in
  let hot_paths =
    [
      "xroute_broker_msgs_in_total";
      "xroute_broker_advs_in_total";
      "xroute_broker_subs_in_total";
      "xroute_broker_pubs_in_total";
      "xroute_broker_deliveries_total";
      "xroute_broker_forwarded_subs";
      "xroute_srt_size";
      "xroute_srt_buckets";
      "xroute_srt_bucket_max";
      "xroute_srt_match_ops_total";
      "xroute_srt_overlap_tests_total";
      "xroute_srt_sub_match_ops";
      "xroute_prt_size";
      "xroute_prt_payloads";
      "xroute_prt_match_checks_total";
      "xroute_prt_cover_checks_total";
      "xroute_prt_pub_match_ops";
      "xroute_net_msgs_total";
      "xroute_net_msgs_adv_total";
      "xroute_net_msgs_sub_total";
      "xroute_net_msgs_pub_total";
      "xroute_net_deliveries_total";
      "xroute_net_hop_latency_ms";
      "xroute_net_delivery_delay_ms";
    ]
  in
  let dead =
    List.filter
      (fun name ->
        match Metrics.scalar reg name with Some v -> v = 0.0 | None -> true)
      hot_paths
  in
  Printf.printf "smoke: %d hot-path metrics checked\n" (List.length hot_paths);
  if dead <> [] then begin
    Printf.printf "smoke FAILED: metrics stuck at zero (or unregistered):\n";
    List.iter (fun n -> Printf.printf "  %s\n" n) dead;
    print_string (Metrics.to_prometheus reg);
    exit 1
  end;
  (* Indexed SRT against the full-scan reference: identical routing
     decisions and charged ops on a seeded multi-feed workload with
     mixed client and neighbor hops, the index charging strictly fewer
     than the full scan. *)
  let advs = Lazy.force all_feed_advs in
  let xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params nitf)
      ~count:2000 ~seed:11 ()
  in
  let identical, ops_list, ops_idx, _, _, _ = srt_differential ~advs xpes in
  Printf.printf "smoke: SRT differential on %d XPEs x %d advs: list %d ops, indexed %d ops\n"
    (List.length xpes) (List.length advs) ops_list ops_idx;
  if not identical then begin
    Printf.printf "smoke FAILED: indexed SRT diverged from the full-scan reference\n";
    exit 1
  end;
  if ops_idx >= ops_list then begin
    Printf.printf "smoke FAILED: SRT index avoided no scans (%d >= %d)\n" ops_idx ops_list;
    exit 1
  end;
  (* PRT NFA vs the flat list: identical routing decisions on the PSD
     multi-feed corpus (PSD subscriptions; publications from the PSD
     feed plus a foreign feed, so the automaton also sees roots it
     stores nothing under). *)
  let prt_xpes =
    Xroute_workload.Workload.xpes ~params:(Xroute_workload.Workload.set_a_params psd)
      ~count:1500 ~seed:13 ()
  in
  let flat_list = Sub_tree.create ~flat:true () in
  let prt_nfa = Rtable.Prt.create () in
  List.iteri
    (fun i x ->
      let id : Message.sub_id = { origin = 2; seq = i } in
      ignore (Sub_tree.insert flat_list x id);
      ignore (Rtable.Prt.insert prt_nfa id x (Rtable.Client 0)))
    prt_xpes;
  let corpus =
    Xroute_workload.Workload.publications_of_documents
      (Xroute_workload.Workload.documents ~dtd:psd ~count:8 ~seed:14 ()
      @ Xroute_workload.Workload.documents ~dtd:nitf ~count:4 ~seed:15 ())
  in
  let nfa_diffs =
    List.filter
      (fun pub -> not (String.equal (tree_decision flat_list pub) (prt_decision prt_nfa pub)))
      corpus
  in
  (* The automaton's charge over the corpus is pinned: [match_checks]
     counts each edge followed and each accepting entry scanned, and
     Broker.work, the virtual clock and the bench's entries/pub all
     build on it, so a matcher rewrite must leave it exactly as it is. *)
  let nfa_charge = Rtable.Prt.match_checks prt_nfa in
  Printf.printf
    "smoke: PRT NFA vs flat list on %d XPEs x %d publications: %d decision diffs, %d match checks\n"
    (List.length prt_xpes) (List.length corpus) (List.length nfa_diffs) nfa_charge;
  if nfa_charge <> smoke_nfa_charge then begin
    Printf.printf "smoke FAILED: PRT NFA charged %d match checks, pinned %d\n" nfa_charge
      smoke_nfa_charge;
    exit 1
  end;
  if nfa_diffs <> [] then begin
    Printf.printf "smoke FAILED: PRT NFA diverged from the flat list\n";
    List.iter
      (fun (pub : Xroute_xml.Xml_paths.publication) ->
        Printf.printf "  /%s\n" (String.concat "/" (Array.to_list pub.steps)))
      nfa_diffs;
    exit 1
  end;
  (match Rtable.Prt.nfa_invariants prt_nfa with
  | [] -> ()
  | problems ->
    Printf.printf "smoke FAILED: PRT NFA invariants violated:\n";
    List.iter (fun m -> Printf.printf "  %s\n" m) problems;
    exit 1);
  (* Fault gate: crash the relay broker of a line, publish into the
     outage (must be destroyed and accounted), restart it, and require
     the routing state to recover so the next publication is delivered
     and exactly one recovery episode is measured. *)
  let fnet =
    Net.create
      ~config:{ Net.default_config with Net.latency = Latency.constant 1.0 }
      (Topology.line 3)
  in
  let fpub = Net.add_client fnet ~broker:0 in
  let fsub = Net.add_client fnet ~broker:2 in
  ignore (Net.advertise fnet fpub (Xroute_xpath.Adv.parse "/x/y"));
  Net.run fnet;
  ignore (Net.subscribe fnet fsub (Xroute_xpath.Xpe_parser.parse "/x"));
  Net.run fnet;
  Net.crash_broker fnet 1;
  ignore (Net.publish_doc fnet fpub ~doc_id:1 (Xroute_xml.Xml_parser.parse "<x><y/></x>"));
  Net.run fnet;
  Net.restart_broker fnet 1;
  Net.run fnet;
  ignore (Net.publish_doc fnet fpub ~doc_id:2 (Xroute_xml.Xml_parser.parse "<x><y/></x>"));
  Net.run fnet;
  let fstats = Net.fault_stats fnet in
  if Hashtbl.mem fsub.Net.delivered 1 then begin
    Printf.printf "smoke FAILED: publication sent into the crash window was delivered\n";
    exit 1
  end;
  if not (Hashtbl.mem fsub.Net.delivered 2) then begin
    Printf.printf "smoke FAILED: no delivery after broker restart\n";
    exit 1
  end;
  if Net.dropped_publications fnet = 0 then begin
    Printf.printf "smoke FAILED: crash-destroyed publication not accounted as dropped\n";
    exit 1
  end;
  if List.length fstats.Net.recovery_times <> 1 then begin
    Printf.printf "smoke FAILED: expected 1 recovery episode, measured %d\n"
      (List.length fstats.Net.recovery_times);
    exit 1
  end;
  Printf.printf
    "smoke: fault gate ok (crash/restart recovered; %d msgs destroyed, %.1f ms recovery)\n"
    fstats.Net.destroyed
    (List.hd fstats.Net.recovery_times);
  (* Span gate: a traced publication must yield a complete, well-nested
     span tree whose stage leaves sum exactly to the measured
     end-to-end latency — the invariant the latency-breakdown
     experiment and the TRACE| command stand on. Single-path document
     on a line so the leaf-sum telescopes without fanout. *)
  let span_spans = Xroute_obs.Span.create () in
  let snet =
    Net.create
      ~config:{ Net.default_config with Net.latency = Latency.constant 1.0 }
      ~spans:span_spans (Topology.line 3)
  in
  let span_pub = Net.add_client snet ~broker:0 in
  let span_sub = Net.add_client snet ~broker:2 in
  ignore (Net.advertise snet span_pub (Xroute_xpath.Adv.parse "/x/y"));
  Net.run snet;
  ignore (Net.subscribe snet span_sub (Xroute_xpath.Xpe_parser.parse "/x"));
  Net.run snet;
  ignore (Net.publish_doc snet span_pub ~doc_id:7 (Xroute_xml.Xml_parser.parse "<x><y/></x>"));
  Net.run snet;
  let sps = Xroute_obs.Span.spans_for span_spans ~trace:7 in
  if sps = [] then begin
    Printf.printf "smoke FAILED: traced publication produced no spans\n";
    exit 1
  end;
  (match Xroute_obs.Span.check_tree sps with
  | Ok () -> ()
  | Error e ->
    Printf.printf "smoke FAILED: span tree mis-nested: %s\n" e;
    print_string (Xroute_obs.Span.waterfall sps);
    exit 1);
  let span_delay =
    match Net.delivery_delays snet with
    | [ (_, 7, d) ] -> d
    | l ->
      Printf.printf "smoke FAILED: expected exactly one traced delivery, saw %d\n"
        (List.length l);
      exit 1
  in
  let leaf_sum = Xroute_obs.Span.stage_sum sps in
  if Float.abs (leaf_sum -. span_delay) > 1e-6 then begin
    Printf.printf "smoke FAILED: stage leaves sum to %.9f ms but delivery took %.9f ms\n"
      leaf_sum span_delay;
    print_string (Xroute_obs.Span.waterfall sps);
    exit 1
  end;
  Printf.printf "smoke: span gate ok (%d spans, leaf sum = end-to-end %.3f ms)\n"
    (List.length sps) span_delay;
  (* Scenario gate: a replay of a small flash-crowd scenario must
     reproduce its delivery ledger byte for byte — the determinism the
     million-client numbers in BENCH_8.json stand on. *)
  let scen_spec =
    {
      Scenario.default_spec with
      Scenario.clients = 300;
      docs = 5;
      levels = 3;
      xpes = 32;
      batch = 64;
      dtd = "book";
    }
  in
  let scen_a = Scenario.run ~ledger:`Full scen_spec in
  let scen_diffs = Scenario.diff scen_a (Scenario.run ~ledger:`Full scen_spec) in
  if scen_diffs <> [] then begin
    Printf.printf "smoke FAILED: scenario replay diverged (%s)\n"
      (String.concat ", " scen_diffs);
    exit 1
  end;
  if scen_a.Scenario.deliveries = 0 then begin
    Printf.printf "smoke FAILED: smoke scenario produced no deliveries\n";
    exit 1
  end;
  Printf.printf "smoke: scenario gate ok (%d deliveries, replay = ledger)\n"
    scen_a.Scenario.deliveries;
  Printf.printf "smoke ok\n%!"

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("latency-breakdown", latency_breakdown);
    ("srt-index", srt_bucket_bench);
    ("daemon-throughput", daemon_throughput);
    ("saturation", saturation);
    ("obs-telemetry", obs_telemetry);
    ("fault-recovery", fault_recovery);
    ("ablation-exact-cover", ablation_exact_cover);
    ("ablation-yfilter", ablation_yfilter);
    ("match-scaling", match_scaling);
    ("micro", micro_benchmarks);
    ("scenario-scale", scenario_scale);
  ]

let () =
  if Array.exists (String.equal "--smoke") Sys.argv then begin
    smoke ();
    exit 0
  end;
  (* Consume --seed N and --fault-plan SPEC (they parameterise the
     fault-recovery experiment); everything left over is an
     experiment-name filter. *)
  let rec parse_args acc = function
    | [] -> List.rev acc
    | [ ("--seed" | "--fault-plan") as flag ] ->
      Printf.eprintf "%s needs a value\n" flag;
      exit 2
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n -> fault_seed := n
      | None ->
        Printf.eprintf "bad --seed %S (want an integer)\n" v;
        exit 2);
      parse_args acc rest
    | "--fault-plan" :: v :: rest ->
      (match Xroute_fault.Plan.spec_of_string v with
      | Ok spec -> fault_spec := spec
      | Error msg ->
        Printf.eprintf "bad --fault-plan %S: %s\n" v msg;
        exit 2);
      parse_args acc rest
    | name :: rest -> parse_args (name :: acc) rest
  in
  let names = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  (* Reject a typo (or --help) before anything runs: the BENCH_5 sink
     below is written whatever ran, and an empty run would overwrite the
     committed records. *)
  (match List.filter (fun n -> not (List.mem_assoc n experiments)) names with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown experiment(s): %s\nvalid: --smoke, --seed N, --fault-plan SPEC, %s\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst experiments));
    exit 2);
  let only = if names = [] then None else Some names in
  let want name = match only with None -> true | Some l -> List.mem name l in
  Printf.printf "xroute experiment harness (scale %.2f; set XROUTE_BENCH_SCALE to change)\n" scale;
  Printf.printf "NITF advertisements: %d, PSD advertisements: %d (paper ratio: ~35x)\n%!"
    (List.length nitf_advs) (List.length psd_advs);
  List.iter
    (fun (name, f) ->
      if want name then begin
        let (), wall = time_it f in
        Report.record name [ ("wall_ms", Report.F (wall *. 1000.0)) ]
      end)
    experiments;
  Report.write
    (Option.value ~default:"BENCH_5.json" (Sys.getenv_opt "XROUTE_BENCH_JSON"));
  Printf.printf "\nDone.\n"
