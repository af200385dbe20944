(* Per-broker health summaries and their federation into an overlay
   view.

   A summary is a view of a metrics registry — the broker's own, or a
   private one for a summary decoded off the wire: every count and
   distribution it reports is a named series there. [t] keeps only the
   origin, the epoch and each link's EWMA send rate.
   Everything in a summary merges without bias: sketches by bucket
   addition, counters by addition — except that summaries themselves
   never merge with each other. Federation merges *views* (origin id ->
   summary), keyed by origin with the freshest epoch winning, so
   pulling the same broker through two overlay paths (a diamond, a
   cycle) contributes its summary once. That makes view merge
   idempotent — merging a view with itself is a no-op — which is the
   property the --obs-audit gate pins and the reason FEDSTATS is safe
   on future cyclic overlays.

   The wire encoding is one line per summary: '|'-separated k=v fields
   with links ascending by peer id and space-separated link subfields,
   deliberately disjoint from the {!Sketch} alphabet (';', ':', ',') so
   the sketch encodings nest verbatim. The whole line is then
   Framing-escaped on the wire. *)

module M = Metrics

(* Handles into the registry, resolved when the link is first seen, and
   the link's rate state. *)
type link = {
  peer : int;
  sends : M.counter;
  drops : M.counter;
  latency : M.histogram; (* per-hop latency over this link, ms *)
  mutable rate : float; (* EWMA sends/s *)
  mutable folded : int; (* [sends] at the last fold into [rate] *)
}

type t = {
  origin : int;
  metrics : M.t;
  mutable epoch : int; (* bumped by [tick]; freshest wins in view merge *)
  pubs : M.counter;
  drops : M.counter;
  hop_latency : M.histogram; (* broker processing hop latency, ms *)
  backlog : M.histogram; (* egress backlog (bytes or queued events) *)
  links : (int, link) Hashtbl.t;
  mutable last_tick : float; (* ms *)
}

(* The EWMA sliding window, ms. *)
let window = 5000.0

let create ?(metrics = M.create ()) origin =
  {
    origin;
    metrics;
    epoch = 0;
    pubs = M.counter metrics ~help:"Publications handled" "xroute_broker_pubs_in_total";
    drops =
      M.counter metrics ~help:"Messages lost for want of a live endpoint"
        "xroute_broker_sends_dropped_total";
    hop_latency = M.histogram metrics ~help:"Publication hop latency (ms)" "xroute_broker_hop_ms";
    backlog = M.histogram metrics ~help:"Egress backlog samples" "xroute_broker_egress_backlog";
    links = Hashtbl.create 8;
    last_tick = nan;
  }

let origin t = t.origin
let epoch t = t.epoch
let pubs t = M.value t.pubs
let drops t = M.value t.drops

let link t peer =
  match Hashtbl.find_opt t.links peer with
  | Some l -> l
  | None ->
    let name = Printf.sprintf "xroute_link_%d_%s" peer in
    let help = Printf.sprintf "%s, link to broker %d" in
    let sends = M.counter t.metrics ~help:(help "Messages sent" peer) (name "sends_total") in
    let drops = M.counter t.metrics ~help:(help "Messages dropped" peer) (name "drops_total") in
    let latency = M.histogram t.metrics ~help:(help "Hop latency (ms)" peer) (name "latency_ms") in
    let l = { peer; sends; drops; latency; rate = 0.0; folded = M.value sends } in
    Hashtbl.add t.links peer l;
    l

let links t =
  Hashtbl.fold (fun _ l acc -> l :: acc) t.links []
  |> List.sort (fun a b -> compare a.peer b.peer)

let link_peer l = l.peer
let link_sends l = M.value l.sends

(* ---------------- recording ---------------- *)

let record_pub t = M.incr t.pubs
let record_drop t = M.incr t.drops
let record_hop_latency t ms = M.observe t.hop_latency ms
let record_backlog t b = M.observe t.backlog b
let record_send t ~peer = M.incr (link t peer).sends
let record_link_drop t ~peer = M.incr (link t peer).drops
let record_link_latency t ~peer ms = M.observe (link t peer).latency ms

(* Fold the sends since the last fold into each link's EWMA rate:
   rate' = decay * rate + (1 - decay) * instantaneous, with
   decay = exp(-dt/window) — a sliding exponential window, deterministic
   given the same event sequence and tick times. Bumps the epoch. *)
let tick t ~now =
  t.epoch <- t.epoch + 1;
  if Float.is_nan t.last_tick then t.last_tick <- now
  else begin
    let dt = now -. t.last_tick in
    if dt > 0.0 then begin
      let decay = exp (-.dt /. window) in
      Hashtbl.iter
        (fun _ l ->
          let sends = M.value l.sends in
          let inst = float_of_int (sends - l.folded) /. (dt /. 1000.0) in
          l.rate <- (decay *. l.rate) +. ((1.0 -. decay) *. inst);
          l.folded <- sends)
        t.links;
      t.last_tick <- now
    end
  end

(* ---------------- wire encoding ---------------- *)

let fenc = Printf.sprintf "%h"
let sketch h = Sketch.encode (M.sketch h)

let encode_summary t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "hs1|o=%d|e=%d|p=%d|d=%d|hl=%s|eb=%s" t.origin t.epoch (pubs t) (drops t)
       (sketch t.hop_latency) (sketch t.backlog));
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "|l=%d %d %d %s %s" l.peer (M.value l.sends) (M.value l.drops)
           (fenc l.rate) (sketch l.latency)))
    (links t);
  Buffer.contents buf

(* A summary decoded off the wire is a [t] over a private registry, so
   every reader sees one shape. Counts land in fresh counters; a sketch
   merges into its histogram unless its alpha differs, which makes the
   line malformed rather than raising. *)
let decode_summary s =
  let ( let* ) = Option.bind in
  let count c v =
    let* n = int_of_string_opt v in
    if n < 0 then None else Some (M.add c n)
  in
  let merge h v =
    let* sk = Sketch.decode v in
    let dst = M.sketch h in
    if Sketch.alpha sk <> Sketch.alpha dst then None else Some (Sketch.merge_into ~dst sk)
  in
  let kv f =
    match String.index_opt f '=' with
    | Some i -> Some (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
    | None -> None
  in
  let field t (k, v) =
    match k with
    | "e" ->
      let* e = int_of_string_opt v in
      Some (t.epoch <- e)
    | "p" -> count t.pubs v
    | "d" -> count t.drops v
    | "hl" -> merge t.hop_latency v
    | "eb" -> merge t.backlog v
    | "l" -> (
      match String.split_on_char ' ' v with
      | [ peer; sends; drops; rate; sk ] ->
        let* peer = int_of_string_opt peer in
        let* rate = float_of_string_opt rate in
        let l = link t peer in
        let* () = count l.sends sends in
        let* () = count l.drops drops in
        let* () = merge l.latency sk in
        Some (l.rate <- rate)
      | _ -> None)
    | _ -> Some () (* unknown field: forward compat *)
  in
  match String.split_on_char '|' s with
  | "hs1" :: o :: fields ->
    (* the origin must come first *)
    let* o = match kv o with Some ("o", v) -> int_of_string_opt v | _ -> None in
    let t = create o in
    let rec go = function
      | [] -> Some t
      | f :: rest ->
        let* f = kv f in
        let* () = field t f in
        go rest
    in
    go fields
  | _ -> None

(* ---------------- views ---------------- *)

(* An overlay view: origin id -> that broker's summary, sorted by
   origin. Merge is keyed by origin — the freshest epoch wins, ties
   resolved by the lexicographically smaller encoding so the merge is
   deterministic regardless of argument order — hence idempotent:
   [merge_views v v] = [v]. *)
type view = (int * t) list

let view_of ts = List.sort (fun (a, _) (b, _) -> compare a b) (List.map (fun t -> (t.origin, t)) ts)

let pick a b =
  if a.epoch > b.epoch then a
  else if b.epoch > a.epoch then b
  else if String.compare (encode_summary a) (encode_summary b) <= 0 then a
  else b

let merge_views (va : view) (vb : view) : view =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (o, s) -> Hashtbl.replace tbl o s) va;
  List.iter
    (fun (o, s) ->
      match Hashtbl.find_opt tbl o with
      | None -> Hashtbl.add tbl o s
      | Some prev -> Hashtbl.replace tbl o (pick prev s))
    vb;
  Hashtbl.fold (fun o s acc -> (o, s) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let encode_view (v : view) = List.map (fun (_, s) -> encode_summary s) v

let decode_view lines =
  let rec go acc = function
    | [] -> Some (merge_views (view_of (List.rev acc)) [])
    | line :: rest -> (
      match decode_summary line with
      | Some s -> go (s :: acc) rest
      | None -> None)
  in
  go [] lines

let view_equal (a : view) (b : view) =
  List.length a = List.length b
  && List.for_all2
       (fun (oa, sa) (ob, sb) ->
         oa = ob && String.equal (encode_summary sa) (encode_summary sb))
       a b

(* ---------------- rendering ---------------- *)

let fmt v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

(* Quantile lines read the histogram's summary, which reads an empty
   histogram as zeros. *)
let qline name h =
  let s = M.summary h in
  if s.count = 0 then Printf.sprintf "%-12s (no samples)" name
  else
    Printf.sprintf "%-12s n=%d p50=%s p95=%s p99=%s max=%s" name s.count (fmt s.p50)
      (fmt s.p95) (fmt s.p99) (fmt s.max)

(* Single-shot text dashboard of an overlay view: one block per origin
   plus an overlay-wide rollup (hop-latency histograms merged across
   origins). *)
let render_top (v : view) =
  let buf = Buffer.create 1024 in
  let rollup = M.histogram (M.create ()) "xroute_broker_hop_ms" in
  let total_pubs = ref 0 and total_drops = ref 0 in
  List.iter
    (fun (o, s) ->
      Sketch.merge_into ~dst:(M.sketch rollup) (M.sketch s.hop_latency);
      total_pubs := !total_pubs + pubs s;
      total_drops := !total_drops + drops s;
      Buffer.add_string buf
        (Printf.sprintf "broker %d  epoch=%d pubs=%d drops=%d\n" o s.epoch (pubs s) (drops s));
      Buffer.add_string buf (Printf.sprintf "  %s\n" (qline "hop_ms" s.hop_latency));
      Buffer.add_string buf (Printf.sprintf "  %s\n" (qline "backlog" s.backlog));
      List.iter
        (fun l ->
          Buffer.add_string buf
            (Printf.sprintf "  link ->%-4d sends=%d drops=%d rate=%s/s %s\n" l.peer
               (M.value l.sends) (M.value l.drops) (fmt l.rate) (qline "lat_ms" l.latency)))
        (links s))
    v;
  Buffer.add_string buf
    (Printf.sprintf "overlay  brokers=%d pubs=%d drops=%d\n  %s\n" (List.length v)
       !total_pubs !total_drops (qline "hop_ms" rollup));
  Buffer.contents buf

let histogram_json h =
  let s = M.summary h in
  Printf.sprintf "{\"count\":%d,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"max\":%s}" s.count
    (fmt s.p50) (fmt s.p95) (fmt s.p99) (fmt s.max)

let view_to_json (v : view) =
  let summary_json (o, s) =
    let links_json =
      links s
      |> List.map (fun l ->
             Printf.sprintf
               "{\"peer\":%d,\"sends\":%d,\"drops\":%d,\"rate\":%s,\"latency_ms\":%s}" l.peer
               (M.value l.sends) (M.value l.drops) (fmt l.rate) (histogram_json l.latency))
      |> String.concat ","
    in
    Printf.sprintf
      "{\"origin\":%d,\"epoch\":%d,\"pubs\":%d,\"drops\":%d,\"hop_latency_ms\":%s,\"backlog\":%s,\"links\":[%s]}"
      o s.epoch (pubs s) (drops s) (histogram_json s.hop_latency) (histogram_json s.backlog)
      links_json
  in
  "{\"brokers\":[" ^ String.concat "," (List.map summary_json v) ^ "]}"
