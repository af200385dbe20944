(* Per-broker health summaries and their federation into an overlay
   view.

   Each broker (sim or daemon) owns one [t]: sketches for hop latency,
   queue depth and egress backlog, counters for publications and drops,
   and a per-link table with send/drop counts, a latency sketch, and a
   sliding-window EWMA send rate. Everything in a summary merges
   without bias: sketches by bucket addition, counters by addition —
   except that summaries themselves never merge with each other.
   Federation merges *views* (origin id -> summary), keyed by origin
   with the freshest epoch winning, so pulling the same broker through
   two overlay paths (a diamond, a cycle) contributes its summary once.
   That makes view merge idempotent — merging a view with itself is a
   no-op — which is the property the --obs-audit gate pins and the
   reason FEDSTATS is safe on future cyclic overlays.

   The wire encoding is one line per summary: '|'-separated k=v fields
   with links ascending by peer id and space-separated link subfields,
   deliberately disjoint from the {!Sketch} alphabet (';', ':', ',') so
   the sketch encodings nest verbatim. The whole line is then
   Framing-escaped on the wire. *)

type link = {
  l_peer : int;
  l_latency : Sketch.t; (* per-hop latency over this link, ms *)
  mutable l_sends : int;
  mutable l_drops : int;
  mutable l_rate : float; (* EWMA sends/s *)
}

type t = {
  origin : int;
  mutable epoch : int; (* bumped by [tick]; freshest wins in view merge *)
  hop_latency : Sketch.t; (* broker processing hop latency, ms *)
  queue_depth : Sketch.t;
  backlog : Sketch.t; (* egress backlog (bytes or queued events) *)
  mutable pubs : int;
  mutable drops : int;
  links : (int, link) Hashtbl.t;
  (* EWMA state: events since the last tick, per link, and the last
     tick's timestamp (ms). *)
  pending : (int, int) Hashtbl.t;
  mutable last_tick : float;
}

(* The EWMA sliding window, ms. *)
let window = 5000.0

let create origin =
  {
    origin;
    epoch = 0;
    hop_latency = Sketch.create ();
    queue_depth = Sketch.create ();
    backlog = Sketch.create ();
    pubs = 0;
    drops = 0;
    links = Hashtbl.create 8;
    pending = Hashtbl.create 8;
    last_tick = nan;
  }

let origin t = t.origin
let epoch t = t.epoch
let hop_latency t = t.hop_latency
let queue_depth t = t.queue_depth
let backlog t = t.backlog
let pubs t = t.pubs
let drops t = t.drops

let link t peer =
  match Hashtbl.find_opt t.links peer with
  | Some l -> l
  | None ->
    let l =
      { l_peer = peer; l_latency = Sketch.create (); l_sends = 0; l_drops = 0; l_rate = 0.0 }
    in
    Hashtbl.add t.links peer l;
    l

let links t =
  Hashtbl.fold (fun _ l acc -> l :: acc) t.links []
  |> List.sort (fun a b -> compare a.l_peer b.l_peer)

(* ---------------- recording ---------------- *)

let record_pub t = t.pubs <- t.pubs + 1
let record_drop t = t.drops <- t.drops + 1
let record_hop_latency t ms = Sketch.observe t.hop_latency ms
let record_queue_depth t d = Sketch.observe t.queue_depth d
let record_backlog t b = Sketch.observe t.backlog b

let record_send t ~peer =
  let l = link t peer in
  l.l_sends <- l.l_sends + 1;
  Hashtbl.replace t.pending peer (1 + Option.value (Hashtbl.find_opt t.pending peer) ~default:0)

let record_link_drop t ~peer =
  let l = link t peer in
  l.l_drops <- l.l_drops + 1
let record_link_latency t ~peer ms = Sketch.observe (link t peer).l_latency ms

(* Fold the sends since the last tick into each link's EWMA rate:
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
          let n = Option.value (Hashtbl.find_opt t.pending l.l_peer) ~default:0 in
          let inst = float_of_int n /. (dt /. 1000.0) in
          l.l_rate <- (decay *. l.l_rate) +. ((1.0 -. decay) *. inst))
        t.links;
      Hashtbl.reset t.pending;
      t.last_tick <- now
    end
  end

(* ---------------- wire encoding ---------------- *)

let fenc = Printf.sprintf "%h"

let encode_summary t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "hs1|o=%d|e=%d|p=%d|d=%d|hl=%s|qd=%s|eb=%s" t.origin t.epoch t.pubs
       t.drops
       (Sketch.encode t.hop_latency)
       (Sketch.encode t.queue_depth)
       (Sketch.encode t.backlog));
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "|l=%d %d %d %s %s" l.l_peer l.l_sends l.l_drops (fenc l.l_rate)
           (Sketch.encode l.l_latency)))
    (links t);
  Buffer.contents buf

let decode_summary s =
  let ( let* ) = Option.bind in
  match String.split_on_char '|' s with
  | "hs1" :: fields ->
    let kv f =
      match String.index_opt f '=' with
      | Some i -> Some (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
      | None -> None
    in
    let rec go t = function
      | [] -> t
      | f :: rest -> (
        match kv f with
        | None -> None
        | Some (k, v) -> (
          match (k, t) with
          | "o", None ->
            let* o = int_of_string_opt v in
            go (Some (create o)) rest
          | _, None -> None (* origin must come first *)
          | "e", Some t ->
            let* e = int_of_string_opt v in
            t.epoch <- e;
            go (Some t) rest
          | "p", Some t ->
            let* p = int_of_string_opt v in
            t.pubs <- p;
            go (Some t) rest
          | "d", Some t ->
            let* d = int_of_string_opt v in
            t.drops <- d;
            go (Some t) rest
          | "hl", Some t ->
            let* sk = Sketch.decode v in
            Sketch.merge_into ~dst:t.hop_latency sk;
            go (Some t) rest
          | "qd", Some t ->
            let* sk = Sketch.decode v in
            Sketch.merge_into ~dst:t.queue_depth sk;
            go (Some t) rest
          | "eb", Some t ->
            let* sk = Sketch.decode v in
            Sketch.merge_into ~dst:t.backlog sk;
            go (Some t) rest
          | "l", Some t -> (
            match String.split_on_char ' ' v with
            | [ peer; sends; drops; rate; sk ] ->
              let* peer = int_of_string_opt peer in
              let* sends = int_of_string_opt sends in
              let* drops = int_of_string_opt drops in
              let* rate = float_of_string_opt rate in
              let* sk = Sketch.decode sk in
              let l = link t peer in
              l.l_sends <- sends;
              l.l_drops <- drops;
              l.l_rate <- rate;
              Sketch.merge_into ~dst:l.l_latency sk;
              go (Some t) rest
            | _ -> None)
          | _, Some t -> go (Some t) rest (* unknown field: forward compat *)))
    in
    go None fields
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

let qline name sk =
  if Sketch.count sk = 0 then Printf.sprintf "%-12s (no samples)" name
  else
    Printf.sprintf "%-12s n=%d p50=%s p95=%s p99=%s max=%s" name (Sketch.count sk)
      (fmt (Sketch.quantile sk 0.5))
      (fmt (Sketch.quantile sk 0.95))
      (fmt (Sketch.quantile sk 0.99))
      (fmt (Sketch.max_value sk))

(* Single-shot text dashboard of an overlay view: one block per origin
   plus an overlay-wide rollup (sketches merged across origins). *)
let render_top (v : view) =
  let buf = Buffer.create 1024 in
  let rollup = Sketch.create () in
  let total_pubs = ref 0 and total_drops = ref 0 in
  List.iter
    (fun (o, s) ->
      Sketch.merge_into ~dst:rollup s.hop_latency;
      total_pubs := !total_pubs + s.pubs;
      total_drops := !total_drops + s.drops;
      Buffer.add_string buf
        (Printf.sprintf "broker %d  epoch=%d pubs=%d drops=%d\n" o s.epoch s.pubs s.drops);
      Buffer.add_string buf (Printf.sprintf "  %s\n" (qline "hop_ms" s.hop_latency));
      Buffer.add_string buf (Printf.sprintf "  %s\n" (qline "queue" s.queue_depth));
      Buffer.add_string buf (Printf.sprintf "  %s\n" (qline "backlog" s.backlog));
      List.iter
        (fun l ->
          Buffer.add_string buf
            (Printf.sprintf "  link ->%-4d sends=%d drops=%d rate=%s/s %s\n" l.l_peer
               l.l_sends l.l_drops (fmt l.l_rate) (qline "lat_ms" l.l_latency)))
        (links s))
    v;
  Buffer.add_string buf
    (Printf.sprintf "overlay  brokers=%d pubs=%d drops=%d\n  %s\n" (List.length v)
       !total_pubs !total_drops (qline "hop_ms" rollup));
  Buffer.contents buf

let sketch_json sk =
  Printf.sprintf "{\"count\":%d,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"max\":%s}"
    (Sketch.count sk)
    (fmt (Sketch.quantile sk 0.5))
    (fmt (Sketch.quantile sk 0.95))
    (fmt (Sketch.quantile sk 0.99))
    (fmt (if Sketch.count sk = 0 then 0.0 else Sketch.max_value sk))

let view_to_json (v : view) =
  let summary_json (o, s) =
    let links_json =
      links s
      |> List.map (fun l ->
             Printf.sprintf
               "{\"peer\":%d,\"sends\":%d,\"drops\":%d,\"rate\":%s,\"latency_ms\":%s}" l.l_peer
               l.l_sends l.l_drops (fmt l.l_rate) (sketch_json l.l_latency))
      |> String.concat ","
    in
    Printf.sprintf
      "{\"origin\":%d,\"epoch\":%d,\"pubs\":%d,\"drops\":%d,\"hop_latency_ms\":%s,\"queue_depth\":%s,\"backlog\":%s,\"links\":[%s]}"
      o s.epoch s.pubs s.drops (sketch_json s.hop_latency) (sketch_json s.queue_depth)
      (sketch_json s.backlog) links_json
  in
  "{\"brokers\":[" ^ String.concat "," (List.map summary_json v) ^ "]}"
