(* TCP deployment of a content-based XML router.

   One daemon hosts one {!Xroute_core.Broker} behind a listening socket
   and drives it with a single-threaded select loop. Peers speak a
   line-oriented protocol:

     HELLO|broker|<id>          identify as neighbor broker <id>
     HELLO|client|<id>          identify as client <id>
     M|<codec line>             a routed message (see Xroute_core.Codec)
     AUDIT                      routing-state audit of the hosted broker

   Outgoing neighbor links follow the lower-id-dials convention: the
   daemon with the smaller id connects, the other accepts; this yields
   exactly one TCP connection per overlay edge. Connections are retried
   while the loop runs, so start order does not matter. *)

open Xroute_core
module Mono = Xroute_support.Mono
module Span = Xroute_obs.Span
module Timeseries = Xroute_obs.Timeseries
module Recorder = Xroute_obs.Recorder

let log_src = Logs.Src.create "xroute.daemon" ~doc:"TCP broker daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type conn = {
  fd : Unix.file_descr;
  mutable endpoint : Rtable.endpoint option; (* set after HELLO *)
  mutable connecting : bool; (* non-blocking connect still in progress *)
  inbuf : Linebuf.t;
  (* Output path: lines of a burst coalesce into [outbuf]; at write time
     the accumulated bytes move (one copy) onto [outq] and are written
     chunk by chunk, [out_off] marking the sent prefix of the head chunk
     — so a partial write never re-copies the unsent tail, and enqueue
     cost is O(line), not O(total buffered). *)
  outbuf : Buffer.t; (* freshly enqueued bytes *)
  outq : string Queue.t; (* chunks awaiting write *)
  mutable out_off : int; (* sent prefix of the head chunk *)
  mutable closed : bool;
  (* An in-progress incoming FEDSTATS reply frame from this peer:
     (sub-request id, F| payload lines so far, newest first). One frame
     at a time per connection — the daemon never interleaves frames on
     one socket. *)
  mutable fed_in : (string * string list) option;
}

(* One outstanding federation pull: we answered [fp_reqid] on
   [fp_reply] only once every forwarded sub-pull ([fp_subid], sent to
   [fp_waiting]) has replied, been disconnected, or the deadline
   passes — then the accumulated view (own summary merged with every
   neighbor view that made it back) is framed back. *)
type fed_pending = {
  fp_reply : conn;
  fp_reqid : string;
  fp_subid : string;
  mutable fp_waiting : int list;
  mutable fp_view : Xroute_obs.Health.view;
  fp_deadline : float; (* Mono ms *)
}

type t = {
  broker : Broker.t;
  listen_fd : Unix.file_descr;
  port : int;
  neighbors : (int * (string * int)) list; (* id -> address *)
  max_write_chunk : int; (* per-write byte cap (tests the offset path) *)
  clock : Mono.t; (* monotonic wall clock, ms (span timestamps) *)
  spans : Span.t; (* causal spans of publications through this broker *)
  timeseries : Timeseries.t; (* periodic registry snapshots *)
  recorder : Recorder.t option; (* flight recorder, when --flight-dir set *)
  read_buf : Bytes.t; (* reusable socket read buffer *)
  resolved : (string, Unix.inet_addr) Hashtbl.t; (* DNS memo for dials *)
  health : Xroute_obs.Health.t; (* this broker's health summary *)
  conn_refused : Xroute_obs.Metrics.counter; (* accepts closed at [max_accept_fd] *)
  oversize : Xroute_obs.Metrics.counter; (* conns closed past [max_line_bytes] *)
  mutable fed_pending : fed_pending list;
  mutable fed_seq : int; (* fresh sub-request ids *)
  mutable last_snapshot : float;
  mutable conns : conn list;
  mutable last_dial : float;
  mutable stop_requested : bool;
}

(* Wall ms between registry snapshots into the timeseries ring. *)
let snapshot_period = 1000.0

(* How long a federation pull waits for neighbor replies before
   answering with what it has (wall ms). *)
let fed_timeout_ms = 1000.0

let broker t = t.broker
let port t = t.port
let spans t = t.spans
let timeseries t = t.timeseries
let recorder t = t.recorder

(* ---------------- low-level helpers ---------------- *)

(* [Unix.select] takes descriptors below FD_SETSIZE only: one more fails
   the whole call with EINVAL, which would end the loop. An accepted
   connection is kept only while its descriptor is below
   [max_accept_fd], which leaves [dial_headroom] numbers for neighbor
   dials; a dial past FD_SETSIZE is dropped and retried on a later
   tick. *)
let fd_setsize = 1024
let dial_headroom = 64
let max_accept_fd = fd_setsize - dial_headroom

(* The longest inbound line a peer may send (bytes). A peer that sends
   more without a newline is closed: otherwise its connection's line
   buffer would grow without limit. *)
let max_line_bytes = 1 lsl 20

(* Pending connections the kernel queues before [accept_burst] runs. *)
let listen_backlog = 1024

(* On Unix a descriptor is its number. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

let conn_of fd =
  Unix.set_nonblock fd;
  {
    fd;
    endpoint = None;
    connecting = false;
    inbuf = Linebuf.create ~initial:256 ();
    outbuf = Buffer.create 256;
    outq = Queue.create ();
    out_off = 0;
    closed = false;
    fed_in = None;
  }

let enqueue conn line =
  if not conn.closed then begin
    Buffer.add_string conn.outbuf line;
    Buffer.add_char conn.outbuf '\n'
  end

let pending_out conn =
  Buffer.length conn.outbuf > 0 || not (Queue.is_empty conn.outq)

let close_conn t conn =
  if not conn.closed then begin
    conn.closed <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    (* A neighbor that vanishes mid-pull will never answer: stop waiting
       for it (the sweep in [step] replies once the list empties). *)
    (match conn.endpoint with
    | Some (Rtable.Neighbor nid) ->
      List.iter
        (fun p -> p.fp_waiting <- List.filter (fun id -> id <> nid) p.fp_waiting)
        t.fed_pending
    | Some (Rtable.Client _) | None -> ());
    match conn.endpoint with
    | Some ep -> Log.info (fun m -> m "broker %d: %a disconnected" (Broker.id t.broker) Rtable.pp_endpoint ep)
    | None -> ()
  end

let conn_for t ep =
  List.find_opt
    (fun c ->
      (not c.closed)
      && match c.endpoint with Some e -> Rtable.endpoint_equal e ep | None -> false)
    t.conns

(* ---------------- creation ---------------- *)

let create ?(strategy = Broker.default_strategy) ?(max_write_chunk = max_int)
    ?flight_dir ~id ~port ~neighbors () =
  if max_write_chunk <= 0 then invalid_arg "Daemon.create: max_write_chunk <= 0";
  (* Writes to a peer that vanished must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen listen_fd listen_backlog;
  Unix.set_nonblock listen_fd;
  let actual_port =
    match Unix.getsockname listen_fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let broker = Broker.create ~strategy ~id ~neighbors:(List.map fst neighbors) () in
  Log.info (fun m -> m "broker %d listening on port %d" id actual_port);
  {
    broker;
    listen_fd;
    port = actual_port;
    neighbors;
    max_write_chunk;
    clock = Mono.create ~source:(fun () -> Unix.gettimeofday () *. 1000.0) ();
    (* Disjoint id bases keep span ids globally unique when a client
       merges TRACE| replies from several daemons. *)
    spans = Span.create ~id_base:(id * 1_000_000_000) ();
    timeseries = Timeseries.create (Broker.metrics broker);
    recorder = Option.map (fun dir -> Recorder.create ~dir) flight_dir;
    read_buf = Bytes.create 65536;
    resolved = Hashtbl.create 4;
    health = Xroute_obs.Health.create ~metrics:(Broker.metrics broker) id;
    conn_refused =
      Xroute_obs.Metrics.counter (Broker.metrics broker)
        ~help:"Accepted connections closed because their descriptor would not fit select"
        "xroute_daemon_conn_refused_total";
    oversize =
      Xroute_obs.Metrics.counter (Broker.metrics broker)
        ~help:"Connections closed because an inbound line outgrew the line limit"
        "xroute_daemon_oversize_total";
    fed_pending = [];
    fed_seq = 0;
    last_snapshot = 0.0;
    conns = [];
    last_dial = 0.0;
    stop_requested = false;
  }

let request_stop t = t.stop_requested <- true
let health t = t.health

(* ---------------- protocol ---------------- *)

let send_message t ep (msg : Message.t) =
  match conn_for t ep with
  | Some conn ->
    (match ep with
    | Rtable.Neighbor n -> Xroute_obs.Health.record_send t.health ~peer:n
    | Rtable.Client _ -> ());
    if not conn.closed then begin
      (* Encoded straight into the egress buffer: no line string. *)
      Buffer.add_string conn.outbuf "M|";
      Codec.encode_into conn.outbuf msg;
      Buffer.add_char conn.outbuf '\n'
    end
  | None ->
    Xroute_obs.Health.record_drop t.health;
    (match ep with
    | Rtable.Neighbor n -> Xroute_obs.Health.record_link_drop t.health ~peer:n
    | Rtable.Client _ -> ());
    Log.warn (fun m ->
        m "broker %d: no connection for %a, dropping %a" (Broker.id t.broker)
          Rtable.pp_endpoint ep Message.pp msg)

let dispatch t outputs = List.iter (fun (ep, msg) -> send_message t ep msg) outputs

(* STATS|: dump the broker's metrics registry. The exposition is
   multi-line, so it is framed for the line protocol (Framing.send):
   STATS|BEGIN|<fmt>, one S|<escaped line> per exposition line, then
   STATS|END. *)
let send_stats t conn fmt =
  Broker.refresh_metrics t.broker;
  let reg = Broker.metrics t.broker in
  let fmt_name, body =
    match fmt with
    | `Json -> ("json", Xroute_obs.Metrics.to_json reg)
    | `Prom -> ("prom", Xroute_obs.Metrics.to_prometheus reg)
  in
  Framing.send ~enqueue:(enqueue conn) ~tag:"STATS" ~begin_args:[ fmt_name ] ~line_tag:"S"
    (List.filter_map
       (fun l -> if l = "" then None else Some (Framing.escape l))
       (String.split_on_char '\n' body))

(* Dump a flight record: the span ring, the (refreshed) registry, and
   the latest per-second rates. Called when an audit reports an
   error-severity finding; failures are logged, never raised. *)
let flight_dump t ~reason =
  match t.recorder with
  | None -> ()
  | Some r -> (
    Broker.refresh_metrics t.broker;
    let at = Mono.now t.clock in
    Timeseries.snapshot t.timeseries ~at;
    match
      Recorder.trigger r ~reason ~at ~metrics:(Broker.metrics t.broker)
        ~spans:(Span.to_list t.spans)
        ~rates:(Timeseries.rates t.timeseries) ()
    with
    | Ok path -> Log.info (fun m -> m "broker %d: flight record %s" (Broker.id t.broker) path)
    | Error e -> Log.warn (fun m -> m "broker %d: flight dump failed: %s" (Broker.id t.broker) e))

(* AUDIT: run the routing-state audit (Xroute_check) on the hosted
   broker and stream the findings, framed like STATS|: AUDIT|BEGIN, one
   A|<severity>|<code>|<subject>|<witness> per finding, then
   AUDIT|END|<errors>|<warnings>. Fields are reversibly escaped
   (Framing.escape) so '|' and newlines survive the line protocol
   intact. An error-severity finding triggers a flight-recorder dump
   when the daemon was given a flight directory. *)
let send_audit t conn =
  let findings = Xroute_check.Check.audit_broker t.broker in
  let count sev =
    List.length (List.filter (fun f -> f.Xroute_check.Finding.severity = sev) findings)
  in
  let errors = count Xroute_check.Finding.Error in
  Framing.send ~enqueue:(enqueue conn) ~tag:"AUDIT"
    ~end_args:[ string_of_int errors; string_of_int (count Xroute_check.Finding.Warning) ]
    ~line_tag:"A"
    (List.map
       (fun (f : Xroute_check.Finding.t) ->
         String.concat "|"
           (List.map Framing.escape
              [
                Xroute_check.Finding.severity_to_string f.severity;
                f.code;
                f.subject;
                f.witness;
              ]))
       findings);
  if errors > 0 then flight_dump t ~reason:(Printf.sprintf "audit reported %d errors" errors)

(* TRACE|<trace-id>: stream the retained spans of one trace, framed as
   TRACE|BEGIN|<id>, one T|<span wire line> per span (Span.to_wire_line
   escapes its own fields), then TRACE|END|<count>. Clients merge the
   replies of several daemons to reassemble a cross-broker trace. *)
let send_trace t conn key =
  match int_of_string_opt key with
  | None -> Log.warn (fun m -> m "malformed TRACE key %S" key)
  | Some trace ->
    let spans = Span.spans_for t.spans ~trace in
    Framing.send ~enqueue:(enqueue conn) ~tag:"TRACE" ~begin_args:[ key ]
      ~end_args:[ string_of_int (List.length spans) ]
      ~line_tag:"T"
      (List.map Span.to_wire_line spans)

(* FEDSTATS|<reqid>|<ttl>|<seen>: pull the overlay's health summaries,
   hop-bounded by <ttl>, with <seen> (comma-separated broker ids) as
   origin-id loop suppression — a broker already in <seen> is neither
   asked again nor asked to forward, so the pull terminates on cyclic
   overlays; a broker reached twice through a diamond merges
   idempotently (views key by origin). The reply is framed:
   FEDSTATS|BEGIN|<reqid>, one F|<escaped Health summary line> per
   origin, FEDSTATS|END|<reqid>|<count>. With live eligible neighbors
   and ttl > 0 the reply is deferred: decremented-ttl sub-pulls (fresh
   sub-request id) fan out first and the frames merge as they return —
   or the deadline passes and the partial view answers. <reqid> is
   caller-chosen; "BEGIN"/"END" are reserved. *)

let parse_seen = function
  | [] -> []
  | s :: _ -> String.split_on_char ',' s |> List.filter_map int_of_string_opt

let fed_reply conn ~reqid view =
  Framing.send ~enqueue:(enqueue conn) ~tag:"FEDSTATS" ~begin_args:[ reqid ]
    ~end_args:[ reqid; string_of_int (List.length view) ]
    ~line_tag:"F"
    (List.map Framing.escape (Xroute_obs.Health.encode_view view))

let handle_fedstats t conn ~reqid ~ttl ~seen =
  let self = Broker.id t.broker in
  (* Freshen the summary the pull will carry. *)
  Xroute_obs.Health.tick t.health ~now:(Mono.now t.clock);
  let seen = self :: seen in
  let view0 = Xroute_obs.Health.view_of [ t.health ] in
  (* Fan over every live neighbor connection — declared at startup or
     learned from an inbound HELLO|broker — so a one-sided neighbor
     declaration (which routing already tolerates) still federates the
     whole overlay. *)
  let targets =
    if ttl <= 0 then []
    else
      List.fold_left
        (fun acc c ->
          match c.endpoint with
          | Some (Rtable.Neighbor nid)
            when (not c.closed) && (not c.connecting) && (not (List.mem nid seen))
                 && not (List.mem_assoc nid acc) -> (nid, c) :: acc
          | Some _ | None -> acc)
        [] t.conns
      |> List.rev
  in
  if targets = [] then fed_reply conn ~reqid view0
  else begin
    t.fed_seq <- t.fed_seq + 1;
    let subid = Printf.sprintf "f%d.%d" self t.fed_seq in
    t.fed_pending <-
      {
        fp_reply = conn;
        fp_reqid = reqid;
        fp_subid = subid;
        fp_waiting = List.map fst targets;
        fp_view = view0;
        fp_deadline = Mono.now t.clock +. fed_timeout_ms;
      }
      :: t.fed_pending;
    (* Every sibling target lands in the forwarded seen-set too, so two
       branches of the fan-out cannot pull each other into a cycle. *)
    let seen' =
      String.concat "," (List.map string_of_int (seen @ List.map fst targets))
    in
    List.iter
      (fun (_, c) -> enqueue c (Printf.sprintf "FEDSTATS|%s|%d|%s" subid (ttl - 1) seen'))
      targets
  end

(* A neighbor's reply frame, reassembled per-connection ([fed_in]) and
   folded into whichever pending pull forwarded that sub-request id. *)

let fed_frame_begin conn subid = conn.fed_in <- Some (subid, [])

let fed_frame_line conn payload =
  match conn.fed_in with
  | Some (subid, lines) -> conn.fed_in <- Some (subid, Framing.unescape payload :: lines)
  | None -> ()

let fed_frame_end t conn subid =
  match conn.fed_in with
  | Some (id, lines) when String.equal id subid -> (
    conn.fed_in <- None;
    let nid =
      match conn.endpoint with Some (Rtable.Neighbor n) -> Some n | Some _ | None -> None
    in
    match
      (nid, List.find_opt (fun p -> String.equal p.fp_subid subid) t.fed_pending)
    with
    | Some nid, Some p ->
      (match Xroute_obs.Health.decode_view (List.rev lines) with
      | Some view -> p.fp_view <- Xroute_obs.Health.merge_views p.fp_view view
      | None ->
        Log.warn (fun m ->
            m "broker %d: malformed FEDSTATS view from neighbor %d" (Broker.id t.broker) nid));
      p.fp_waiting <- List.filter (fun id -> id <> nid) p.fp_waiting
    | _ -> ())
  | Some _ | None -> ()

(* Answer every pull whose neighbors have all reported (or vanished),
   and every pull past its deadline — with whatever view accumulated. *)
let fed_sweep t =
  if t.fed_pending <> [] then begin
    let now = Mono.now t.clock in
    let done_, waiting =
      List.partition (fun p -> p.fp_waiting = [] || now >= p.fp_deadline) t.fed_pending
    in
    t.fed_pending <- waiting;
    List.iter (fun p -> fed_reply p.fp_reply ~reqid:p.fp_reqid p.fp_view) (List.rev done_)
  end

(* Handle one routed publication, timing its stages into the span
   collector. The hop span covers [batch_t (socket readable) …
   serialize end]; its leaves tile that interval — queue (buffer wait
   behind earlier lines of the batch, up to [t_parse]), parse (codec
   decode, from [t_parse], taken in [handle_line] before decoding),
   match (Broker.handle, with the SRT/PRT/cover op deltas as meta),
   serialize (encode + enqueue) — so leaf durations sum to the hop
   duration exactly. A publication arriving without trace context is at
   its first broker: a root "pub" span is opened (reused across the
   paths of one document) and the context is minted here. Outgoing
   copies carry this hop's span id as parent, chaining the next
   broker's hop under this one. *)
let handle_publish t ~batch_t ~t_parse ~from pub ctx =
  let b = Broker.id t.broker in
  let t_dec = Mono.now t.clock in
  let trace, parent, root =
    match (ctx : Message.trace_ctx option) with
    | Some c -> (c.trace, Some c.parent_span, None)
    | None ->
      let root =
        match Span.root_for t.spans ~trace:pub.Xroute_xml.Xml_paths.doc_id with
        | Some r -> r
        | None ->
          Span.start_span t.spans ~trace:pub.Xroute_xml.Xml_paths.doc_id ~name:"pub"
            ~broker:(-1) ~at:batch_t ()
      in
      (pub.Xroute_xml.Xml_paths.doc_id, Some root.Span.id, Some root)
  in
  let hop = Span.start_span t.spans ?parent ~trace ~name:"hop" ~broker:b ~at:batch_t () in
  let leaf name start stop =
    Span.record t.spans ~parent:hop.Span.id ~trace ~name ~broker:b ~start ~stop ()
  in
  (* The parse and match stages always run, so their leaves are recorded
     at any length: the clock ticks in microseconds, and a quick decode
     reads 0. The queue and serialize leaves are kept when they took
     time. *)
  let timed_leaf name start stop = if stop -. start > 0.0 then ignore (leaf name start stop) in
  timed_leaf "queue" batch_t t_parse;
  ignore (leaf "parse" t_parse t_dec);
  let s0, m0, c0 = Broker.stage_ops t.broker in
  let outs = Broker.handle t.broker ~from (Message.Publish { pub; trail = []; ctx }) in
  let t_match = Mono.now t.clock in
  let s1, m1, c1 = Broker.stage_ops t.broker in
  let m = leaf "match" t_dec t_match in
  Span.add_int_meta m "srt_ops" (s1 - s0);
  Span.add_int_meta m "prt_ops" (m1 - m0);
  Span.add_int_meta m "cover_ops" (c1 - c0);
  let ctx' = Some { Message.trace; parent_span = hop.Span.id } in
  dispatch t
    (List.map
       (fun (ep, m) ->
         match m with
         | Message.Publish p -> (ep, Message.Publish { p with ctx = ctx' })
         | m -> (ep, m))
       outs);
  let t_ser = Mono.now t.clock in
  timed_leaf "serialize" t_match t_ser;
  Span.finish hop ~at:t_ser;
  Option.iter (fun r -> Span.extend r ~at:t_ser) root;
  let h = t.health in
  Xroute_obs.Health.record_hop_latency h (t_ser -. batch_t);
  (* Attribute the hop's latency to each egress link it fed: the
     per-link quantiles then expose which links sit behind slow hops. *)
  List.iter
    (fun (ep, _) ->
      match ep with
      | Rtable.Neighbor n -> Xroute_obs.Health.record_link_latency h ~peer:n (t_ser -. batch_t)
      | Rtable.Client _ -> ())
    outs

(* Identify a connection. A peer re-connecting (or a confused one)
   can send a HELLO claiming an endpoint that already has a live
   connection; keeping both would make [conn_for] pick whichever sits
   first in the list, silently splitting that endpoint's traffic
   between two sockets. The freshest identification wins: the stale
   conn is closed (its unsent output is gone either way once the peer
   reads from the new socket). *)
let identify t conn ep =
  (match conn_for t ep with
  | Some stale when stale != conn ->
    Log.info (fun m ->
        m "broker %d: %a re-identified, closing the stale connection" (Broker.id t.broker)
          Rtable.pp_endpoint ep);
    close_conn t stale
  | Some _ | None -> ());
  conn.endpoint <- Some ep

let handle_hello t conn line kind id =
  match (kind, int_of_string_opt id) with
  | "broker", Some b -> identify t conn (Rtable.Neighbor b)
  | "client", Some c -> identify t conn (Rtable.Client c)
  | _ -> Log.warn (fun m -> m "malformed HELLO %S" line)

(* An "M|<codec line>" line: the message is decoded in place, from
   offset 2, so the payload is never copied out of the line. *)
let handle_routed t conn ~batch_t line =
  match conn.endpoint with
  | None -> Log.warn (fun m -> m "message before HELLO, ignoring")
  | Some from -> (
    let t_parse = Mono.now t.clock in
    match Codec.decode_sub line ~pos:2 with
    | Ok (Message.Publish { pub; trail = _; ctx }) ->
      handle_publish t ~batch_t ~t_parse ~from pub ctx
    | Ok msg -> dispatch t (Broker.handle t.broker ~from msg)
    | Error e ->
      Log.warn (fun m -> m "undecodable message from %a: %a" Rtable.pp_endpoint from Codec.pp_error e))

let handle_line t conn ~batch_t line =
  if String.starts_with ~prefix:"M|" line then handle_routed t conn ~batch_t line
  else
    match Framing.split line with
    | Some ("F", payload) -> fed_frame_line conn payload
    | Some _ | None -> (
      match String.split_on_char '|' line with
      | "HELLO" :: kind :: id :: _ -> handle_hello t conn line kind id
      | "PING" :: _ -> enqueue conn "PONG"
      | "STATS" :: rest ->
        let fmt = match rest with "json" :: _ -> `Json | _ -> `Prom in
        send_stats t conn fmt
      | "AUDIT" :: _ -> send_audit t conn
      | "TRACE" :: key :: _ -> send_trace t conn key
      | "FEDSTATS" :: "BEGIN" :: subid :: _ -> fed_frame_begin conn subid
      | "FEDSTATS" :: "END" :: subid :: _ -> fed_frame_end t conn subid
      | "FEDSTATS" :: reqid :: ttl :: rest ->
        let ttl = Option.value (int_of_string_opt ttl) ~default:0 in
        handle_fedstats t conn ~reqid ~ttl ~seen:(parse_seen rest)
      | _ -> Log.warn (fun m -> m "unknown line %S" line))

(* Extract complete lines from the connection buffer. [batch_t] is when
   the socket became readable: lines later in the batch were queued
   behind earlier ones, which the per-publication "queue" stage span
   measures. *)
let drain_lines t conn ~batch_t =
  let rec go () =
    if not conn.closed then
      match Linebuf.next_line conn.inbuf with
      | Some line ->
        if line <> "" then handle_line t conn ~batch_t line;
        go ()
      | None -> ()
  in
  go ()

(* ---------------- dialing ---------------- *)

(* Resolve a neighbor host. Name resolution can block for seconds on a
   broken resolver, so successful lookups are memoized: each name stalls
   the loop at most once, and the common numeric-address case never
   touches the resolver at all. *)
let resolve t host =
  match Hashtbl.find_opt t.resolved host with
  | Some addr -> Some addr
  | None -> (
    let addr =
      match Unix.inet_addr_of_string host with
      | addr -> Some addr
      | exception Failure _ -> (
        match (Unix.gethostbyname host).Unix.h_addr_list with
        | [||] -> None
        | addrs -> Some addrs.(0)
        | exception Not_found -> None)
    in
    match addr with
    | Some a ->
      Hashtbl.replace t.resolved host a;
      Some a
    | None -> None)

(* Connect to lower-id neighbors that are not connected yet. The socket
   goes non-blocking BEFORE connect: a slow or black-holed peer must not
   stall the event loop (a blocking connect can hang for the full TCP
   timeout — minutes — during which every established connection
   starves). EINPROGRESS parks the conn with [connecting] set; [step]
   finishes the handshake when the socket reports writability. The conn
   carries its endpoint from the start so [conn_for] suppresses duplicate
   dials on the next 50ms tick, but HELLO is only enqueued once the
   connect actually completes. *)
let dial_missing t =
  let now = Unix.gettimeofday () in
  if now -. t.last_dial >= 0.05 then begin
    t.last_dial <- now;
    List.iter
      (fun (nid, (host, port)) ->
        if nid < Broker.id t.broker && conn_for t (Rtable.Neighbor nid) = None then
          match resolve t host with
          | None -> () (* retry on the next tick *)
          | Some addr -> (
            match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
            | exception Unix.Unix_error _ -> ()
            | fd when fd_number fd >= fd_setsize -> (
              try Unix.close fd with Unix.Unix_error _ -> ())
            | fd -> (
              Unix.set_nonblock fd;
              match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
              | () ->
                (* Loopback can complete synchronously. *)
                let conn = conn_of fd in
                conn.endpoint <- Some (Rtable.Neighbor nid);
                enqueue conn (Printf.sprintf "HELLO|broker|%d" (Broker.id t.broker));
                t.conns <- conn :: t.conns;
                Log.info (fun m -> m "broker %d connected to neighbor %d" (Broker.id t.broker) nid)
              | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
                let conn = conn_of fd in
                conn.connecting <- true;
                conn.endpoint <- Some (Rtable.Neighbor nid);
                t.conns <- conn :: t.conns
              | exception Unix.Unix_error _ -> (
                try Unix.close fd with Unix.Unix_error _ -> ()))))
      t.neighbors
  end

(* ---------------- the event loop ---------------- *)

(* One iteration: accept, read, process, write. [timeout] bounds the
   select wait in seconds. *)
(* Write as much buffered output as the socket accepts. *)
let flush_out t conn =
  if Buffer.length conn.outbuf > 0 then begin
    Queue.add (Buffer.contents conn.outbuf) conn.outq;
    Buffer.clear conn.outbuf
  end;
  let continue = ref true in
  while !continue && not (Queue.is_empty conn.outq) do
    let chunk = Queue.peek conn.outq in
    let remaining = min t.max_write_chunk (String.length chunk - conn.out_off) in
    match Unix.write_substring conn.fd chunk conn.out_off remaining with
    | n ->
      conn.out_off <- conn.out_off + n;
      if conn.out_off = String.length chunk then begin
        ignore (Queue.pop conn.outq);
        conn.out_off <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> () (* interrupted, not failed: retry *)
    | exception Unix.Unix_error _ ->
      close_conn t conn;
      continue := false
  done

(* Periodic registry snapshot into the timeseries ring (first step
   takes the baseline sample). *)
let maybe_snapshot t =
  let at = Mono.now t.clock in
  if at -. t.last_snapshot >= snapshot_period then begin
    t.last_snapshot <- at;
    Broker.refresh_metrics t.broker;
    Timeseries.snapshot t.timeseries ~at;
    (* Egress backlog sampled per snapshot: bytes buffered across
       conns. *)
    let backlog =
      List.fold_left
        (fun acc c ->
          acc + Buffer.length c.outbuf
          + Queue.fold (fun a s -> a + String.length s) (-c.out_off) c.outq)
        0 t.conns
    in
    Xroute_obs.Health.record_backlog t.health (float_of_int backlog);
    Xroute_obs.Health.tick t.health ~now:at
  end

(* Accept everything the backlog holds, not just one connection per
   tick: under a connection burst, one-accept-per-select caps the accept
   rate at 1/timeout per second and the backlog overflows. A connection
   whose descriptor would not fit [select] is closed and counted. *)
let accept_burst t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _ when fd_number fd >= max_accept_fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Xroute_obs.Metrics.incr t.conn_refused
    | fd, _ -> t.conns <- conn_of fd :: t.conns
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
  done

(* Read one connection until EAGAIN (bounded): a peer writing faster
   than one 4KB read per select tick would otherwise accumulate
   unboundedly in the kernel buffer. The bound keeps one loud peer from
   monopolizing the tick. Line handling can close [conn] (fatal protocol
   errors) or close OTHER conns (duplicate HELLO), hence the re-check on
   every iteration. *)
let read_conn t conn =
  let size = Bytes.length t.read_buf in
  let batch_t = Mono.now t.clock in
  let rounds = ref 8 in
  let continue = ref true in
  while !continue && !rounds > 0 && not conn.closed do
    decr rounds;
    match Unix.read conn.fd t.read_buf 0 size with
    | 0 ->
      close_conn t conn;
      continue := false
    | n ->
      Linebuf.add_subbytes conn.inbuf t.read_buf 0 n;
      drain_lines t conn ~batch_t;
      if (not conn.closed) && Linebuf.length conn.inbuf > max_line_bytes then begin
        Log.warn (fun m ->
            m "broker %d: inbound line past %d bytes, closing the connection"
              (Broker.id t.broker) max_line_bytes);
        Xroute_obs.Metrics.incr t.oversize;
        close_conn t conn
      end;
      if n < size then continue := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
      close_conn t conn;
      continue := false
  done

(* A non-blocking connect resolved: writability means the three-way
   handshake finished (or failed — SO_ERROR disambiguates). *)
let finish_connect t conn =
  match Unix.getsockopt_error conn.fd with
  | None ->
    conn.connecting <- false;
    enqueue conn (Printf.sprintf "HELLO|broker|%d" (Broker.id t.broker));
    (match conn.endpoint with
    | Some (Rtable.Neighbor nid) ->
      Log.info (fun m -> m "broker %d connected to neighbor %d" (Broker.id t.broker) nid)
    | Some _ | None -> ())
  | Some _ -> close_conn t conn (* refused/unreachable: redial next tick *)

let step ?(timeout = 0.05) t =
  dial_missing t;
  maybe_snapshot t;
  fed_sweep t;
  let readable =
    t.listen_fd :: List.filter_map (fun c -> if c.connecting then None else Some c.fd) t.conns
  in
  let writable =
    List.filter_map
      (fun c -> if c.connecting || pending_out c then Some c.fd else None)
      t.conns
  in
  (match Unix.select readable writable [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | rs, ws, _ ->
    if List.memq t.listen_fd rs then accept_burst t;
    (* read — iterate the live list and re-check [closed] on every
       conn: handling a line can close other connections mid-tick
       (duplicate HELLO, fatal dispatch errors), and reading from an
       already-closed fd would hit whatever unrelated descriptor the
       kernel has since handed that number to. *)
    List.iter
      (fun conn ->
        if (not conn.closed) && (not conn.connecting) && List.memq conn.fd rs then
          read_conn t conn)
      t.conns;
    (* write *)
    List.iter
      (fun conn ->
        if (not conn.closed) && List.memq conn.fd ws then
          if conn.connecting then finish_connect t conn
          else if pending_out conn then flush_out t conn)
      t.conns)

(* Run until [request_stop] (or forever). *)
let run ?(timeout = 0.05) t =
  while not t.stop_requested do
    step ~timeout t
  done;
  List.iter (fun c -> close_conn t c) t.conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
