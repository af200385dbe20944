(* Blocking TCP client for the broker daemon: connects to a broker,
   identifies itself, and exchanges codec-framed messages. Used by the
   command-line tools, the examples and the end-to-end network test.

   The client keeps a session ledger (advertisements and subscriptions
   with their ids) and survives a brokerd restart: when a send fails or
   the connection closes, it redials with capped exponential backoff,
   re-identifies, and replays the ledger with the original ids — the
   broker deduplicates, so replay against a surviving broker is a
   no-op and against a fresh one rebuilds the session. Publications
   are not journaled: one in flight during the failure can be lost, so
   delivery during a restart window is at-most-once unless the caller
   retries. *)

open Xroute_core

type t = {
  mutable fd : Unix.file_descr;
  client_id : int;
  host : string;
  port : int;
  mutable reconnect_wait : float; (* total redial budget per failure, seconds *)
  mutable next_seq : int;
  inbuf : Linebuf.t;
  mutable advs : (Message.sub_id * Xroute_xpath.Adv.t) list; (* newest first *)
  mutable subs : (Message.sub_id * Xroute_xpath.Xpe.t) list; (* newest first *)
  mutable reconnects : int;
}

exception Unavailable of string

let reconnects t = t.reconnects
let set_reconnect_wait t s = t.reconnect_wait <- s

let write_all fd data =
  let rec go off =
    if off < String.length data then begin
      let n = Unix.write_substring fd data off (String.length data - off) in
      go (off + n)
    end
  in
  go 0

let dial ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
  in
  (try Unix.connect fd (Unix.ADDR_INET (addr, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let hello t fd = write_all fd (Printf.sprintf "HELLO|client|%d\n" t.client_id)

(* Redial with capped exponential backoff until [reconnect_wait] is
   spent — raising [Unavailable] (never a raw [Unix_error]) when the
   budget runs out — then replay the session: HELLO, advertisements,
   then subscriptions, in registration order and with their original
   ids. *)
let reconnect t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  (* Drop any partial line from the dead connection: its tail is gone,
     and gluing it to the new connection's bytes would forge a line. *)
  Linebuf.clear t.inbuf;
  let deadline = Unix.gettimeofday () +. t.reconnect_wait in
  let rec attempt backoff =
    match dial ~host:t.host ~port:t.port with
    | fd -> fd
    | exception Unix.Unix_error (e, _, _) ->
      if Unix.gettimeofday () +. backoff < deadline then begin
        Unix.sleepf backoff;
        attempt (Float.min 1.0 (backoff *. 2.0))
      end
      else
        raise
          (Unavailable
             (Printf.sprintf "broker %s:%d unreachable (%s) after %.1fs of redialing" t.host
                t.port (Unix.error_message e) t.reconnect_wait))
  in
  let fd = attempt 0.05 in
  t.fd <- fd;
  t.reconnects <- t.reconnects + 1;
  hello t fd;
  List.iter
    (fun (id, adv) -> write_all fd ("M|" ^ Codec.encode (Message.Advertise { id; adv }) ^ "\n"))
    (List.rev t.advs);
  List.iter
    (fun (id, xpe) -> write_all fd ("M|" ^ Codec.encode (Message.Subscribe { id; xpe }) ^ "\n"))
    (List.rev t.subs)

let send_failure = function
  | Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNREFUSED | Unix.ENOTCONN | Unix.EBADF -> true
  | _ -> false

let send_line t line =
  let data = line ^ "\n" in
  try write_all t.fd data
  with Unix.Unix_error (e, _, _) when send_failure e -> (
    reconnect t;
    (* The freshly-dialed socket can still die under us (broker accepted
       then crashed again): surface that cleanly too, not as a raw
       [Unix_error]. *)
    try write_all t.fd data
    with Unix.Unix_error (e, _, _) when send_failure e ->
      raise
        (Unavailable
           (Printf.sprintf "broker %s:%d dropped the fresh connection (%s)" t.host t.port
              (Unix.error_message e))))

let connect ~client_id ~host ~port =
  (* Failed writes must raise EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = dial ~host ~port in
  let t =
    {
      fd;
      client_id;
      host;
      port;
      reconnect_wait = 8.0;
      next_seq = 0;
      inbuf = Linebuf.create ~initial:256 ();
      advs = [];
      subs = [];
      reconnects = 0;
    }
  in
  hello t fd;
  t

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let fresh_id t =
  t.next_seq <- t.next_seq + 1;
  { Message.origin = t.client_id; seq = t.next_seq }

let send t msg = send_line t ("M|" ^ Codec.encode msg)

let advertise t adv =
  let id = fresh_id t in
  t.advs <- (id, adv) :: t.advs;
  send t (Message.Advertise { id; adv });
  id

let subscribe t xpe =
  let id = fresh_id t in
  t.subs <- (id, xpe) :: t.subs;
  send t (Message.Subscribe { id; xpe });
  id

let unsubscribe t id =
  t.subs <- List.filter (fun (i, _) -> Message.compare_sub_id i id <> 0) t.subs;
  send t (Message.Unsubscribe { id })

let unadvertise t id =
  t.advs <- List.filter (fun (i, _) -> Message.compare_sub_id i id <> 0) t.advs;
  send t (Message.Unadvertise { id })

(* Publish a document: decomposed at the client edge, as in the paper. *)
let publish_doc t ~doc_id root =
  let pubs = Xroute_xml.Xml_paths.decompose ~doc_id root in
  List.iter (fun pub -> send t (Message.Publish { pub; trail = []; ctx = None })) pubs;
  List.length pubs

(* Next raw protocol line, waiting until [deadline]; [None] on timeout.
   A closed or reset connection triggers the backoff reconnect (which
   replays the session) and the wait continues; [None] if redialing
   exhausts its budget too. *)
let next_line t ~deadline =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Linebuf.next_line t.inbuf with
    | Some line -> Some line
    | None ->
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then None
      else begin
        match Unix.select [ t.fd ] [] [] remaining with
        | [], _, _ -> None
        | _ -> (
          match Unix.read t.fd buf 0 4096 with
          | 0 -> recover ()
          | n ->
            Linebuf.add_subbytes t.inbuf buf 0 n;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go () (* interrupted: retry *)
          | exception
              Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.ETIMEDOUT), _, _) ->
            (* Peer reset, half-close torn down under us, or the TCP
               keepalive/retransmit timer gave up: all mean the session
               is dead and replayable — same treatment as EOF. *)
            recover ())
      end
  and recover () = match reconnect t with () -> go () | exception Unavailable _ -> None in
  go ()

(* Receive the next message, waiting up to [timeout] seconds; [None] on
   timeout. *)
let recv ?(timeout = 1.0) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match next_line t ~deadline with
    | None -> None
    | Some line -> (
      match Framing.split line with
      | Some ("M", payload) -> (
        match Codec.decode payload with
        | Ok msg -> Some msg
        | Error _ -> go ())
      | Some _ | None -> go () (* control line; skip *))
  in
  go ()

(* Request the broker's metrics exposition (STATS|); the framed reply
   (STATS|BEGIN, S| lines, STATS|END) is reassembled into one string.
   Routed messages arriving while the reply streams are discarded. *)
let stats ?(timeout = 2.0) ?(format = `Prom) t =
  send_line t ("STATS|" ^ match format with `Json -> "json" | `Prom -> "prom");
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 1024 in
  let rec go () =
    match next_line t ~deadline with
    | None -> None
    | Some line -> (
      match Framing.split line with
      | Some ("S", payload) ->
        Buffer.add_string buf (Framing.unescape payload);
        Buffer.add_char buf '\n';
        go ()
      | Some _ | None -> (
        match String.split_on_char '|' line with
        | "STATS" :: "END" :: _ -> Some (Buffer.contents buf)
        | _ -> go () (* BEGIN frame or unrelated traffic *)))
  in
  go ()

(* Request the broker's routing-state audit (AUDIT|); the framed reply
   (AUDIT|BEGIN, A| lines, AUDIT|END|e|w) is reassembled into finding
   tuples plus the severity totals. *)
let audit ?(timeout = 2.0) t =
  send_line t "AUDIT";
  let deadline = Unix.gettimeofday () +. timeout in
  let findings = ref [] in
  let rec go () =
    match next_line t ~deadline with
    | None -> None
    | Some line -> (
      match String.split_on_char '|' line with
      | "AUDIT" :: "END" :: rest ->
        let n s = Option.value (int_of_string_opt s) ~default:0 in
        let errors, warnings =
          match rest with e :: w :: _ -> (n e, n w) | _ -> (0, 0)
        in
        Some (errors, warnings, List.rev !findings)
      | "A" :: sev :: code :: subject :: rest ->
        (* Fields are Framing-escaped, so [rest] is a single element in
           practice; the concat keeps older daemons' raw witnesses
           readable. *)
        let u = Framing.unescape in
        findings := (u sev, u code, u subject, u (String.concat "|" rest)) :: !findings;
        go ()
      | _ -> go () (* BEGIN frame or unrelated traffic *))
  in
  go ()

(* Request the retained spans of one trace (TRACE|<id>); the framed
   reply (TRACE|BEGIN, T| span wire lines, TRACE|END|<count>) is decoded
   via [Span.of_wire_line]. Merge the lists from several daemons to
   reassemble a cross-broker trace. *)
let trace ?(timeout = 2.0) t key =
  send_line t (Printf.sprintf "TRACE|%d" key);
  let deadline = Unix.gettimeofday () +. timeout in
  let spans = ref [] in
  let rec go () =
    match next_line t ~deadline with
    | None -> None
    | Some line -> (
      match Framing.split line with
      | Some ("T", payload) ->
        (match Xroute_obs.Span.of_wire_line payload with
        | Some sp -> spans := sp :: !spans
        | None -> ());
        go ()
      | Some _ | None -> (
        match String.split_on_char '|' line with
        | "TRACE" :: "END" :: _ -> Some (List.rev !spans)
        | _ -> go () (* BEGIN frame or unrelated traffic *)))
  in
  go ()

(* Request the federated overlay health view (FEDSTATS|<reqid>|<ttl>|):
   the framed reply (FEDSTATS|BEGIN|<reqid>, F| summary lines,
   FEDSTATS|END|<reqid>|<count>) is decoded into a Health view. The
   broker fans the pull out to its neighbors hop-bounded by [ttl]. *)
let fedstats ?(timeout = 5.0) ?(ttl = 8) t =
  t.next_seq <- t.next_seq + 1;
  let reqid = Printf.sprintf "c%d.%d" t.client_id t.next_seq in
  send_line t (Printf.sprintf "FEDSTATS|%s|%d|" reqid ttl);
  let deadline = Unix.gettimeofday () +. timeout in
  let lines = ref [] in
  let rec go () =
    match next_line t ~deadline with
    | None -> None
    | Some line -> (
      match Framing.split line with
      | Some ("F", payload) ->
        lines := Framing.unescape payload :: !lines;
        go ()
      | Some _ | None -> (
        match String.split_on_char '|' line with
        | "FEDSTATS" :: "END" :: rid :: _ when String.equal rid reqid ->
          Xroute_obs.Health.decode_view (List.rev !lines)
        | _ -> go () (* BEGIN frame or unrelated traffic *)))
  in
  go ()

(* Collect distinct delivered doc ids until [timeout] seconds pass
   without a new message. *)
let drain_deliveries ?(timeout = 0.5) t =
  let docs = Hashtbl.create 8 in
  let rec go () =
    match recv ~timeout t with
    | Some (Message.Publish { pub; _ }) ->
      Hashtbl.replace docs pub.doc_id ();
      go ()
    | Some _ -> go ()
    | None -> ()
  in
  go ();
  List.sort compare (Hashtbl.fold (fun d () acc -> d :: acc) docs [])
