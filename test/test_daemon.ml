(* End-to-end test of the TCP deployment: real broker daemons on
   loopback sockets, driven in background threads; clients advertise,
   subscribe and publish over the wire. *)

open Xroute_daemon

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let xp = Xroute_xpath.Xpe_parser.parse

(* Start a line of [n] daemons on free ports; returns (daemons, threads).
   Daemons are created in id order so each knows the already-bound port
   of its lower neighbor (which it dials); the higher neighbor dials us,
   so its address may be a placeholder. *)
let start_line n =
  let daemons = ref [] in
  for i = 0 to n - 1 do
    let lower =
      if i = 0 then []
      else [ (i - 1, ("127.0.0.1", Daemon.port (List.nth !daemons (i - 1)))) ]
    in
    let higher = if i < n - 1 then [ (i + 1, ("127.0.0.1", 0)) ] else [] in
    let d = Daemon.create ~id:i ~port:0 ~neighbors:(lower @ higher) () in
    daemons := !daemons @ [ d ]
  done;
  let threads =
    List.map (fun d -> Thread.create (fun () -> Daemon.run ~timeout:0.01 d) ()) !daemons
  in
  (!daemons, threads)

let stop_all (daemons, threads) =
  List.iter Daemon.request_stop daemons;
  List.iter Thread.join threads

let test_end_to_end () =
  let daemons, threads = start_line 3 in
  let d0 = List.nth daemons 0 and d2 = List.nth daemons 2 in
  (* give the daemons a moment to interconnect *)
  Thread.delay 0.3;
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port:(Daemon.port d0) in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port:(Daemon.port d2) in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/c"));
  Thread.delay 0.3;
  ignore (Client.subscribe subscriber (xp "/a/b"));
  Thread.delay 0.3;
  let doc = Xroute_xml.Xml_parser.parse "<a><b/><c/></a>" in
  ignore (Client.publish_doc publisher ~doc_id:7 doc);
  let docs = Client.drain_deliveries ~timeout:1.0 subscriber in
  check (Alcotest.list ci) "doc delivered over TCP" [ 7 ] docs;
  (* a non-matching publication is not delivered *)
  ignore (Client.publish_doc publisher ~doc_id:8 (Xroute_xml.Xml_parser.parse "<a><c/></a>"));
  let docs = Client.drain_deliveries ~timeout:0.6 subscriber in
  check (Alcotest.list ci) "non-matching withheld" [] docs;
  Client.close publisher;
  Client.close subscriber;
  stop_all (daemons, threads)

let test_unsubscribe_over_wire () =
  let daemons, threads = start_line 2 in
  let d0 = List.nth daemons 0 and d1 = List.nth daemons 1 in
  Thread.delay 0.2;
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port:(Daemon.port d0) in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port:(Daemon.port d1) in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/x/y"));
  Thread.delay 0.2;
  let sub = Client.subscribe subscriber (xp "/x") in
  Thread.delay 0.2;
  ignore (Client.publish_doc publisher ~doc_id:1 (Xroute_xml.Xml_parser.parse "<x><y/></x>"));
  check (Alcotest.list ci) "delivered" [ 1 ] (Client.drain_deliveries ~timeout:0.8 subscriber);
  Client.unsubscribe subscriber sub;
  Thread.delay 0.2;
  ignore (Client.publish_doc publisher ~doc_id:2 (Xroute_xml.Xml_parser.parse "<x><y/></x>"));
  check (Alcotest.list ci) "stopped after unsubscribe" []
    (Client.drain_deliveries ~timeout:0.6 subscriber);
  (* broker table is clean again *)
  check ci "prt empty" 0 (Xroute_core.Broker.prt_size (Daemon.broker d1));
  Client.close publisher;
  Client.close subscriber;
  stop_all (daemons, threads)

let test_two_subscribers_fanout () =
  let daemons, threads = start_line 3 in
  Thread.delay 0.3;
  let d0 = List.nth daemons 0 and d1 = List.nth daemons 1 and d2 = List.nth daemons 2 in
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port:(Daemon.port d0) in
  let s1 = Client.connect ~client_id:201 ~host:"127.0.0.1" ~port:(Daemon.port d1) in
  let s2 = Client.connect ~client_id:202 ~host:"127.0.0.1" ~port:(Daemon.port d2) in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/n/t"));
  Thread.delay 0.2;
  ignore (Client.subscribe s1 (xp "//t"));
  ignore (Client.subscribe s2 (xp "/n"));
  Thread.delay 0.3;
  ignore (Client.publish_doc publisher ~doc_id:5 (Xroute_xml.Xml_parser.parse "<n><t/></n>"));
  check (Alcotest.list ci) "s1 got it" [ 5 ] (Client.drain_deliveries ~timeout:0.8 s1);
  check (Alcotest.list ci) "s2 got it" [ 5 ] (Client.drain_deliveries ~timeout:0.8 s2);
  check cb "interior broker holds state" true (Xroute_core.Broker.prt_size (Daemon.broker d1) > 0);
  Client.close publisher; Client.close s1; Client.close s2;
  stop_all (daemons, threads)

(* A burst of publications exercises the daemon's queued write path:
   many deliveries pile onto one client connection faster than the
   socket drains, so the daemon must carry the backlog across partial
   writes without losing or duplicating anything. *)
let test_burst_write_path () =
  let daemons, threads = start_line 2 in
  let d0 = List.nth daemons 0 and d1 = List.nth daemons 1 in
  Thread.delay 0.2;
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port:(Daemon.port d0) in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port:(Daemon.port d1) in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  Thread.delay 0.2;
  ignore (Client.subscribe subscriber (xp "/a"));
  Thread.delay 0.3;
  let n = 200 in
  let doc = Xroute_xml.Xml_parser.parse "<a><b/></a>" in
  for i = 0 to n - 1 do
    ignore (Client.publish_doc publisher ~doc_id:i doc)
  done;
  let deadline = Unix.gettimeofday () +. 20.0 in
  let got = Hashtbl.create n in
  let rec drain () =
    List.iter
      (fun d -> Hashtbl.replace got d ())
      (Client.drain_deliveries ~timeout:0.5 subscriber);
    if Hashtbl.length got < n && Unix.gettimeofday () < deadline then drain ()
  in
  drain ();
  let delivered = List.sort compare (Hashtbl.fold (fun d () acc -> d :: acc) got []) in
  check (Alcotest.list ci) "every burst doc delivered exactly once"
    (List.init n Fun.id) delivered;
  Client.close publisher;
  Client.close subscriber;
  stop_all (daemons, threads)

(* Kill the broker daemon mid-session and bring a fresh one up on the
   same port: both clients must survive via reconnect-with-backoff (the
   subscriber rides out a window of ECONNREFUSED dials while the new
   process comes up), the subscription must be replayed from the client
   ledger without any manual re-subscribe, and a publication issued
   after the restart must reach the subscriber. Publications are
   at-most-once across the failure, so the publisher retries. *)
let test_broker_restart () =
  let d = Daemon.create ~id:0 ~port:0 ~neighbors:[] () in
  let port = Daemon.port d in
  let th = Thread.create (fun () -> Daemon.run ~timeout:0.01 d) () in
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/x/y"));
  ignore (Client.subscribe subscriber (xp "/x"));
  Thread.delay 0.2;
  let doc = Xroute_xml.Xml_parser.parse "<x><y/></x>" in
  ignore (Client.publish_doc publisher ~doc_id:1 doc);
  check (Alcotest.list ci) "delivered before the restart" [ 1 ]
    (Client.drain_deliveries ~timeout:0.8 subscriber);
  (* kill the daemon *)
  Daemon.request_stop d;
  Thread.join th;
  (* restart it on the same port after a delay, while the subscriber is
     already draining — its redial loop must back off through the
     refused connections until the new process listens *)
  let d2 = ref None in
  let th2 =
    Thread.create
      (fun () ->
        Thread.delay 0.4;
        let d = Daemon.create ~id:0 ~port ~neighbors:[] () in
        d2 := Some d;
        Daemon.run ~timeout:0.01 d)
      ()
  in
  ignore (Client.drain_deliveries ~timeout:2.0 subscriber);
  check cb "subscriber reconnected" true (Client.reconnects subscriber >= 1);
  let restarted =
    match !d2 with Some d -> d | None -> Alcotest.fail "restarted daemon missing"
  in
  check cb "subscription replayed from the ledger" true
    (Xroute_core.Broker.prt_size (Daemon.broker restarted) > 0);
  (* the publisher's first write after the death can vanish into the
     half-closed socket, so retry until the subscriber sees the doc *)
  let rec publish_until k =
    if k > 20 then Alcotest.fail "doc 2 never delivered after restart";
    ignore (Client.publish_doc publisher ~doc_id:2 doc);
    if not (List.mem 2 (Client.drain_deliveries ~timeout:0.5 subscriber)) then
      publish_until (k + 1)
  in
  publish_until 0;
  check cb "publisher reconnected" true (Client.reconnects publisher >= 1);
  Client.close publisher;
  Client.close subscriber;
  Daemon.request_stop restarted;
  Thread.join th2

(* Force every queued write down to one byte per syscall: the daemon's
   partial-write bookkeeping (chunk queue + offset) must still deliver
   every framed message intact. *)
let test_one_byte_write_chunks () =
  let d = Daemon.create ~max_write_chunk:1 ~id:0 ~port:0 ~neighbors:[] () in
  let th = Thread.create (fun () -> Daemon.run ~timeout:0.01 d) () in
  let port = Daemon.port d in
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  ignore (Client.subscribe subscriber (xp "/a"));
  Thread.delay 0.2;
  let n = 8 in
  let doc = Xroute_xml.Xml_parser.parse "<a><b/></a>" in
  for i = 0 to n - 1 do
    ignore (Client.publish_doc publisher ~doc_id:i doc)
  done;
  let deadline = Unix.gettimeofday () +. 15.0 in
  let got = Hashtbl.create n in
  let rec drain () =
    List.iter (fun i -> Hashtbl.replace got i ()) (Client.drain_deliveries ~timeout:0.5 subscriber);
    if Hashtbl.length got < n && Unix.gettimeofday () < deadline then drain ()
  in
  drain ();
  check (Alcotest.list ci) "every doc intact through 1-byte writes" (List.init n Fun.id)
    (List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) got []));
  Client.close publisher;
  Client.close subscriber;
  Daemon.request_stop d;
  Thread.join th

(* ---------------- line buffering ---------------- *)

(* Linebuf is the daemon's (and client's) inbound accumulator; its
   contract: bytes in, complete lines out, partial tail retained. *)
let test_linebuf_basics () =
  let lb = Linebuf.create ~initial:4 () in
  Linebuf.add_string lb "one\ntw";
  check (Alcotest.option Alcotest.string) "first line" (Some "one") (Linebuf.next_line lb);
  check (Alcotest.option Alcotest.string) "partial held" None (Linebuf.next_line lb);
  Linebuf.add_string lb "o\nthree\n";
  check (Alcotest.option Alcotest.string) "split line reassembled" (Some "two")
    (Linebuf.next_line lb);
  check (Alcotest.option Alcotest.string) "third" (Some "three") (Linebuf.next_line lb);
  check (Alcotest.option Alcotest.string) "drained" None (Linebuf.next_line lb);
  Linebuf.add_string lb "stale";
  Linebuf.clear lb;
  Linebuf.add_string lb "fresh\n";
  check (Alcotest.option Alcotest.string) "clear drops the partial" (Some "fresh")
    (Linebuf.next_line lb)

(* The regression this buffer exists for: the old Buffer-based path
   re-copied the whole accumulation on every read, so a 1MB burst
   arriving in tiny reads cost O(n^2) — minutes for this input. Feeding
   1MB one byte at a time must stay linear (well under a second). *)
let test_linebuf_byte_at_a_time () =
  let line = String.make 63 'x' in
  let n_lines = 16 * 1024 in (* 16K lines x 64 bytes = 1MB *)
  let data = String.concat "" (List.init n_lines (fun _ -> line ^ "\n")) in
  let lb = Linebuf.create () in
  let got = ref 0 in
  let t0 = Unix.gettimeofday () in
  String.iter
    (fun c ->
      Linebuf.add_string lb (String.make 1 c);
      match Linebuf.next_line lb with
      | Some l ->
        check Alcotest.string "line intact" line l;
        incr got
      | None -> ())
    data;
  let elapsed = Unix.gettimeofday () -. t0 in
  check ci "every line extracted" n_lines !got;
  check ci "buffer fully consumed" 0 (Linebuf.length lb);
  check cb (Printf.sprintf "1MB byte-at-a-time is linear (%.2fs)" elapsed) true
    (elapsed < 5.0)

(* ---------------- duplicate HELLO ---------------- *)

(* A peer re-identifying as an endpoint that already has a live
   connection must evict the stale one — otherwise conn_for picks
   whichever sits first and silently splits the endpoint's traffic
   between two sockets. The classic trigger is a client reconnecting
   before the daemon notices the old socket died. *)
let test_duplicate_hello_reconnect () =
  let d = Daemon.create ~id:0 ~port:0 ~neighbors:[] () in
  let th = Thread.create (fun () -> Daemon.run ~timeout:0.01 d) () in
  let port = Daemon.port d in
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port in
  let sub1 = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  ignore (Client.subscribe sub1 (xp "/a"));
  Thread.delay 0.2;
  let doc = Xroute_xml.Xml_parser.parse "<a><b/></a>" in
  ignore (Client.publish_doc publisher ~doc_id:1 doc);
  check (Alcotest.list ci) "first connection serves deliveries" [ 1 ]
    (Client.drain_deliveries ~timeout:0.8 sub1);
  (* same client id walks in on a second TCP connection *)
  let sub2 = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port in
  Thread.delay 0.3;
  ignore (Client.publish_doc publisher ~doc_id:2 doc);
  check (Alcotest.list ci) "deliveries follow the fresh connection" [ 2 ]
    (Client.drain_deliveries ~timeout:0.8 sub2);
  (* and the stale socket was actually closed by the daemon: reading it
     raw (no reconnect machinery) hits EOF *)
  Client.close publisher;
  Client.close sub1;
  Client.close sub2;
  Daemon.request_stop d;
  Thread.join th

(* ---------------- inbound burst ---------------- *)

(* A publisher that writes a ~1MB pile of publication lines in a few
   big bursts while the daemon is throttled to 1-byte output writes:
   the inbound path (batched reads + Linebuf) must keep up and every
   matching publication must come out intact on the slow side. *)
let test_large_inbound_burst () =
  let d = Daemon.create ~max_write_chunk:1 ~id:0 ~port:0 ~neighbors:[] () in
  let th = Thread.create (fun () -> Daemon.run ~timeout:0.01 d) () in
  let port = Daemon.port d in
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  (* only /a/b publications match: most of the burst is inbound-only *)
  ignore (Client.subscribe subscriber (xp "/a/b"));
  Thread.delay 0.2;
  let matching i =
    let pubs =
      Xroute_xml.Xml_paths.decompose ~doc_id:i (Xroute_xml.Xml_parser.parse "<a><b/></a>")
    in
    String.concat ""
      (List.map
         (fun pub ->
           "M|" ^ Xroute_core.Codec.encode (Xroute_core.Message.Publish { pub; trail = []; ctx = None }) ^ "\n")
         pubs)
  in
  let filler i =
    let pubs =
      Xroute_xml.Xml_paths.decompose ~doc_id:i
        (Xroute_xml.Xml_parser.parse "<z><y/><y/><y/><y/></z>")
    in
    String.concat ""
      (List.map
         (fun pub ->
           "M|" ^ Xroute_core.Codec.encode (Xroute_core.Message.Publish { pub; trail = []; ctx = None }) ^ "\n")
         pubs)
  in
  (* ~1MB of wire bytes: 24 matching docs in a sea of non-matching ones *)
  let n_match = 24 in
  let burst = Buffer.create (1 lsl 20) in
  let doc_id = ref 0 in
  while Buffer.length burst < 1 lsl 20 do
    incr doc_id;
    if !doc_id mod 200 = 0 && !doc_id / 200 <= n_match then
      Buffer.add_string burst (matching !doc_id)
    else Buffer.add_string burst (filler !doc_id)
  done;
  let expected =
    List.filter (fun i -> i mod 200 = 0 && i / 200 <= n_match) (List.init !doc_id (fun i -> i + 1))
  in
  (* one send_line call = one big write (the client loops on partial
     writes); the trailing empty line it adds is ignored by the daemon *)
  Client.send_line publisher (Buffer.contents burst);
  let deadline = Unix.gettimeofday () +. 30.0 in
  let got = Hashtbl.create 64 in
  let rec drain () =
    List.iter (fun i -> Hashtbl.replace got i ()) (Client.drain_deliveries ~timeout:0.5 subscriber);
    if Hashtbl.length got < List.length expected && Unix.gettimeofday () < deadline then drain ()
  in
  drain ();
  check (Alcotest.list ci) "every matching doc survived the 1MB burst" expected
    (List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) got []));
  Client.close publisher;
  Client.close subscriber;
  Daemon.request_stop d;
  Thread.join th

(* ---------------- malformed lines ---------------- *)

(* Read raw lines off [fd] until one equals [want] or [timeout] seconds
   pass. *)
let await_line fd ~timeout want =
  let buf = Bytes.create 4096 in
  let pending = Buffer.create 256 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> false
      | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> false
        | n ->
          Buffer.add_subbytes pending buf 0 n;
          let lines = String.split_on_char '\n' (Buffer.contents pending) in
          List.mem want lines || go ())
  in
  go ()

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let raw_send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* A tag with no payload — a bare [F] from an unidentified peer, a bare
   [M] after HELLO — is logged and dropped; the daemon keeps serving
   both the sender and everyone else. *)
let test_bare_tag_lines () =
  let d = Daemon.create ~id:0 ~port:0 ~neighbors:[] () in
  let th = Thread.create (fun () -> Daemon.run ~timeout:0.01 d) () in
  let port = Daemon.port d in
  let stranger = raw_connect port in
  raw_send stranger "F\n";
  let peer = raw_connect port in
  raw_send peer "HELLO|client|300\nM\nPING\n";
  check cb "PONG after bare F and M" true (await_line peer ~timeout:2.0 "PONG");
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  ignore (Client.subscribe subscriber (xp "/a"));
  Thread.delay 0.2;
  ignore (Client.publish_doc publisher ~doc_id:1 (Xroute_xml.Xml_parser.parse "<a><b/></a>"));
  check (Alcotest.list ci) "delivery still flows" [ 1 ]
    (Client.drain_deliveries ~timeout:0.8 subscriber);
  Unix.close stranger;
  Unix.close peer;
  Client.close publisher;
  Client.close subscriber;
  Daemon.request_stop d;
  Thread.join th

(* 1 100 idle connections push the daemon's descriptors past
   FD_SETSIZE, where select would fail. Those past the limit are closed
   and counted; the loop keeps serving an earlier, identified
   connection. *)
let test_fd_limit () =
  let d = Daemon.create ~id:0 ~port:0 ~neighbors:[] () in
  let th = Thread.create (fun () -> Daemon.run ~timeout:0.01 d) () in
  let port = Daemon.port d in
  let first = raw_connect port in
  raw_send first "HELLO|client|300\nPING\n";
  check cb "PONG before the flood" true (await_line first ~timeout:2.0 "PONG");
  (* A connect the daemon never accepts fails after 2 s instead of
     hanging in SYN retries. *)
  let connect_bounded () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd
  in
  let flood = Array.init 1100 (fun _ -> connect_bounded ()) in
  raw_send first "PING\n";
  check cb "PONG after 1100 connections" true (await_line first ~timeout:10.0 "PONG");
  Thread.delay 0.2;
  (* A refused connection reads end of file; select cannot watch these
     descriptors, so poll them with non-blocking reads. *)
  let buf = Bytes.create 1 in
  let closed fd =
    Unix.set_nonblock fd;
    match Unix.read fd buf 0 1 with
    | n -> n = 0
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
  in
  let refused = Array.fold_left (fun n fd -> if closed fd then n + 1 else n) 0 flood in
  check cb "connections past the limit refused" true (refused > 0 && refused < 1100);
  check (Alcotest.option (Alcotest.float 0.0)) "refusals counted" (Some (float_of_int refused))
    (Xroute_obs.Metrics.scalar
       (Xroute_core.Broker.metrics (Daemon.broker d))
       "xroute_daemon_conn_refused_total");
  Array.iter Unix.close flood;
  Unix.close first;
  Daemon.request_stop d;
  Thread.join th

(* A peer that sends 2 MiB without a newline is closed once its
   unconsumed bytes pass the 1 MiB line limit, and counted; the daemon
   keeps serving everyone else. *)
let test_oversize_line () =
  let d = Daemon.create ~id:0 ~port:0 ~neighbors:[] () in
  let th = Thread.create (fun () -> Daemon.run ~timeout:0.01 d) () in
  let port = Daemon.port d in
  let hog = raw_connect port in
  raw_send hog "HELLO|client|300\n";
  (* The daemon closes mid-stream, so the writer sees EPIPE or a reset
     rather than finishing. *)
  let chunk = String.make 65536 'a' in
  let sent = ref 0 in
  (try
     while !sent < 2 lsl 20 do
       sent := !sent + Unix.write_substring hog chunk 0 (String.length chunk)
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  let buf = Bytes.create 4096 in
  let rec closed_by_peer deadline =
    Unix.gettimeofday () < deadline
    &&
    match Unix.select [ hog ] [] [] 0.5 with
    | [], _, _ -> closed_by_peer deadline
    | _ -> (
      match Unix.read hog buf 0 (Bytes.length buf) with
      | 0 -> true
      | _ -> closed_by_peer deadline
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true)
  in
  check cb "the hog is disconnected" true (closed_by_peer (Unix.gettimeofday () +. 10.0));
  check (Alcotest.option (Alcotest.float 0.0)) "the close is counted" (Some 1.0)
    (Xroute_obs.Metrics.scalar
       (Xroute_core.Broker.metrics (Daemon.broker d))
       "xroute_daemon_oversize_total");
  let peer = raw_connect port in
  raw_send peer "HELLO|client|301\nPING\n";
  check cb "PONG after the hog" true (await_line peer ~timeout:2.0 "PONG");
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  ignore (Client.subscribe subscriber (xp "/a"));
  Thread.delay 0.2;
  ignore (Client.publish_doc publisher ~doc_id:3 (Xroute_xml.Xml_parser.parse "<a><b/></a>"));
  check (Alcotest.list ci) "deliveries after the hog" [ 3 ]
    (Client.drain_deliveries ~timeout:1.0 subscriber);
  Unix.close hog;
  Unix.close peer;
  Client.close publisher;
  Client.close subscriber;
  Daemon.request_stop d;
  Thread.join th

(* ---------------- scripted end to end ---------------- *)

(* A fixed publish script against one daemon: each subscriber sees
   exactly the documents it asked for, and STATS| carries no shard or
   pool metric. *)
let test_script_end_to_end () =
  let d = Daemon.create ~id:0 ~port:0 ~neighbors:[] () in
  let th = Thread.create (fun () -> Daemon.run ~timeout:0.01 d) () in
  let port = Daemon.port d in
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port in
  let s1 = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port in
  let s2 = Client.connect ~client_id:201 ~host:"127.0.0.1" ~port in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/c/d"));
  ignore (Client.subscribe s1 (xp "/a"));
  ignore (Client.subscribe s2 (xp "//d"));
  Thread.delay 0.3;
  let docs =
    [ (1, "<a><b/></a>"); (2, "<c><d/></c>"); (3, "<a><b/><b/></a>"); (4, "<q><r/></q>") ]
  in
  List.iter
    (fun (i, body) ->
      ignore (Client.publish_doc publisher ~doc_id:i (Xroute_xml.Xml_parser.parse body)))
    docs;
  check (Alcotest.list ci) "s1 saw the /a docs" [ 1; 3 ]
    (Client.drain_deliveries ~timeout:1.0 s1);
  check (Alcotest.list ci) "s2 saw the //d doc" [ 2 ] (Client.drain_deliveries ~timeout:1.0 s2);
  (match Client.stats ~format:`Prom s1 with
  | None -> Alcotest.fail "no STATS reply"
  | Some body ->
    let has s =
      let n = String.length body and m = String.length s in
      let rec go i = i + m <= n && (String.sub body i m = s || go (i + 1)) in
      go 0
    in
    check cb "broker counters exposed" true (has "xroute_broker_pubs_in_total");
    check cb "no shard metric" false (has "xroute_shard_");
    check cb "no pool metric" false (has "xroute_pool_"));
  Client.close publisher;
  Client.close s1;
  Client.close s2;
  Daemon.request_stop d;
  Thread.join th

(* Parse a Prometheus text exposition into (base-metric-name, value)
   pairs; comment lines skipped, quantile labels stripped. *)
let parse_prom body =
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         if line = "" || String.length line >= 1 && line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> None
           | Some i ->
             let key = String.sub line 0 i in
             let name =
               match String.index_opt key '{' with
               | Some j -> String.sub key 0 j
               | None -> key
             in
             let v = float_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
             Some (name, v))

let metric_value metrics name =
  List.fold_left (fun acc (n, v) -> if n = name then acc +. v else acc) 0.0
    (List.filter (fun (n, _) -> n = name) metrics)

let test_stats_over_wire () =
  let daemons, threads = start_line 2 in
  let d0 = List.nth daemons 0 and d1 = List.nth daemons 1 in
  Thread.delay 0.2;
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port:(Daemon.port d0) in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port:(Daemon.port d1) in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  Thread.delay 0.2;
  ignore (Client.subscribe subscriber (xp "/a/b"));
  Thread.delay 0.2;
  ignore (Client.publish_doc publisher ~doc_id:3 (Xroute_xml.Xml_parser.parse "<a><b/></a>"));
  check (Alcotest.list ci) "delivered" [ 3 ] (Client.drain_deliveries ~timeout:0.8 subscriber);
  let body_of c =
    match Client.stats c with
    | Some body -> body
    | None -> Alcotest.fail "no STATS reply"
  in
  let pub_side = parse_prom (body_of publisher) in
  let sub_side = parse_prom (body_of subscriber) in
  (* both brokers processed traffic *)
  check cb "publisher broker msgs_in > 0" true
    (metric_value pub_side "xroute_broker_msgs_in_total" > 0.0);
  check cb "subscriber broker msgs_in > 0" true
    (metric_value sub_side "xroute_broker_msgs_in_total" > 0.0);
  check cb "delivery counted at the subscriber's broker" true
    (metric_value sub_side "xroute_broker_deliveries_total" > 0.0);
  check cb "publication counted at the publisher's broker" true
    (metric_value pub_side "xroute_broker_pubs_in_total" > 0.0);
  (* the exposition is broad: >= 10 distinct names spanning SRT, PRT,
     matching and delivery *)
  let names = List.sort_uniq compare (List.map fst sub_side) in
  check cb ">= 10 distinct metric names" true (List.length names >= 10);
  List.iter
    (fun family ->
      check cb (family ^ " family present") true
        (List.exists
           (fun n ->
             String.length n >= String.length family
             && String.sub n 0 (String.length family) = family)
           names))
    [ "xroute_srt_"; "xroute_prt_"; "xroute_broker_deliveries"; "xroute_broker_msgs_in" ];
  check cb "match work was recorded" true
    (metric_value sub_side "xroute_prt_match_checks_total" > 0.0);
  (* One subscription, one advertisement: each broker charges its one
     SRT candidate, but only the subscriber's broker runs the overlap
     test — at the publisher's broker the advertisement's hop is a local
     client, where subscriptions are never forwarded. *)
  List.iter
    (fun (side, metrics, tests) ->
      check (Alcotest.float 0.0) (side ^ ": SRT candidates charged") 1.0
        (metric_value metrics "xroute_srt_match_ops_total");
      check (Alcotest.float 0.0) (side ^ ": SRT overlap tests run") tests
        (metric_value metrics "xroute_srt_overlap_tests_total"))
    [ ("publisher broker", pub_side, 0.0); ("subscriber broker", sub_side, 1.0) ];
  (* the JSON exposition answers too *)
  (match Client.stats ~format:`Json publisher with
  | Some body ->
    check cb "json body shape" true
      (String.length body >= 12 && String.sub body 0 12 = {|{"metrics":[|})
  | None -> Alcotest.fail "no JSON STATS reply");
  Client.close publisher;
  Client.close subscriber;
  stop_all (daemons, threads)

(* AUDIT| over the wire: a healthy daemon reports no findings; after a
   fake non-neighbor broker plants a PRT entry, the audit reports the
   invalid last hop as an error. *)
let test_audit_over_wire () =
  let daemons, threads = start_line 2 in
  let d0 = List.nth daemons 0 and d1 = List.nth daemons 1 in
  Thread.delay 0.2;
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port:(Daemon.port d0) in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port:(Daemon.port d1) in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  Thread.delay 0.2;
  ignore (Client.subscribe subscriber (xp "/a/b"));
  Thread.delay 0.2;
  (match Client.audit subscriber with
  | Some (errors, warnings, findings) ->
    check ci "clean broker: no errors" 0 errors;
    check ci "clean broker: no warnings" 0 warnings;
    check ci "clean broker: no findings" 0 (List.length findings)
  | None -> Alcotest.fail "no AUDIT reply");
  (* corrupt broker 1's PRT: identify as non-neighbor broker 99 and
     subscribe, leaving an entry whose last hop is not a neighbor *)
  let intruder = Client.connect ~client_id:0 ~host:"127.0.0.1" ~port:(Daemon.port d1) in
  Client.send_line intruder "HELLO|broker|99";
  Client.send intruder
    (Xroute_core.Message.Subscribe { id = { origin = 990; seq = 1 }; xpe = xp "/z" });
  Thread.delay 0.2;
  (match Client.audit subscriber with
  | Some (errors, _warnings, findings) ->
    check cb "corruption: errors reported" true (errors > 0);
    check cb "invalid-last-hop finding" true
      (List.exists (fun (sev, code, _, _) -> sev = "error" && code = "invalid-last-hop") findings)
  | None -> Alcotest.fail "no AUDIT reply after corruption");
  Client.close intruder;
  Client.close publisher;
  Client.close subscriber;
  stop_all (daemons, threads)

(* ---------------- causal tracing over the wire ---------------- *)

module Span = Xroute_obs.Span

(* A publication crossing three daemons must leave one merged span tree:
   a single trace id, a hop span at every broker with its per-stage
   leaves, parented across process boundaries, renderable as a waterfall
   and as valid Chrome trace-event JSON. *)
let test_trace_over_wire () =
  let daemons, threads = start_line 3 in
  let d0 = List.nth daemons 0 and d2 = List.nth daemons 2 in
  Thread.delay 0.3;
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port:(Daemon.port d0) in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port:(Daemon.port d2) in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  Thread.delay 0.3;
  ignore (Client.subscribe subscriber (xp "/a/b"));
  Thread.delay 0.3;
  ignore (Client.publish_doc publisher ~doc_id:42 (Xroute_xml.Xml_parser.parse "<a><b/></a>"));
  check (Alcotest.list ci) "delivered" [ 42 ]
    (Client.drain_deliveries ~timeout:1.0 subscriber);
  (* fetch the doc's spans from every daemon and merge *)
  let spans =
    List.concat_map
      (fun d ->
        let c = Client.connect ~client_id:300 ~host:"127.0.0.1" ~port:(Daemon.port d) in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            match Client.trace c 42 with
            | Some spans -> spans
            | None -> Alcotest.fail "no TRACE reply"))
      daemons
  in
  check cb "one trace id across all brokers" true
    (spans <> [] && List.for_all (fun s -> s.Span.trace = 42) spans);
  let hops = List.filter (fun s -> s.Span.name = "hop") spans in
  check (Alcotest.list ci) "a hop span at every broker" [ 0; 1; 2 ]
    (List.sort_uniq compare (List.map (fun s -> s.Span.broker) hops));
  check ci "exactly one root" 1
    (List.length (List.filter (fun s -> s.Span.parent = None) spans));
  (* the hop chain is parented across process boundaries *)
  let ids = List.map (fun s -> s.Span.id) spans in
  check cb "every parent resolves in the merged set" true
    (List.for_all
       (fun s -> match s.Span.parent with None -> true | Some p -> List.mem p ids)
       spans);
  check cb "per-stage leaves present" true
    (List.exists (fun s -> s.Span.name = "parse") spans
    && List.exists (fun s -> s.Span.name = "match") spans);
  (* At every broker the leaves tile the hop exactly, queue -> parse ->
     match -> serialize, and decoding is billed to a parse leaf. *)
  List.iter
    (fun (hop : Span.span) ->
      let leaves =
        List.sort
          (fun (a : Span.span) b -> compare a.start b.start)
          (List.filter
             (fun (s : Span.span) ->
               s.parent = Some hop.id
               && not (List.exists (fun (c : Span.span) -> c.parent = Some s.id) spans))
             spans)
      in
      let names = List.map (fun (s : Span.span) -> s.name) leaves in
      check cb
        (Printf.sprintf "broker %d: leaves in stage order" hop.broker)
        true
        (List.filter (fun n -> List.mem n names) [ "queue"; "parse"; "match"; "serialize" ]
        = names);
      check cb (Printf.sprintf "broker %d: parse leaf" hop.broker) true (List.mem "parse" names);
      let rec tiles at = function
        | [] -> at = hop.stop
        | (s : Span.span) :: rest -> s.start = at && tiles s.stop rest
      in
      check cb (Printf.sprintf "broker %d: leaves tile the hop" hop.broker) true
        (tiles hop.start leaves))
    hops;
  (match Span.check_tree spans with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("merged trace mis-nested: " ^ e));
  check cb "waterfall renders" true (String.length (Span.waterfall spans) > 0);
  (match Xroute_support.Json.parse (Span.to_chrome spans) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("chrome export invalid: " ^ e));
  Client.close publisher;
  Client.close subscriber;
  stop_all (daemons, threads)

(* ---------------- federated health over the wire ---------------- *)

module Health = Xroute_obs.Health

(* FEDSTATS across a 3-broker line: the client pulls one overlay view
   through its home broker, which fans sub-pulls out to the neighbors
   and merges. The merged view must be exactly the union of per-broker
   summaries, idempotent under self-merge, and hop-bounded by ttl. *)
let test_fedstats_over_wire () =
  let daemons, threads = start_line 3 in
  let d0 = List.nth daemons 0 and d2 = List.nth daemons 2 in
  Thread.delay 0.3;
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port:(Daemon.port d0) in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port:(Daemon.port d2) in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  Thread.delay 0.3;
  ignore (Client.subscribe subscriber (xp "/a/b"));
  Thread.delay 0.3;
  let doc = Xroute_xml.Xml_parser.parse "<a><b/></a>" in
  for i = 1 to 5 do
    ignore (Client.publish_doc publisher ~doc_id:i doc)
  done;
  check (Alcotest.list ci) "docs delivered" [ 1; 2; 3; 4; 5 ]
    (Client.drain_deliveries ~timeout:1.0 subscriber);
  let view =
    match Client.fedstats publisher with
    | Some v -> v
    | None -> Alcotest.fail "no FEDSTATS reply"
  in
  check (Alcotest.list ci) "every origin federated" [ 0; 1; 2 ] (List.map fst view);
  (* the merged view is the union of the per-broker summaries: each
     origin's publication count equals that daemon's own health (traffic
     has quiesced, so the counts are stable) *)
  List.iteri
    (fun b d ->
      match List.assoc_opt b view with
      | Some s ->
        check ci
          (Printf.sprintf "broker %d pubs federated intact" b)
          (Health.pubs (Daemon.health d))
          (Health.pubs s)
      | None -> Alcotest.fail (Printf.sprintf "origin %d missing" b))
    daemons;
  check cb "overlay saw publish traffic" true
    (List.fold_left (fun acc (_, s) -> acc + Health.pubs s) 0 view > 0);
  check cb "self-merge is the identity" true
    (Health.view_equal (Health.merge_views view view) view);
  (match Client.fedstats ~ttl:0 publisher with
  | Some v -> check (Alcotest.list ci) "ttl=0: own summary only" [ 0 ] (List.map fst v)
  | None -> Alcotest.fail "no ttl=0 FEDSTATS reply");
  (match Client.fedstats ~ttl:1 publisher with
  | Some v -> check (Alcotest.list ci) "ttl=1: one hop out" [ 0; 1 ] (List.map fst v)
  | None -> Alcotest.fail "no ttl=1 FEDSTATS reply");
  Client.close publisher;
  Client.close subscriber;
  stop_all (daemons, threads)

(* A summary is a view of its broker's registry: for every broker of
   the line, the federated [p=] equals the [xroute_broker_pubs_in_total]
   its STATS|json reports, and each link's sends equal that registry's
   [xroute_link_<peer>_sends_total]. *)
let test_fedstats_reads_the_registry () =
  let daemons, threads = start_line 3 in
  let d0 = List.nth daemons 0 and d2 = List.nth daemons 2 in
  Thread.delay 0.3;
  let publisher = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port:(Daemon.port d0) in
  let subscriber = Client.connect ~client_id:200 ~host:"127.0.0.1" ~port:(Daemon.port d2) in
  ignore (Client.advertise publisher (Xroute_xpath.Adv.parse "/a/b"));
  Thread.delay 0.3;
  ignore (Client.subscribe subscriber (xp "/a/b"));
  Thread.delay 0.3;
  let doc = Xroute_xml.Xml_parser.parse "<a><b/></a>" in
  for i = 1 to 4 do
    ignore (Client.publish_doc publisher ~doc_id:i doc)
  done;
  check (Alcotest.list ci) "docs delivered" [ 1; 2; 3; 4 ]
    (Client.drain_deliveries ~timeout:1.0 subscriber);
  let view =
    match Client.fedstats publisher with
    | Some v -> v
    | None -> Alcotest.fail "no FEDSTATS reply"
  in
  let module Json = Xroute_support.Json in
  List.iteri
    (fun b d ->
      let c = Client.connect ~client_id:(300 + b) ~host:"127.0.0.1" ~port:(Daemon.port d) in
      let series =
        match Option.map Json.parse (Client.stats ~format:`Json c) with
        | Some (Ok j) ->
          Option.value ~default:[] (Option.bind (Json.member "metrics" j) Json.to_list)
          |> List.filter_map (fun m ->
                 match Option.bind (Json.member "name" m) Json.to_str with
                 | Some name -> Some (name, m)
                 | None -> None)
        | Some (Error e) -> Alcotest.failf "broker %d: STATS|json does not parse: %s" b e
        | None -> Alcotest.failf "broker %d: no STATS|json reply" b
      in
      let value name =
        match Option.bind (List.assoc_opt name series) (Json.member "value") with
        | Some v -> int_of_float (Option.get (Json.to_num v))
        | None -> Alcotest.failf "broker %d: STATS|json lacks %s" b name
      in
      check cb (Printf.sprintf "broker %d lists xroute_broker_hop_ms" b) true
        (List.mem_assoc "xroute_broker_hop_ms" series);
      let s =
        match List.assoc_opt b view with
        | Some s -> s
        | None -> Alcotest.failf "origin %d missing" b
      in
      check ci (Printf.sprintf "broker %d: p= is the registry's pubs" b)
        (value "xroute_broker_pubs_in_total") (Health.pubs s);
      check cb (Printf.sprintf "broker %d has links" b) true (Health.links s <> []);
      List.iter
        (fun l ->
          let peer = Health.link_peer l in
          check ci
            (Printf.sprintf "broker %d: link to %d sends" b peer)
            (value (Printf.sprintf "xroute_link_%d_sends_total" peer))
            (Health.link_sends l))
        (Health.links s);
      Client.close c)
    daemons;
  (* every broker of the line handled each path publication once *)
  let paths = 4 * List.length (Xroute_xml.Xml_paths.decompose ~doc_id:1 doc) in
  check (Alcotest.list ci) "each publication counted once" [ paths; paths; paths ]
    (List.map (fun (_, s) -> Health.pubs s) view);
  Client.close publisher;
  Client.close subscriber;
  stop_all (daemons, threads)

(* A broker death mid-session must surface as Client.Unavailable — a
   clean, named failure after the redial budget — never a raw
   Unix_error; and the same client must recover once a broker listens
   on the port again. *)
let test_stats_unavailable_after_death () =
  let d = Daemon.create ~id:0 ~port:0 ~neighbors:[] () in
  let port = Daemon.port d in
  let th = Thread.create (fun () -> Daemon.run ~timeout:0.01 d) () in
  let c = Client.connect ~client_id:100 ~host:"127.0.0.1" ~port in
  check cb "stats answers while alive" true (Client.stats c <> None);
  Daemon.request_stop d;
  Thread.join th;
  Client.set_reconnect_wait c 0.4;
  let saw_unavailable = ref false in
  (try
     (* first call eats the EOF and times out; a later send hits the
        closed socket and must raise the clean exception *)
     for _ = 1 to 3 do
       match Client.stats ~timeout:0.6 c with
       | Some _ -> Alcotest.fail "stats answered from a dead broker"
       | None -> ()
     done
   with
  | Client.Unavailable _ -> saw_unavailable := true
  | Unix.Unix_error (e, _, _) ->
    Alcotest.failf "raw Unix_error leaked to the caller: %s" (Unix.error_message e));
  check cb "death surfaced as Client.Unavailable" true !saw_unavailable;
  (* a fresh broker on the same port: the same client session recovers *)
  let d2 = Daemon.create ~id:0 ~port ~neighbors:[] () in
  let th2 = Thread.create (fun () -> Daemon.run ~timeout:0.01 d2) () in
  Client.set_reconnect_wait c 8.0;
  check cb "stats answers after the broker returns" true (Client.stats c <> None);
  Client.close c;
  Daemon.request_stop d2;
  Thread.join th2

(* ---------------- framed multi-line responses ---------------- *)

let test_framing_escape_roundtrip () =
  let cases = [ ""; "plain"; "a|b"; "a\nb\rc"; "100%"; "%7C"; "|%|\n%0A" ] in
  List.iter
    (fun s ->
      check Alcotest.string "escape/unescape round-trips" s
        (Framing.unescape (Framing.escape s)))
    cases;
  check cb "escaped text is pipe- and newline-free" true
    (List.for_all
       (fun s ->
         let e = Framing.escape s in
         not (String.contains e '|' || String.contains e '\n' || String.contains e '\r'))
       cases);
  (* unescape is total: malformed escapes pass through unchanged *)
  check Alcotest.string "malformed escape passes through" "%zz" (Framing.unescape "%zz");
  check Alcotest.string "trailing percent passes through" "a%" (Framing.unescape "a%")

(* The TRACE frame must carry payloads containing the frame's own
   delimiters: plant a span whose name and meta embed '|', newlines and
   '%', then fetch it over the wire. *)
let test_trace_framing_hostile_payload () =
  let d = Daemon.create ~id:0 ~port:0 ~neighbors:[] () in
  let th = Thread.create (fun () -> Daemon.run ~timeout:0.01 d) () in
  let nasty = "stage|with\npipes\rand 100% escapes" in
  let meta = [ ("k|ey", "v|al\nue"); ("pct", "100%") ] in
  let planted =
    Span.record (Daemon.spans d) ~trace:77 ~name:nasty ~broker:0 ~meta ~start:1.0
      ~stop:2.0 ()
  in
  let c = Client.connect ~client_id:1 ~host:"127.0.0.1" ~port:(Daemon.port d) in
  (match Client.trace c 77 with
  | Some [ got ] ->
    check ci "id intact" planted.Span.id got.Span.id;
    check Alcotest.string "hostile name intact" nasty got.Span.name;
    check cb "hostile meta intact" true (got.Span.meta = meta)
  | Some l -> Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length l))
  | None -> Alcotest.fail "no TRACE reply");
  (* STATS still answers on the same connection: framing state is clean *)
  check cb "connection still usable after TRACE" true (Client.stats c <> None);
  Client.close c;
  Daemon.request_stop d;
  Thread.join th

(* ---------------- flight recorder ---------------- *)

(* An error-severity AUDIT finding must leave a post-mortem on disk:
   corrupt the PRT via a fake non-neighbor broker, audit, then check the
   daemon's recorder wrote a parseable xroute-flight/2 dump. *)
let test_flight_recorder_on_audit_error () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xroute-flight-daemon-%d" (Unix.getpid ()))
  in
  let d = Daemon.create ~id:0 ~port:0 ~neighbors:[] ~flight_dir:dir () in
  let th = Thread.create (fun () -> Daemon.run ~timeout:0.01 d) () in
  let intruder = Client.connect ~client_id:0 ~host:"127.0.0.1" ~port:(Daemon.port d) in
  Client.send_line intruder "HELLO|broker|99";
  Client.send intruder
    (Xroute_core.Message.Subscribe { id = { origin = 990; seq = 1 }; xpe = xp "/z" });
  Thread.delay 0.2;
  let observer = Client.connect ~client_id:1 ~host:"127.0.0.1" ~port:(Daemon.port d) in
  (match Client.audit observer with
  | Some (errors, _, _) -> check cb "audit reports errors" true (errors > 0)
  | None -> Alcotest.fail "no AUDIT reply");
  let recorder =
    match Daemon.recorder d with
    | Some r -> r
    | None -> Alcotest.fail "flight_dir did not enable the recorder"
  in
  (match Xroute_obs.Recorder.dumps recorder with
  | [] -> Alcotest.fail "no flight dump after an error-severity audit"
  | path :: _ ->
    let ic = open_in_bin path in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (match Xroute_support.Json.parse body with
    | Error e -> Alcotest.fail ("flight dump is not JSON: " ^ e)
    | Ok j ->
      let str k =
        Option.bind (Xroute_support.Json.member k j) Xroute_support.Json.to_str
      in
      check cb "flight schema" true (str "schema" = Some "xroute-flight/2");
      check cb "reason names the audit" true
        (match str "reason" with
        | Some r -> List.exists (fun w -> w = "audit") (String.split_on_char ' ' r)
        | None -> false));
    Sys.remove path);
  (try Sys.rmdir dir with Sys_error _ -> ());
  Client.close intruder;
  Client.close observer;
  Daemon.request_stop d;
  Thread.join th

let () =
  Alcotest.run "daemon"
    [
      ( "tcp",
        [
          Alcotest.test_case "end to end" `Quick test_end_to_end;
          Alcotest.test_case "unsubscribe" `Quick test_unsubscribe_over_wire;
          Alcotest.test_case "fanout" `Quick test_two_subscribers_fanout;
          Alcotest.test_case "burst write path" `Quick test_burst_write_path;
          Alcotest.test_case "stats over the wire" `Quick test_stats_over_wire;
          Alcotest.test_case "audit over the wire" `Quick test_audit_over_wire;
          Alcotest.test_case "broker restart mid-session" `Quick test_broker_restart;
          Alcotest.test_case "1-byte write chunks" `Quick test_one_byte_write_chunks;
          Alcotest.test_case "duplicate HELLO evicts the stale conn" `Quick
            test_duplicate_hello_reconnect;
          Alcotest.test_case "1MB inbound burst" `Quick test_large_inbound_burst;
          Alcotest.test_case "bare F and M lines dropped" `Quick test_bare_tag_lines;
          Alcotest.test_case "1100 connections past FD_SETSIZE" `Quick test_fd_limit;
          Alcotest.test_case "2 MiB line closes the sender" `Quick test_oversize_line;
        ] );
      ( "linebuf",
        [
          Alcotest.test_case "basics" `Quick test_linebuf_basics;
          Alcotest.test_case "1MB one byte at a time" `Quick test_linebuf_byte_at_a_time;
        ] );
      ( "script",
        [ Alcotest.test_case "end to end, one daemon" `Quick test_script_end_to_end ] );
      ( "fedstats",
        [
          Alcotest.test_case "federated view over the wire, 3 brokers" `Quick
            test_fedstats_over_wire;
          Alcotest.test_case "summaries read the broker registry" `Quick
            test_fedstats_reads_the_registry;
          Alcotest.test_case "broker death surfaces as Unavailable" `Quick
            test_stats_unavailable_after_death;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "trace over the wire, 3 brokers" `Quick test_trace_over_wire;
          Alcotest.test_case "framing escape round-trip" `Quick
            test_framing_escape_roundtrip;
          Alcotest.test_case "hostile payload through TRACE" `Quick
            test_trace_framing_hostile_payload;
          Alcotest.test_case "flight dump on audit error" `Quick
            test_flight_recorder_on_audit_error;
        ] );
    ]
