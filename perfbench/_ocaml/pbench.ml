(* Input generator, oracle and traced in-process replay for the perfbench
   harness (perfbench/run.py drives it; see perfbench/NOTES.md).

     pbench prep <workload> <seed> <out-file>
       Generate the workload's inputs from the seed and write them as
       wire lines, one record per line (tab-separated):
         T <pub-broker> <sub-broker>
         B <broker-id> <neighbor ids, comma-separated, or ->
         PS <line>           publisher set-up line (HELLO, advertisements)
         SS <line>           subscriber set-up line; the probe subscription is last
         PROBE <suffix>      the probe publication, minus "M|1|P|<doc-id>"
         D                   a new document
         P <e> <ops> <sfx>   one path publication of the current document:
                             e = 1 when the oracle expects a delivery, ops =
                             per-broker PRT match+cover operations charged by
                             an in-process replica (-1: never reaches it)
       The oracle is Xpe_eval over the generated publications, independent
       of Broker; the replica counts cross-check the daemons' STATS.

     pbench replay <workload> <seed> <pubs> <spans-out> [<scenario-spec>]
       Replay the same inputs in-process through the calls the daemon
       makes for each line: a traced set-up, then <pubs> publications
       three times (untraced, traced, untraced), then a traced teardown
       that withdraws every subscription. Traced work records a span
       around every call; spans go to <spans-out> as "name parent t0 t1 words"
       lines (ns, minor words), and one JSON object of counters goes to
       stdout. With a scenario spec, Scenario.run is also timed in-process
       with Gc deltas. *)

open Xroute_core
module Xml_paths = Xroute_xml.Xml_paths
module Xpe_parser = Xroute_xpath.Xpe_parser
module Xpe_eval = Xroute_xpath.Xpe_eval
module Adv = Xroute_xpath.Adv
module Workload = Xroute_workload.Workload
module Scenario = Xroute_workload.Scenario
module Linebuf = Xroute_daemon.Linebuf
module Span = Xroute_obs.Span
module Health = Xroute_obs.Health
module Mono = Xroute_support.Mono

let publisher = 100
let subscriber = 200

(* ---------------- workloads ---------------- *)

type inputs = {
  brokers : (int * int list) list;
  pub_at : int;
  sub_at : int;
  pub_setup : Message.t list;  (** from the publisher, at [pub_at] *)
  sub_setup : (int * Message.t) list;  (** (client, message) at [sub_at]; probe last *)
  churn : (int * Message.t) list;  (** unsubscriptions after the set-up *)
  probe : Xml_paths.publication;
  docs : Xml_paths.publication array list;
}

let sid origin seq = { Message.origin; seq }

let path ?doc_size steps =
  let doc_size = Option.value doc_size ~default:(String.length (String.concat "/" (Array.to_list steps))) in
  Xml_paths.make ~doc_id:0 ~path_id:0 ~steps ~attrs:(Array.make (Array.length steps) []) ~doc_size
    ~path_count:1

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let oracle xpes p = List.exists (fun x -> Xpe_eval.matches_publication x p) xpes

let probe_xpe = "/pbprobe/ping"
let probe_path () = path [| "pbprobe"; "ping" |]

(* 2-broker line, publisher on 0, subscriber on 1 holding 8 anchored XPEs
   of four shapes over distinct sections; every publication is a 5-step
   path matching exactly one of them. *)
let small_msg seed =
  let rng = Random.State.make [| seed |] in
  let secs = Array.init 8 (Printf.sprintf "sec%d") in
  let shapes =
    [|
      (fun s -> "/feed/" ^ s);
      (fun s -> "/feed/" ^ s ^ "/item");
      (fun s -> "//" ^ s ^ "/item/body");
      (fun s -> "/feed/" ^ s ^ "/*/body/para");
    |]
  in
  let pub_setup =
    List.mapi
      (fun i s ->
        Message.Advertise
          { id = sid publisher (i + 1); adv = Adv.parse ("/feed/" ^ s ^ "/item/body/para") })
      (Array.to_list secs)
    @ [ Message.Advertise { id = sid publisher 9; adv = Adv.parse probe_xpe } ]
  in
  let order = shuffle rng (Array.init 8 Fun.id) in
  let subs =
    List.mapi
      (fun k i -> Xpe_parser.parse (shapes.(i mod 4) secs.(i)), k)
      (Array.to_list order)
  in
  let sub_setup =
    List.map (fun (xpe, k) -> (subscriber, Message.Subscribe { id = sid subscriber (k + 1); xpe })) subs
    @ [ (subscriber, Message.Subscribe { id = sid subscriber 9; xpe = Xpe_parser.parse probe_xpe }) ]
  in
  let docs =
    List.init 64 (fun _ ->
        [| path ~doc_size:49 [| "feed"; secs.(Random.State.int rng 8); "item"; "body"; "para" |] |])
  in
  {
    brokers = [ (0, [ 1 ]); (1, [ 0 ]) ];
    pub_at = 0;
    sub_at = 1;
    pub_setup;
    sub_setup;
    churn = [];
    probe = probe_path ();
    docs;
  }

let nitf = Xroute_dtd.Dtd_samples.nitf
let nitf_advs = lazy (Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build (Lazy.force nitf)))

let advertise_nitf () =
  List.mapi (fun i adv -> Message.Advertise { id = sid publisher (i + 1); adv }) (Lazy.force nitf_advs)

(* NITF documents decomposed into paths; a document the XPEs never match
   is dropped, and one matched path is moved last, so every document ends
   with an observable delivery. *)
let nitf_docs ~xpes ~count ~seed =
  Workload.documents ~dtd:(Lazy.force nitf) ~count ~seed ()
  |> List.filter_map (fun d ->
         let paths = Xml_paths.decompose ~doc_id:0 d in
         match List.rev (List.filter (oracle xpes) paths) with
         | [] -> None
         | last :: _ -> Some (Array.of_list (List.filter (fun p -> p != last) paths @ [ last ])))

let check_probe xpes =
  if oracle xpes (probe_path ()) then failwith "a workload XPE matches the probe publication"

(* One broker; the subscriber holds 2 000 Set-A NITF XPEs. The XPE set
   is drawn from a constant seed: which heavy (wildcard, descendant) XPEs
   a draw contains moved PRT entries per publication by +-12% across
   seeds, more than a regression bound allows. The seed varies the order
   they are installed in and the documents. *)
let match_heavy seed =
  let rng = Random.State.make [| seed |] in
  let xpes =
    Array.to_list
      (shuffle rng
         (Array.of_list
            (Workload.xpes ~params:(Workload.set_a_params (Lazy.force nitf)) ~count:2000 ~seed:2008 ())))
  in
  check_probe xpes;
  let sub_setup =
    List.mapi (fun k xpe -> (subscriber, Message.Subscribe { id = sid subscriber (k + 1); xpe })) xpes
    @ [
        ( subscriber,
          Message.Subscribe
            { id = sid subscriber (List.length xpes + 1); xpe = Xpe_parser.parse probe_xpe } );
      ]
  in
  {
    brokers = [ (0, []) ];
    pub_at = 0;
    sub_at = 0;
    pub_setup = advertise_nitf ();
    sub_setup;
    churn = [];
    probe = probe_path ();
    docs = nitf_docs ~xpes ~count:40 ~seed:(seed + 1);
  }

(* The daemon-call view of the churn scenario's traffic: 4 096 virtual
   clients on broker 1 subscribe from a 128-XPE Set-A pool, every other
   one unsubscribes, then NITF documents are published on broker 0. *)
let sim_churn seed =
  let rng = Random.State.make [| seed |] in
  let pool = Array.of_list (Workload.xpes ~params:(Workload.set_a_params (Lazy.force nitf)) ~count:128 ~seed ()) in
  let clients = 4096 in
  let sub_setup =
    List.init clients (fun c ->
        let client = 1000 + c in
        (client, Message.Subscribe { id = sid client 1; xpe = pool.(Random.State.int rng (Array.length pool)) }))
  in
  let churn =
    List.filter_map
      (fun c ->
        if c mod 2 = 0 then None
        else
          let client = 1000 + c in
          Some (client, Message.Unsubscribe { id = sid client 1 }))
      (List.init clients Fun.id)
  in
  {
    brokers = [ (0, [ 1 ]); (1, [ 0 ]) ];
    pub_at = 0;
    sub_at = 1;
    pub_setup = advertise_nitf ();
    sub_setup;
    churn;
    probe = probe_path ();
    docs = nitf_docs ~xpes:(Array.to_list pool) ~count:6 ~seed:(seed + 1);
  }

let inputs_of = function
  | "small-msg" -> small_msg
  | "match-heavy" -> match_heavy
  | "sim-churn" -> sim_churn
  | w -> failwith ("unknown workload " ^ w)

(* A publication's wire line after "M|1|P|<doc-id>". *)
let suffix (p : Xml_paths.publication) =
  let line = Codec.encode (Message.Publish { pub = p; trail = []; ctx = None }) in
  let i = String.index_from line 4 '.' in
  String.sub line i (String.length line - i)

let pub_line doc_id sfx = Printf.sprintf "M|1|P|%d%s" doc_id sfx

(* ---------------- tracer ---------------- *)

(* Spans kept in flat arrays while the replay runs, written at the end.
   Closing a span allocates nothing, so the words a span reports are the
   traced call's own. *)
let span_names =
  [|
    "hop";
    "linebuf";
    "codec.decode";
    "xml_paths.make";
    "span";
    "broker.publish";
    "codec.encode";
    "health";
    "broker.subscribe";
    "broker.unsubscribe";
    "broker.advertise";
    "rtable.prt.match";
  |]

let k_hop = 0
and k_linebuf = 1
and k_decode = 2
and k_make = 3
and k_span = 4
and k_publish = 5
and k_encode = 6
and k_health = 7
and k_subscribe = 8
and k_unsubscribe = 9
and k_advertise = 10
and k_prt_match = 11

type tracer = {
  mutable on : bool;
  mutable n : int;
  mutable names : int array;
  mutable parents : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable words : float array;
}

let tr =
  { on = false; n = 0; names = [||]; parents = [||]; t0 = [||]; t1 = [||]; words = [||] }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let grow () =
  let cap = max 4096 (2 * Array.length tr.names) in
  let ext a z = Array.append a (Array.make (cap - Array.length a) z) in
  tr.names <- ext tr.names 0;
  tr.parents <- ext tr.parents 0;
  tr.t0 <- ext tr.t0 0;
  tr.t1 <- ext tr.t1 0;
  tr.words <- ext tr.words 0.0

let opn name parent =
  if not tr.on then -1
  else begin
    if tr.n = Array.length tr.names then grow ();
    let i = tr.n in
    tr.n <- i + 1;
    tr.names.(i) <- name;
    tr.parents.(i) <- parent;
    tr.words.(i) <- Gc.minor_words ();
    tr.t0.(i) <- now_ns ();
    i
  end

let close i =
  if i >= 0 then begin
    tr.t1.(i) <- now_ns ();
    tr.words.(i) <- Gc.minor_words () -. tr.words.(i)
  end

let write_spans file =
  let oc = open_out file in
  for i = 0 to tr.n - 1 do
    Printf.fprintf oc "%s %d %d %d %.0f\n" span_names.(tr.names.(i)) tr.parents.(i) tr.t0.(i)
      tr.t1.(i) tr.words.(i)
  done;
  close_out oc

(* ---------------- the daemon's per-line calls ---------------- *)

type node = {
  b : Broker.t;
  lb : Linebuf.t;
  spans : Span.t;
  clock : Mono.t;
  health : Health.t;
  out : Buffer.t;
}

type counts = {
  mutable pubs : int;  (** publications handled, summed over brokers *)
  mutable prt_entries : int;
  mutable outputs : int;
  mutable dropped : int;
  mutable copies : int;  (** output copies encoded for publications *)
  mutable subs : int;
  mutable srt_ops : int;
  mutable cover_checks : int;
  mutable forwards : int;
  mutable unsubs : int;
}

let zero_counts () =
  {
    pubs = 0;
    prt_entries = 0;
    outputs = 0;
    dropped = 0;
    copies = 0;
    subs = 0;
    srt_ops = 0;
    cover_checks = 0;
    forwards = 0;
    unsubs = 0;
  }

type net = {
  nodes : (int, node) Hashtbl.t;
  q : (int * Rtable.endpoint * string) Queue.t;
  mutable c : counts;
  mutable on_pub : int -> Xml_paths.publication -> int -> unit;
      (** broker, publication, PRT match+cover operations charged *)
}

let make_net (inp : inputs) =
  let nodes = Hashtbl.create 4 in
  List.iter
    (fun (id, neighbors) ->
      Hashtbl.replace nodes id
        {
          b = Broker.create ~id ~neighbors ();
          lb = Linebuf.create ~initial:256 ();
          spans = Span.create ~id_base:(id * 1_000_000_000) ();
          clock = Mono.create ~source:(fun () -> Unix.gettimeofday () *. 1000.0) ();
          health = Health.create id;
          out = Buffer.create 4096;
        })
    inp.brokers;
  { nodes; q = Queue.create (); c = zero_counts (); on_pub = (fun _ _ _ -> ()) }

(* Encode and enqueue one output copy, as Daemon.send_message does, then
   hand it to the next broker. *)
let send net node hop self (ep, msg) =
  (match ep with
  | Rtable.Neighbor n ->
    let s = opn k_health hop in
    Health.record_send node.health ~peer:n;
    close s
  | Rtable.Client _ -> ());
  let s = opn k_encode hop in
  let line = "M|" ^ Codec.encode msg in
  Buffer.add_string node.out line;
  Buffer.add_char node.out '\n';
  close s;
  match ep with
  | Rtable.Neighbor n -> Queue.push (n, Rtable.Neighbor self, line) net.q
  | Rtable.Client _ -> ()

(* Daemon.handle_publish, call for call. *)
let publish net node hop self ~from pub trail ctx =
  let c = net.c in
  let s = opn k_span hop in
  let batch_t = Mono.now node.clock in
  let t0 = Mono.now node.clock in
  let trace, parent, root =
    match (ctx : Message.trace_ctx option) with
    | Some x -> (x.trace, Some x.parent_span, None)
    | None ->
      let root =
        match Span.root_for node.spans ~trace:pub.Xml_paths.doc_id with
        | Some r -> r
        | None ->
          Span.start_span node.spans ~trace:pub.Xml_paths.doc_id ~name:"pub" ~broker:(-1)
            ~at:batch_t ()
      in
      (pub.Xml_paths.doc_id, Some root.Span.id, Some root)
  in
  let hspan = Span.start_span node.spans ?parent ~trace ~name:"hop" ~broker:self ~at:batch_t () in
  let leaf name start stop ?meta () =
    if stop -. start > 0.0 then
      ignore
        (Span.record node.spans ~parent:hspan.Span.id ?meta ~trace ~name ~broker:self ~start ~stop ())
  in
  leaf "queue" batch_t t0 ();
  let t_dec = Mono.now node.clock in
  leaf "parse" t0 t_dec ();
  close s;
  let s = opn k_publish hop in
  let s0, m0, c0 = Broker.stage_ops node.b in
  let outs = Broker.handle node.b ~from (Message.Publish { pub; trail; ctx }) in
  let s1, m1, c1 = Broker.stage_ops node.b in
  close s;
  net.on_pub self pub (m1 - m0 + (c1 - c0));
  c.pubs <- c.pubs + 1;
  c.prt_entries <- c.prt_entries + (m1 - m0);
  c.outputs <- c.outputs + List.length outs;
  if outs = [] then c.dropped <- c.dropped + 1;
  let s = opn k_span hop in
  let t_match = Mono.now node.clock in
  leaf "match" t_dec t_match
    ~meta:
      [
        ("srt_ops", string_of_int (s1 - s0));
        ("prt_ops", string_of_int (m1 - m0));
        ("cover_ops", string_of_int (c1 - c0));
      ]
    ();
  let ctx' = Some { Message.trace; parent_span = hspan.Span.id } in
  close s;
  List.iter
    (fun (ep, m) ->
      c.copies <- c.copies + 1;
      send net node hop self
        (ep, match m with Message.Publish p -> Message.Publish { p with ctx = ctx' } | m -> m))
    outs;
  let s = opn k_span hop in
  let t_ser = Mono.now node.clock in
  leaf "serialize" t_match t_ser ();
  Span.finish hspan ~at:t_ser;
  Option.iter (fun r -> Span.extend r ~at:t_ser) root;
  close s;
  let s = opn k_health hop in
  Health.record_pub node.health;
  Health.record_hop_latency node.health (t_ser -. batch_t);
  List.iter
    (fun (ep, _) ->
      match ep with
      | Rtable.Neighbor n -> Health.record_link_latency node.health ~peer:n (t_ser -. batch_t)
      | Rtable.Client _ -> ())
    outs;
  close s

(* Daemon.read_conn → drain_lines → handle_line for one line. *)
let handle_line net self ~from line =
  let node = Hashtbl.find net.nodes self in
  let hop = opn k_hop (-1) in
  let s = opn k_linebuf hop in
  Linebuf.add_string node.lb line;
  Linebuf.add_string node.lb "\n";
  let line = Option.get (Linebuf.next_line node.lb) in
  close s;
  let s = opn k_decode hop in
  let msg =
    match String.split_on_char '|' line with
    | "M" :: _ -> Codec.decode (String.sub line 2 (String.length line - 2))
    | _ -> failwith ("unexpected line " ^ line)
  in
  close s;
  (match msg with
  | Error e -> failwith (Format.asprintf "%a" Codec.pp_error e)
  | Ok (Message.Publish { pub; trail; ctx }) -> publish net node hop self ~from pub trail ctx
  | Ok msg ->
    let kind, is_sub =
      match msg with
      | Message.Subscribe _ -> (k_subscribe, true)
      | Message.Unsubscribe _ -> (k_unsubscribe, false)
      | Message.Advertise _ | Message.Unadvertise _ | Message.Publish _ -> (k_advertise, false)
    in
    let s = opn kind hop in
    let s0, _, c0 = Broker.stage_ops node.b in
    let outs = Broker.handle node.b ~from msg in
    let s1, _, c1 = Broker.stage_ops node.b in
    close s;
    let c = net.c in
    if is_sub then begin
      c.subs <- c.subs + 1;
      c.srt_ops <- c.srt_ops + (s1 - s0);
      c.cover_checks <- c.cover_checks + (c1 - c0);
      c.forwards <-
        c.forwards
        + List.length
            (List.filter
               (function Rtable.Neighbor _, Message.Subscribe _ -> true | _ -> false)
               outs)
    end
    else if kind = k_unsubscribe then c.unsubs <- c.unsubs + 1;
    List.iter (send net node hop self) outs);
  Buffer.clear node.out;
  close hop

(* Inject a line at a broker and run the overlay until it is quiet. *)
let inject net at ~from line =
  Queue.push (at, from, line) net.q;
  while not (Queue.is_empty net.q) do
    let dest, from, line = Queue.pop net.q in
    handle_line net dest ~from line
  done

let msg_line m = "M|" ^ Codec.encode m

let setup net (inp : inputs) =
  List.iter (fun m -> inject net inp.pub_at ~from:(Rtable.Client publisher) (msg_line m)) inp.pub_setup;
  List.iter (fun (cl, m) -> inject net inp.sub_at ~from:(Rtable.Client cl) (msg_line m)) inp.sub_setup;
  List.iter (fun (cl, m) -> inject net inp.sub_at ~from:(Rtable.Client cl) (msg_line m)) inp.churn

(* Every subscription still installed after the set-up is withdrawn, so
   each workload loads the unsubscribe path. *)
let teardown net (inp : inputs) =
  let gone = Hashtbl.create 64 in
  List.iter
    (fun (_, m) -> match m with Message.Unsubscribe { id } -> Hashtbl.replace gone id () | _ -> ())
    inp.churn;
  List.iter
    (fun (cl, m) ->
      match m with
      | Message.Subscribe { id; _ } when not (Hashtbl.mem gone id) ->
        inject net inp.sub_at ~from:(Rtable.Client cl) (msg_line (Message.Unsubscribe { id }))
      | _ -> ())
    inp.sub_setup

(* The measured stream: documents in order, cycled, doc ids from 1. *)
let stream (inp : inputs) ~pubs f =
  let docs = Array.of_list (List.map (Array.map suffix) inp.docs) in
  let sent = ref 0 and doc = ref 0 in
  while !sent < pubs do
    let paths = docs.(!doc mod Array.length docs) in
    incr doc;
    Array.iter
      (fun sfx ->
        f (pub_line !doc sfx);
        incr sent)
      paths
  done;
  !sent

(* ---------------- prep ---------------- *)

let prep workload seed file =
  let inp = inputs_of workload seed in
  let net = make_net inp in
  setup net inp;
  let ids = List.map fst inp.brokers in
  let oc = open_out file in
  Printf.fprintf oc "T\t%d\t%d\n" inp.pub_at inp.sub_at;
  List.iter
    (fun (id, ns) ->
      Printf.fprintf oc "B\t%d\t%s\n" id
        (if ns = [] then "-" else String.concat "," (List.map string_of_int ns)))
    inp.brokers;
  Printf.fprintf oc "PS\tHELLO|client|%d\n" publisher;
  List.iter (fun m -> Printf.fprintf oc "PS\t%s\n" (msg_line m)) inp.pub_setup;
  let hello = Hashtbl.create 4 in
  List.iter
    (fun (cl, m) ->
      if not (Hashtbl.mem hello cl) then begin
        Hashtbl.add hello cl ();
        Printf.fprintf oc "SS\tHELLO|client|%d\n" cl
      end;
      Printf.fprintf oc "SS\t%s\n" (msg_line m))
    (inp.sub_setup @ inp.churn);
  Printf.fprintf oc "PROBE\t%s\n" (suffix inp.probe);
  let xpes =
    List.filter_map
      (fun (_, m) -> match m with Message.Subscribe { xpe; _ } -> Some xpe | _ -> None)
      inp.sub_setup
  in
  let ops = Hashtbl.create 4 in
  net.on_pub <- (fun b _ n -> Hashtbl.replace ops b n);
  List.iter
    (fun paths ->
      output_string oc "D\n";
      Array.iter
        (fun p ->
          Hashtbl.reset ops;
          inject net inp.pub_at ~from:(Rtable.Client publisher) (pub_line 1 (suffix p));
          let per =
            List.map (fun b -> string_of_int (Option.value (Hashtbl.find_opt ops b) ~default:(-1))) ids
          in
          Printf.fprintf oc "P\t%d\t%s\t%s\n"
            (if oracle xpes p then 1 else 0)
            (String.concat "," per) (suffix p))
        paths)
    inp.docs;
  close_out oc

(* ---------------- replay ---------------- *)

(* One pass of the measured stream over an already set-up overlay;
   publications leave the routing tables as they found them. The traced
   pass differs from the untraced ones only by its spans. *)
let time_pubs net inp ~pubs ~traced =
  Gc.full_major ();
  net.c <- zero_counts ();
  tr.on <- traced;
  let t0 = now_ns () in
  let n =
    stream inp ~pubs (fun line -> inject net inp.pub_at ~from:(Rtable.Client publisher) line)
  in
  let dt = now_ns () - t0 in
  tr.on <- false;
  (n, dt)

(* (broker, decoded publication) for every publication hop of the stream,
   collected in an untimed pass. *)
let handled_pubs net inp ~pubs =
  let handled = ref [] in
  net.on_pub <- (fun b p _ -> handled := (b, p) :: !handled);
  ignore (stream inp ~pubs (fun line -> inject net inp.pub_at ~from:(Rtable.Client publisher) line));
  net.on_pub <- (fun _ _ _ -> ());
  List.rev !handled

(* Codec.decode interns a publication's steps through Xml_paths.make, so
   that call is timed here, again on each decoded publication's fields.
   It is part of codec.decode, not added to it. *)
let time_make handled =
  tr.on <- true;
  List.iter
    (fun (_, (p : Xml_paths.publication)) ->
      let s = opn k_make (-1) in
      ignore
        (Sys.opaque_identity
           (Xml_paths.make ~doc_id:p.doc_id ~path_id:p.path_id ~steps:p.steps ~attrs:p.attrs
              ~doc_size:p.doc_size ~path_count:p.path_count));
      close s)
    handled;
  tr.on <- false

(* Rtable.Prt.match_pub on replicas holding each broker's stored XPEs,
   timed per publication the broker handled. *)
let time_prt_match net handled =
  let replicas = Hashtbl.create 4 in
  Hashtbl.iter
    (fun id node ->
      let prt = Rtable.Prt.create ~covers:(fun a b -> Cover.covers a b) () in
      List.iter
        (fun (sub, xpe, hop) -> ignore (Rtable.Prt.insert prt sub xpe hop))
        (Broker.audit_view node.b).av_subs;
      Hashtbl.replace replicas id prt)
    net.nodes;
  tr.on <- true;
  List.iter
    (fun (b, p) ->
      let prt = Hashtbl.find replicas b in
      let s = opn k_prt_match (-1) in
      ignore (Sys.opaque_identity (Rtable.Prt.match_pub prt p));
      close s)
    handled;
  tr.on <- false

let replay workload seed pubs spans_out spec =
  let inp = inputs_of workload seed in
  let net = make_net inp in
  tr.on <- true;
  setup net inp;
  tr.on <- false;
  let sc = net.c in
  let n, untraced1 = time_pubs net inp ~pubs ~traced:false in
  let _, traced = time_pubs net inp ~pubs ~traced:true in
  let pc = net.c in
  let _, untraced2 = time_pubs net inp ~pubs ~traced:false in
  let handled = handled_pubs net inp ~pubs in
  time_make handled;
  time_prt_match net handled;
  net.c <- zero_counts ();
  tr.on <- true;
  teardown net inp;
  tr.on <- false;
  let uc = net.c in
  write_spans spans_out;
  let sim =
    match spec with
    | None -> "null"
    | Some s ->
      let spec = match Scenario.spec_of_string s with Ok x -> x | Error e -> failwith e in
      Gc.full_major ();
      let g0 = Gc.quick_stat () in
      let t0 = now_ns () in
      let o = Scenario.run spec in
      let dt = now_ns () - t0 in
      let g1 = Gc.quick_stat () in
      Printf.sprintf
        "{\"events\":%d,\"ns\":%d,\"minor_words\":%.0f,\"major_gcs\":%d,\"digest\":\"%Lx\"}"
        o.Scenario.events dt
        (g1.Gc.minor_words -. g0.Gc.minor_words)
        (g1.Gc.major_collections - g0.Gc.major_collections)
        o.Scenario.ledger_digest
  in
  Printf.printf
    "{\"stream_pubs\":%d,\"untraced_ns\":[%d,%d],\"traced_ns\":%d,\"pubs\":%d,\"prt_entries\":%d,\
     \"outputs\":%d,\"dropped\":%d,\"copies\":%d,\"subs\":%d,\"srt_ops\":%d,\
     \"cover_checks\":%d,\"forwards\":%d,\"unsubs\":%d,\"sim\":%s}\n"
    n untraced1 untraced2 traced pc.pubs pc.prt_entries pc.outputs pc.dropped pc.copies
    sc.subs sc.srt_ops sc.cover_checks sc.forwards (sc.unsubs + uc.unsubs) sim

(* ---------------- host-speed calibration ---------------- *)

(* A fixed amount of work that uses no xroute code, so no change to the
   program moves it: split path-like strings, count their steps in a
   hash table, sort the counts. It allocates and chases pointers the way
   the broker's decode and match paths do. *)
let calib_keys =
  Array.init 512 (fun i ->
    String.concat "/" (List.init 6 (fun j -> "s" ^ string_of_int ((i * 7919 + j * 104729) mod 997))))

let calib_round () =
  let h = Hashtbl.create 1024 in
  Array.iter
    (fun k ->
      List.iter
        (fun s -> Hashtbl.replace h s (1 + Option.value ~default:0 (Hashtbl.find_opt h s)))
        (String.split_on_char '/' k))
    calib_keys;
  List.length (List.sort compare (Hashtbl.fold (fun k v acc -> (v, k) :: acc) h []))

(* Each stdin line holds a round count; answer with the ns they took. *)
let calib () =
  try
    while true do
      let n = int_of_string (String.trim (input_line stdin)) in
      let t0 = now_ns () in
      let s = ref 0 in
      for _ = 1 to n do
        s := !s + calib_round ()
      done;
      Printf.printf "%d %d\n%!" (now_ns () - t0) !s
    done
  with End_of_file -> ()

let () =
  match Array.to_list Sys.argv with
  | [ _; "prep"; w; seed; file ] -> prep w (int_of_string seed) file
  | [ _; "calib" ] -> calib ()
  | [ _; "replay"; w; seed; pubs; spans ] ->
    replay w (int_of_string seed) (int_of_string pubs) spans None
  | [ _; "replay"; w; seed; pubs; spans; spec ] ->
    replay w (int_of_string seed) (int_of_string pubs) spans (Some spec)
  | _ ->
    prerr_endline
      "usage: pbench prep <workload> <seed> <file> | pbench replay <workload> <seed> <pubs> \
       <spans-out> [<scenario-spec>]";
    exit 2
