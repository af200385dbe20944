(* Protocol fuzzing: random interleavings of advertise / subscribe /
   unsubscribe / publish over random topologies, for every routing
   strategy, checked against a centralized oracle.

   The oracle knows every active subscription directly; at quiescence,
   a client must have received exactly the documents that match at least
   one of the subscriptions it held when the document was published and
   whose publisher had advertised a covering advertisement set. *)

open Xroute_overlay

let check = Alcotest.check
let cb = Alcotest.bool

(* One fuzzing round. *)
let run_round ~seed ~strategy_name =
  let prng = Xroute_support.Prng.create seed in
  let dtd =
    Xroute_support.Prng.choose_list prng
      [ Lazy.force Xroute_dtd.Dtd_samples.book; Lazy.force Xroute_dtd.Dtd_samples.insurance ]
  in
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let advs = Xroute_dtd.Dtd_paths.advertisements graph in
  let strategy = Option.get (Xroute_core.Broker.strategy_of_name strategy_name) in
  let topo =
    match Xroute_support.Prng.int prng 3 with
    | 0 -> Topology.binary_tree ~levels:3
    | 1 -> Topology.line (2 + Xroute_support.Prng.int prng 5)
    | _ -> Topology.random_tree prng (3 + Xroute_support.Prng.int prng 8)
  in
  let net = Net.create ~config:{ Net.default_config with Net.strategy; seed } topo in
  let n_brokers = Topology.broker_count topo in
  let publisher = Net.add_client net ~broker:(Xroute_support.Prng.int prng n_brokers) in
  ignore (Net.advertise_dtd net publisher advs);
  Net.run net;
  let clients =
    List.init 3 (fun _ -> Net.add_client net ~broker:(Xroute_support.Prng.int prng n_brokers))
  in
  let params = Xroute_workload.Xpath_gen.default_params dtd in
  (* oracle state: active subscriptions per client; expected deliveries *)
  let subs : (int * Xroute_core.Message.sub_id * Xroute_xpath.Xpe.t) list ref = ref [] in
  let expected : (int * int, unit) Hashtbl.t = Hashtbl.create 32 in
  let gen_prng = Xroute_support.Prng.create (seed + 1) in
  let doc_counter = ref 0 in
  for _ = 1 to 40 do
    (match Xroute_support.Prng.int prng 4 with
    | 0 | 1 ->
      (* subscribe a random client; sometimes duplicate an existing XPE
         (shared-node / survivor interplay) *)
      let c = Xroute_support.Prng.choose_list prng clients in
      let xpe =
        match !subs with
        | (_, _, existing) :: _ when Xroute_support.Prng.bernoulli prng 0.3 -> existing
        | _ -> Xroute_workload.Xpath_gen.generate_one params prng
      in
      let id = Net.subscribe net c xpe in
      subs := (c.Net.cid, id, xpe) :: !subs
    | 2 ->
      (* unsubscribe something, if any *)
      (match !subs with
      | [] -> ()
      | l ->
        let cid, id, _ = List.nth l (Xroute_support.Prng.int prng (List.length l)) in
        (match List.find_opt (fun (c : Net.client) -> c.Net.cid = cid) clients with
        | Some c -> Net.unsubscribe net c id
        | None -> ());
        subs := List.filter (fun (_, i, _) -> Xroute_core.Message.compare_sub_id i id <> 0) l)
    | _ ->
      (* publish a random document; record oracle expectations against
         the subscriptions active right now *)
      let doc =
        Xroute_workload.Xml_gen.generate (Xroute_workload.Xml_gen.default_params dtd) gen_prng
      in
      let doc_id = !doc_counter in
      incr doc_counter;
      List.iter
        (fun (cid, _, xpe) ->
          if
            Xroute_xpath.Xpe_eval.matches_document xpe doc
            && (match List.find_opt (fun (c : Net.client) -> c.Net.cid = cid) clients with
               | Some c -> c.Net.cid <> publisher.Net.cid || c.Net.home <> publisher.Net.home
               | None -> false)
          then Hashtbl.replace expected (cid, doc_id) ())
        !subs;
      ignore (Net.publish_doc net publisher ~doc_id doc));
    (* settle the network between operations so the oracle's notion of
       "active at publication time" matches the network's *)
    Net.run net
  done;
  Net.run net;
  (* compare *)
  let got : (int * int, unit) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (c : Net.client) ->
      Hashtbl.iter (fun doc _ -> Hashtbl.replace got (c.Net.cid, doc) ()) c.Net.delivered)
    clients;
  let missing = ref [] in
  Hashtbl.iter (fun k () -> if not (Hashtbl.mem got k) then missing := k :: !missing) expected;
  let spurious = ref [] in
  Hashtbl.iter (fun k () -> if not (Hashtbl.mem expected k) then spurious := k :: !spurious) got;
  (!missing, !spurious)

let test_strategy strategy_name () =
  for seed = 1 to 25 do
    let missing, spurious = run_round ~seed ~strategy_name in
    if missing <> [] then
      Alcotest.failf "seed %d: %d expected deliveries missing (e.g. client %d doc %d)" seed
        (List.length missing)
        (fst (List.hd missing))
        (snd (List.hd missing));
    if spurious <> [] then
      Alcotest.failf "seed %d: %d spurious deliveries (e.g. client %d doc %d)" seed
        (List.length spurious)
        (fst (List.hd spurious))
        (snd (List.hd spurious))
  done;
  check cb "ran" true true

(* ------------------------------------------------------------------ *)
(* Codec / daemon framing against scenario-shaped corpora               *)
(* ------------------------------------------------------------------ *)

(* A mass-churn wire corpus shaped like what Scenario.Churn pushes
   through a daemon link: advertisements first, then waves of
   subscribe/unsubscribe over a duplicate-heavy XPE pool, with
   publications (decomposed generated documents) interleaved. *)
let churn_corpus ~seed ~waves ~per_wave =
  let prng = Xroute_support.Prng.create seed in
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.book in
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let advs = Xroute_dtd.Dtd_paths.advertisements graph in
  let params = Xroute_workload.Xpath_gen.default_params dtd in
  let pool =
    Array.init 12 (fun _ -> Xroute_workload.Xpath_gen.generate_one params prng)
  in
  let msgs = ref [] in
  let push m = msgs := m :: !msgs in
  List.iteri
    (fun i adv -> push (Xroute_core.Message.Advertise { id = { origin = 1; seq = i }; adv }))
    (List.filteri (fun i _ -> i < 10) advs);
  let seq = ref 0 in
  for wave = 1 to waves do
    let wave_ids = ref [] in
    for _ = 1 to per_wave do
      incr seq;
      let id = { Xroute_core.Message.origin = 100 + (wave mod 3); seq = !seq } in
      let xpe = pool.(Xroute_support.Prng.int prng (Array.length pool)) in
      wave_ids := id :: !wave_ids;
      push (Xroute_core.Message.Subscribe { id; xpe })
    done;
    let doc =
      Xroute_workload.Xml_gen.generate (Xroute_workload.Xml_gen.default_params dtd) prng
    in
    List.iter
      (fun pub -> push (Xroute_core.Message.Publish { pub; trail = []; ctx = None }))
      (List.filteri
         (fun i _ -> i < 5)
         (Xroute_xml.Xml_paths.decompose ~doc_id:wave doc));
    (* the wave unsubscribes in FIFO order, as the scenario engine does *)
    List.iter
      (fun id -> push (Xroute_core.Message.Unsubscribe { id }))
      (List.rev !wave_ids)
  done;
  List.rev !msgs

(* Every corpus message survives encode -> chunked Linebuf reassembly ->
   decode, regardless of how the byte stream is sliced. *)
let test_corpus_through_linebuf () =
  List.iter
    (fun seed ->
      let msgs = churn_corpus ~seed ~waves:4 ~per_wave:12 in
      let wire = String.concat "" (List.map (fun m -> Xroute_core.Codec.encode m ^ "\n") msgs) in
      let prng = Xroute_support.Prng.create (seed * 31) in
      let buf = Xroute_daemon.Linebuf.create () in
      let out = ref [] in
      let n = String.length wire in
      let pos = ref 0 in
      while !pos < n do
        (* hostile chunking: 1-byte dribbles through big slabs *)
        let len = min (n - !pos) (1 + Xroute_support.Prng.int prng 97) in
        Xroute_daemon.Linebuf.add_string buf (String.sub wire !pos len);
        pos := !pos + len;
        let rec drain () =
          match Xroute_daemon.Linebuf.next_line buf with
          | Some line ->
            out := Xroute_core.Codec.decode_exn line :: !out;
            drain ()
          | None -> ()
        in
        drain ()
      done;
      let out = List.rev !out in
      if List.length out <> List.length msgs then
        Alcotest.failf "seed %d: %d messages in, %d out" seed (List.length msgs)
          (List.length out);
      List.iter2
        (fun a b ->
          check Alcotest.string "message survives framing" (Xroute_core.Message.to_string a)
            (Xroute_core.Message.to_string b))
        msgs out;
      check Alcotest.int "no residue in the buffer" 0 (Xroute_daemon.Linebuf.length buf))
    [ 3; 17; 23 ]

(* Valid P|, S| and A| lines mutated byte by byte over the codec's own
   separators, digits and escape characters: replaced, inserted and
   deleted bytes and truncations. Every mutant must get the reference's
   verdict. *)
let mutation_bases =
  [
    "1|P|417.0.49.1.417.1000000042||feed,sec3,item,body,para|,,,,";
    "1|P|5.2.123.4|1.1,2.2|a,w%7Cx,b|k=v;x=1=2,,y%3Dz=%25";
    "1|P|7.3.88.9.7.12|3.4|nitf,head,docdata,doc-id|,,,id-string=a%2Cb;regsrc=x";
    "1|S|200.9|%2Ffeed%2Fsec3%2F*%2Fbody";
    "1|S|1.2|/a/*//b[@k='v']";
    "1|A|100.3|/feed/sec1/item(/body)+/para";
  ]

let mutation_alphabet = "|.,;=%0123456789x_-+aF"

let mutate prng line =
  let pick () = mutation_alphabet.[Xroute_support.Prng.int prng (String.length mutation_alphabet)] in
  let b = Buffer.create (String.length line + 4) in
  Buffer.add_string b line;
  for _ = 0 to Xroute_support.Prng.int prng 3 do
    let s = Buffer.contents b in
    let n = String.length s in
    let at = Xroute_support.Prng.int prng (n + 1) in
    Buffer.clear b;
    match Xroute_support.Prng.int prng 4 with
    | 0 when at < n ->
      Buffer.add_string b (String.sub s 0 at);
      Buffer.add_char b (pick ());
      Buffer.add_string b (String.sub s (at + 1) (n - at - 1))
    | 1 ->
      Buffer.add_string b (String.sub s 0 at);
      Buffer.add_char b (pick ());
      Buffer.add_string b (String.sub s at (n - at))
    | 2 when at < n ->
      Buffer.add_string b (String.sub s 0 at);
      Buffer.add_string b (String.sub s (at + 1) (n - at - 1))
    | _ -> Buffer.add_string b (String.sub s 0 at)
  done;
  Buffer.contents b

let test_mutations_match_reference () =
  let prng = Xroute_support.Prng.create 2023 in
  let bases = Array.of_list mutation_bases in
  let accepted = ref 0 in
  let mutants = 200_000 in
  for _ = 1 to mutants do
    let line = mutate prng bases.(Xroute_support.Prng.int prng (Array.length bases)) in
    match Codec_ref.disagreement line with
    | None -> if Result.is_ok (Xroute_core.Codec.decode line) then incr accepted
    | Some why -> Alcotest.failf "%S: %s" line why
  done;
  (* Both verdicts must be exercised, or the differential proves little. *)
  check cb "some mutants decode" true (!accepted > mutants / 20);
  check cb "some mutants are rejected" true (!accepted < mutants - (mutants / 20))

(* Every cut of every churn-corpus line (a peer dying mid-line is
   routine for the daemon) decodes as the reference codec decodes it,
   without raising. The uncut line is one of the cuts. *)
let test_truncated_lines () =
  List.iter
    (fun seed ->
      List.iter
        (fun m ->
          let line = Xroute_core.Codec.encode m in
          for cut = 0 to String.length line do
            let t = String.sub line 0 cut in
            match Codec_ref.disagreement t with
            | None -> ()
            | Some why -> Alcotest.failf "seed %d, %S: %s" seed t why
            | exception e ->
              Alcotest.failf "decode raised %s on truncation %S" (Printexc.to_string e) t
          done)
        (churn_corpus ~seed ~waves:4 ~per_wave:12))
    [ 3; 5; 17; 23 ]

(* Hostile input: random bytes, separator floods, broken escapes. The
   decoder must return the reference's verdict without raising, and the
   framing escape must stay reversible on arbitrary strings. *)
let test_hostile_lines () =
  let prng = Xroute_support.Prng.create 77 in
  for _ = 1 to 500 do
    let len = Xroute_support.Prng.int prng 40 in
    let hostile =
      String.init len (fun _ ->
          match Xroute_support.Prng.int prng 6 with
          | 0 -> '|'
          | 1 -> '%'
          | 2 -> '.'
          | 3 -> Char.chr (1 + Xroute_support.Prng.int prng 255)
          | _ -> Char.chr (32 + Xroute_support.Prng.int prng 95))
    in
    (match Codec_ref.disagreement hostile with
    | None -> ()
    | Some why -> Alcotest.failf "%S: %s" hostile why
    | exception e -> Alcotest.failf "decode raised %s on %S" (Printexc.to_string e) hostile);
    let esc = Xroute_daemon.Framing.escape hostile in
    check Alcotest.string "framing escape reversible" hostile
      (Xroute_daemon.Framing.unescape esc);
    check cb "escaped text is line-safe" false
      (String.exists (fun c -> c = '|' || c = '\n' || c = '\r') esc)
  done

let () =
  Alcotest.run "fuzz"
    [
      ( "protocol vs oracle",
        List.map
          (fun name -> Alcotest.test_case name `Slow (test_strategy name))
          Xroute_core.Broker.strategy_names );
      ( "codec framing",
        [
          Alcotest.test_case "churn corpus through linebuf" `Quick test_corpus_through_linebuf;
          Alcotest.test_case "truncated lines" `Quick test_truncated_lines;
          Alcotest.test_case "hostile lines" `Quick test_hostile_lines;
          Alcotest.test_case "200k mutants = reference" `Quick test_mutations_match_reference;
        ] );
    ]
