(* Tests for the wire codec: hand-written cases, error handling, a
   QCheck round-trip property, agreement with the reference codec
   (test/codec_ref.ml) and allocation guards on the per-hop path. *)

open Xroute_core
open Xroute_xpath

let check = Alcotest.check
let cb = Alcotest.bool
let cs = Alcotest.string

let sid o s = { Message.origin = o; seq = s }

let roundtrip msg =
  match Codec.decode (Codec.encode msg) with
  | Ok msg' -> Message.to_string msg' = Message.to_string msg
  | Error _ -> false

let test_advertise () =
  let msg = Message.Advertise { id = sid 3 7; adv = Adv.parse "/a/b(/c)+/d" } in
  check cb "roundtrip" true (roundtrip msg);
  check cs "wire form" "1|A|3.7|/a/b(/c)+/d" (Codec.encode msg)

let test_subscribe () =
  let msg = Message.Subscribe { id = sid 1 2; xpe = Xpe_parser.parse "/a/*//b[@k='v']" } in
  check cb "roundtrip" true (roundtrip msg)

let test_unsubscribe_unadvertise () =
  check cb "unsub" true (roundtrip (Message.Unsubscribe { id = sid 9 1 }));
  check cb "unadv" true (roundtrip (Message.Unadvertise { id = sid 9 2 }))

let test_publish () =
  let pub =
    (Xroute_xml.Xml_paths.make ~doc_id:5 ~path_id:2
       ~steps:[| "a"; "b"; "c" |]
       ~attrs:[| [ ("k", "v") ]; []; [ ("x", "1"); ("y", "2") ] |]
       ~doc_size:123 ~path_count:4)
  in
  let msg = Message.Publish { pub; trail = [ sid 1 1; sid 2 2 ]; ctx = None } in
  match Codec.decode (Codec.encode msg) with
  | Ok (Message.Publish { pub = p; trail; _ }) ->
    check cb "steps" true (p.steps = [| "a"; "b"; "c" |]);
    check cb "attrs" true (p.attrs.(2) = [ ("x", "1"); ("y", "2") ]);
    check cb "meta" true (p.doc_id = 5 && p.path_id = 2 && p.doc_size = 123 && p.path_count = 4);
    check cb "trail" true (List.length trail = 2)
  | _ -> Alcotest.fail "publish did not roundtrip"

let test_escaping () =
  let pub =
    (Xroute_xml.Xml_paths.make ~doc_id:1 ~path_id:0
       ~steps:[| "we|ird"; "na,me"; "e=q;x%" |]
       ~attrs:[| []; [ ("k|1", "v,2") ]; [] |]
       ~doc_size:9 ~path_count:1)
  in
  let msg = Message.Publish { pub; trail = []; ctx = None } in
  match Codec.decode (Codec.encode msg) with
  | Ok (Message.Publish { pub = p; _ }) ->
    check cb "weird names survive" true (p.steps = pub.steps);
    check cb "weird attrs survive" true (p.attrs.(1) = [ ("k|1", "v,2") ])
  | _ -> Alcotest.fail "escaped publish did not roundtrip"

let test_decode_errors () =
  List.iter
    (fun line ->
      match Codec.decode line with
      | Ok _ -> Alcotest.failf "expected decode error for %S" line
      | Error _ -> ())
    [
      "";
      "junk";
      "2|S|1.1|/a";            (* wrong version *)
      "1|X|1.1|/a";            (* unknown kind *)
      "1|S|11|/a";             (* malformed id *)
      "1|S|1.1|not an xpe[";   (* malformed xpe *)
      "1|A|1.1|(/a";           (* malformed adv *)
      "1|P|1.2.3|/a";          (* malformed pub header *)
      "1|P|1.2.3.4||a,b|x";    (* attr block mismatch: 1 pos for 2 steps *)
      "1|S|1.1|%G1";           (* malformed escape *)
    ]

(* QCheck round-trip over random messages. *)
let gen_name = QCheck.Gen.oneofl [ "a"; "b"; "w|x"; "y,z"; "p%q" ]

let gen_msg =
  QCheck.Gen.(
    let* kind = int_range 0 4 in
    let* o = int_range 0 1000 and* q = int_range 0 1000 in
    let id = sid o q in
    match kind with
    | 0 ->
      let* len = int_range 1 4 in
      let* names = list_repeat len (oneofl [ "a"; "b"; "c" ]) in
      return (Message.Advertise { id; adv = Adv.of_names names })
    | 1 -> return (Message.Unadvertise { id })
    | 2 ->
      let* len = int_range 1 4 in
      let* names = list_repeat len (oneofl [ "a"; "b"; "*" ]) in
      return (Message.Subscribe { id; xpe = Xpe.absolute_of_names names })
    | 3 -> return (Message.Unsubscribe { id })
    | _ ->
      let* len = int_range 1 5 in
      let* steps = list_repeat len gen_name in
      let* with_attr = bool in
      let steps = Array.of_list steps in
      let attrs =
        Array.mapi (fun i _ -> if with_attr && i = 0 then [ ("k|ey", "v,al") ] else []) steps
      in
      let* doc_id = int_range 0 100 and* path_id = int_range 0 100 in
      let* with_ctx = bool in
      let* parent_span = int_range 0 1000 in
      let ctx =
        if with_ctx then Some { Message.trace = doc_id; parent_span } else None
      in
      return
        (Message.Publish
           {
             pub =
               (Xroute_xml.Xml_paths.make ~doc_id ~path_id ~steps ~attrs
                  ~doc_size:10 ~path_count:2);
             trail = [ id ];
             ctx;
           }))

let prop_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip" ~count:1000
    (QCheck.make ~print:Message.to_string gen_msg)
    roundtrip

(* ---------------- against the reference codec ---------------- *)

let agree line =
  match Codec_ref.disagreement line with
  | None -> ()
  | Some why -> Alcotest.failf "%S: %s" line why

(* Hand-picked lines at the edges of the grammar: numeric fields that
   only [int_of_string] reads, escapes it half-reads, arity and
   separator corner cases. Each must get the reference's verdict. *)
let test_reference_cases () =
  List.iter agree
    [
      ""; "1"; "1|"; "1||"; "1|P"; "1|P|"; "11|S|1.1|/a"; "01|S|1.1|/a"; "1|SS|1.1|/a";
      "1|S|1.1|/a"; "1|S|1.1|/a|"; "1|S|1.1"; "1|S|.1|/a"; "1|S|1.|/a"; "1|S|1.1.1|/a";
      "1|S|0x1F.1_0|/a"; "1|S|-3.+4|/a"; "1|S|- 3.4|/a"; "1|S|1.99999999999999999999|/a";
      "1|S|1.4611686018427387903|/a"; "1|S|1.4611686018427387904|/a";
      "1|S|1.0x7FFFFFFFFFFFFFFF|/a"; "1|S|0b101.0o17|/a"; "1|S|0u12.1|/a";
      "1|U|1.1|"; "1|U|1.1|junk"; "1|u|2.3|x"; "1|U|1.1"; "1|A|1.1|/a/b(/c)+/d";
      "1|A|1.1|%2Fa"; "1|A|1.1|%2"; "1|S|1.1|%2F%61"; "1|S|1.1|%2_a"; "1|S|1.1|%_2a";
      "1|P|1.2.3.4||a|"; "1|P|1.2.3.4||a,b|"; "1|P|1.2.3.4||a,b|,"; "1|P|1.2.3.4||a,b|,,";
      "1|P|1.2.3.4||a|,"; "1|P|1.2.3.4||a|k=v"; "1|P|1.2.3.4||a|k=v=w"; "1|P|1.2.3.4||a|k";
      "1|P|1.2.3.4||a|k=v;"; "1|P|1.2.3.4||a|;k=v"; "1|P|1.2.3.4||a|=v"; "1|P|1.2.3.4||a|k=";
      "1|P|1.2.3.4||a,b|k=v;x=%3D,"; "1|P|1.2.3.4||a,b|,k=%7C"; "1|P|1.2.3.4|||";
      "1|P|1.2.3.4||,a|"; "1|P|1.2.3.4||a,|"; "1|P|1.2.3.4||a,,b|"; "1|P|1.2.3.4||%61,b|";
      "1|P|1.2.3.4||%6|"; "1|P|1.2.3.4||%|"; "1|P|1.2.3.4||a%2_b|"; "1|P|1.2.3.4||a%_2b|"; "1|P|1.2.3.4||a%2C%7Cb|"; "1|P|1.2.3.4|1.1,2.2|a|";
      "1|P|1.2.3.4|1.1,|a|"; "1|P|1.2.3.4|,1.1|a|"; "1|P|1.2.3.4|1|a|"; "1|P|1.2.3|x|a|";
      "1|P|1.2.3||a|"; "1|P|1.2.3.4.5||a|"; "1|P|1.2.3.4.5.6||a|"; "1|P|1.2.3.4.5.6.7||a|";
      "1|P|1.2.3.4.5.x||a|"; "1|P|1.2.3.4..6||a|"; "1|P|.2.3.4||a|"; "1|P|1..3.4||a|";
      "1|P|-1.0x2.3_0.+4.-5.6||a|"; "1|P|1.2.3.4||a|||"; "1|P|1.2.3.4||a";
      "1|P|1.2.3.4||a\n|"; "1|P|1.2.3.4||a b|k=v w";
    ]

(* decode_sub reads the slice in place: the daemon's "M|" payload
   decodes exactly as the bare line does. *)
let test_decode_sub_offset () =
  let line = "1|P|5.2.123.4.5.77|1.1|a,b%2Cc|k=v,x=1;y=2" in
  let show = function
    | Ok m -> Codec.encode m
    | Error (e : Codec.error) -> "error: " ^ e.reason
  in
  check cs "M| payload = bare line" (show (Codec.decode line))
    (show (Codec.decode_sub ("M|" ^ line) ~pos:2));
  check cs "encodes back byte for byte" line (show (Codec.decode line));
  check cb "pos past the end is rejected" true
    (match Codec.decode_sub "1|U|1.1|" ~pos:9 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Messages the reference encoder must print identically: negative ids
   and counters, escapes in steps and attributes, '=' inside values,
   non-empty trails, trace contexts. *)
let gen_wire_msg =
  QCheck.Gen.(
    let gen_int = oneof [ int_range (-1000) 1000; oneofl [ 0; -1; max_int; min_int ] ] in
    let gen_id = map2 (fun o s -> sid o s) gen_int gen_int in
    let gen_text =
      oneof
        [
          oneofl [ "a"; "feed"; "w|x"; "y,z"; "p%q"; "k=v"; "a;b"; "="; "nl\nx"; "%41" ];
          string_size ~gen:(oneofl [ 'a'; '|'; ','; ';'; '='; '%'; '.'; '\n'; '0' ]) (int_range 1 6);
        ]
    in
    let* kind = int_range 0 4 in
    let* id = gen_id in
    match kind with
    | 0 ->
      let* names = list_size (int_range 1 4) (oneofl [ "a"; "b"; "c" ]) in
      return (Message.Advertise { id; adv = Adv.of_names names })
    | 1 -> return (Message.Unadvertise { id })
    | 2 ->
      let* names = list_size (int_range 1 4) (oneofl [ "a"; "b"; "*" ]) in
      return (Message.Subscribe { id; xpe = Xpe.absolute_of_names names })
    | 3 -> return (Message.Unsubscribe { id })
    | _ ->
      let* steps = array_size (int_range 1 5) gen_text in
      let* attrs =
        array_repeat (Array.length steps)
          (list_size (int_range 0 2) (pair gen_text (oneof [ gen_text; return "" ])))
      in
      let* trail = list_size (int_range 0 3) gen_id in
      let* ctx = opt (map2 (fun trace parent_span -> { Message.trace; parent_span }) gen_int gen_int) in
      let* doc_id = gen_int and* path_id = gen_int and* doc_size = gen_int and* path_count = gen_int in
      return
        (Message.Publish
           {
             pub = Xroute_xml.Xml_paths.make ~doc_id ~path_id ~steps ~attrs ~doc_size ~path_count;
             trail;
             ctx;
           }))

let prop_encode_matches_reference =
  QCheck.Test.make ~name:"encode = reference encode, decode agrees" ~count:2000
    (QCheck.make ~print:Codec_ref.encode gen_wire_msg)
    (fun msg ->
      let want = Codec_ref.encode msg in
      let buf = Buffer.create 16 in
      Buffer.add_string buf "M|";
      Codec.encode_into buf msg;
      Codec.encode msg = want
      && Buffer.contents buf = "M|" ^ want
      && Codec_ref.disagreement want = None)

(* ---------------- allocation guards ---------------- *)

(* Minor words per call of [f], over [n] calls after one warm-up call. *)
let words_per_call ?(n = 10_000) f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* A traced 5-step small-msg publication, as a broker receives it. *)
let small_msg_line = "1|P|417.0.49.1.417.1000000042||feed,sec3,item,body,para|,,,,"

(* Once its names are interned, decoding the line allocates only the
   message itself. *)
let test_decode_words () =
  let line = "M|" ^ small_msg_line in
  let w = words_per_call (fun () -> Codec.decode_sub line ~pos:2) in
  Printf.printf "decode: %.1f words a line\n" w;
  if w >= 100.0 then Alcotest.failf "decode allocates %.1f words a line (limit 100)" w

(* Into a warmed buffer, encoding allocates nothing of its own. *)
let test_encode_words () =
  let msg =
    match Codec.decode small_msg_line with Ok m -> m | Error _ -> Alcotest.fail "fixture"
  in
  let buf = Buffer.create 256 in
  let w =
    words_per_call (fun () ->
        Buffer.clear buf;
        Codec.encode_into buf msg)
  in
  Printf.printf "encode_into: %.1f words a message\n" w;
  check cs "fixture round-trips" small_msg_line (Buffer.contents buf);
  if w >= 64.0 then Alcotest.failf "encode_into allocates %.1f words (limit 64)" w

let () =
  Alcotest.run "codec"
    [
      ( "cases",
        [
          Alcotest.test_case "advertise" `Quick test_advertise;
          Alcotest.test_case "subscribe" `Quick test_subscribe;
          Alcotest.test_case "unsub/unadv" `Quick test_unsubscribe_unadvertise;
          Alcotest.test_case "publish" `Quick test_publish;
          Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_roundtrip ]);
      ( "reference",
        [
          Alcotest.test_case "grammar edge cases" `Quick test_reference_cases;
          Alcotest.test_case "decode_sub offset" `Quick test_decode_sub_offset;
          QCheck_alcotest.to_alcotest prop_encode_matches_reference;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "decode under 100 words" `Quick test_decode_words;
          Alcotest.test_case "encode_into under 64 words" `Quick test_encode_words;
        ] );
    ]
