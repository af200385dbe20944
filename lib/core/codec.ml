(* Wire codec for protocol messages.

   A deployment sends {!Message.t} values between broker processes; this
   codec fixes a compact, versioned, line-safe text format:

     1|A|<origin>.<seq>|<advertisement>
     1|U|<origin>.<seq>|
     1|S|<origin>.<seq>|<xpe>
     1|u|<origin>.<seq>|
     1|P|<doc>.<path>.<size>.<pathcount>[.<trace>.<parent-span>]|<trail>|<path elements>|<attr block>

   The two optional trailing meta components are the causal trace
   context (lib/obs spans); untraced publications omit them and encode
   byte-identically to the pre-tracing format.

   <trail> is a ','-separated list of subscription ids. It survives only
   for wire compatibility: brokers decode it and then ignore it (they
   match every publication against the full PRT) and always send it
   empty.

   <path elements> is ','-separated. <attr block> has one ','-separated
   position per path element, each a ';'-separated list of <k>=<v>
   (only the first '=' splits, so a value may hold more); the empty
   block stands for a path without attributes. Numeric fields are
   whatever [int_of_string] reads; the encoder writes plain decimals.

   Fields are '|'-separated; element names and attribute tokens are
   percent-encoded so the separators never collide with content. The
   format is self-describing enough for a foreign implementation and
   deliberately independent of OCaml's marshaller (which is neither
   stable across versions nor safe to exchange).

   Every broker decodes and re-encodes each publication it forwards, so
   both directions are one pass with no intermediate values. The decoder
   scans the line once, left to right, locating separators by index. It
   reads plain decimal fields in place, copies a field out only to keep
   it as a string or hand it to a parser (attributes, an advertisement,
   an XPE), and interns path elements straight from the line's bytes
   ([Symbol.intern_split]), so a known path costs no string at all. The
   encoder appends digits and escaped fields straight into the caller's
   buffer (the daemon's egress buffer). test/codec_ref.ml keeps the
   earlier split/Result/Printf codec as the reference oracle: both
   directions are tested against it, byte for byte and verdict for
   verdict. *)

open Xroute_xpath
module Symbol = Xroute_support.Symbol

type error = { offset : int; reason : string }

let pp_error ppf e = Format.fprintf ppf "decode error at %d: %s" e.offset e.reason

let version = 1

(* ---------------- escaping ---------------- *)

let needs_escape c = c = '%' || c = '|' || c = ',' || c = ';' || c = '=' || c = '\n'

let hex_digits = "0123456789ABCDEF"

let rec first_escape s i n =
  if i >= n then -1 else if needs_escape (String.unsafe_get s i) then i else first_escape s (i + 1) n

let add_escaped buf s =
  let n = String.length s in
  let first = first_escape s 0 n in
  if first < 0 then Buffer.add_string buf s
  else begin
    Buffer.add_substring buf s 0 first;
    for i = first to n - 1 do
      let c = String.unsafe_get s i in
      if needs_escape c then begin
        Buffer.add_char buf '%';
        Buffer.add_char buf hex_digits.[Char.code c lsr 4];
        Buffer.add_char buf hex_digits.[Char.code c land 15]
      end
      else Buffer.add_char buf c
    done
  end

(* ---------------- encoding ---------------- *)

(* The digits of [-n], for [n <= 0]: working on the negative side covers
   [min_int] too. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

let add_sub_id buf (id : Message.sub_id) =
  add_int buf id.origin;
  Buffer.add_char buf '.';
  add_int buf id.seq

let rec add_trail buf = function
  | [] -> ()
  | [ id ] -> add_sub_id buf id
  | id :: rest ->
    add_sub_id buf id;
    Buffer.add_char buf ',';
    add_trail buf rest

let add_attr buf (k, v) =
  add_escaped buf k;
  Buffer.add_char buf '=';
  add_escaped buf v

(* One attribute position: k=v;k=v. *)
let rec add_attr_list buf = function
  | [] -> ()
  | [ kv ] -> add_attr buf kv
  | kv :: rest ->
    add_attr buf kv;
    Buffer.add_char buf ';';
    add_attr_list buf rest

(* "<version>|<kind>|<origin>.<seq>|" *)
let add_head buf kind id =
  add_int buf version;
  Buffer.add_char buf '|';
  Buffer.add_char buf kind;
  Buffer.add_char buf '|';
  add_sub_id buf id;
  Buffer.add_char buf '|'

let encode_into buf (msg : Message.t) =
  match msg with
  | Message.Advertise { id; adv } ->
    add_head buf 'A' id;
    add_escaped buf (Adv.to_string adv)
  | Message.Unadvertise { id } -> add_head buf 'U' id
  | Message.Subscribe { id; xpe } ->
    add_head buf 'S' id;
    add_escaped buf (Xpe.to_string xpe)
  | Message.Unsubscribe { id } -> add_head buf 'u' id
  | Message.Publish { pub; trail; ctx } ->
    add_int buf version;
    Buffer.add_string buf "|P|";
    add_int buf pub.doc_id;
    Buffer.add_char buf '.';
    add_int buf pub.path_id;
    Buffer.add_char buf '.';
    add_int buf pub.doc_size;
    Buffer.add_char buf '.';
    add_int buf pub.path_count;
    (* Trace context rides two extra dot-components of the meta field;
       absent when untraced, so untraced wires are byte-identical to the
       pre-tracing format (still version 1: old decoders were written
       against the 4-component form, new ones accept both). *)
    (match ctx with
    | None -> ()
    | Some { Message.trace; parent_span } ->
      Buffer.add_char buf '.';
      add_int buf trace;
      Buffer.add_char buf '.';
      add_int buf parent_span);
    Buffer.add_char buf '|';
    add_trail buf trail;
    Buffer.add_char buf '|';
    for i = 0 to Array.length pub.steps - 1 do
      if i > 0 then Buffer.add_char buf ',';
      add_escaped buf pub.steps.(i)
    done;
    Buffer.add_char buf '|';
    for i = 0 to Array.length pub.attrs - 1 do
      if i > 0 then Buffer.add_char buf ',';
      add_attr_list buf pub.attrs.(i)
    done

let encode msg =
  let buf = Buffer.create 128 in
  encode_into buf msg;
  Buffer.contents buf

(* ---------------- decoding ---------------- *)

(* A decode failure: the offset (relative to the decoded slice) of the
   field at fault, and why. Raised inside the scan, turned into [Error]
   at its one entry point. *)
exception Malformed of int * string

let malformed at reason = raise_notrace (Malformed (at, reason))

(* The first [c] in s[i, stop), or [stop]. *)
let rec index_in s c i stop =
  if i >= stop || String.unsafe_get s i = c then i else index_in s c (i + 1) stop

(* Fields of s[a, b) split on [c], or -1 if one of them is empty. *)
let rec nonempty_fields s c a b acc =
  let e = index_in s c a b in
  if e = a then -1 else if e = b then acc + 1 else nonempty_fields s c (e + 1) b (acc + 1)

let rec all_digits s i stop =
  i >= stop
  || match String.unsafe_get s i with '0' .. '9' -> all_digits s (i + 1) stop | _ -> false

let rec digits_value s i stop acc =
  if i >= stop then acc
  else digits_value s (i + 1) stop ((acc * 10) + Char.code (String.unsafe_get s i) - 48)

(* A numeric field. Up to 18 plain decimal digits cannot overflow and
   are read in place; anything else ([0x1F], [1_0], [-3], [+3], too many
   digits) goes to [int_of_string_opt] on the field alone, so it keeps
   exactly the meaning it always had. *)
let int_field s ~base a b reason =
  if b > a && b - a <= 18 && all_digits s a b then digits_value s a b 0
  else
    match int_of_string_opt (String.sub s a (b - a)) with
    | Some v -> v
    | None -> malformed (a - base) reason

(* <origin>.<seq>: exactly one '.'. *)
let sub_id_field s ~base a b =
  let dot = index_in s '.' a b in
  if dot = b || index_in s '.' (dot + 1) b < b then malformed (a - base) "malformed id";
  let origin = int_field s ~base a dot "malformed id" in
  { Message.origin; seq = int_field s ~base (dot + 1) b "malformed id" }

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'A' .. 'F' as c -> Char.code c - 55
  | 'a' .. 'f' as c -> Char.code c - 87
  | _ -> -1

(* A percent-escaped field as a string. An escape is '%' and two
   characters that [int_of_string "0x.."] reads: a hex digit, then a hex
   digit or a '_' (which it skips). *)
let unescape_field s ~base a b =
  let p = index_in s '%' a b in
  if p = b then String.sub s a (b - a)
  else begin
    let buf = Buffer.create (b - a) in
    Buffer.add_substring buf s a (p - a);
    let i = ref p in
    while !i < b do
      let c = String.unsafe_get s !i in
      if c <> '%' then begin
        Buffer.add_char buf c;
        incr i
      end
      else if !i + 2 >= b then malformed (!i - base) "truncated escape"
      else begin
        let hi = hex_value s.[!i + 1] in
        let lo = match s.[!i + 2] with '_' -> -2 | c -> hex_value c in
        if hi < 0 || lo = -1 then malformed (!i - base) "malformed escape";
        Buffer.add_char buf (Char.chr (if lo = -2 then hi else (hi * 16) + lo));
        i := !i + 3
      end
    done;
    Buffer.contents buf
  end

(* ','-separated subscription ids, in order; "" is none. *)
let rec trail_ids s ~base a b =
  let e = index_in s ',' a b in
  let id = sub_id_field s ~base a e in
  id :: (if e = b then [] else trail_ids s ~base (e + 1) b)

let trail_field s ~base a b = if a = b then [] else trail_ids s ~base a b

(* One attribute position, non-empty: ';'-separated k=v. *)
let rec attr_list s ~base a b =
  let e = index_in s ';' a b in
  let eq = index_in s '=' a e in
  if eq = e then malformed (a - base) "malformed attribute";
  let k = unescape_field s ~base a eq in
  let v = unescape_field s ~base (eq + 1) e in
  (k, v) :: (if e = b then [] else attr_list s ~base (e + 1) b)

(* The attribute block of an [n]-step path. "" is the block of n
   attribute-free positions (for n = 1 the comma count cannot
   disambiguate, so treat it uniformly). *)
let attrs_field s ~base a b n =
  let attrs = Array.make n [] in
  if a < b then begin
    let pos = ref a in
    for i = 0 to n - 1 do
      if !pos > b then malformed (a - base) "attribute block length mismatch";
      let e = index_in s ',' !pos b in
      if e > !pos then attrs.(i) <- attr_list s ~base !pos e;
      pos := e + 1
    done;
    if !pos <= b then malformed (a - base) "attribute block length mismatch"
  end;
  attrs

(* The path elements s[a, b) and the attribute block s[c, d). Names are
   interned only once the whole line has been validated, so a rejected
   line adds nothing to the symbol table. *)
let publication s ~base ~doc_id ~path_id ~doc_size ~path_count a b c d =
  if a = b then malformed (a - base) "empty path";
  let n = nonempty_fields s ',' a b 0 in
  if n < 0 then malformed (a - base) "empty path element";
  (* Escaped names (rare) are unescaped first; plain ones are interned
     in place. *)
  let escaped = index_in s '%' a b < b in
  let steps = if escaped then Array.make n "" else [||] in
  if escaped then begin
    let pos = ref a in
    for i = 0 to n - 1 do
      let e = index_in s ',' !pos b in
      steps.(i) <- unescape_field s ~base !pos e;
      pos := e + 1
    done
  end;
  let attrs = attrs_field s ~base c d n in
  let syms = if escaped then Symbol.intern_path steps else Symbol.intern_split s a (b - a) ',' in
  Xroute_xml.Xml_paths.of_syms ~doc_id ~path_id ~syms ~attrs ~doc_size ~path_count

(* 1|P|<meta>|<trail>|<steps>|<attrs>, its fields ending at [e1], [e2],
   [e3] and the end of the line. The meta field is
   <doc>.<path>.<size>.<pathcount>[.<trace>.<parent-span>]. *)
let publish s ~base f1 e1 e2 e3 =
  let header = "malformed publication header" in
  let d1 = index_in s '.' f1 e1 in
  let d2 = index_in s '.' (d1 + 1) e1 in
  let d3 = index_in s '.' (d2 + 1) e1 in
  if d3 >= e1 then malformed (f1 - base) header;
  let d4 = index_in s '.' (d3 + 1) e1 in
  let d5 = if d4 = e1 then e1 else index_in s '.' (d4 + 1) e1 in
  let ctx =
    if d4 = e1 then None
    else if d5 = e1 || index_in s '.' (d5 + 1) e1 < e1 then malformed (f1 - base) header
    else
      let trace = int_field s ~base (d4 + 1) d5 "malformed trace context" in
      Some { Message.trace; parent_span = int_field s ~base (d5 + 1) e1 "malformed trace context" }
  in
  let doc_id = int_field s ~base f1 d1 header in
  let path_id = int_field s ~base (d1 + 1) d2 header in
  let doc_size = int_field s ~base (d2 + 1) d3 header in
  let path_count = int_field s ~base (d3 + 1) d4 header in
  let trail = trail_field s ~base (e1 + 1) e2 in
  let pub =
    publication s ~base ~doc_id ~path_id ~doc_size ~path_count (e2 + 1) e3 (e3 + 1)
      (String.length s)
  in
  Message.Publish { pub; trail; ctx }

let decode_line s base =
  let n = String.length s in
  let v_end = index_in s '|' base n in
  if v_end = n then malformed 0 "malformed message";
  if not (v_end = base + 1 && s.[base] = '1') then malformed 0 "unsupported version";
  let k = v_end + 1 in
  let k_end = index_in s '|' k n in
  (* Field 1 runs from just past the kind to separator [e1]. *)
  let f1 = k_end + 1 in
  let e1 = index_in s '|' f1 n in
  if k_end <> k + 1 || e1 >= n then malformed (k - base) "unknown message kind";
  match s.[k] with
  | ('A' | 'U' | 'S' | 'u') as kind -> (
    if index_in s '|' (e1 + 1) n < n then malformed (k - base) "unknown message kind";
    let id = sub_id_field s ~base f1 e1 in
    match kind with
    | 'A' -> (
      match Adv.parse_opt (unescape_field s ~base (e1 + 1) n) with
      | Some adv -> Message.Advertise { id; adv }
      | None -> malformed (e1 + 1 - base) "malformed advertisement")
    | 'S' -> (
      match Xpe_parser.parse_opt (unescape_field s ~base (e1 + 1) n) with
      | Some xpe -> Message.Subscribe { id; xpe }
      | None -> malformed (e1 + 1 - base) "malformed XPE")
    | 'U' -> Message.Unadvertise { id }
    | _ -> Message.Unsubscribe { id })
  | 'P' ->
    let e2 = index_in s '|' (e1 + 1) n in
    let e3 = if e2 >= n then n else index_in s '|' (e2 + 1) n in
    if e3 >= n || index_in s '|' (e3 + 1) n < n then malformed (k - base) "unknown message kind";
    publish s ~base f1 e1 e2 e3
  | _ -> malformed (k - base) "unknown message kind"

let decode_sub line ~pos =
  if pos < 0 || pos > String.length line then invalid_arg "Codec.decode_sub";
  match decode_line line pos with
  | msg -> Ok msg
  | exception Malformed (offset, reason) -> Error { offset; reason }

let decode line = decode_sub line ~pos:0

let decode_exn line =
  match decode line with
  | Ok msg -> msg
  | Error e -> failwith (Format.asprintf "%a" pp_error e)
