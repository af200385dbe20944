(* The wire codec as it was before the one-pass scan: every field split
   out with [String.split_on_char], decoded through [Result] chains and
   printed with [Printf]. Kept verbatim as the reference oracle that
   test_codec and test_fuzz hold [Codec] to — same bytes out, same
   Ok/Error in. *)

open Xroute_core
open Xroute_xpath

type error = { offset : int; reason : string }

let pp_error ppf e = Format.fprintf ppf "decode error at %d: %s" e.offset e.reason

let version = 1

(* ---------------- escaping ---------------- *)

let needs_escape c = c = '%' || c = '|' || c = ',' || c = ';' || c = '=' || c = '\n'

let escape s =
  if String.for_all (fun c -> not (needs_escape c)) s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if needs_escape c then Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let unescape s =
  if not (String.contains s '%') then Ok s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i >= n then Ok (Buffer.contents buf)
      else if s.[i] = '%' then
        if i + 2 >= n then Error "truncated escape"
        else begin
          match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
          | Some code ->
            Buffer.add_char buf (Char.chr code);
            go (i + 3)
          | None -> Error "malformed escape"
        end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0
  end

(* ---------------- encoding ---------------- *)

let encode_sub_id (id : Message.sub_id) = Printf.sprintf "%d.%d" id.origin id.seq

let encode_attrs attrs =
  (* per position: k=v;k=v, positions ','-separated *)
  String.concat ","
    (Array.to_list
       (Array.map
          (fun al ->
            String.concat ";" (List.map (fun (k, v) -> escape k ^ "=" ^ escape v) al))
          attrs))

let encode (msg : Message.t) =
  match msg with
  | Message.Advertise { id; adv } ->
    Printf.sprintf "%d|A|%s|%s" version (encode_sub_id id) (escape (Adv.to_string adv))
  | Message.Unadvertise { id } -> Printf.sprintf "%d|U|%s|" version (encode_sub_id id)
  | Message.Subscribe { id; xpe } ->
    Printf.sprintf "%d|S|%s|%s" version (encode_sub_id id) (escape (Xpe.to_string xpe))
  | Message.Unsubscribe { id } -> Printf.sprintf "%d|u|%s|" version (encode_sub_id id)
  | Message.Publish { pub; trail; ctx } ->
    (* Trace context rides two extra dot-components of the meta field;
       absent when untraced, so untraced wires are byte-identical to the
       pre-tracing format (still version 1: old decoders were written
       against the 4-component form, new ones accept both). *)
    let meta =
      match ctx with
      | None ->
        Printf.sprintf "%d.%d.%d.%d" pub.doc_id pub.path_id pub.doc_size pub.path_count
      | Some { Message.trace; parent_span } ->
        Printf.sprintf "%d.%d.%d.%d.%d.%d" pub.doc_id pub.path_id pub.doc_size
          pub.path_count trace parent_span
    in
    Printf.sprintf "%d|P|%s|%s|%s|%s" version meta
      (String.concat "," (List.map encode_sub_id trail))
      (String.concat "," (Array.to_list (Array.map escape pub.steps)))
      (encode_attrs pub.attrs)

(* ---------------- decoding ---------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let fail reason = Error { offset = 0; reason }

let decode_sub_id s =
  match String.split_on_char '.' s with
  | [ o; q ] -> (
    match (int_of_string_opt o, int_of_string_opt q) with
    | Some origin, Some seq -> Ok { Message.origin; seq }
    | _ -> fail "malformed id")
  | _ -> fail "malformed id"

let decode_attrs s n =
  (* "" is the block of n attribute-free positions (for n = 1 the comma
     count cannot disambiguate, so treat it uniformly). *)
  if s = "" then Ok (Array.make n [])
  else begin
  let positions = String.split_on_char ',' s in
  if List.length positions <> n then fail "attribute block length mismatch"
  else begin
    let decode_pos p =
      if p = "" then Ok []
      else
        List.fold_left
          (fun acc kv ->
            let* acc = acc in
            match String.index_opt kv '=' with
            | None -> fail "malformed attribute"
            | Some i ->
              let k = String.sub kv 0 i in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              let* k = Result.map_error (fun r -> { offset = 0; reason = r }) (unescape k) in
              let* v = Result.map_error (fun r -> { offset = 0; reason = r }) (unescape v) in
              Ok ((k, v) :: acc))
          (Ok []) (String.split_on_char ';' p)
        |> Result.map List.rev
    in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | p :: rest ->
        let* al = decode_pos p in
        go (al :: acc) rest
    in
    go [] positions
  end
  end

let decode line =
  match String.split_on_char '|' line with
  | v :: kind :: rest -> (
    let* () = if v = string_of_int version then Ok () else fail "unsupported version" in
    match (kind, rest) with
    | "A", [ id; adv ] ->
      let* id = decode_sub_id id in
      let* adv_s = Result.map_error (fun r -> { offset = 0; reason = r }) (unescape adv) in
      (match Adv.parse_opt adv_s with
      | Some adv -> Ok (Message.Advertise { id; adv })
      | None -> fail "malformed advertisement")
    | "U", [ id; _ ] ->
      let* id = decode_sub_id id in
      Ok (Message.Unadvertise { id })
    | "S", [ id; xpe ] ->
      let* id = decode_sub_id id in
      let* xpe_s = Result.map_error (fun r -> { offset = 0; reason = r }) (unescape xpe) in
      (match Xpe_parser.parse_opt xpe_s with
      | Some xpe -> Ok (Message.Subscribe { id; xpe })
      | None -> fail "malformed XPE")
    | "u", [ id; _ ] ->
      let* id = decode_sub_id id in
      Ok (Message.Unsubscribe { id })
    | "P", [ meta; trail; steps; attrs ] -> (
      let* fields, ctx =
        match String.split_on_char '.' meta with
        | [ d; p; z; pc ] -> Ok ((d, p, z, pc), Ok None)
        | [ d; p; z; pc; t; par ] -> (
          match (int_of_string_opt t, int_of_string_opt par) with
          | Some trace, Some parent_span ->
            Ok ((d, p, z, pc), Ok (Some { Message.trace; parent_span }))
          | _ -> fail "malformed trace context")
        | _ -> fail "malformed publication header"
      in
      let* ctx = ctx in
      let d, p, z, pc = fields in
      match
          (int_of_string_opt d, int_of_string_opt p, int_of_string_opt z, int_of_string_opt pc)
      with
      | Some doc_id, Some path_id, Some doc_size, Some path_count ->
        let* trail =
          if trail = "" then Ok []
          else
            List.fold_left
              (fun acc s ->
                let* acc = acc in
                let* id = decode_sub_id s in
                Ok (id :: acc))
              (Ok []) (String.split_on_char ',' trail)
            |> Result.map List.rev
        in
        let* steps =
          if steps = "" then fail "empty path"
          else
            List.fold_left
              (fun acc s ->
                let* acc = acc in
                let* s = Result.map_error (fun r -> { offset = 0; reason = r }) (unescape s) in
                if s = "" then fail "empty path element" else Ok (s :: acc))
              (Ok []) (String.split_on_char ',' steps)
            |> Result.map (fun l -> Array.of_list (List.rev l))
        in
        let* attrs = decode_attrs attrs (Array.length steps) in
        Ok
          (Message.Publish
             {
               pub =
                 (Xroute_xml.Xml_paths.make ~doc_id ~path_id ~steps ~attrs ~doc_size ~path_count);
               trail;
               ctx;
             })
      | _ -> fail "malformed publication header")
    | _ -> fail "unknown message kind")
  | _ -> fail "malformed message"

let decode_exn line =
  match decode line with
  | Ok msg -> msg
  | Error e -> failwith (Format.asprintf "%a" pp_error e)

(* ---------------- the differential ---------------- *)

(* Where [Codec.decode] and this reference disagree on [line], if they
   do. Both must reject it, or both accept it as the same message: the
   same [Message.to_string] and the same bytes out of either encoder,
   with a publication's [syms] equal to its [steps] interned. *)
let disagreement line =
  match (Codec.decode line, decode line) with
  | Error _, Error _ -> None
  | Ok _, Error e -> Some ("only the reference rejects it: " ^ e.reason)
  | Error e, Ok _ -> Some ("only Codec rejects it: " ^ e.Codec.reason)
  | Ok got, Ok want ->
    if Message.to_string got <> Message.to_string want then Some "Message.to_string differs"
    else if Codec.encode got <> Codec.encode want then Some "Codec.encode differs"
    else if encode got <> encode want then Some "reference encode differs"
    else (
      match got with
      | Message.Publish { pub; _ }
        when pub.syms <> Xroute_support.Symbol.intern_path pub.steps ->
        Some "syms is not steps interned"
      | _ -> None)
