(* Protocol messages exchanged between brokers and clients.

   Publications travel as root-to-leaf paths (Sec. 3.1); subscriptions
   and unsubscriptions carry XPEs; advertisements and unadvertisements
   carry (possibly recursive) advertisement patterns. Identifiers make
   unsubscription/unadvertisement and duplicate suppression possible. *)

open Xroute_xpath

type sub_id = { origin : int; seq : int }

let compare_sub_id a b =
  match compare a.origin b.origin with 0 -> compare a.seq b.seq | c -> c

(* Causal trace context (lib/obs span layer): which trace a publication
   belongs to and which span caused this hop. Brokers copy it verbatim
   from input to output; the transport (overlay Net, the daemon) rewrites
   [parent_span] to the hop span it opens. Debug metadata: excluded from
   [wire_size] so enabling tracing never changes the modeled latencies. *)
type trace_ctx = { trace : int; parent_span : int }

type t =
  | Advertise of { id : sub_id; adv : Adv.t }
  | Unadvertise of { id : sub_id }
  | Subscribe of { id : sub_id; xpe : Xpe.t }
  | Unsubscribe of { id : sub_id }
  | Publish of {
      pub : Xroute_xml.Xml_paths.publication;
      (* Ids of upstream subscriptions, a leftover of trail routing.
         Brokers ignore an inbound trail (every publication is matched
         against the full PRT) and always send it empty. The field
         survives for wire compatibility — the [P|] codec component
         stays byte for byte — and because perfbench's pbench.ml builds
         and matches it. *)
      trail : sub_id list;
      ctx : trace_ctx option;
    }

let pp_sub_id ppf id = Format.fprintf ppf "%d.%d" id.origin id.seq

let pp ppf = function
  | Advertise { id; adv } -> Format.fprintf ppf "ADV[%a] %s" pp_sub_id id (Adv.to_string adv)
  | Unadvertise { id } -> Format.fprintf ppf "UNADV[%a]" pp_sub_id id
  | Subscribe { id; xpe } -> Format.fprintf ppf "SUB[%a] %s" pp_sub_id id (Xpe.to_string xpe)
  | Unsubscribe { id } -> Format.fprintf ppf "UNSUB[%a]" pp_sub_id id
  | Publish { pub; _ } ->
    Format.fprintf ppf "PUB %a" Xroute_xml.Xml_paths.pp_publication pub

let to_string m = Format.asprintf "%a" pp m

(* Approximate wire size in bytes, used by the traffic accounting: a
   fixed header plus the payload's printed size (counted, not printed).
   Publication messages carry their path plus a share of the document
   body (the paper routes path-publications; subscribers transparently
   receive documents). *)
let wire_size = function
  | Advertise { adv; _ } -> 16 + Adv.printed_length adv
  | Unadvertise _ -> 16
  | Subscribe { xpe; _ } -> 16 + Xpe.printed_length xpe
  | Unsubscribe _ -> 16
  | Publish { pub; trail; _ } ->
    (* Each path message carries its share of the document body: the
       network delivers whole documents, split over their routed paths
       (this is what makes bigger documents slower, Figs. 10-11). *)
    16 + (8 * List.length trail)
    + Array.fold_left (fun acc s -> acc + String.length s + 1) 0 pub.steps
    + (pub.doc_size / max 1 pub.path_count)
