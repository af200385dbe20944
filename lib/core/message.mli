(** Protocol messages exchanged between brokers and clients. *)

open Xroute_xpath

(** Globally unique subscription/advertisement identifier: assigned at
    the origin and stable as the message propagates. *)
type sub_id = { origin : int; seq : int }

val compare_sub_id : sub_id -> sub_id -> int

(** Causal trace context carried by publications: the trace id (the
    publication's [doc_id]) and the span id of the hop that sent this
    message. Brokers copy it input → output; the transport rewrites
    [parent_span] per hop. Excluded from {!wire_size} — tracing must not
    perturb the modeled latencies. *)
type trace_ctx = { trace : int; parent_span : int }

type t =
  | Advertise of { id : sub_id; adv : Adv.t }
  | Unadvertise of { id : sub_id }
  | Subscribe of { id : sub_id; xpe : Xpe.t }
  | Unsubscribe of { id : sub_id }
  | Publish of {
      pub : Xroute_xml.Xml_paths.publication;
      trail : sub_id list;
          (** Wire-compatibility field, kept so the [P|] codec
              component stays byte for byte. Brokers ignore an inbound
              trail (every publication is matched against the full PRT)
              and always emit [[]]. *)
      ctx : trace_ctx option;  (** causal trace context, if traced *)
    }

val pp_sub_id : Format.formatter -> sub_id -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Approximate wire size in bytes, for traffic/transmission modeling. *)
val wire_size : t -> int
