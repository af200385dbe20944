(** XPath expressions (XPEs): single-path XPath with [/], [//], [*] and
    attribute equality predicates. *)

(** Node tests carry interned names ({!Xroute_support.Symbol}): hot-path
    name comparisons are int equality. *)
type nodetest = Star | Name of Xroute_support.Symbol.t

type axis =
  | Child  (** the [/] operator *)
  | Desc  (** the [//] operator *)

type predicate = { attr : string; value : string }

type step = { axis : axis; test : nodetest; preds : predicate list }

type t = private { relative : bool; steps : step list }

val step : ?preds:predicate list -> axis -> nodetest -> step

(** Build an XPE. A relative XPE (one written without a leading operator,
    e.g. [d/a]) may not start with [//].
    @raise Invalid_argument on an empty step list. *)
val make : ?relative:bool -> step list -> t

(** Node test from a plain name (interned); ["*"] becomes the wildcard. *)
val test_of_string : string -> nodetest

(** [/t1/t2/...] from plain names; ["*"] becomes the wildcard. *)
val absolute_of_names : string list -> t

(** Number of location steps. *)
val length : t -> int

val is_relative : t -> bool
val is_absolute : t -> bool

(** No descendant operator anywhere. *)
val is_simple : t -> bool

val has_wildcard : t -> bool
val has_predicates : t -> bool

(** Steps with the relative-XPE convention compiled away: for a relative
    XPE the first step is reported with a [Desc] axis. *)
val semantic_steps : t -> step list

(** Parses back to an equal XPE ({!Xpe_parser.parse}) whenever no
    predicate value holds both quote kinds: a value holding ['] is
    printed inside ["..."]. *)
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** [String.length (to_string t)], computed without printing. *)
val printed_length : t -> int
val test_to_string : nodetest -> string
val pred_to_string : predicate -> string

val compare_nodetest : nodetest -> nodetest -> int
val compare_step : step -> step -> int

(** Orders names by their strings ({!Xroute_support.Symbol.compare_name}),
    so sorts do not depend on interning order. *)
val compare : t -> t -> int

(** An XPE's identity: names compared by symbol id, predicates by their
    strings. [equal a b] iff [compare a b = 0]. Every table keyed by an
    XPE keys it by this, never by the printed form. *)
val equal : t -> t -> bool

(** Agrees with {!equal}; folds every step. *)
val hash : t -> int

(** Same name (by symbol id) or both wildcards. *)
val equal_nodetest : nodetest -> nodetest -> bool

(** Hash table keyed by XPE value ({!equal}, {!hash}). *)
module Tbl : Hashtbl.S with type key = t

(** Element names mentioned (wildcards excluded). *)
val names : t -> string list

(** Maximal [//]-free segments, each a list of [Child]-axis steps
    (Sec. 3.2 of the paper). *)
val split_on_desc : t -> step list list

(** Whether the first segment of {!split_on_desc} is anchored at the
    root. *)
val first_segment_anchored : t -> bool
