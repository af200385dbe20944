(** Advertisements (Sec. 3.1): absolute, [//]-free XPath-like patterns over
    element names and wildcards, optionally containing recursive [(...)+]
    groups derived from recursive DTDs. An advertisement matches a
    publication when the pattern matches the {e entire} path. *)

type symbol = Xpe.nodetest

type part =
  | Lit of symbol array  (** fixed-length run of names / wildcards *)
  | Group of part list  (** [(...)]+ — one or more repetitions *)

type t = private { parts : part list }

type shape = Non_recursive | Simple_recursive | Series_recursive | Embedded_recursive

(** Build an advertisement, normalizing away empty literals/groups and
    fusing adjacent literals.
    @raise Invalid_argument if the result would be empty. *)
val make : part list -> t

val parts : t -> part list

(** Non-recursive advertisement from names; ["*"] becomes the wildcard. *)
val of_names : string list -> t

val is_recursive : t -> bool
val shape : t -> shape

(** Minimum matched path length (each group at one repetition). *)
val min_length : t -> int

(** Length of a non-recursive advertisement.
    @raise Invalid_argument on recursive advertisements. *)
val length : t -> int

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** [String.length (to_string t)], computed without printing. *)
val printed_length : t -> int
val compare : t -> t -> int

(** An advertisement's identity, as {!Xpe.equal}: [equal a b] iff
    [compare a b = 0]. *)
val equal : t -> t -> bool

(** Agrees with {!equal}; folds every symbol. *)
val hash : t -> int

(** Hash table keyed by advertisement value ({!equal}, {!hash}). *)
module Tbl : Hashtbl.S with type key = t

(** Literal steps of a non-recursive advertisement.
    @raise Invalid_argument on recursive advertisements. *)
val to_symbols : t -> symbol array

(** Raised by {!expand} when the predicted unrolling count exceeds the
    [max_paths] cap — before any exponential list is materialized. *)
exception Expansion_limit of { cap : int; count : int }

(** Number of unrollings {!expand} would produce for the same
    [max_reps], computed from the structure alone (saturating at
    [max_int]). *)
val count_expansions : max_reps:int -> t -> int

(** Unroll every group 1..[max_reps] times; the resulting fixed paths (as
    symbol arrays) enumerate a finite under-approximation of [P(adv)].
    Exponential in the number of groups — keep [max_reps] small, or pass
    [?max_paths] to bound the blow-up up front.
    @raise Expansion_limit when the predicted count exceeds [max_paths]. *)
val expand : ?max_paths:int -> max_reps:int -> t -> symbol array list

(** Like [expand ~max_paths] but truncating instead of raising: at most
    [max_paths] unrollings, with [true] when anything was cut. Within
    the cap the result equals {!expand}'s. *)
val expand_capped : max_paths:int -> max_reps:int -> t -> symbol array list * bool

(** Do two node tests admit a common element name? *)
val symbols_overlap : symbol -> symbol -> bool

(** Exact full-length match of a non-recursive advertisement (given by its
    symbols) against a bare name path. *)
val non_recursive_matches_names : symbol array -> string array -> bool

(** Exact full-length match of any advertisement against a bare name path
    (backtracking over group repetitions). *)
val matches_names : t -> string array -> bool

exception Parse_error of { pos : int; message : string }

(** Parse the extended syntax, e.g. ["/a/b(/c/d)+/e"]; inverse of
    {!to_string}. @raise Parse_error on syntax errors. *)
val parse : string -> t

val parse_opt : string -> t option

(** Number of [(...)+] groups, nested ones included. *)
val group_count : t -> int

(** Unrollings with at most [budget] repetition instances in total
    (nested instances each count). Complete for matching XPEs of length
    [k] when [budget >= k + group_count t]. *)
val expand_budget : budget:int -> t -> symbol array list
