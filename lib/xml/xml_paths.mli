(** Decomposition of XML documents into root-to-leaf path publications
    (Sec. 3.1 of the paper). *)

type publication = {
  doc_id : int;
  path_id : int;
  steps : string array;  (** element names from the root to a leaf *)
  syms : Xroute_support.Symbol.t array;
      (** [steps] interned position by position — what matchers consume *)
  attrs : (string * string) list array;  (** attributes at each position *)
  doc_size : int;  (** serialized size in bytes of the source document *)
  path_count : int;  (** how many path publications the document yields *)
}

(** Build a publication; [syms] is derived from [steps] by interning. *)
val make :
  doc_id:int ->
  path_id:int ->
  steps:string array ->
  attrs:(string * string) list array ->
  doc_size:int ->
  path_count:int ->
  publication

(** Build a publication from names already interned; [steps] is
    [Array.map Symbol.name syms]. *)
val of_syms :
  doc_id:int ->
  path_id:int ->
  syms:Xroute_support.Symbol.t array ->
  attrs:(string * string) list array ->
  doc_size:int ->
  path_count:int ->
  publication

val pp_publication : Format.formatter -> publication -> unit
val publication_to_string : publication -> string

(** [decompose ~doc_id root] lists the document's root-to-leaf paths as
    publications. With [dedup] (default), structurally identical paths are
    emitted once. *)
val decompose : ?dedup:bool -> doc_id:int -> Xml_tree.t -> publication list

(** Number of root-to-leaf paths (with duplicates). *)
val path_count : Xml_tree.t -> int

(** Number of distinct root-to-leaf name sequences. *)
val distinct_path_count : Xml_tree.t -> int

(** Parse a ["/a/b/c"] string into a publication with empty attributes.
    @raise Invalid_argument on empty steps. *)
val publication_of_string : ?doc_id:int -> ?path_id:int -> string -> publication
