(** Hash-consed symbol table: element/attribute names interned into
    small integers, so hot-path name comparisons are int equality.

    The table is global and append-only. Interning is thread-safe;
    {!name} never takes a lock.

    Determinism: symbol ids depend on interning order, so orderings that
    reach routing decisions must use {!compare_name} (lexicographic on
    the original strings — independent of creation order), never
    {!compare}. *)

type t = private int

(** Intern a name, returning its symbol. Idempotent: equal strings map
    to the same symbol forever. *)
val intern : string -> t

(** The symbol a name is already interned as, if any. *)
val find : string -> t option

(** The original string of a symbol. O(1), lock-free. *)
val name : t -> string

val id : t -> int

(** The symbol with this id. Raises [Invalid_argument] for an id not
    interned yet. *)
val of_id : int -> t

val equal : t -> t -> bool

(** Order by id (creation order) — for maps only; never let this reach a
    routing decision. *)
val compare : t -> t -> int

(** Order by original name: the same order [String.compare] gave before
    interning, whatever order symbols were created in. *)
val compare_name : t -> t -> int

val hash : t -> int

(** Distinct names interned so far. *)
val count : unit -> int

(** Intern every element of a path. *)
val intern_path : string array -> t array

val pp : Format.formatter -> t -> unit
