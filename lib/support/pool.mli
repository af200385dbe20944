(** Allocation helper for simulator hot paths: a chunked row arena. *)

(** Append-only arena of (int, int, float) rows stored in parallel
    unboxed chunk arrays. Growing never copies existing rows; a row is
    addressed by the dense index returned from {!Arena.add}. Used for
    delivery ledgers at million-client scale. *)
module Arena : sig
  type t

  val create : ?chunk_rows:int -> unit -> t
  val length : t -> int

  (** Append a row; returns its index. *)
  val add : t -> int -> int -> float -> int

  val get_a : t -> int -> int
  val get_b : t -> int -> int
  val get_time : t -> int -> float

  (** Iterate rows in insertion order. *)
  val iter : t -> (int -> int -> float -> unit) -> unit

  val clear : t -> unit

  (** Order-sensitive 64-bit digest of the rows (length included) for
      comparing large ledgers without materializing them. *)
  val digest : t -> int64

  (** Incremental digest: [digest_close (fold digest_row digest_empty
      rows) n] over [n] rows equals {!digest} of an arena holding the
      same rows in the same order. *)

  val digest_empty : int64

  val digest_row : int64 -> int -> int -> float -> int64
  val digest_close : int64 -> int -> int64
end
