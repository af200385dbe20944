(** Wire codec for {!Message.t}: a compact, versioned, line-oriented text
    format with percent-escaping, independent of OCaml's marshaller. One
    message per line; see the implementation header for the grammar. *)

type error = { offset : int; reason : string }
(** [offset] is where the field at fault starts, relative to the decoded
    slice. *)

val pp_error : Format.formatter -> error -> unit

(** Current format version (the first field of every message). *)
val version : int

(** Append the message's line (no trailing newline) to a buffer. *)
val encode_into : Buffer.t -> Message.t -> unit

(** Encode to a single line (no trailing newline): [encode_into] into a
    fresh buffer. *)
val encode : Message.t -> string

(** [decode_sub line ~pos] decodes the message that fills [line] from
    [pos] to its end, without copying that suffix out — e.g. the payload
    of a daemon's ["M|"] line at [~pos:2].
    @raise Invalid_argument if [pos] is outside [0, String.length line]. *)
val decode_sub : string -> pos:int -> (Message.t, error) result

(** Decode one line: [decode_sub line ~pos:0]. *)
val decode : string -> (Message.t, error) result

(** @raise Failure on malformed input. *)
val decode_exn : string -> Message.t
