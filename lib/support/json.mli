(** Minimal JSON reader and writer for validation tooling.

    The repo emits JSON by hand (metrics exposition, bench reports,
    Chrome trace events, flight-recorder dumps); this is the matching
    reader so tests can check those emissions are actually well-formed
    without pulling in an external dependency, and {!to_string} writes a
    parsed value back (the bench report merges into its sink with
    both). It parses the full JSON grammar (objects, arrays, strings
    with escapes, numbers, literals) but is tuned for readability over
    speed — do not put it on a hot path. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Parse a complete JSON document; trailing garbage is an error. *)
val parse : string -> (t, string) result

(** Object field lookup (first match). *)
val member : string -> t -> t option

val to_num : t -> float option
val to_str : t -> string option
val to_list : t -> t list option

(** Compact rendering that {!parse} reads back to an equal value: numbers
    in the shortest form that round-trips (non-finite ones as [null]),
    strings with quotes, backslashes and control characters escaped. *)
val to_string : t -> string
