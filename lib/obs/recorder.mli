(** Flight recorder: post-mortem dumps for fault events.

    When something goes wrong — a fault-plan event fires in the
    simulator, or a live [AUDIT] reports an error-severity finding — the
    metrics and spans explaining it are about to be lost (crashed broker
    state is replaced; rings keep rolling). A recorder owns a directory
    and, on {!trigger}, writes one self-contained JSON file
    ([flight-<seq>-<reason>.json], schema [xroute-flight/2]) with the
    last N spans, the registry snapshot and rates.

    The ["spans"] field is itself a complete Chrome trace-event object,
    so it can be cut out and loaded in Perfetto directly.

    Dump failures are reported, never raised: a broken disk must not
    take the broker down with it. *)

type t

(** [create ~dir] records into [dir] (created if missing). Each dump
    embeds the newest 512 spans it is given. *)
val create : dir:string -> t

val dir : t -> string

(** Paths written so far, newest first. *)
val dumps : t -> string list

(** Write one dump. [at] is the trigger time in ms (virtual or wall,
    matching the spans). Returns the path written. *)
val trigger :
  t ->
  reason:string ->
  at:float ->
  ?metrics:Metrics.t ->
  ?spans:Span.span list ->
  ?rates:(string * float) list ->
  unit ->
  (string, string) result
