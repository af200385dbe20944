(** Framed multi-line replies for the daemon's line protocol.

    Several wire commands ([STATS|], [AUDIT|], [TRACE|]) answer with
    more than one line; each frames its reply the same way:

    {v TAG|BEGIN[|arg|...]
       <line-tag>|<payload>      (repeated)
       TAG|END[|arg|...] v}

    so a client can interleave the reply with routed traffic and knows
    exactly when it ends. {!send} emits one such frame; {!escape} /
    {!unescape} are the reversible field encoding ([%XX] for [%], [|],
    newlines) callers use to keep arbitrary payload text from breaking
    the line protocol — unlike a lossy sanitizer, the client recovers
    the original bytes. *)

(** Percent-encode the characters that would break a protocol line:
    [%], [|], [\n], [\r]. Identity on already-clean strings. *)
val escape : string -> string

(** Inverse of {!escape}; total — malformed escapes pass through
    verbatim. *)
val unescape : string -> string

(** [split line] cuts a [<tag>|<payload>] line at its first [|]:
    [split "M|x|y" = Some ("M", "x|y")]. [None] when the line has no
    [|] at all (a bare ["M"] or ["F"]), so a short line can never be
    mistaken for a tagged one. *)
val split : string -> (string * string) option

(** [send ~enqueue ~tag ~line_tag lines] enqueues
    [TAG|BEGIN[|begin_args]], one [line_tag|line] per element, then
    [TAG|END[|end_args]]. Payload lines must already be line-safe
    (pre-escaped by the caller — the helper cannot guess which [|]s are
    field separators). *)
val send :
  enqueue:(string -> unit) ->
  tag:string ->
  ?begin_args:string list ->
  ?end_args:string list ->
  line_tag:string ->
  string list ->
  unit
