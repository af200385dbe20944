(** The covering-tree matcher (Sec. 4.1): publication matching over a
    {!Xroute_core.Sub_tree}, pruning a subtree as soon as its root fails
    to match. Brokers match through the PRT's automaton instead; this is
    the paper's organization, timed by bench Table 1 and checked by the
    tests. [checks], when given, counts the match tests performed. *)

(** Payloads of all nodes matching the publication path (interned),
    pruning a subtree as soon as its root fails to match. *)
val match_syms :
  ?checks:int ref ->
  'a Xroute_core.Sub_tree.t ->
  Xroute_support.Symbol.t array ->
  (string * string) list array ->
  'a list

(** {!match_syms} after interning the element names. *)
val match_path :
  ?checks:int ref ->
  'a Xroute_core.Sub_tree.t ->
  string array ->
  (string * string) list array ->
  'a list

(** {!match_path} on a bare name path. *)
val match_names : ?checks:int ref -> 'a Xroute_core.Sub_tree.t -> string array -> 'a list

(** Exhaustive (unpruned) matching, for baselines and cross-checks. *)
val match_syms_linear :
  'a Xroute_core.Sub_tree.t ->
  Xroute_support.Symbol.t array ->
  (string * string) list array ->
  'a list

val match_path_linear :
  'a Xroute_core.Sub_tree.t -> string array -> (string * string) list array -> 'a list
