(** Merging of XPEs (Sec. 4.3): replace sets of subscriptions by a more
    general merger, with the imperfect degree measuring the false
    positives introduced relative to a DTD-derived path universe. *)

open Xroute_xpath

type merger = {
  xpe : Xpe.t;  (** the merged subscription *)
  originals : Xpe.t list;  (** pairwise distinct, all covered by [xpe] *)
  degree : float;  (** imperfect degree over the universe supplied *)
}

(** [imperfect_degree ~universe m originals] =
    [|P(m) - ∪P(si)| / |P(m)|] measured on the finite [universe] of
    paths. [0.] when the merger matches nothing in the universe. *)
val imperfect_degree : universe:string array list -> Xpe.t -> Xpe.t list -> float

(** Verified merge candidates among the given XPEs (rules 1-3; each
    candidate covers its originals by {!Cover.covers}). *)
val candidates : Xpe.t list -> (Xpe.t * Xpe.t list) list

(** [merge_set ~max_degree ~universe xpes] greedily applies candidates
    whose degree stays within [max_degree] ([0.] = perfect merging only);
    each original joins at most one merger. Returns the applied mergers
    and the surviving unmerged XPEs. *)
val merge_set :
  max_degree:float ->
  universe:string array list ->
  Xpe.t list ->
  merger list * Xpe.t list
