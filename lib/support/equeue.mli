(** Event queue for the discrete-event simulator: a 4-ary min-heap over
    parallel unboxed arrays.

    Entries are (time, action) pairs ordered by (time, insertion
    sequence); the sequence is assigned internally so that equal-time
    events pop in FIFO order. The ordering key is stored unboxed (no
    per-event record, no closure comparator): this is the hot path of
    million-event simulations, and the simulator's only queue. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool

(** Drop all entries (closure slots are released for the GC). *)
val clear : t -> unit

(** Enqueue [act] at absolute virtual time [time]. *)
val push : t -> time:float -> (unit -> unit) -> unit

(** Time of the next event to pop, if any. *)
val min_time : t -> float option

(** Pop the least (time, seq) entry and pass it to [f time act].
    Returns [false] on an empty queue without calling [f]. *)
val pop_with : t -> (float -> (unit -> unit) -> unit) -> bool

(** Pending entries as (time, seq, action) in pop order; the queue is
    left untouched. For tests and audits. *)
val to_sorted_list : t -> (float * int * (unit -> unit)) list
