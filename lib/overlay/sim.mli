(** Discrete-event simulation engine: closures ordered by (virtual time,
    insertion sequence), FIFO for equal times; time is in milliseconds.
    The queue is the unboxed 4-ary heap {!Xroute_support.Equeue}. *)

type t

val create : unit -> t

(** Current virtual time (ms). *)
val now : t -> float

val pending : t -> int
val executed : t -> int

(** Schedule an action [delay] ms from now.
    @raise Invalid_argument on negative delays. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** Run until the queue drains. A run that drains in exactly
    [max_events] events succeeds.
    @raise Failure when the queue still holds events after [max_events]
    have run (runaway guard). *)
val run : ?max_events:int -> t -> unit

(** Advance the clock without executing anything. *)
val advance_to : t -> float -> unit
