(* Discrete-event simulation engine.

   Events are closures ordered by (virtual time, insertion sequence);
   the sequence number makes simultaneous events deterministic (FIFO
   for equal times). Virtual time is in milliseconds. The queue is
   {!Xroute_support.Equeue}, a 4-ary min-heap over parallel unboxed
   arrays: no per-event record allocation. *)

module Equeue = Xroute_support.Equeue

type t = {
  queue : Equeue.t;
  mutable now : float;
  mutable executed : int;
}

let create () = { queue = Equeue.create ~capacity:1024 (); now = 0.0; executed = 0 }
let now t = t.now
let executed t = t.executed

(* Schedule [action] to run [delay] ms from the current virtual time. *)
let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  Equeue.push t.queue ~time:(t.now +. delay) action

(* Run until the queue drains (or [max_events] is hit, a runaway guard).
   The emptiness test comes first, so a run that drains in exactly
   [max_events] events succeeds. *)
let run ?(max_events = 200_000_000) t =
  let budget = ref max_events in
  let exec time action =
    t.now <- (if time > t.now then time else t.now);
    t.executed <- t.executed + 1;
    action ()
  in
  while not (Equeue.is_empty t.queue) do
    if !budget <= 0 then failwith "Sim.run: event budget exhausted (runaway simulation?)";
    decr budget;
    ignore (Equeue.pop_with t.queue exec)
  done

(* Advance virtual time to at least [time] even with an empty queue. *)
let advance_to t time = if time > t.now then t.now <- time
