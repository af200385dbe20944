(* Event queue for the discrete-event simulator: a 4-ary min-heap over
   parallel arrays.

   A generic heap would store one boxed element per entry and call a
   closure comparator on every sift step; at millions of in-flight
   events that is one record + one option allocation per event plus a
   call-heavy ordering. Here the key lives unboxed in a [floatarray]
   (time) and an [int array] (insertion sequence), the payload closure
   in a third parallel array, and ordering is two inline compares. The
   4-ary shape halves tree depth versus binary, which matters because
   sift-down dominates pop on large queues.

   Ordering is (time, seq) lexicographic with [seq] assigned internally
   at push, so equal-time events pop in FIFO order. That stability is
   load-bearing: per-link FIFO in the overlay (and with it the PR-3
   covering-race fix) relies on it. *)

type t = {
  mutable times : floatarray;
  mutable seqs : int array;
  mutable acts : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 1024) () =
  let capacity = max capacity 4 in
  {
    times = Float.Array.create capacity;
    seqs = Array.make capacity 0;
    acts = Array.make capacity ignore;
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let clear t =
  (* Drop closure references so the GC can reclaim captured state. *)
  Array.fill t.acts 0 t.size ignore;
  t.size <- 0

let grow t =
  let cap = Float.Array.length t.times in
  let cap' = cap * 2 in
  let times = Float.Array.create cap' in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make cap' 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  let acts = Array.make cap' ignore in
  Array.blit t.acts 0 acts 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.acts <- acts

(* [less t i (time, seq)] : does slot [i] order before the key? *)
let[@inline] slot_less t i time seq =
  let ti = Float.Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let[@inline] set_slot t i time seq act =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.acts i act

let push t ~time act =
  if t.size = Float.Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  (* Sift the hole up from the end; write the new key once at rest. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    if slot_less t parent time seq then continue := false
    else begin
      set_slot t !i
        (Float.Array.unsafe_get t.times parent)
        (Array.unsafe_get t.seqs parent)
        (Array.unsafe_get t.acts parent);
      i := parent
    end
  done;
  set_slot t !i time seq act

let min_time t = if t.size = 0 then None else Some (Float.Array.get t.times 0)

(* Index of the least-ordered child of [i], or -1 when [i] is a leaf. *)
let[@inline] min_child t i =
  let first = (4 * i) + 1 in
  if first >= t.size then -1
  else begin
    let last = min (first + 3) (t.size - 1) in
    let best = ref first in
    for c = first + 1 to last do
      if
        slot_less t c
          (Float.Array.unsafe_get t.times !best)
          (Array.unsafe_get t.seqs !best)
      then best := c
    done;
    !best
  end

let pop_with t f =
  if t.size = 0 then false
  else begin
    let time = Float.Array.get t.times 0 in
    let act = t.acts.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      (* Sift the former last element down from the root. *)
      let ltime = Float.Array.get t.times n in
      let lseq = t.seqs.(n) in
      let lact = t.acts.(n) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let c = min_child t !i in
        if c < 0 || not (slot_less t c ltime lseq) then continue := false
        else begin
          set_slot t !i
            (Float.Array.unsafe_get t.times c)
            (Array.unsafe_get t.seqs c)
            (Array.unsafe_get t.acts c);
          i := c
        end
      done;
      set_slot t !i ltime lseq lact
    end;
    t.acts.(t.size) <- ignore;
    f time act;
    true
  end

let to_sorted_list t =
  let rows = ref [] in
  for i = t.size - 1 downto 0 do
    rows := (Float.Array.get t.times i, t.seqs.(i), t.acts.(i)) :: !rows
  done;
  List.sort
    (fun (ta, sa, _) (tb, sb, _) ->
      match compare ta tb with 0 -> compare sa sb | c -> c)
    !rows
