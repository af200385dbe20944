(* Hash-consed symbol table for element and attribute names.

   Routing hot paths compare element names constantly: every NFA edge
   fired, every node test evaluated, every bucket lookup. Interning each
   distinct name once into a small integer turns those comparisons into
   int equality and makes names usable as array/hashtable keys without
   hashing the string again.

   Determinism contract: interning order assigns ids, and ids leak into
   iteration orders of symbol-keyed hashtables — so NOTHING
   routing-visible may depend on id order. [compare] (by id) exists for
   building maps; every ordering that reaches a routing decision must go
   through [compare_name], which is the original lexicographic order and
   therefore independent of when symbols were created (test_symbol.ml
   pins this).

   Concurrency: the table is global, and tests and benchmarks run
   several daemons as systhreads of one process, so interning and
   [name] lookups race across threads. Writes stay serialized by a
   mutex (OCaml 5 [Mutex] establishes happens-before across domains).
   [name] stays lock-free, but lock-free reads require real
   publication: plain mutable-field reads may be arbitrarily stale under
   the OCaml 5 memory model, so [names] and [count] are [Atomic.t].
   [intern] fills the slot first and only then release-stores the array
   and the count; [name] acquire-loads [count] before touching the
   array, so any id below the count it observed has a fully published
   slot. *)

type t = int

type table = {
  by_name : (string, int) Hashtbl.t;
  names : string array Atomic.t; (* index = id; may have spare capacity *)
  count : int Atomic.t;
  lock : Mutex.t;
}

let table =
  { by_name = Hashtbl.create 256; names = Atomic.make (Array.make 256 "");
    count = Atomic.make 0; lock = Mutex.create () }

let id (s : t) = s
let equal (a : t) (b : t) = Int.equal a b
let compare (a : t) (b : t) = Int.compare a b
let hash (s : t) = s

let count () = Atomic.get table.count

let name (s : t) =
  (* Lock-free: acquire the count first — [intern] release-stores it
     after the slot and the (possibly grown) array, so seeing [s < n]
     guarantees the subsequent array read observes slot [s] filled. *)
  let n = Atomic.get table.count in
  if s >= 0 && s < n then (Atomic.get table.names).(s)
  else invalid_arg (Printf.sprintf "Symbol.name: unknown symbol %d" s)

let of_id i =
  ignore (name i);
  i

let compare_name (a : t) (b : t) =
  if equal a b then 0 else String.compare (name a) (name b)

let locked f =
  Mutex.lock table.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock table.lock) f

(* Reads of [by_name] also take the lock: a systhread can be preempted
   mid-resize (resizing allocates), so an unguarded [find_opt] could see
   the table inconsistent. *)
let find str = locked (fun () -> Hashtbl.find_opt table.by_name str)

let intern str =
  locked @@ fun () ->
  match Hashtbl.find_opt table.by_name str with
  | Some id -> id
  | None ->
    let id = Atomic.get table.count in
    let names = Atomic.get table.names in
    let names =
      if id >= Array.length names then begin
        (* Copy-publish so concurrent [name] readers never see a
           half-grown array; fill the new slot before the store. *)
        let grown = Array.make (2 * Array.length names) "" in
        Array.blit names 0 grown 0 id;
        grown.(id) <- str;
        Atomic.set table.names grown;
        grown
      end
      else names
    in
    names.(id) <- str;
    (* Release: slot write above happens-before any reader that
       observes the bumped count. *)
    Atomic.set table.count (id + 1);
    Hashtbl.replace table.by_name str id;
    id

let intern_path steps = Array.map intern steps

let pp ppf s = Format.pp_print_string ppf (name s)
