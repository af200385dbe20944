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

   Index: one open-addressing table keyed by bytes, so a name can be
   looked up straight from a slice of a wire line ([intern_sub],
   [intern_split]) without first copying it out; only a name never seen
   before is copied. [intern], [find] and [intern_path] go through the
   same index.

   Concurrency: the table is global, and tests and benchmarks run
   several daemons as systhreads of one process, so interning and
   [name] lookups race across threads. Every use of the index is
   serialized by a mutex (OCaml 5 [Mutex] establishes happens-before
   across domains); a path takes the lock once, not once per step, and
   the lock is released by an exception handler rather than
   [Fun.protect], which would allocate closures per call. [name] stays
   lock-free, but lock-free reads require real publication: plain
   mutable-field reads may be arbitrarily stale under the OCaml 5 memory
   model, so [names] and [count] are [Atomic.t]. Interning fills the
   slot first and only then release-stores the array and the count;
   [name] acquire-loads [count] before touching the array, so any id
   below the count it observed has a fully published slot. *)

type t = int

type table = {
  mutable slots : int array;
      (* open addressing, linear probing; 0 = empty, else id + 1; the
         length is a power of two, at most half full *)
  names : string array Atomic.t; (* index = id; may have spare capacity *)
  count : int Atomic.t;
  lock : Mutex.t;
}

let table =
  { slots = Array.make 512 0; names = Atomic.make (Array.make 256 "");
    count = Atomic.make 0; lock = Mutex.create () }

let id (s : t) = s
let equal (a : t) (b : t) = Int.equal a b
let compare (a : t) (b : t) = Int.compare a b
let hash (s : t) = s

let count () = Atomic.get table.count

let name (s : t) =
  (* Lock-free: acquire the count first — interning release-stores it
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

(* ---------------- the index (callers hold the lock) ---------------- *)

(* FNV-1a over s[i, stop), folded so the low bits used as the slot
   depend on every byte. *)
let rec fnv s i stop h =
  if i >= stop then h lxor (h lsr 31)
  else fnv s (i + 1) stop ((h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3)

let hash_sub s pos len = fnv s pos (pos + len) 0x2bf29ce484222325

let rec equal_from a s i j stop =
  j >= stop || (String.unsafe_get a i = String.unsafe_get s j && equal_from a s (i + 1) (j + 1) stop)

let equal_sub a s pos len = String.length a = len && equal_from a s 0 pos (pos + len)

(* The id of s[pos, pos+len) if interned, else [-1 - slot] for the empty
   slot where it belongs. *)
let rec probe slots names s pos len i =
  let v = Array.unsafe_get slots i in
  if v = 0 then -1 - i
  else if equal_sub (Array.unsafe_get names (v - 1)) s pos len then v - 1
  else probe slots names s pos len ((i + 1) land (Array.length slots - 1))

let lookup s pos len =
  let slots = table.slots in
  probe slots (Atomic.get table.names) s pos len (hash_sub s pos len land (Array.length slots - 1))

let rehash n =
  let names = Atomic.get table.names in
  let slots = Array.make (2 * Array.length table.slots) 0 in
  let mask = Array.length slots - 1 in
  for id = 0 to n - 1 do
    let s = names.(id) in
    let i = ref (hash_sub s 0 (String.length s) land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id + 1
  done;
  table.slots <- slots

(* Append [str] as a new symbol whose index slot is [slot]. *)
let add str slot =
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
  (* Release: slot write above happens-before any reader that observes
     the bumped count. *)
  Atomic.set table.count (id + 1);
  table.slots.(slot) <- id + 1;
  if 2 * (id + 1) > Array.length table.slots then rehash (id + 1);
  id

(* A whole string is stored as is; a slice is copied out only when it
   is new. *)
let intern_locked s pos len =
  let r = lookup s pos len in
  if r >= 0 then r
  else add (if pos = 0 && len = String.length s then s else String.sub s pos len) (-1 - r)

let intern_whole_locked s = intern_locked s 0 (String.length s)

(* ---------------- locked entry points ---------------- *)

let check_slice fn s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg fn

let intern_sub s pos len =
  check_slice "Symbol.intern_sub" s pos len;
  Mutex.lock table.lock;
  match intern_locked s pos len with
  | sym ->
    Mutex.unlock table.lock;
    sym
  | exception e ->
    Mutex.unlock table.lock;
    raise e

let intern s = intern_sub s 0 (String.length s)

(* Reads of the index also take the lock: a systhread can be preempted
   mid-rehash (rehashing allocates), so an unguarded probe could see the
   slots inconsistent. *)
let find s =
  Mutex.lock table.lock;
  match lookup s 0 (String.length s) with
  | r ->
    Mutex.unlock table.lock;
    if r >= 0 then Some r else None
  | exception e ->
    Mutex.unlock table.lock;
    raise e

let intern_path steps =
  Mutex.lock table.lock;
  match Array.map intern_whole_locked steps with
  | syms ->
    Mutex.unlock table.lock;
    syms
  | exception e ->
    Mutex.unlock table.lock;
    raise e

let rec count_char s c i stop acc =
  if i >= stop then acc
  else count_char s c (i + 1) stop (if String.unsafe_get s i = c then acc + 1 else acc)

let rec index_char s c i stop =
  if i >= stop || String.unsafe_get s i = c then i else index_char s c (i + 1) stop

let split_locked syms s sep pos stop =
  let start = ref pos in
  for k = 0 to Array.length syms - 1 do
    let e = index_char s sep !start stop in
    syms.(k) <- intern_locked s !start (e - !start);
    start := e + 1
  done

let intern_split s pos len sep =
  check_slice "Symbol.intern_split" s pos len;
  let stop = pos + len in
  let syms = Array.make (count_char s sep pos stop 1) 0 in
  Mutex.lock table.lock;
  match split_locked syms s sep pos stop with
  | () ->
    Mutex.unlock table.lock;
    syms
  | exception e ->
    Mutex.unlock table.lock;
    raise e

let pp ppf s = Format.pp_print_string ppf (name s)
