(* Subscription/advertisement matching (Sec. 3.2 and 3.3 of the paper):
   the SRT's overlap test.

   A broker forwards a subscription towards the publishers whose
   advertisements overlap it: [overlaps s a] decides whether
   P(s) ∩ P(a) ≠ ∅. Attribute predicates never constrain this: an
   advertisement says nothing about attribute values, so a publication
   carrying the right values may exist whenever the names align.

   An advertisement is a regular expression over its symbol occurrences
   (positions): literals concatenate, [(...)+] groups repeat. Its
   Glushkov position automaton has one state per position; a path
   starts at the [first] position, and [succ.(i)] holds the positions
   that may come right after position [i]. [Adv.make] drops empty parts,
   so no part matches the empty path and every position lies on an
   accepting path: any walk through the automaton extends to a whole
   advertised path.

   An XPE overlaps the advertisement iff its semantic steps embed into
   such a walk: step 0 at the first position (at any position after
   [//]), each later step at a successor (child axis) or a position one
   or more steps later (descendant axis) of the previous one, every step
   at a position whose symbol overlaps its node test (Fig. 2(b): [*] on
   either side, or the same name). The XPE matches prefix paths, so the
   walk may stop anywhere. One pass over the steps carries the set of
   feasible positions. This decides exactly what the paper's bounded
   unrolling of the recursive groups enumerates (the reference,
   [Paper_match] in lib/ref, against which the tests check it), without
   enumerating anything.

   The pass is written once, over a position set ([Pass]). Up to
   [max_positions] positions a set is one immediate int ([Word]), and
   each position's successors and descendants are precomputed bitset
   rows, so a step is a few word operations per feasible position.
   Wider advertisements take arrays of such words ([Words]). They keep
   the successor lists, and a descendant step is a search over them.
   Every part starts and ends at one position (literals are non-empty,
   and a group starts and ends where its inner sequence does), so the
   automaton has fewer than two edges per position. A wide form thus
   costs O(p) memory for p positions and O(k·p) time for an XPE of k
   steps: a peer's advertisement costs in proportion to its length,
   whatever its groups. *)

open Xroute_xpath

let max_positions = 62

(* A symbol or node test as an int: 0 for [*], [Symbol.id + 1] for a
   name (the automaton's edge codes, {!Yfilter}). *)
let code_of = function Xpe.Star -> 0 | Xpe.Name n -> Xroute_support.Symbol.id n + 1

(* The position automaton: [sym.(i)] is the code of position [i]'s
   symbol. *)
type automaton = { sym : int array; succ : int list array; first : int }

let rec count_positions parts =
  List.fold_left
    (fun acc -> function
      | Adv.Lit a -> acc + Array.length a
      | Adv.Group inner -> acc + count_positions inner)
    0 parts

let automaton_of adv =
  let parts = Adv.parts adv in
  let width = count_positions parts in
  let sym = Array.make width 0 and succ = Array.make width [] in
  let link i j = succ.(i) <- j :: succ.(i) in
  let next = ref 0 in
  (* (first, last) position of a part sequence, linking each part's last
     position to the next part's first one; -1 stands for "no part
     yet". *)
  let rec sequence parts =
    List.fold_left
      (fun (first, last) part ->
        let f, l = one part in
        if first < 0 then (f, l)
        else begin
          link last f;
          (first, l)
        end)
      (-1, -1) parts
  and one = function
    | Adv.Lit a ->
      let p0 = !next in
      Array.iteri
        (fun k s ->
          sym.(p0 + k) <- code_of s;
          if k > 0 then link (p0 + k - 1) (p0 + k))
        a;
      next := p0 + Array.length a;
      (p0, !next - 1)
    | Adv.Group inner ->
      let f, l = sequence inner in
      link l f;
      (f, l)
  in
  let first, _ = sequence parts in
  { sym; succ; first }

(* What the pass needs of a compiled advertisement [t] and its position
   sets: the positions step 0 may take ([start]: the first position on
   the child axis, any position on the descendant axis) and those a
   later step may take ([step]: one step, or one or more steps, after a
   member of the set), each restricted to the positions whose symbol
   overlaps the node test of code [code]. Every empty set they return is
   [empty] itself, so the pass tests emptiness with [==]. One call a
   step: the functions of a functor's argument are called indirectly, and
   splitting [step] into the successor and the restriction made the
   one-word test 17 % slower. *)
module type POSITIONS = sig
  type t
  type set

  val empty : set
  val start : t -> desc:bool -> int -> set
  val step : t -> desc:bool -> set -> int -> set
end

(* [keys] are the XPE's semantic steps, [code * 2 + 1] on the
   descendant axis and [code * 2] on the child axis. *)
module Pass (P : POSITIONS) = struct
  let overlaps keys t =
    let k0 = keys.(0) in
    let set = ref (P.start t ~desc:(k0 land 1 = 1) (k0 lsr 1)) in
    let j = ref 1 in
    while !set != P.empty && !j < Array.length keys do
      let k = keys.(!j) in
      set := P.step t ~desc:(k land 1 = 1) !set (k lsr 1);
      incr j
    done;
    !set != P.empty
end

(* Up to [max_positions] positions: bit [i] of an int is position [i];
   [follow.(i)] and [reach.(i)] are the positions one and one-or-more
   steps after it. *)
module Word = struct
  type t = {
    sym : int array;
    stars : int; (* wildcard positions *)
    all : int;
    first : int;
    follow : int array;
    reach : int array;
  }

  type set = int

  let make (a : automaton) =
    let width = Array.length a.sym in
    let follow = Array.map (List.fold_left (fun acc j -> acc lor (1 lsl j)) 0) a.succ in
    (* Warshall's closure over bitset rows. *)
    let reach = Array.copy follow in
    for k = 0 to width - 1 do
      for i = 0 to width - 1 do
        if reach.(i) land (1 lsl k) <> 0 then reach.(i) <- reach.(i) lor reach.(k)
      done
    done;
    let stars = ref 0 in
    Array.iteri (fun i c -> if c = 0 then stars := !stars lor (1 lsl i)) a.sym;
    { sym = a.sym; stars = !stars; all = (1 lsl width) - 1; first = 1 lsl a.first; follow; reach }

  let empty = 0

  let restrict t set code =
    if code = 0 then set
    else begin
      let m = ref t.stars in
      let sym = t.sym in
      for i = 0 to Array.length sym - 1 do
        if sym.(i) = code then m := !m lor (1 lsl i)
      done;
      set land !m
    end

  let start t ~desc code = restrict t (if desc then t.all else t.first) code

  (* The union of the rows of the set's members. *)
  let step t ~desc set code =
    let table = if desc then t.reach else t.follow in
    let acc = ref 0 and s = ref set and i = ref 0 in
    while !s <> 0 do
      if !s land 1 <> 0 then acc := !acc lor table.(!i);
      s := !s lsr 1;
      incr i
    done;
    restrict t !acc code
end

(* Any number of positions: position [i] is bit [i mod max_positions] of
   word [i / max_positions]. *)
module Words = struct
  type t = automaton
  type set = int array

  let empty = [||]
  let words t = (Array.length t.sym + max_positions - 1) / max_positions
  let mem set i = set.(i / max_positions) land (1 lsl (i mod max_positions)) <> 0

  let add set i =
    let w = i / max_positions in
    set.(w) <- set.(w) lor (1 lsl (i mod max_positions))

  let iter f set =
    Array.iteri
      (fun w word ->
        let s = ref word and i = ref (w * max_positions) in
        while !s <> 0 do
          if !s land 1 <> 0 then f !i;
          s := !s lsr 1;
          incr i
        done)
      set

  let restrict t set code =
    let acc = Array.make (words t) 0 in
    iter (fun i -> if code = 0 || t.sym.(i) = 0 || t.sym.(i) = code then add acc i) set;
    if Array.for_all (fun w -> w = 0) acc then empty else acc

  let start t ~desc code =
    let set = Array.make (words t) 0 in
    if desc then Array.iteri (fun i _ -> add set i) t.sym else add set t.first;
    restrict t set code

  (* The child axis takes the members' successors; the descendant axis
     searches on from them, visiting each position once. *)
  let step t ~desc set code =
    let acc = Array.make (words t) 0 and todo = ref [] in
    let visit j =
      if not (mem acc j) then begin
        add acc j;
        if desc then todo := j :: !todo
      end
    in
    let rec drain () =
      match !todo with
      | [] -> ()
      | j :: rest ->
        todo := rest;
        List.iter visit t.succ.(j);
        drain ()
    in
    iter (fun i -> List.iter visit t.succ.(i)) set;
    drain ();
    restrict t acc code
end

module Narrow = Pass (Word)
module Wide = Pass (Words)

type form = Narrow of Word.t | Wide of Words.t
type compiled = { adv : Adv.t; form : form }

let form_of adv =
  let a = automaton_of adv in
  if Array.length a.sym <= max_positions then Narrow (Word.make a) else Wide a

(* Compiled forms are shared by value across the brokers of a process
   and held weakly: a form lives as long as some SRT entry (or other
   caller) keeps it, so the table is bounded by live advertisements.
   Brokers may run on threads of one process (the daemon tests), so the
   table is used under a lock; an entry takes it once, on its first
   test. *)
module Pool = Weak.Make (struct
  type t = compiled

  let equal a b = Adv.equal a.adv b.adv
  let hash c = Adv.hash c.adv
end)

let pool = Pool.create 256
let pool_lock = Mutex.create ()

(* The form a lookup key carries; never tested against. *)
let probe_form = Wide { sym = [||]; succ = [||]; first = 0 }

let compile adv =
  Mutex.protect pool_lock (fun () ->
      match Pool.find_opt pool { adv; form = probe_form } with
      | Some c -> c
      | None ->
        let c = { adv; form = form_of adv } in
        Pool.add pool c;
        c)

let live_compiled () = Mutex.protect pool_lock (fun () -> Pool.count pool)

type query = int array

let query xpe =
  Array.of_list
    (List.map
       (fun (s : Xpe.step) ->
         (code_of s.Xpe.test lsl 1) lor match s.Xpe.axis with Xpe.Child -> 0 | Xpe.Desc -> 1)
       (Xpe.semantic_steps xpe))

let overlaps_compiled q c =
  match c.form with Narrow t -> Narrow.overlaps q t | Wide t -> Wide.overlaps q t

let overlaps xpe adv = overlaps_compiled (query xpe) (compile adv)
