(* Tests for the hash-consed symbol table: interning properties, the
   two orderings, a seeded stress run, and determinism with respect to
   which thread created a symbol. The table is global and append-only,
   so the tests assert relations between symbols, never absolute ids. *)

open Xroute_support

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let test_intern_roundtrip () =
  let a = Symbol.intern "elem-roundtrip" in
  check cs "name inverts intern" "elem-roundtrip" (Symbol.name a);
  let b = Symbol.intern "elem-roundtrip" in
  check cb "same string, same symbol" true (Symbol.equal a b);
  check ci "same id" (Symbol.id a) (Symbol.id b);
  check ci "compare 0" 0 (Symbol.compare a b);
  check ci "compare_name 0" 0 (Symbol.compare_name a b)

let test_distinct_strings_distinct_symbols () =
  let a = Symbol.intern "distinct-one" in
  let b = Symbol.intern "distinct-two" in
  check cb "distinct symbols" false (Symbol.equal a b);
  check cb "distinct ids" false (Symbol.id a = Symbol.id b);
  check cb "hash of equal symbols agrees" true (Symbol.hash a = Symbol.hash (Symbol.intern "distinct-one"))

let test_find () =
  check cb "absent before intern" true (Symbol.find "never-interned-name" = None);
  let a = Symbol.intern "found-after-intern" in
  (match Symbol.find "found-after-intern" with
  | Some b -> check cb "find returns the interned symbol" true (Symbol.equal a b)
  | None -> Alcotest.fail "find lost an interned name")

(* compare_name must order by the original strings whatever order the
   symbols were created in — it is the ordering routing decisions are
   allowed to observe. *)
let test_compare_name_is_creation_order_free () =
  (* intern in reverse lexicographic order on purpose *)
  let z = Symbol.intern "order-zz" in
  let m = Symbol.intern "order-mm" in
  let a = Symbol.intern "order-aa" in
  check cb "aa < mm" true (Symbol.compare_name a m < 0);
  check cb "mm < zz" true (Symbol.compare_name m z < 0);
  check cb "aa < zz" true (Symbol.compare_name a z < 0);
  (* creation order says the opposite *)
  check cb "creation order differs" true (Symbol.compare z a < 0);
  let sorted = List.sort Symbol.compare_name [ z; a; m ] in
  check
    (Alcotest.list cs)
    "sort by compare_name = sort by String.compare"
    [ "order-aa"; "order-mm"; "order-zz" ]
    (List.map Symbol.name sorted)

let test_intern_path () =
  let path = [| "ip-a"; "ip-b"; "ip-a"; "ip-c" |] in
  let syms = Symbol.intern_path path in
  check ci "length preserved" (Array.length path) (Array.length syms);
  Array.iteri (fun i s -> check cs "elementwise round trip" path.(i) (Symbol.name s)) syms;
  check cb "repeats share the symbol" true (Symbol.equal syms.(0) syms.(2))

(* A slice interns as the string it spells, wherever it sits. *)
let test_intern_sub () =
  let line = "xx|sub-feed,sub-item,sub-feed|yy" in
  let a = Symbol.intern_sub line 3 8 in
  check cs "slice name" "sub-feed" (Symbol.name a);
  check cb "same as intern" true (Symbol.equal a (Symbol.intern "sub-feed"));
  check cb "same slice elsewhere, same symbol" true (Symbol.equal a (Symbol.intern_sub line 21 8));
  check cb "sub-item not interned yet" true (Symbol.find "sub-item" = None);
  let split = Symbol.intern_split line 3 26 ',' in
  check (Alcotest.list cs) "split names" [ "sub-feed"; "sub-item"; "sub-feed" ]
    (Array.to_list (Array.map Symbol.name split));
  check cb "split = intern_path" true (split = Symbol.intern_path [| "sub-feed"; "sub-item"; "sub-feed" |]);
  check cb "find after split" true (Symbol.find "sub-item" = Some split.(1));
  check cs "empty slice" "" (Symbol.name (Symbol.intern_sub line 5 0));
  List.iter
    (fun (pos, len) ->
      match Symbol.intern_sub line pos len with
      | _ -> Alcotest.failf "slice %d+%d accepted" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 2); (30, 4); (0, -1); (33, 1) ]

(* Minor words per call of [f], over [n] calls after one warm-up call. *)
let words_per_call ?(n = 10_000) f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* A known name costs no allocation; a known path costs only the
   [syms] array (a header word plus one word per step). *)
let test_intern_known_allocates_nothing () =
  let line = "1|P|1.0.49.1||feed,sec3,item,body,para|,,,," in
  let pos = 13 and len = 26 in
  ignore (Symbol.intern_split line pos len ',');
  let w_name = words_per_call (fun () -> Symbol.intern_sub line pos 4) in
  let w_path = words_per_call (fun () -> Symbol.intern_split line pos len ',') in
  Printf.printf "intern_sub: %.2f words a name; intern_split: %.2f words a 5-step path\n" w_name
    w_path;
  if w_name > 0.01 then Alcotest.failf "intern_sub of a known name allocates %.2f words" w_name;
  if w_path > 6.01 then Alcotest.failf "intern_split of a known path allocates %.2f words" w_path

(* Seeded 10k-name stress: intern everything, then re-intern in a
   different order and confirm ids are stable, names round-trip, and
   distinct names stayed distinct. *)
let test_stress_10k () =
  let prng = Prng.create 987123 in
  let n = 10_000 in
  let names =
    Array.init n (fun i -> Printf.sprintf "stress-%d-%d" i (Prng.int prng 1_000_000))
  in
  let before = Symbol.count () in
  let syms = Array.map Symbol.intern names in
  check cb "count grew by at most n" true (Symbol.count () - before <= n);
  Array.iteri (fun i s -> if Symbol.name s <> names.(i) then Alcotest.failf "round trip lost %s" names.(i)) syms;
  (* re-intern in shuffled order: same symbols *)
  let order = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Prng.int prng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  Array.iter
    (fun i ->
      if not (Symbol.equal (Symbol.intern names.(i)) syms.(i)) then
        Alcotest.failf "re-intern moved %s" names.(i))
    order;
  (* distinctness: ids are a permutation-free injection *)
  let ids = Hashtbl.create n in
  let dup = ref 0 in
  let seen_name = Hashtbl.create n in
  Array.iteri
    (fun i s ->
      if not (Hashtbl.mem seen_name names.(i)) then begin
        Hashtbl.add seen_name names.(i) ();
        if Hashtbl.mem ids (Symbol.id s) then incr dup else Hashtbl.add ids (Symbol.id s) ()
      end)
    syms;
  check ci "no two distinct names share an id" 0 !dup

(* Four threads race to intern an overlapping name set, each in its own
   order. Whichever thread created a symbol, every thread must observe
   the same id for the same string, and [name] (lock-free) must answer
   correctly while interning is in flight. *)
let test_thread_determinism () =
  let n = 1_000 in
  let names = Array.init n (Printf.sprintf "thread-sym-%d") in
  let results = Array.init 4 (fun _ -> Array.make n (-1)) in
  let worker t =
    let prng = Prng.create (1000 + t) in
    let order = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Prng.int prng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
    Array.iter
      (fun i ->
        let s = Symbol.intern names.(i) in
        (* lock-free read while other threads keep interning *)
        if Symbol.name s <> names.(i) then failwith "name raced";
        results.(t).(i) <- Symbol.id s)
      order
  in
  let threads = List.init 4 (fun t -> Thread.create worker t) in
  List.iter Thread.join threads;
  for i = 0 to n - 1 do
    for t = 1 to 3 do
      if results.(t).(i) <> results.(0).(i) then
        Alcotest.failf "threads disagree on %s: %d vs %d" names.(i) results.(0).(i)
          results.(t).(i)
    done
  done;
  (* and the table agrees with all of them *)
  for i = 0 to n - 1 do
    if Symbol.id (Symbol.intern names.(i)) <> results.(0).(i) then
      Alcotest.failf "main thread disagrees on %s" names.(i)
  done

let () =
  Alcotest.run "symbol"
    [
      ( "interning",
        [
          Alcotest.test_case "round trip" `Quick test_intern_roundtrip;
          Alcotest.test_case "distinct" `Quick test_distinct_strings_distinct_symbols;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "compare_name order" `Quick test_compare_name_is_creation_order_free;
          Alcotest.test_case "intern_path" `Quick test_intern_path;
          Alcotest.test_case "intern_sub and intern_split" `Quick test_intern_sub;
          Alcotest.test_case "known names allocate nothing" `Quick
            test_intern_known_allocates_nothing;
        ] );
      ( "stress",
        [
          Alcotest.test_case "10k names" `Quick test_stress_10k;
          Alcotest.test_case "thread determinism" `Quick test_thread_determinism;
        ] );
    ]
