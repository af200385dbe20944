(* Tests for the support library: PRNG, Zipf, stats, the event heap,
   the row arena and the JSON writer. *)

open Xroute_support

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.float 1e-9

(* ---------------- Prng ---------------- *)

let test_prng_deterministic () =
  let a = Prng.create 1234 and b = Prng.create 1234 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  check cb "different seeds diverge" true (!same < 4)

let test_prng_int_bounds () =
  let p = Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    check cb "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_rejects_bad_bound () =
  let p = Prng.create 7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int p 0))

let test_prng_int_in_range () =
  let p = Prng.create 9 in
  for _ = 1 to 1000 do
    let v = Prng.int_in_range p ~lo:5 ~hi:9 in
    check cb "in closed range" true (v >= 5 && v <= 9)
  done

let test_prng_int_covers_values () =
  let p = Prng.create 3 in
  let seen = Array.make 10 false in
  for _ = 1 to 5000 do
    seen.(Prng.int p 10) <- true
  done;
  check cb "all residues reached" true (Array.for_all Fun.id seen)

let test_prng_float_bounds () =
  let p = Prng.create 11 in
  for _ = 1 to 10_000 do
    let v = Prng.unit_float p in
    check cb "unit interval" true (v >= 0.0 && v < 1.0)
  done

let test_prng_float_mean () =
  let p = Prng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.unit_float p
  done;
  let mean = !sum /. float_of_int n in
  check cb "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_prng_bernoulli_extremes () =
  let p = Prng.create 17 in
  for _ = 1 to 100 do
    check cb "p=0 never" false (Prng.bernoulli p 0.0)
  done;
  for _ = 1 to 100 do
    check cb "p=1 always" true (Prng.bernoulli p 1.0)
  done

let test_prng_split_independent () =
  let p = Prng.create 21 in
  let q = Prng.split p in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 p = Prng.next_int64 q then incr same
  done;
  check cb "split streams diverge" true (!same < 4)

let test_prng_copy () =
  let p = Prng.create 23 in
  ignore (Prng.next_int64 p);
  let q = Prng.copy p in
  check Alcotest.int64 "copy continues identically" (Prng.next_int64 p) (Prng.next_int64 q)

let test_prng_shuffle_permutation () =
  let p = Prng.create 29 in
  let arr = Array.init 50 Fun.id in
  let shuffled = Prng.shuffle p arr in
  let sorted = Array.copy shuffled in
  Array.sort compare sorted;
  check (Alcotest.array ci) "same multiset" arr sorted;
  check cb "original untouched" true (arr = Array.init 50 Fun.id)

let test_prng_choose () =
  let p = Prng.create 31 in
  for _ = 1 to 100 do
    let v = Prng.choose p [| 1; 2; 3 |] in
    check cb "member" true (List.mem v [ 1; 2; 3 ])
  done

let test_prng_exponential_positive () =
  let p = Prng.create 37 in
  for _ = 1 to 1000 do
    check cb "non-negative" true (Prng.exponential p ~mean:2.0 >= 0.0)
  done

let test_prng_pareto_min () =
  let p = Prng.create 41 in
  for _ = 1 to 1000 do
    check cb "at least xm" true (Prng.pareto p ~alpha:1.5 ~xm:0.4 >= 0.4)
  done

(* ---------------- Zipf ---------------- *)

let test_zipf_uniform () =
  let z = Zipf.create ~n:4 ~exponent:0.0 in
  for i = 0 to 3 do
    check cb "uniform mass" true (abs_float (Zipf.probability z i -. 0.25) < 1e-9)
  done

let test_zipf_mass_sums_to_one () =
  let z = Zipf.create ~n:10 ~exponent:1.2 in
  let total = ref 0.0 in
  for i = 0 to 9 do
    total := !total +. Zipf.probability z i
  done;
  check cb "sums to 1" true (abs_float (!total -. 1.0) < 1e-9)

let test_zipf_monotone () =
  let z = Zipf.create ~n:8 ~exponent:1.0 in
  for i = 0 to 6 do
    check cb "non-increasing" true (Zipf.probability z i >= Zipf.probability z (i + 1) -. 1e-12)
  done

let test_zipf_sample_range () =
  let z = Zipf.create ~n:5 ~exponent:1.5 in
  let p = Prng.create 55 in
  for _ = 1 to 5000 do
    let v = Zipf.sample z p in
    check cb "in support" true (v >= 0 && v < 5)
  done

let test_zipf_sample_skew () =
  let z = Zipf.create ~n:10 ~exponent:2.0 in
  let p = Prng.create 57 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Zipf.sample z p in
    counts.(v) <- counts.(v) + 1
  done;
  check cb "rank 0 dominates" true (counts.(0) > counts.(9) * 4)

let test_zipf_single () =
  let z = Zipf.create ~n:1 ~exponent:1.0 in
  let p = Prng.create 59 in
  check ci "only rank" 0 (Zipf.sample z p);
  check cf "prob 1" 1.0 (Zipf.probability z 0)

(* ---------------- Json ---------------- *)

(* [to_string] is read back to an equal value: numbers to the last bit
   (the bench report re-emits records it did not produce), strings with
   quotes, backslashes, control bytes and UTF-8. *)
let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "q\"uote\\back\nline\001ctl \xc3\xa9");
        ("nums", Json.Arr (List.map (fun f -> Json.Num f)
                   [ 0.0; -0.5; 0.1; 1.0 /. 3.0; 0.0895217; 9007199254740993.0; 1e300; 5e-324 ]));
        ("ints", Json.Arr [ Json.Num 1_000_000.0; Json.Num (-7.0) ]);
        ("flags", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("nested", Json.Obj [ ("empty", Json.Obj []); ("list", Json.Arr []) ]);
      ]
  in
  check cb "parse (to_string v) = v" true (Json.parse (Json.to_string v) = Ok v);
  check Alcotest.string "integers and short decimals stay short" "[1000000,0.0895217,-7]"
    (Json.to_string (Json.Arr [ Json.Num 1e6; Json.Num 0.0895217; Json.Num (-7.0) ]));
  check Alcotest.string "non-finite numbers are null" "[null,null]"
    (Json.to_string (Json.Arr [ Json.Num nan; Json.Num infinity ]))

(* ---------------- Stats ---------------- *)

let test_stats_mean () =
  check cf "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check cf "empty" 0.0 (Stats.mean [||])

let test_stats_stddev () =
  check cf "constant" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  let sd = Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check cb "known value" true (abs_float (sd -. 2.13808993) < 1e-6)

let test_stats_percentile () =
  let data = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check cf "p50" 50.0 (Stats.percentile data 0.5);
  check cf "p99" 99.0 (Stats.percentile data 0.99);
  check cf "p100" 100.0 (Stats.percentile data 1.0)

let test_stats_summary () =
  let s = Stats.summarize [| 3.0; 1.0; 2.0 |] in
  check ci "count" 3 s.Stats.count;
  check cf "min" 1.0 s.Stats.min;
  check cf "max" 3.0 s.Stats.max;
  check cf "mean" 2.0 s.Stats.mean

let test_stats_reduction () =
  check cf "90 percent" 90.0 (Stats.reduction ~before:100.0 ~after:10.0);
  check cf "zero before" 0.0 (Stats.reduction ~before:0.0 ~after:10.0)

(* ---------------- Equeue (simulator event heap) ---------------- *)

(* Pushed actions record a tag when fired, so pop order is observable. *)
let tagged fired tag () = fired := tag :: !fired

let eq_drain fired q =
  let rec go acc =
    let time = Equeue.min_time q in
    if Equeue.pop_with q (fun t act ->
           act ();
           match time with
           | Some t' when t' = t -> ()
           | _ -> Alcotest.fail "min_time disagrees with popped time")
    then
      match !fired with
      | tag :: _ -> go (tag :: acc)
      | [] -> Alcotest.fail "popped action did not fire"
    else List.rev acc
  in
  go []

let test_equeue_empty () =
  let q = Equeue.create () in
  check cb "is_empty" true (Equeue.is_empty q);
  check ci "length" 0 (Equeue.length q);
  check (Alcotest.option cf) "min_time" None (Equeue.min_time q);
  check cb "pop on empty" false (Equeue.pop_with q (fun _ _ -> Alcotest.fail "called"))

let test_equeue_orders_by_time () =
  let q = Equeue.create () in
  let fired = ref [] in
  List.iteri
    (fun i t -> Equeue.push q ~time:t (tagged fired i))
    [ 5.0; 1.0; 9.0; 3.0; 7.0; 0.5; 4.0 ];
  (* indices sorted by their times: 0.5 1 3 4 5 7 9 *)
  check (Alcotest.list ci) "time order" [ 5; 1; 3; 6; 0; 4; 2 ] (eq_drain fired q)

(* Equal timestamps pop in insertion order — the covering race in the
   overlay (an unsubscribe overtaking its subscribe on a FIFO link)
   depends on this. *)
let test_equeue_fifo_stability () =
  let q = Equeue.create ~capacity:4 () in
  let fired = ref [] in
  for i = 0 to 99 do
    Equeue.push q ~time:1.0 (tagged fired i)
  done;
  Equeue.push q ~time:0.5 (tagged fired 1000);
  check (Alcotest.list ci) "FIFO under ties"
    (1000 :: List.init 100 Fun.id)
    (eq_drain fired q);
  (* and the assigned sequence numbers are strictly increasing in
     to_sorted_list order for a fresh tie-heavy queue *)
  for i = 0 to 49 do
    Equeue.push q ~time:2.0 (tagged fired i)
  done;
  let seqs = List.map (fun (_, s, _) -> s) (Equeue.to_sorted_list q) in
  check cb "seqs strictly increasing" true
    (List.for_all2 (fun a b -> a < b) (List.filteri (fun i _ -> i < 49) seqs) (List.tl seqs))

let test_equeue_to_sorted_list_nondestructive () =
  let q = Equeue.create () in
  List.iter (fun t -> Equeue.push q ~time:t ignore) [ 3.0; 1.0; 2.0 ];
  let times = List.map (fun (t, _, _) -> t) (Equeue.to_sorted_list q) in
  check (Alcotest.list cf) "pop order" [ 1.0; 2.0; 3.0 ] times;
  check ci "queue untouched" 3 (Equeue.length q)

let test_equeue_clear_and_reuse () =
  let q = Equeue.create ~capacity:2 () in
  for i = 0 to 9 do
    Equeue.push q ~time:(float_of_int i) ignore
  done;
  Equeue.clear q;
  check cb "cleared" true (Equeue.is_empty q);
  let fired = ref [] in
  Equeue.push q ~time:2.0 (tagged fired 2);
  Equeue.push q ~time:1.0 (tagged fired 1);
  check (Alcotest.list ci) "reusable after clear" [ 1; 2 ] (eq_drain fired q)

(* Seeded random insert/pop interleavings against a sorted-list oracle.
   Times are drawn from a tiny set so timestamp ties are the common
   case, exercising the FIFO tie-break continuously. A third of the pops
   push from inside [pop_with], as the simulator's handlers do:
   zero-delay events at the popped time (they must queue behind its
   equal-time peers) and events one tick later. The queue starts at
   capacity 1, so some of those pushes grow the heap mid-pop. *)
let test_equeue_random_vs_oracle () =
  List.iter
    (fun seed ->
      let p = Prng.create seed in
      let q = Equeue.create ~capacity:1 () in
      let oracle = ref [] (* (time, push index), kept in pop order *) in
      let fired = ref [] in
      let pushes = ref 0 in
      let nested_pushes = ref 0 in
      (* stable insert: after all entries with time <= t *)
      let rec ins t tag = function
        | [] -> [ (t, tag) ]
        | (t0, g0) :: rest when t0 <= t -> (t0, g0) :: ins t tag rest
        | later -> (t, tag) :: later
      in
      let push time =
        let tag = !pushes in
        incr pushes;
        Equeue.push q ~time (tagged fired tag);
        oracle := ins time tag !oracle
      in
      for _ = 1 to 3000 do
        if Prng.bool p || !oracle = [] then push (float_of_int (Prng.int p 8))
        else begin
          let expect_t, expect_tag = List.hd !oracle in
          oracle := List.tl !oracle;
          let nested = if Prng.int p 3 = 0 then Prng.int p 6 else 0 in
          let ok =
            Equeue.pop_with q (fun t act ->
                act ();
                if t <> expect_t then
                  Alcotest.failf "seed %d: popped time %g, oracle %g" seed t expect_t;
                for _ = 1 to nested do
                  incr nested_pushes;
                  push (t +. float_of_int (Prng.int p 2))
                done)
          in
          check cb "pop succeeded" true ok;
          match !fired with
          | tag :: _ ->
            if tag <> expect_tag then
              Alcotest.failf "seed %d: popped tag %d, oracle %d (FIFO violation)" seed tag
                expect_tag
          | [] -> Alcotest.fail "nothing fired"
        end
      done;
      check cb "some pops pushed" true (!nested_pushes > 0);
      check ci "length agrees with oracle" (List.length !oracle) (Equeue.length q);
      check (Alcotest.list ci) "drain agrees with oracle" (List.map snd !oracle)
        (eq_drain fired q))
    [ 7; 42; 1234 ]

(* ---------------- Equeue heap mechanics ---------------- *)

(* The simulator's only heap is [Equeue]; these exercise its 4-ary sift
   paths directly: sizes across several tree levels, growth, and pushes
   made while a pop is in progress. *)

let test_heap_empty () =
  let q = Equeue.create ~capacity:2 () in
  List.iter (fun t -> Equeue.push q ~time:t ignore) [ 2.0; 1.0; 3.0 ];
  while Equeue.pop_with q (fun _ act -> act ()) do
    ()
  done;
  check cb "drained queue is empty" true (Equeue.is_empty q);
  check ci "length" 0 (Equeue.length q);
  check (Alcotest.option cf) "min_time" None (Equeue.min_time q);
  check cb "pop on drained" false (Equeue.pop_with q (fun _ _ -> Alcotest.fail "called"))

let test_heap_sorts () =
  let q = Equeue.create () in
  let fired = ref [] in
  List.iter
    (fun i -> Equeue.push q ~time:(float_of_int i) (tagged fired i))
    [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ];
  check (Alcotest.list ci) "ascending" (List.init 10 Fun.id) (eq_drain fired q)

let test_heap_duplicates () =
  let q = Equeue.create () in
  List.iter (fun t -> Equeue.push q ~time:t ignore) [ 2.0; 2.0; 1.0; 1.0; 3.0 ];
  check ci "length" 5 (Equeue.length q);
  check (Alcotest.list cf) "dups kept" [ 1.0; 1.0; 2.0; 2.0; 3.0 ]
    (List.map (fun (t, _, _) -> t) (Equeue.to_sorted_list q))

(* Growth from a tiny capacity, both between pops and inside one: an
   action that pushes past the current capacity while [pop_with] runs. *)
let test_heap_growth () =
  let q = Equeue.create ~capacity:2 () in
  for i = 1000 downto 1 do
    Equeue.push q ~time:(float_of_int i) ignore
  done;
  check ci "all stored" 1000 (Equeue.length q);
  check (Alcotest.option cf) "min" (Some 1.0) (Equeue.min_time q);
  let q = Equeue.create ~capacity:1 () in
  let fired = ref [] in
  Equeue.push q ~time:0.0 (fun () ->
      fired := -1 :: !fired;
      for i = 99 downto 0 do
        Equeue.push q ~time:(float_of_int i) (tagged fired i)
      done);
  check (Alcotest.list ci) "pushed mid-pop, popped in order" (-1 :: List.init 100 Fun.id)
    (eq_drain fired q)

let test_heap_to_list_preserves () =
  let q = Equeue.create () in
  List.iter (fun t -> Equeue.push q ~time:t ignore) [ 4.0; 2.0; 6.0; 1.0 ];
  ignore (Equeue.pop_with q (fun _ _ -> ()));
  ignore (Equeue.to_sorted_list q);
  check ci "untouched" 3 (Equeue.length q);
  check (Alcotest.option cf) "min kept" (Some 2.0) (Equeue.min_time q)

let test_heap_clear () =
  let q = Equeue.create ~capacity:2 () in
  for i = 0 to 40 do
    Equeue.push q ~time:(float_of_int (40 - i)) ignore
  done;
  ignore (Equeue.pop_with q (fun _ _ -> ()));
  Equeue.clear q;
  check cb "cleared" true (Equeue.is_empty q);
  check (Alcotest.option cf) "no min" None (Equeue.min_time q)

(* Pushes from inside a pop, as simulator handlers make them: a
   zero-delay event at the popped time queues behind the equal-time
   events already waiting, and ahead of later ones. *)
let test_heap_interleaved () =
  let q = Equeue.create () in
  let fired = ref [] in
  Equeue.push q ~time:5.0 (tagged fired 5);
  Equeue.push q ~time:1.0 (fun () ->
      fired := 1 :: !fired;
      Equeue.push q ~time:1.0 (tagged fired 12));
  Equeue.push q ~time:1.0 (tagged fired 11);
  Equeue.push q ~time:3.0 (tagged fired 3);
  check (Alcotest.list ci) "zero-delay push after equal-time peers" [ 1; 11; 12; 3; 5 ]
    (eq_drain fired q)

(* Integer keys over a wide range against a min-of-multiset model: the
   tie-free counterpart of the oracle test above. *)
let test_heap_random_model () =
  let p = Prng.create 99 in
  let q = Equeue.create ~capacity:1 () in
  let model = ref [] in
  for _ = 1 to 2000 do
    if Prng.bool p || !model = [] then begin
      let v = Prng.int p 1000 in
      Equeue.push q ~time:(float_of_int v) ignore;
      model := v :: !model
    end
    else begin
      let expected = List.fold_left min max_int !model in
      check cb "pop succeeded" true
        (Equeue.pop_with q (fun t _ -> check cf "model min" (float_of_int expected) t));
      let rec remove_one = function
        | [] -> []
        | x :: rest -> if x = expected then rest else x :: remove_one rest
      in
      model := remove_one !model
    end
  done

(* ---------------- Pool (arena) ---------------- *)

let test_arena_rows_and_growth () =
  (* chunk_rows=4 forces several chunk boundaries *)
  let a = Pool.Arena.create ~chunk_rows:4 () in
  for i = 0 to 25 do
    let idx = Pool.Arena.add a i (i * 10) (float_of_int i /. 2.0) in
    check ci "dense index" i idx
  done;
  check ci "length" 26 (Pool.Arena.length a);
  for i = 0 to 25 do
    check ci "get_a" i (Pool.Arena.get_a a i);
    check ci "get_b" (i * 10) (Pool.Arena.get_b a i);
    check cf "get_time" (float_of_int i /. 2.0) (Pool.Arena.get_time a i)
  done;
  let seen = ref [] in
  Pool.Arena.iter a (fun x _ _ -> seen := x :: !seen);
  check (Alcotest.list ci) "iter in insertion order" (List.init 26 Fun.id) (List.rev !seen);
  (match Pool.Arena.get_a a 26 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-bounds row not rejected")

let test_arena_digest_incremental () =
  let a = Pool.Arena.create ~chunk_rows:8 () in
  let h = ref Pool.Arena.digest_empty in
  let rows = [ (1, 2, 0.5); (3, 4, 1.5); (5, 6, 2.5); (1, 2, 0.5) ] in
  List.iter
    (fun (x, y, t) ->
      ignore (Pool.Arena.add a x y t);
      h := Pool.Arena.digest_row !h x y t)
    rows;
  check Alcotest.int64 "incremental = whole-arena"
    (Pool.Arena.digest a)
    (Pool.Arena.digest_close !h (List.length rows));
  (* order sensitivity: swapping two rows must change the digest *)
  let b = Pool.Arena.create ~chunk_rows:8 () in
  List.iter
    (fun (x, y, t) -> ignore (Pool.Arena.add b x y t))
    [ (3, 4, 1.5); (1, 2, 0.5); (5, 6, 2.5); (1, 2, 0.5) ];
  check cb "order-sensitive" false (Pool.Arena.digest a = Pool.Arena.digest b);
  Pool.Arena.clear a;
  check ci "clear empties" 0 (Pool.Arena.length a);
  check Alcotest.int64 "empty digest" (Pool.Arena.digest_close Pool.Arena.digest_empty 0)
    (Pool.Arena.digest a)

let () =
  Alcotest.run "support"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_prng_int_rejects_bad_bound;
          Alcotest.test_case "int_in_range" `Quick test_prng_int_in_range;
          Alcotest.test_case "int covers values" `Quick test_prng_int_covers_values;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "float mean" `Quick test_prng_float_mean;
          Alcotest.test_case "bernoulli extremes" `Quick test_prng_bernoulli_extremes;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "choose" `Quick test_prng_choose;
          Alcotest.test_case "exponential positive" `Quick test_prng_exponential_positive;
          Alcotest.test_case "pareto min" `Quick test_prng_pareto_min;
        ] );
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          Alcotest.test_case "to_list preserves" `Quick test_heap_to_list_preserves;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "random model" `Quick test_heap_random_model;
        ] );
      ( "equeue",
        [
          Alcotest.test_case "empty" `Quick test_equeue_empty;
          Alcotest.test_case "orders by time" `Quick test_equeue_orders_by_time;
          Alcotest.test_case "FIFO stability" `Quick test_equeue_fifo_stability;
          Alcotest.test_case "to_sorted_list nondestructive" `Quick
            test_equeue_to_sorted_list_nondestructive;
          Alcotest.test_case "clear and reuse" `Quick test_equeue_clear_and_reuse;
          Alcotest.test_case "random vs oracle" `Quick test_equeue_random_vs_oracle;
        ] );
      ( "pool",
        [
          Alcotest.test_case "arena rows and growth" `Quick test_arena_rows_and_growth;
          Alcotest.test_case "arena digest incremental" `Quick test_arena_digest_incremental;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "uniform" `Quick test_zipf_uniform;
          Alcotest.test_case "mass sums to one" `Quick test_zipf_mass_sums_to_one;
          Alcotest.test_case "monotone" `Quick test_zipf_monotone;
          Alcotest.test_case "sample range" `Quick test_zipf_sample_range;
          Alcotest.test_case "sample skew" `Quick test_zipf_sample_skew;
          Alcotest.test_case "single rank" `Quick test_zipf_single;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "reduction" `Quick test_stats_reduction;
        ] );
      ("json", [ Alcotest.test_case "writer round trip" `Quick test_json_round_trip ]);
    ]
