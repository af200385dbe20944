(* Advertisements (Sec. 3.1 of the paper).

   An advertisement is a system-internal, absolute XPath-like expression
   without [//], whose steps are element names or wildcards, and which may
   contain recursive patterns [(...)]+ derived from recursive DTDs:

   - non-recursive:       /t1/t2/.../tn
   - simple-recursive:    a1 (a2)+ a3
   - series-recursive:    a1 (a2)+ a3 (a4)+ a5
   - embedded-recursive:  a1 (a2 (a3)+ a4)+ a5

   where each ak is a (possibly empty) literal segment. An advertisement
   matches a publication when the pattern matches the whole path, each [+]
   group repeated one or more times. *)

type symbol = Xpe.nodetest

type part =
  | Lit of symbol array  (* a fixed-length run of names / wildcards *)
  | Group of part list  (* (...)+ : one or more repetitions *)

type t = { parts : part list }

type shape = Non_recursive | Simple_recursive | Series_recursive | Embedded_recursive

let make parts =
  let rec normalize parts =
    List.concat_map
      (function
        | Lit a when Array.length a = 0 -> []
        | Lit a -> [ Lit a ]
        | Group inner -> (
          match normalize inner with
          | [] -> []
          | inner -> [ Group inner ]))
      parts
  in
  let rec fuse = function
    | Lit a :: Lit b :: rest -> fuse (Lit (Array.append a b) :: rest)
    | part :: rest -> part :: fuse rest
    | [] -> []
  in
  let parts = fuse (normalize parts) in
  if parts = [] then invalid_arg "Adv.make: empty advertisement";
  { parts }

let parts t = t.parts

(* Non-recursive advertisement from names; "*" becomes the wildcard. *)
let of_names names =
  let to_sym = Xpe.test_of_string in
  make [ Lit (Array.of_list (List.map to_sym names)) ]

let is_group = function Group _ -> true | Lit _ -> false

let is_recursive t = List.exists is_group t.parts

let shape t =
  let rec contains_group = function
    | Lit _ -> false
    | Group inner -> List.exists (fun p -> is_group p || contains_group p) inner
  in
  let top_groups = List.filter is_group t.parts in
  match top_groups with
  | [] -> Non_recursive
  | groups when List.exists contains_group groups -> Embedded_recursive
  | [ _ ] -> Simple_recursive
  | _ -> Series_recursive

(* Minimum path length matched: every group counted at one repetition. *)
let rec part_min_length = function
  | Lit a -> Array.length a
  | Group inner -> List.fold_left (fun acc p -> acc + part_min_length p) 0 inner

let min_length t = List.fold_left (fun acc p -> acc + part_min_length p) 0 t.parts

(* Length of a non-recursive advertisement. *)
let length t =
  if is_recursive t then invalid_arg "Adv.length: recursive advertisement";
  min_length t

let symbol_to_string = Xpe.test_to_string

let to_string t =
  let buf = Buffer.create 32 in
  let rec add_part = function
    | Lit a -> Array.iter (fun s -> Buffer.add_char buf '/'; Buffer.add_string buf (symbol_to_string s)) a
    | Group inner ->
      Buffer.add_char buf '(';
      List.iter add_part inner;
      Buffer.add_string buf ")+"
  in
  List.iter add_part t.parts;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* [String.length (to_string t)], printing nothing: a symbol prints as
   "/" and its name, a group adds "(" and ")+". *)
let printed_length t =
  let rec part acc = function
    | Lit a ->
      Array.fold_left (fun acc s -> acc + 1 + String.length (symbol_to_string s)) acc a
    | Group inner -> List.fold_left part (acc + 3) inner
  in
  List.fold_left part 0 t.parts

let rec compare_part a b =
  match (a, b) with
  | Lit x, Lit y ->
    let n = compare (Array.length x) (Array.length y) in
    if n <> 0 then n
    else
      let rec cmp i =
        if i >= Array.length x then 0
        else
          match Xpe.compare_nodetest x.(i) y.(i) with 0 -> cmp (i + 1) | c -> c
      in
      cmp 0
  | Lit _, Group _ -> -1
  | Group _, Lit _ -> 1
  | Group x, Group y -> List.compare compare_part x y

let compare a b = List.compare compare_part a.parts b.parts

(* Identity, as [Xpe.equal]: names by symbol id. Agrees with
   [compare]. *)
let rec equal_part a b =
  match (a, b) with
  | Lit x, Lit y ->
    Array.length x = Array.length y && Array.for_all2 Xpe.equal_nodetest x y
  | Group x, Group y -> List.equal equal_part x y
  | Lit _, Group _ | Group _, Lit _ -> false

let equal a b = a == b || List.equal equal_part a.parts b.parts

(* Folds every symbol; a group is bracketed so "(/a)+/b" and "/a/b"
   hash apart. *)
let hash t =
  let mix h x = (h * 31) + x in
  let rec part h = function
    | Lit a ->
      Array.fold_left
        (fun h s -> mix h (match s with Xpe.Star -> 0 | Xpe.Name n -> Xroute_support.Symbol.id n + 1))
        h a
    | Group inner -> mix (List.fold_left part (mix h (-1)) inner) (-2)
  in
  List.fold_left part 0 t.parts land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* The literal steps of a non-recursive advertisement. *)
let to_symbols t =
  match t.parts with
  | [ Lit a ] -> a
  | _ -> invalid_arg "Adv.to_symbols: recursive advertisement"

exception Expansion_limit of { cap : int; count : int }

(* Number of unrollings [expand ~max_reps] would produce, computed from
   the structure alone with saturating arithmetic — so a cap can be
   enforced before any exponential list is materialized. A literal
   contributes one choice; a group contributes
   sum over k in 1..max_reps of (choices of its body)^k. *)
let count_expansions ~max_reps t =
  let sat_add a b = if a > max_int - b then max_int else a + b in
  let sat_mul a b =
    if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b
  in
  let rec count_parts parts =
    List.fold_left (fun acc p -> sat_mul acc (count_part p)) 1 parts
  and count_part = function
    | Lit _ -> 1
    | Group inner ->
      let body = count_parts inner in
      let total = ref 0 in
      let power = ref 1 in
      for _ = 1 to max_reps do
        power := sat_mul !power body;
        total := sat_add !total !power
      done;
      !total
  in
  count_parts t.parts

(* Unroll each group between 1 and [max_reps] times, yielding the matched
   fixed paths as symbol arrays. Used by the brute-force oracle and the
   imperfect-degree computation; exponential, so callers keep
   [max_reps] small and guard with [?max_paths].
   @raise Expansion_limit before materializing anything when the
   predicted unrolling count exceeds [max_paths]. *)
let expand ?max_paths ~max_reps t =
  if max_reps < 1 then invalid_arg "Adv.expand: max_reps must be >= 1";
  (match max_paths with
  | Some cap ->
    let count = count_expansions ~max_reps t in
    if count > cap then raise (Expansion_limit { cap; count })
  | None -> ());
  let rec expand_parts parts =
    match parts with
    | [] -> [ [] ]
    | Lit a :: rest ->
      let tails = expand_parts rest in
      List.map (fun tail -> Array.to_list a :: tail) tails
    | Group inner :: rest ->
      let bodies = expand_parts inner in
      let tails = expand_parts rest in
      let rec reps k acc =
        if k > max_reps then acc
        else begin
          (* all concatenations of k bodies *)
          let rec combine k =
            if k = 0 then [ [] ]
            else
              let shorter = combine (k - 1) in
              List.concat_map (fun body -> List.map (fun rest -> body @ rest) shorter) bodies
          in
          reps (k + 1) (acc @ combine k)
        end
      in
      let repeated = reps 1 [] in
      List.concat_map (fun rep -> List.map (fun tail -> rep @ tail) tails) repeated
  in
  expand_parts t.parts
  |> List.map (fun segments -> Array.of_list (List.concat segments))

(* Depth-first enumeration of the unrollings, one callback per complete
   path; never materializes more than the current path, so it can stop
   early. [acc] carries the symbol arrays emitted so far, reversed. *)
let iter_expansions ~max_reps t f =
  let rec go parts acc k =
    match parts with
    | [] -> k acc
    | Lit a :: rest -> go rest (a :: acc) k
    | Group inner :: rest ->
      let rec rep r acc =
        if r <= max_reps then
          go inner acc (fun acc' ->
              go rest acc' k;
              rep (r + 1) acc')
      in
      rep 1 acc
  in
  go t.parts [] (fun acc -> f (Array.concat (List.rev acc)))

(* Truncating variant of the cap: at most [max_paths] unrollings plus a
   flag saying whether anything was cut. Within the cap the result (and
   its order) is exactly [expand]'s; a truncated prefix comes from the
   depth-first enumeration instead. *)
let expand_capped ~max_paths ~max_reps t =
  if max_reps < 1 then invalid_arg "Adv.expand_capped: max_reps must be >= 1";
  if max_paths < 0 then invalid_arg "Adv.expand_capped: max_paths must be >= 0";
  if count_expansions ~max_reps t <= max_paths then (expand ~max_reps t, false)
  else begin
    let acc = ref [] in
    let n = ref 0 in
    (try
       iter_expansions ~max_reps t (fun path ->
           if !n >= max_paths then raise Exit;
           acc := path :: !acc;
           incr n)
     with Exit -> ());
    (List.rev !acc, true)
  end

(* Symbol-level overlap: do the two node tests admit a common element? *)
let symbols_overlap a b =
  match (a, b) with
  | Xpe.Star, _ | _, Xpe.Star -> true
  | Xpe.Name x, Xpe.Name y -> Xroute_support.Symbol.equal x y

(* Does a fixed path (bare names) belong to P(adv) for a non-recursive
   advertisement? Full-length match. *)
let non_recursive_matches_names symbols names =
  Array.length symbols = Array.length names
  && begin
    let ok = ref true in
    Array.iteri
      (fun i s ->
        match s with
        | Xpe.Star -> ()
        | Xpe.Name n ->
          if not (String.equal (Xroute_support.Symbol.name n) names.(i)) then ok := false)
      symbols;
    !ok
  end

(* Full-length match of a possibly recursive advertisement against a bare
   name path; backtracking over group repetitions. *)
let matches_names t names =
  let n = Array.length names in
  let sym_ok s i =
    match s with
    | Xpe.Star -> true
    | Xpe.Name x -> String.equal (Xroute_support.Symbol.name x) names.(i)
  in
  (* match parts starting at i; continue with [k] on the index after *)
  let rec match_parts parts i (k : int -> bool) =
    match parts with
    | [] -> k i
    | Lit a :: rest ->
      let len = Array.length a in
      let lit_ok =
        i + len <= n
        &&
        let rec check j = j >= len || (sym_ok a.(j) (i + j) && check (j + 1)) in
        check 0
      in
      lit_ok && match_parts rest (i + len) k
    | Group inner :: rest ->
      (* one or more repetitions of [inner] *)
      let rec one_rep i =
        match_parts inner i (fun j ->
            if j = i then false (* empty repetition would not terminate *)
            else match_parts rest j k || one_rep j)
      in
      one_rep i
  in
  match_parts t.parts 0 (fun i -> i = n)

(* Parser for the extended advertisement syntax, e.g. "/a/b(/c/d)+/e".
   Inverse of [to_string]; used by tests and the CLI. *)
exception Parse_error of { pos : int; message : string }

let parse input =
  let pos = ref 0 in
  let n = String.length input in
  let error message = raise (Parse_error { pos = !pos; message }) in
  let peek () = if !pos >= n then '\000' else input.[!pos] in
  let is_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '-' || c = '.'
  in
  let parse_symbol () =
    if peek () = '*' then begin
      incr pos;
      Xpe.Star
    end
    else begin
      let start = !pos in
      while !pos < n && is_name_char (peek ()) do incr pos done;
      if !pos = start then error "expected an element name or *";
      Xpe.Name (Xroute_support.Symbol.intern (String.sub input start (!pos - start)))
    end
  in
  (* parts := ( '/' symbol | '(' parts ')+' )* *)
  let rec parse_parts stop_at_paren =
    let parts = ref [] in
    let current = ref [] in
    let flush () =
      if !current <> [] then begin
        parts := Lit (Array.of_list (List.rev !current)) :: !parts;
        current := []
      end
    in
    let rec go () =
      if !pos >= n then ()
      else
        match peek () with
        | '/' ->
          incr pos;
          current := parse_symbol () :: !current;
          go ()
        | '(' ->
          incr pos;
          flush ();
          let inner = parse_parts true in
          if inner = [] then error "empty group";
          if peek () <> ')' then error "expected ')'";
          incr pos;
          if peek () <> '+' then error "expected '+' after ')'";
          incr pos;
          parts := Group inner :: !parts;
          go ()
        | ')' when stop_at_paren -> ()
        | c -> error (Printf.sprintf "unexpected character %C" c)
    in
    go ();
    flush ();
    List.rev !parts
  in
  let parts = parse_parts false in
  if !pos <> n then error "trailing input";
  make parts

let parse_opt input =
  try Some (parse input) with Parse_error _ | Invalid_argument _ -> None

(* Number of groups anywhere in the advertisement. *)
let group_count t =
  let rec go = function
    | Lit _ -> 0
    | Group inner -> 1 + List.fold_left (fun acc p -> acc + go p) 0 inner
  in
  List.fold_left (fun acc p -> acc + go p) 0 t.parts

(* Unrollings whose total number of repetition instances (summed over all
   groups, counting nested instances) stays within [budget]. Any match of
   an XPE with k steps survives in an unrolling with at most
   k + group_count instances — untouched repetitions can be removed — so
   matching only needs this bounded set. *)
let expand_budget ~budget t =
  (* Each value is (segments, remaining_budget). *)
  let rec expand_parts parts budget =
    match parts with
    | [] -> [ ([], budget) ]
    | Lit a :: rest ->
      List.map (fun (tail, b) -> (Array.to_list a :: tail, b)) (expand_parts rest budget)
    | Group inner :: rest ->
      let rec do_reps budget =
        if budget <= 0 then []
        else
          let onces = expand_parts inner (budget - 1) in
          List.concat_map
            (fun (seg1, b1) ->
              (seg1, b1)
              :: List.map (fun (segs, b2) -> (seg1 @ segs, b2)) (do_reps b1))
            onces
      in
      List.concat_map
        (fun (gsegs, b) ->
          List.map (fun (tsegs, b') -> (gsegs @ tsegs, b')) (expand_parts rest b))
        (do_reps budget)
  in
  expand_parts t.parts budget
  |> List.map (fun (segments, _) -> Array.of_list (List.concat segments))
  |> List.sort_uniq Stdlib.compare
