(* XPath expressions (XPEs) — the paper's subscription language.

   The supported fragment is single-path XPath with the parent-child
   operator [/], the ancestor-descendant operator [//], the wildcard [*],
   and (as the extension the paper sketches in Sec. 3.1) attribute equality
   predicates [\[@name='value'\]].

   An XPE is "absolute" when it starts with [/] or [//] and "relative"
   otherwise (e.g. [d/a]); a relative XPE may match starting at any
   position of a path. Semantically a relative XPE is equivalent to the
   absolute XPE obtained by prefixing [//], but the two are kept distinct
   because the paper's subscription-tree and covering algorithms treat them
   differently (Sec. 4.1, "Property of a Relative XPE node"). *)

module Symbol = Xroute_support.Symbol

(* Node tests carry interned names: equality on the matching hot paths
   (NFA edges, publication evaluation, covering) is int equality. *)
type nodetest = Star | Name of Symbol.t

type axis = Child | Desc

type predicate = { attr : string; value : string }

type step = { axis : axis; test : nodetest; preds : predicate list }

type t = { relative : bool; steps : step list }

let step ?(preds = []) axis test = { axis; test; preds }

let make ?(relative = false) steps =
  if steps = [] then invalid_arg "Xpe.make: an XPE needs at least one step";
  (match steps with
  | { axis = Desc; _ } :: _ when relative ->
    invalid_arg "Xpe.make: a relative XPE cannot start with //"
  | _ -> ());
  { relative; steps }

(* Node test from a plain name (interned); "*" becomes the wildcard. *)
let test_of_string n = if String.equal n "*" then Star else Name (Symbol.intern n)

(* Absolute XPE /t1/t2/... from plain names; "*" becomes the wildcard. *)
let absolute_of_names names = make (List.map (fun n -> step Child (test_of_string n)) names)

let length t = List.length t.steps

let is_relative t = t.relative
let is_absolute t = not t.relative

(* Simple XPEs contain no descendant operator (Sec. 3.2). *)
let is_simple t = List.for_all (fun s -> s.axis = Child) t.steps

let has_wildcard t = List.exists (fun s -> s.test = Star) t.steps

let has_predicates t = List.exists (fun s -> s.preds <> []) t.steps

(* Steps of the XPE as they would match positions: for a relative XPE the
   first step behaves as if introduced by [//]. *)
let semantic_steps t =
  match (t.relative, t.steps) with
  | true, first :: rest -> { first with axis = Desc } :: rest
  | _, steps -> steps

let root_name t =
  match semantic_steps t with
  | { axis = Child; test = Name n; _ } :: _ -> Some n
  | _ -> None

let test_to_string = function Star -> "*" | Name n -> Symbol.name n

(* A value holding ['] is printed inside ["..."], so the printed form
   parses back to the same predicate (the parser takes either quote). A
   value holding both quote kinds has no printed form that parses. *)
let pred_to_string { attr; value } =
  if String.contains value '\'' then Printf.sprintf "[@%s=\"%s\"]" attr value
  else Printf.sprintf "[@%s='%s']" attr value

let step_to_buf ~first ~relative buf s =
  (match (s.axis, first, relative) with
  | Child, true, true -> ()
  | Child, _, _ -> Buffer.add_char buf '/'
  | Desc, _, _ -> Buffer.add_string buf "//");
  Buffer.add_string buf (test_to_string s.test);
  List.iter (fun p -> Buffer.add_string buf (pred_to_string p)) s.preds

let to_string t =
  let buf = Buffer.create 32 in
  List.iteri (fun i s -> step_to_buf ~first:(i = 0) ~relative:t.relative buf s) t.steps;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* [String.length (to_string t)], printing nothing. A predicate prints
   as [[@attr='value']], or with double quotes: six characters around
   its two strings. *)
let printed_length t =
  let test_len = function Star -> 1 | Name n -> String.length (Symbol.name n) in
  let pred_len { attr; value } = String.length attr + String.length value + 6 in
  let len = ref 0 in
  List.iteri
    (fun i s ->
      let axis = match s.axis with Child when i = 0 && t.relative -> 0 | Child -> 1 | Desc -> 2 in
      let preds = List.fold_left (fun acc p -> acc + pred_len p) 0 s.preds in
      len := !len + axis + test_len s.test + preds)
    t.steps;
  !len

let compare_nodetest a b =
  match (a, b) with
  | Star, Star -> 0
  | Star, Name _ -> -1
  | Name _, Star -> 1
  (* [compare_name], not id order: node-test order must not depend on
     interning order (it feeds Xpe.compare and every sort built on it). *)
  | Name x, Name y -> Symbol.compare_name x y

let compare_pred a b =
  match String.compare a.attr b.attr with 0 -> String.compare a.value b.value | c -> c

let compare_step a b =
  match compare a.axis b.axis with
  | 0 -> (
    match compare_nodetest a.test b.test with
    | 0 -> List.compare compare_pred a.preds b.preds
    | c -> c)
  | c -> c

let compare a b =
  match Bool.compare a.relative b.relative with
  | 0 -> List.compare compare_step a.steps b.steps
  | c -> c

(* Identity, decided here once for every table keyed by an XPE: names
   by symbol id, predicates by their strings. Agrees with [compare]
   (interned names are equal exactly when their strings are). *)
let equal_nodetest a b =
  match (a, b) with
  | Star, Star -> true
  | Name x, Name y -> Symbol.equal x y
  | Star, Name _ | Name _, Star -> false

let equal_pred a b = String.equal a.attr b.attr && String.equal a.value b.value

let equal_axis a b =
  match (a, b) with Child, Child | Desc, Desc -> true | Child, Desc | Desc, Child -> false

let equal_step a b =
  equal_axis a.axis b.axis && equal_nodetest a.test b.test && List.equal equal_pred a.preds b.preds

let equal a b = a == b || (Bool.equal a.relative b.relative && List.equal equal_step a.steps b.steps)

let hash_mix h x = (h * 31) + x

let hash_test = function Star -> 0 | Name n -> Symbol.id n + 1

(* Folds every step, so XPEs that share a long prefix still spread. *)
let hash t =
  let step h s =
    let h = hash_mix (hash_mix h (match s.axis with Child -> 1 | Desc -> 2)) (hash_test s.test) in
    List.fold_left
      (fun h p -> hash_mix (hash_mix h (Hashtbl.hash p.attr)) (Hashtbl.hash p.value))
      h s.preds
  in
  List.fold_left step (if t.relative then 1 else 0) t.steps land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* Element names mentioned by the XPE (wildcards excluded). *)
let names t =
  List.filter_map
    (fun s -> match s.test with Name n -> Some (Symbol.name n) | Star -> None)
    t.steps

(* Split at descendant operators into maximal-length simple sub-XPEs
   (Sec. 3.2, DesExprAndAdv): "/a/b//c/*//d" gives [ [a;b]; [c;*]; [d] ],
   each as a list of steps with Child axes. The first segment of an
   absolute XPE starting with "/" is anchored at the root. *)
let split_on_desc t =
  let rec go current acc = function
    | [] -> List.rev (List.rev current :: acc)
    | ({ axis = Child; _ } as s) :: rest -> go (s :: current) acc rest
    | ({ axis = Desc; _ } as s) :: rest ->
      if current = [] then go [ { s with axis = Child } ] acc rest
      else go [ { s with axis = Child } ] (List.rev current :: acc) rest
  in
  match t.steps with
  | [] -> []
  | steps -> go [] [] steps

(* True when the first segment returned by [split_on_desc] is anchored at
   the root (the XPE is absolute and starts with [/], not [//]). *)
let first_segment_anchored t =
  match (t.relative, t.steps) with
  | true, _ -> false
  | false, { axis = Child; _ } :: _ -> true
  | false, _ -> false
