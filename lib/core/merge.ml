(* Merging of XPEs (Sec. 4.3 of the paper).

   Subscriptions with no covering relation can be replaced by a more
   general "merger" covering their union, shrinking the forwarded routing
   state at the price of false positives inside the network. Rules:

   - Rule 1: one differing node test         -> wildcard at that step;
   - Rule 2: a differing test and a
             differing operator              -> wildcard + [//];
   - Rule 3: equal prefix and suffix,
             arbitrary differing middles     -> prefix [//] suffix.

   The imperfect degree of a merger m over originals s1..sn is
   |P(m) - ∪P(si)| / |P(m)| measured against a path universe derived
   from the publisher's DTD (the paper assumes brokers know the DTD).
   Degree 0 means a perfect merger: no false positives.

   Candidate discovery is hash-based so that merging scales to the
   paper's 100k-subscription tables: each XPE is bucketed under keys with
   one step blanked (rule 1), a test and an operator blanked (rule 2), or
   only a prefix/suffix kept (rule 3); buckets of size >= 2 yield
   candidates. Every candidate is verified to cover its originals with
   the exact containment oracle before being offered. *)

open Xroute_xpath

type merger = {
  xpe : Xpe.t;  (* the merged subscription *)
  originals : Xpe.t list;  (* pairwise distinct, all covered by [xpe] *)
  degree : float;  (* imperfect degree over the universe supplied *)
}

(* ------------------------------------------------------------------ *)
(* Imperfect degree                                                    *)
(* ------------------------------------------------------------------ *)

(* |P(m) - ∪P(si)| / |P(m)| over the given finite universe of paths.
   Returns 0 when the merger matches nothing in the universe (an empty
   estimate is treated as perfect; callers supply representative
   universes). *)
let imperfect_degree ~universe merger_xpe originals =
  let matched = ref 0 and extra = ref 0 in
  List.iter
    (fun path ->
      if Xpe_eval.matches_names merger_xpe path then begin
        incr matched;
        if not (List.exists (fun s -> Xpe_eval.matches_names s path) originals) then incr extra
      end)
    universe;
  if !matched = 0 then 0.0 else float_of_int !extra /. float_of_int !matched

(* ------------------------------------------------------------------ *)
(* Candidate discovery                                                 *)
(* ------------------------------------------------------------------ *)

(* Canonical string for a step, with holes. *)
let step_key (s : Xpe.step) =
  let axis = match s.axis with Xpe.Child -> "/" | Xpe.Desc -> "//" in
  let test = Xpe.test_to_string s.test in
  let preds = String.concat "" (List.map Xpe.pred_to_string s.preds) in
  axis ^ test ^ preds

let xpe_key_blanking xpe ~blank_test ~blank_axis =
  let prefix = if Xpe.is_relative xpe then "rel:" else "abs:" in
  prefix
  ^ String.concat ";"
      (List.mapi
         (fun i (s : Xpe.step) ->
           let axis =
             if Some i = blank_axis then "?" else match s.axis with Xpe.Child -> "/" | Xpe.Desc -> "//"
           in
           let test =
             if Some i = blank_test then "?"
             else Xpe.test_to_string s.test
           in
           let preds = String.concat "" (List.map Xpe.pred_to_string s.preds) in
           axis ^ test ^ preds)
         xpe.Xpe.steps)

(* Build the merged XPE for a bucket: blanked test becomes a wildcard,
   blanked axis becomes [//] (unless every member agrees). First-step
   axis of a relative XPE stays Child by construction. *)
let merged_of_bucket ~blank_test ~blank_axis members =
  match members with
  | [] | [ _ ] -> None
  | first :: _ ->
    let steps =
      List.mapi
        (fun i (s : Xpe.step) ->
          let s = if Some i = blank_test then { s with Xpe.test = Xpe.Star; preds = [] } else s in
          let s =
            if Some i = blank_axis && i > 0 then { s with Xpe.axis = Xpe.Desc } else s
          in
          s)
        first.Xpe.steps
    in
    (try Some (Xpe.make ~relative:(Xpe.is_relative first) steps) with Invalid_argument _ -> None)

module Xpe_set = Set.Make (Xpe)

(* Rule 1 and rule 2 candidates via blanking keys. *)
let blanking_candidates xpes =
  let table : (string, Xpe.t list) Hashtbl.t = Hashtbl.create 1024 in
  let add key xpe =
    let existing = Option.value ~default:[] (Hashtbl.find_opt table key) in
    Hashtbl.replace table key (xpe :: existing)
  in
  List.iter
    (fun xpe ->
      let len = Xpe.length xpe in
      for i = 0 to len - 1 do
        add (Printf.sprintf "t%d|%s" i (xpe_key_blanking xpe ~blank_test:(Some i) ~blank_axis:None)) xpe;
        for j = 1 to len - 1 do
          add
            (Printf.sprintf "t%da%d|%s" i j
               (xpe_key_blanking xpe ~blank_test:(Some i) ~blank_axis:(Some j)))
            xpe
        done
      done)
    xpes;
  Hashtbl.fold
    (fun key members acc ->
      let distinct = Xpe_set.elements (Xpe_set.of_list members) in
      if List.length distinct < 2 then acc
      else begin
        (* Recover the blanked positions from the key. *)
        let blank_test, blank_axis =
          try Scanf.sscanf key "t%da%d|" (fun i j -> (Some i, Some j))
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
            try Scanf.sscanf key "t%d|" (fun i -> (Some i, None))
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> (None, None))
        in
        match merged_of_bucket ~blank_test ~blank_axis distinct with
        | Some merged when not (List.exists (Xpe.equal merged) distinct) ->
          (merged, distinct) :: acc
        | _ -> acc
      end)
    table []

(* Rule 3 candidates: bucket by (prefix, suffix) around a blanked-out
   middle; the merger replaces the middle with a descendant operator. *)
let rule3_candidates xpes =
  let table : (string, Xpe.t list) Hashtbl.t = Hashtbl.create 1024 in
  let add key xpe =
    let existing = Option.value ~default:[] (Hashtbl.find_opt table key) in
    Hashtbl.replace table key (xpe :: existing)
  in
  List.iter
    (fun xpe ->
      let steps = Array.of_list xpe.Xpe.steps in
      let len = Array.length steps in
      (* prefix length p >= 1, suffix length s >= 1, middle >= 1 *)
      for p = 1 to len - 2 do
        for s = 1 to len - 1 - p do
          let prefix = Array.sub steps 0 p and suffix = Array.sub steps (len - s) s in
          let key =
            Printf.sprintf "p%d-s%d|%s|%s|%s" p s
              (if Xpe.is_relative xpe then "rel" else "abs")
              (String.concat ";" (Array.to_list (Array.map step_key prefix)))
              (String.concat ";" (Array.to_list (Array.map step_key suffix)))
          in
          add key xpe
        done
      done)
    xpes;
  Hashtbl.fold
    (fun _key members acc ->
      let distinct = Xpe_set.elements (Xpe_set.of_list members) in
      if List.length distinct < 2 then acc
      else begin
        match distinct with
        | first :: _ -> (
          (* The bucket guarantees a shared prefix and suffix; recompute
             the longest common ones over the whole bucket directly. *)
          let steps_of x = Array.of_list x.Xpe.steps in
          let arrays = List.map steps_of distinct in
          let minlen = List.fold_left (fun m a -> min m (Array.length a)) max_int arrays in
          let common_prefix =
            let rec go i =
              if i >= minlen - 1 then i
              else if
                List.for_all
                  (fun a -> Xpe.compare_step a.(i) (List.hd arrays).(i) = 0)
                  arrays
              then go (i + 1)
              else i
            in
            go 0
          in
          let common_suffix =
            let rec go s =
              if s >= minlen - common_prefix then s
              else if
                List.for_all
                  (fun a ->
                    Xpe.compare_step
                      a.(Array.length a - 1 - s)
                      (let h = List.hd arrays in
                       h.(Array.length h - 1 - s))
                      = 0)
                  arrays
              then go (s + 1)
              else s
            in
            go 0
          in
          if common_prefix < 1 || common_suffix < 1 then acc
          else begin
            let fsteps = steps_of first in
            let prefix = Array.to_list (Array.sub fsteps 0 common_prefix) in
            let suffix =
              Array.to_list (Array.sub fsteps (Array.length fsteps - common_suffix) common_suffix)
            in
            let suffix =
              match suffix with
              | s0 :: rest -> { s0 with Xpe.axis = Xpe.Desc } :: rest
              | [] -> []
            in
            match
              try Some (Xpe.make ~relative:(Xpe.is_relative first) (prefix @ suffix))
              with Invalid_argument _ -> None
            with
            | Some merged when not (List.exists (Xpe.equal merged) distinct) ->
              (merged, distinct) :: acc
            | _ -> acc
          end)
        | [] -> acc
      end)
    table []

(* All verified candidates: mergers that provably cover each original. *)
let candidates ?(enable_rule3 = true) xpes =
  let raw = blanking_candidates xpes @ (if enable_rule3 then rule3_candidates xpes else []) in
  (* Dedup by merger, fuse original sets. *)
  let table : (string, Xpe.t * Xpe_set.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (merged, originals) ->
      let key = Xpe.to_string merged in
      let merged, set =
        match Hashtbl.find_opt table key with
        | Some (m, set) -> (m, set)
        | None -> (merged, Xpe_set.empty)
      in
      Hashtbl.replace table key (merged, Xpe_set.union set (Xpe_set.of_list originals)))
    raw;
  Hashtbl.fold
    (fun _ (merged, set) acc ->
      let originals = Xpe_set.elements set in
      if List.for_all (fun s -> Cover.covers_exact merged s) originals then
        (merged, originals) :: acc
      else acc)
    table []

(* ------------------------------------------------------------------ *)
(* Merging a subscription set                                          *)
(* ------------------------------------------------------------------ *)

(* Greedily apply candidates whose imperfect degree is within
   [max_degree]; each original is consumed by at most one merger.
   Returns the applied mergers and the surviving unmerged XPEs. *)
let merge_set ?(enable_rule3 = true) ~max_degree ~universe xpes =
  let cands = candidates ~enable_rule3 xpes in
  let evaluated =
    List.filter_map
      (fun (merged, originals) ->
        let degree = imperfect_degree ~universe merged originals in
        if degree <= max_degree +. 1e-12 then Some { xpe = merged; originals; degree } else None)
      cands
  in
  (* Prefer mergers absorbing more subscriptions, then lower degree,
     then the most specific pattern (fewest // and * introduced). *)
  let generality m =
    List.fold_left
      (fun acc (s : Xpe.step) ->
        acc
        + (match s.axis with Xpe.Desc -> 2 | Xpe.Child -> 0)
        + (match s.test with Xpe.Star -> 1 | Xpe.Name _ -> 0))
      0 m.Xpe.steps
  in
  let sorted =
    List.sort
      (fun a b ->
        match compare (List.length b.originals) (List.length a.originals) with
        | 0 -> (
          match compare a.degree b.degree with
          | 0 -> compare (generality a.xpe) (generality b.xpe)
          | c -> c)
        | c -> c)
      evaluated
  in
  let consumed = Xpe.Tbl.create 256 in
  let applied =
    List.filter_map
      (fun m ->
        let free = List.filter (fun s -> not (Xpe.Tbl.mem consumed s)) m.originals in
        if List.length free >= 2 then begin
          List.iter (fun s -> Xpe.Tbl.replace consumed s ()) free;
          Some { m with originals = free }
        end
        else None)
      sorted
  in
  let kept = List.filter (fun s -> not (Xpe.Tbl.mem consumed s)) xpes in
  (applied, kept)
