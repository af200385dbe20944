(* Soundness audit of the paper's syntactic rules (Sec. 4.2 / 4.3)
   against the exact automata engine.

   The paper's covering and merging decisions are deliberately
   incomplete approximations of language containment; what they must
   never be is unsound, because an unsound decision suppresses a
   forwarding and silently loses publications. This pass generates
   seeded predicate-free corpora (the automata oracle decides name-level
   languages, which coincides with full XPE semantics exactly when no
   predicates are present), cross-checks every paper decision against
   the oracle, and reports:

   - unsound covering / advertisement-covering / merger claims as
     [Error] findings carrying the witness pair;
   - incompleteness (oracle says contains, rule says no) as one
     [Warning] per family with the counts, plus rates in the stats.

   The covering and advertisement-covering predicates are injectable so
   the CLI's mutation check can plant a deliberately unsound rule and
   prove the analyzer catches it. *)

open Xroute_xpath
open Xroute_core
module Prng = Xroute_support.Prng
module Lang = Xroute_ref.Lang

(* ---------------- corpus generators (predicate-free) ---------------- *)

let alphabet = [| "a"; "b"; "c"; "d" |]

let gen_test prng =
  if Prng.bernoulli prng 0.25 then Xpe.Star else Xpe.test_of_string (Prng.choose prng alphabet)

let gen_xpe prng =
  let len = 1 + Prng.int prng 5 in
  let relative = Prng.bernoulli prng 0.2 in
  let steps =
    List.init len (fun i ->
        let axis =
          if i = 0 && relative then Xpe.Child
          else if Prng.bernoulli prng 0.25 then Xpe.Desc
          else Xpe.Child
        in
        Xpe.step axis (gen_test prng))
  in
  Xpe.make ~relative steps

let gen_lit prng =
  let len = 1 + Prng.int prng 3 in
  Adv.Lit (Array.init len (fun _ -> gen_test prng))

let gen_adv prng =
  let n_parts = 1 + Prng.int prng 3 in
  let parts =
    List.init n_parts (fun _ ->
        if Prng.bernoulli prng 0.25 then Adv.Group [ gen_lit prng ] else gen_lit prng)
  in
  Adv.make parts

(* ---------------- the differential pass ---------------- *)

type family_totals = {
  mutable checked : int; (* ordered pairs compared *)
  mutable claimed : int; (* rule said "covers" *)
  mutable oracle : int; (* oracle said "contains" *)
  mutable unsound : int; (* rule yes, oracle no *)
  mutable incomplete : int; (* oracle yes, rule no *)
}

let fresh_totals () = { checked = 0; claimed = 0; oracle = 0; unsound = 0; incomplete = 0 }

let rate totals =
  if totals.oracle = 0 then 0.0
  else float_of_int totals.incomplete /. float_of_int totals.oracle

(* Cap the per-kind witness findings so a badly broken rule produces a
   readable report; the totals always carry the full counts. *)
let max_witnesses = 20

type ctx = {
  mutable findings : Finding.t list; (* reversed *)
  mutable witnesses_left : (string * int ref) list;
}

let add_finding ctx f = ctx.findings <- f :: ctx.findings

let add_witnessed ctx ~severity ~code ~subject ~witness =
  let left =
    match List.assoc_opt code ctx.witnesses_left with
    | Some r -> r
    | None ->
      let r = ref max_witnesses in
      ctx.witnesses_left <- (code, r) :: ctx.witnesses_left;
      r
  in
  if !left > 0 then begin
    decr left;
    add_finding ctx (Finding.make ~severity ~family:"soundness" ~code ~subject ~witness)
  end

(* Default pairs per seed: large enough for the sweeps to hit every
   covering rule, small enough to keep the runtest gate quick. *)
let default_pairs = 250

let run ?(covers = Cover.covers) ?(adv_covers = Xroute_ref.Exact_cover.adv_covers)
    ?(seeds = [ 1; 2; 3; 4 ]) ?(pairs_per_seed = default_pairs)
    ?(witness_incomplete = false) () =
  let ctx = { findings = []; witnesses_left = [] } in
  let cov = fresh_totals () in
  let advc = fresh_totals () in
  let merge = fresh_totals () in
  List.iter
    (fun seed ->
      let prng = Prng.create seed in
      (* XPE covering: rule claim vs exact containment. *)
      for _ = 1 to pairs_per_seed do
        let s1 = gen_xpe prng and s2 = gen_xpe prng in
        let claim = covers s1 s2 in
        let truth = Lang.xpe_contains s1 s2 in
        cov.checked <- cov.checked + 1;
        if claim then cov.claimed <- cov.claimed + 1;
        if truth then cov.oracle <- cov.oracle + 1;
        if claim && not truth then begin
          cov.unsound <- cov.unsound + 1;
          add_witnessed ctx ~severity:Finding.Error ~code:"unsound-cover"
            ~subject:
              (Printf.sprintf "covering rule claims %s covers %s" (Xpe.to_string s1)
                 (Xpe.to_string s2))
            ~witness:
              (Printf.sprintf "seed %d: L(%s) does not contain L(%s)" seed
                 (Xpe.to_string s1) (Xpe.to_string s2))
        end
        else if truth && not claim then begin
          cov.incomplete <- cov.incomplete + 1;
          if witness_incomplete then
            add_witnessed ctx ~severity:Finding.Info ~code:"cover-incomplete-pair"
              ~subject:
                (Printf.sprintf "oracle: %s contains %s; covering rule disagrees"
                   (Xpe.to_string s1) (Xpe.to_string s2))
              ~witness:(Printf.sprintf "seed %d" seed)
        end
      done;
      (* Advertisement covering: rule claim vs exact containment. *)
      for _ = 1 to pairs_per_seed / 2 do
        let a1 = gen_adv prng and a2 = gen_adv prng in
        let claim = adv_covers a1 a2 in
        let truth = Lang.adv_contains a1 a2 in
        advc.checked <- advc.checked + 1;
        if claim then advc.claimed <- advc.claimed + 1;
        if truth then advc.oracle <- advc.oracle + 1;
        if claim && not truth then begin
          advc.unsound <- advc.unsound + 1;
          add_witnessed ctx ~severity:Finding.Error ~code:"unsound-adv-cover"
            ~subject:
              (Printf.sprintf "advertisement covering claims %s covers %s"
                 (Adv.to_string a1) (Adv.to_string a2))
            ~witness:
              (Printf.sprintf "seed %d: P(%s) does not contain P(%s)" seed
                 (Adv.to_string a1) (Adv.to_string a2))
        end
        else if truth && not claim then begin
          advc.incomplete <- advc.incomplete + 1;
          if witness_incomplete then
            add_witnessed ctx ~severity:Finding.Info ~code:"adv-cover-incomplete-pair"
              ~subject:
                (Printf.sprintf "oracle: %s contains %s; advertisement covering disagrees"
                   (Adv.to_string a1) (Adv.to_string a2))
              ~witness:(Printf.sprintf "seed %d" seed)
        end
      done;
      (* Merging: every applied merger must contain each original's
         language, else the upstream replacement loses publications. *)
      let universe =
        (* all bare-name paths over the alphabet up to length 3: a
           deterministic universe for the imperfect degree *)
        let rec paths k =
          if k = 0 then [ [] ]
          else
            let shorter = paths (k - 1) in
            List.concat_map
              (fun p -> Array.to_list (Array.map (fun n -> n :: p) alphabet))
              shorter
        in
        List.concat_map (fun k -> List.map Array.of_list (paths k)) [ 1; 2; 3 ]
      in
      let xpes =
        List.init (max 8 (pairs_per_seed / 10)) (fun _ -> gen_xpe prng)
        |> List.sort_uniq Xpe.compare
      in
      let applied, _kept = Merge.merge_set ~max_degree:0.5 ~universe xpes in
      List.iter
        (fun (m : Merge.merger) ->
          List.iter
            (fun original ->
              merge.checked <- merge.checked + 1;
              merge.claimed <- merge.claimed + 1;
              let truth = Lang.xpe_contains m.xpe original in
              if truth then merge.oracle <- merge.oracle + 1
              else begin
                merge.unsound <- merge.unsound + 1;
                add_witnessed ctx ~severity:Finding.Error ~code:"unsound-merge"
                  ~subject:
                    (Printf.sprintf "merger %s fails to contain its original %s"
                       (Xpe.to_string m.xpe) (Xpe.to_string original))
                  ~witness:
                    (Printf.sprintf "seed %d: degree %g, %d originals" seed m.degree
                       (List.length m.originals))
              end)
            m.originals)
        applied)
    seeds;
  (* Incompleteness: expected of the paper rules, so a warning with the
     counts rather than per-pair noise. *)
  let incompleteness code totals what =
    if totals.incomplete > 0 then
      add_finding ctx
        (Finding.make ~severity:Finding.Warning ~family:"soundness" ~code
           ~subject:
             (Printf.sprintf "%s is incomplete on %d of %d contained pairs (rate %.4f)"
                what totals.incomplete totals.oracle (rate totals))
           ~witness:
             (Printf.sprintf "%d pairs checked over seeds [%s]" totals.checked
                (String.concat "; " (List.map string_of_int seeds))))
  in
  incompleteness "cover-incomplete" cov "covering rule";
  incompleteness "adv-cover-incomplete" advc "advertisement covering";
  let f = float_of_int in
  let stats =
    [
      ("seeds", f (List.length seeds));
      ("cover_pairs", f cov.checked);
      ("cover_claimed", f cov.claimed);
      ("cover_contained", f cov.oracle);
      ("cover_unsound", f cov.unsound);
      ("cover_incomplete", f cov.incomplete);
      ("cover_incomplete_rate", rate cov);
      ("adv_cover_pairs", f advc.checked);
      ("adv_cover_claimed", f advc.claimed);
      ("adv_cover_contained", f advc.oracle);
      ("adv_cover_unsound", f advc.unsound);
      ("adv_cover_incomplete", f advc.incomplete);
      ("adv_cover_incomplete_rate", rate advc);
      ("merge_members_checked", f merge.checked);
      ("merge_unsound", f merge.unsound);
    ]
  in
  Finding.report ~stats (List.rev ctx.findings)

(* A deliberately unsound covering rule for the mutation check: length
   comparison "covers" everything no longer than itself, which the
   sweeps refute within a handful of pairs. *)
let planted_unsound_covers s1 s2 = Xpe.length s2 >= Xpe.length s1
