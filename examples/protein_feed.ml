(* Protein Sequence Database feed: the paper's non-recursive workload.
   This example works at the library level rather than the network
   level — it derives the PSD advertisement set, shows matching and
   covering decisions on concrete expressions (comparing the paper's
   algorithms with the exact automata engine), and runs a merging pass
   with its imperfect-degree accounting.

   Run with: dune exec examples/protein_feed.exe *)

open Xroute_core
open Xroute_xpath

let xp = Xpe_parser.parse

let () =
  let dtd = Lazy.force Xroute_dtd.Dtd_samples.psd in
  let graph = Xroute_dtd.Dtd_graph.build dtd in
  let advs = Xroute_dtd.Dtd_paths.advertisements graph in
  Printf.printf "PSD DTD: %d elements, recursive: %b, %d advertisements\n\n"
    (Xroute_dtd.Dtd_ast.element_count dtd)
    (Xroute_dtd.Dtd_graph.is_recursive graph)
    (List.length advs);

  (* 1. Matching: where would these laboratory subscriptions be routed? *)
  let subscriptions =
    [
      "/ProteinDatabase/ProteinEntry/protein/name";
      "//reference/refinfo/authors/author";
      "/ProteinDatabase/*/sequence";
      "keywords/keyword";
      "//xref/db";
    ]
  in
  Printf.printf "subscription -> overlapping advertisements (paper engine = exact engine)\n";
  List.iter
    (fun s ->
      let xpe = xp s in
      let hits = List.filter (Xroute_ref.Paper_match.overlaps_paper xpe) advs in
      let exact_hits = List.filter (Xroute_ref.Paper_match.overlaps_exact xpe) advs in
      assert (List.length hits = List.length exact_hits);
      Printf.printf "  %-46s %d advs\n" s (List.length hits))
    subscriptions;

  (* 2. Covering: the relations that compact routing tables. *)
  Printf.printf "\ncovering relations (Sec. 4.2):\n";
  List.iter
    (fun (s1, s2) ->
      Printf.printf "  %-34s covers %-40s ? %b\n" s1 s2 (Cover.covers (xp s1) (xp s2)))
    [
      ("/ProteinDatabase/ProteinEntry", "/ProteinDatabase/ProteinEntry/protein");
      ("//refinfo//author", "/ProteinDatabase/ProteinEntry/reference/refinfo/authors/author");
      ("/*/ProteinEntry/protein/name", "/ProteinDatabase/ProteinEntry/protein/name");
      ("/ProteinDatabase/*/sequence", "/ProteinDatabase/ProteinEntry/summary");
    ];

  (* 3. A subscription tree compacting a laboratory's interest set. *)
  let prng = Xroute_support.Prng.create 17 in
  let params = Xroute_workload.Workload.set_a_params dtd in
  let lab_interests = Xroute_workload.Xpath_gen.generate params prng ~count:800 in
  let tree : int Sub_tree.t = Sub_tree.create () in
  List.iteri (fun i x -> ignore (Sub_tree.insert tree x i)) lab_interests;
  let maximal = Sub_tree.maximal tree in
  Printf.printf "\n%d lab subscriptions -> %d forwarded after covering (%.0f%% compaction)\n"
    (List.length lab_interests) (List.length maximal)
    (100.0
    *. float_of_int (List.length lab_interests - List.length maximal)
    /. float_of_int (List.length lab_interests));

  (* 4. Merging with DTD-derived imperfect degrees. *)
  let universe = Xroute_dtd.Dtd_paths.enumerate_paths ~max_depth:10 ~max_count:20_000 graph in
  let forwarded = List.map Sub_tree.node_xpe maximal in
  let perfect, _ = Merge.merge_set ~max_degree:0.0 ~universe forwarded in
  let imperfect, _ = Merge.merge_set ~max_degree:0.1 ~universe forwarded in
  Printf.printf "perfect mergers: %d, imperfect (D<=0.1): %d\n" (List.length perfect)
    (List.length imperfect);
  List.iteri
    (fun i (m : Merge.merger) ->
      if i < 3 then
        Printf.printf "  e.g. %s <- %d subscriptions (degree %.3f)\n" (Xpe.to_string m.xpe)
          (List.length m.originals) m.degree)
    imperfect;

  (* 5. Every merger is verified exactly: no subscriber loses documents. *)
  List.iter
    (fun (m : Merge.merger) ->
      List.iter
        (fun o -> assert (Xroute_ref.Lang.xpe_contains m.xpe o))
        m.originals)
    (perfect @ imperfect);
  print_endline "\nprotein_feed OK"
