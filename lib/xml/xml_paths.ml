(* Decomposition of an XML document into root-to-leaf paths.

   Section 3.1 of the paper: before a document enters the network it is
   decomposed into its root-to-leaf paths; each path, annotated with a
   [path_id] and the [doc_id] of its document, is the unit of routing
   ("publication"). Subscribers transparently receive whole documents. *)

type publication = {
  doc_id : int;
  path_id : int;
  steps : string array; (* element names from the root to a leaf *)
  syms : Xroute_support.Symbol.t array; (* [steps] interned, position by position *)
  attrs : (string * string) list array; (* attributes at each position *)
  doc_size : int; (* serialized size in bytes of the source document *)
  path_count : int; (* how many path publications the document yields *)
}

(* Publications are born here, in [of_syms] or in [decompose] (which
   takes symbols from the tree): each way [syms] is [steps] interned, so
   matchers can rely on it without re-checking. *)
let make ~doc_id ~path_id ~steps ~attrs ~doc_size ~path_count =
  {
    doc_id;
    path_id;
    steps;
    syms = Xroute_support.Symbol.intern_path steps;
    attrs;
    doc_size;
    path_count;
  }

(* A publication whose names are already interned (the wire decoder's
   case): [steps] is read back from [syms], so each step shares the
   interned string and [syms] is still [steps] interned. *)
let of_syms ~doc_id ~path_id ~syms ~attrs ~doc_size ~path_count =
  {
    doc_id;
    path_id;
    steps = Array.map Xroute_support.Symbol.name syms;
    syms;
    attrs;
    doc_size;
    path_count;
  }

let pp_publication ppf p =
  Format.fprintf ppf "doc=%d path=%d /%s" p.doc_id p.path_id
    (String.concat "/" (Array.to_list p.steps))

let publication_to_string p = Format.asprintf "%a" pp_publication p

let key_of_steps steps = String.concat "\x00" (Array.to_list steps)

(* All root-to-leaf name sequences, left-to-right document order,
   including duplicates. Element symbols ride along from the tree, so
   decomposition never re-interns. *)
let raw_paths_symed root =
  let acc = ref [] in
  let rec walk rev_names rev_syms rev_attrs node =
    let rev_names = Xml_tree.name node :: rev_names in
    let rev_syms = Xml_tree.sym node :: rev_syms in
    let rev_attrs = Xml_tree.attrs node :: rev_attrs in
    match Xml_tree.children node with
    | [] ->
      acc :=
        ( Array.of_list (List.rev rev_names),
          Array.of_list (List.rev rev_syms),
          Array.of_list (List.rev rev_attrs) )
        :: !acc
    | children -> List.iter (walk rev_names rev_syms rev_attrs) children
  in
  walk [] [] [] root;
  List.rev !acc

let raw_paths root = List.map (fun (steps, _, attrs) -> (steps, attrs)) (raw_paths_symed root)

(* Distinct paths of a document as publications. Two leaves with the same
   element-name sequence produce one publication (the routing decision is
   identical); the first occurrence's attributes are kept. *)
let decompose ?(dedup = true) ~doc_id root =
  let doc_size = Xml_printer.byte_size root in
  let seen = Hashtbl.create 16 in
  let next_id = ref 0 in
  let pubs =
    List.filter_map
      (fun (steps, syms, attrs) ->
        let key = key_of_steps steps in
        if dedup && Hashtbl.mem seen key then None
        else begin
          Hashtbl.replace seen key ();
          let path_id = !next_id in
          incr next_id;
          Some { doc_id; path_id; steps; syms; attrs; doc_size; path_count = 0 }
        end)
      (raw_paths_symed root)
  in
  let n = List.length pubs in
  List.map (fun p -> { p with path_count = n }) pubs

let path_count root = List.length (raw_paths root)

let distinct_path_count root =
  let seen = Hashtbl.create 16 in
  List.iter (fun (steps, _) -> Hashtbl.replace seen (key_of_steps steps) ()) (raw_paths root);
  Hashtbl.length seen

(* Parse a "/a/b/c" string into a bare publication, for tests and the CLI. *)
let publication_of_string ?(doc_id = 0) ?(path_id = 0) s =
  let s = if String.length s > 0 && s.[0] = '/' then String.sub s 1 (String.length s - 1) else s in
  let parts = String.split_on_char '/' s in
  if List.exists (fun p -> p = "") parts then
    invalid_arg (Printf.sprintf "publication_of_string: empty step in %S" s);
  let steps = Array.of_list parts in
  make ~doc_id ~path_id ~steps
    ~attrs:(Array.make (Array.length steps) [])
    ~doc_size:(String.length s) ~path_count:1
