(* Shared framing for multi-line wire replies (STATS|, AUDIT|, TRACE|). *)

let needs_escape c = c = '%' || c = '|' || c = '\n' || c = '\r'

let escape s =
  if String.for_all (fun c -> not (needs_escape c)) s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if needs_escape c then Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let unescape s =
  if not (String.contains s '%') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i >= n then Buffer.contents buf
      else if s.[i] = '%' && i + 2 < n then begin
        match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some code ->
          Buffer.add_char buf (Char.chr code);
          go (i + 3)
        | None ->
          Buffer.add_char buf s.[i];
          go (i + 1)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0
  end

let split line =
  match String.index_opt line '|' with
  | Some i -> Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  | None -> None

let send ~enqueue ~tag ?(begin_args = []) ?(end_args = []) ~line_tag lines =
  let with_args base = function [] -> base | args -> base ^ "|" ^ String.concat "|" args in
  enqueue (with_args (tag ^ "|BEGIN") begin_args);
  List.iter (fun l -> enqueue (line_tag ^ "|" ^ l)) lines;
  enqueue (with_args (tag ^ "|END") end_args)
