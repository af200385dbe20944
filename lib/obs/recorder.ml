type t = {
  dir : string;
  keep_spans : int;
  mutable seq : int;
  mutable dumps : string list; (* newest first *)
}

let create ?(keep_spans = 512) ~dir () = { dir; keep_spans; seq = 0; dumps = [] }
let dir t = t.dir
let dumps t = t.dumps

let slug reason =
  let b = Buffer.create (String.length reason) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char b c
      | 'A' .. 'Z' -> Buffer.add_char b (Char.lowercase_ascii c)
      | _ -> if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '-' then Buffer.add_char b '-')
    reason;
  let s = Buffer.contents b in
  let s = if String.length s > 40 then String.sub s 0 40 else s in
  if s = "" then "event" else s

let json_escape = Span.json_escape

let last n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let render t ~reason ~at ?metrics ?(spans = []) ?(rates = []) () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":\"xroute-flight/2\",\"seq\":%d,\"reason\":\"%s\",\"at\":%.3f" t.seq
       (json_escape reason) at);
  Buffer.add_string buf ",\"metrics\":";
  Buffer.add_string buf
    (match metrics with Some m -> Metrics.to_json m | None -> "null");
  Buffer.add_string buf ",\"spans\":";
  Buffer.add_string buf (Span.to_chrome (last t.keep_spans spans));
  Buffer.add_string buf ",\"rates\":{";
  Buffer.add_string buf
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%.6g" (json_escape k) v) rates));
  Buffer.add_string buf "}}";
  Buffer.contents buf

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let trigger t ~reason ~at ?metrics ?spans ?rates () =
  let body = render t ~reason ~at ?metrics ?spans ?rates () in
  let path = Filename.concat t.dir (Printf.sprintf "flight-%03d-%s.json" t.seq (slug reason)) in
  t.seq <- t.seq + 1;
  try
    ensure_dir t.dir;
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc body);
    t.dumps <- path :: t.dumps;
    Ok path
  with Sys_error msg -> Error msg
