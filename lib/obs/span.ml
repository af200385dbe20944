(* Causal spans: see span.mli for the span-tree model. The collector is
   a bounded ring with per-trace buckets: eviction is
   globally-oldest-first and buckets are in creation order, so the span
   evicted on overwrite is always the front of its trace bucket. *)

type span = {
  id : int;
  trace : int;
  parent : int option;
  name : string;
  broker : int;
  start : float;
  mutable stop : float;
  mutable meta : (string * string) list;
}

type t = {
  capacity : int;
  ring : span option array;
  mutable total : int; (* spans ever started *)
  mutable next_id : int;
  by_id : (int, span) Hashtbl.t;
  by_trace : (int, span Queue.t) Hashtbl.t;
  mutable last_lookup_cost : int;
}

let create ?(capacity = 8192) ?(id_base = 0) () =
  if capacity <= 0 then invalid_arg "Span.create: capacity must be positive";
  {
    capacity;
    ring = Array.make capacity None;
    total = 0;
    next_id = id_base + 1;
    by_id = Hashtbl.create 256;
    by_trace = Hashtbl.create 64;
    last_lookup_cost = 0;
  }

let length t = t.total
let capacity t = t.capacity

let evict t s =
  Hashtbl.remove t.by_id s.id;
  match Hashtbl.find_opt t.by_trace s.trace with
  | None -> ()
  | Some q ->
    ignore (Queue.pop q);
    if Queue.is_empty q then Hashtbl.remove t.by_trace s.trace

let push t s =
  let slot = t.total mod t.capacity in
  (match t.ring.(slot) with Some old -> evict t old | None -> ());
  t.ring.(slot) <- Some s;
  t.total <- t.total + 1;
  Hashtbl.replace t.by_id s.id s;
  let q =
    match Hashtbl.find_opt t.by_trace s.trace with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add t.by_trace s.trace q;
      q
  in
  Queue.push s q

let start_span t ?parent ~trace ~name ~broker ~at () =
  let s =
    {
      id = t.next_id;
      trace;
      parent;
      name;
      broker;
      start = at;
      stop = at;
      meta = [];
    }
  in
  t.next_id <- t.next_id + 1;
  push t s;
  s

let finish s ~at = s.stop <- at
let extend s ~at = if at > s.stop then s.stop <- at

let record t ?parent ?(meta = []) ~trace ~name ~broker ~start ~stop () =
  let s = start_span t ?parent ~trace ~name ~broker ~at:start () in
  s.stop <- stop;
  s.meta <- meta;
  s

let add_meta s k v = s.meta <- s.meta @ [ (k, v) ]
let find t id = Hashtbl.find_opt t.by_id id

let spans_for t ~trace =
  match Hashtbl.find_opt t.by_trace trace with
  | None ->
    t.last_lookup_cost <- 0;
    []
  | Some q ->
    t.last_lookup_cost <- Queue.length q;
    List.rev (Queue.fold (fun acc s -> s :: acc) [] q)

let root_for t ~trace =
  List.find_opt (fun s -> s.parent = None) (spans_for t ~trace)

let last_lookup_cost t = t.last_lookup_cost

let to_list t =
  let n = min t.total t.capacity in
  let start = t.total - n in
  List.init n (fun i ->
      match t.ring.((start + i) mod t.capacity) with
      | Some s -> s
      | None -> assert false)

let clear t =
  Array.fill t.ring 0 t.capacity None;
  Hashtbl.reset t.by_id;
  Hashtbl.reset t.by_trace;
  t.total <- 0

let duration s = s.stop -. s.start

(* ---------------- renderers ---------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Chrome trace-event JSON: complete ("ph":"X") events, ts/dur in
   microseconds. pid = broker so Perfetto lays traces out one row of
   stages per process; tid = trace id. *)
let to_chrome spans =
  let event s =
    let args =
      ("id", string_of_int s.id)
      :: (match s.parent with
         | Some p -> [ ("parent", string_of_int p) ]
         | None -> [])
      @ s.meta
    in
    let args_json =
      String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
           args)
    in
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"xroute\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{%s}}"
      (json_escape s.name)
      (s.start *. 1000.0)
      (duration s *. 1000.0)
      s.broker s.trace args_json
  in
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
  ^ String.concat "," (List.map event spans)
  ^ "]}"

let by_start a b = compare (a.start, a.id) (b.start, b.id)

(* Group a span list by trace, preserving first-appearance order. *)
let group_traces spans =
  let order = ref [] in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt groups s.trace with
      | Some r -> r := s :: !r
      | None ->
        Hashtbl.add groups s.trace (ref [ s ]);
        order := s.trace :: !order)
    spans;
  List.rev_map (fun tid -> (tid, List.rev !(Hashtbl.find groups tid))) !order
  |> List.rev

let waterfall spans =
  let buf = Buffer.create 512 in
  List.iter
    (fun (tid, group) ->
      let ids = Hashtbl.create 16 in
      List.iter (fun s -> Hashtbl.replace ids s.id ()) group;
      let children = Hashtbl.create 16 in
      let roots =
        List.filter
          (fun s ->
            match s.parent with
            | Some p when Hashtbl.mem ids p ->
              Hashtbl.replace children p
                (s :: Option.value ~default:[] (Hashtbl.find_opt children p));
              false
            | _ -> true (* true root, or parent fell out of the ring *))
          group
      in
      let base = List.fold_left (fun acc s -> Float.min acc s.start) infinity group in
      let last = List.fold_left (fun acc s -> Float.max acc s.stop) neg_infinity group in
      Buffer.add_string buf
        (Printf.sprintf "trace %d — %d spans, %.3f ms\n" tid (List.length group)
           (last -. base));
      let rec render depth s =
        Buffer.add_string buf
          (Printf.sprintf "  %8.3f %8.3f  %s%s  [broker %d] #%d\n" (s.start -. base)
             (duration s)
             (String.make (2 * depth) ' ')
             s.name s.broker s.id);
        List.iter (render (depth + 1))
          (List.sort by_start (Option.value ~default:[] (Hashtbl.find_opt children s.id)))
      in
      List.iter (render 0) (List.sort by_start roots))
    (group_traces spans);
  Buffer.contents buf

(* ---------------- structural validation ---------------- *)

let eps = 1e-6

let check_tree spans =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match spans with
  | [] -> Error "no spans"
  | first :: _ -> (
    let by_id = Hashtbl.create 16 in
    let dup =
      List.find_opt
        (fun s ->
          if Hashtbl.mem by_id s.id then true
          else begin
            Hashtbl.replace by_id s.id s;
            false
          end)
        spans
    in
    match dup with
    | Some s -> err "duplicate span id #%d" s.id
    | None -> (
      match List.filter (fun s -> s.parent = None) spans with
      | [] -> Error "no root span"
      | _ :: _ :: _ as roots -> err "%d root spans" (List.length roots)
      | [ _root ] ->
        let has_child = Hashtbl.create 16 in
        List.iter
          (fun s ->
            match s.parent with
            | Some p -> Hashtbl.replace has_child p ()
            | None -> ())
          spans;
        let is_leaf s = not (Hashtbl.mem has_child s.id) in
        let problem =
          List.find_map
            (fun s ->
              if s.trace <> first.trace then
                Some (Printf.sprintf "span #%d belongs to trace %d, not %d" s.id s.trace first.trace)
              else if s.stop < s.start -. eps then
                Some (Printf.sprintf "span #%d (%s) ends before it starts" s.id s.name)
              else
                match s.parent with
                | None -> None
                | Some pid -> (
                  match Hashtbl.find_opt by_id pid with
                  | None -> Some (Printf.sprintf "span #%d (%s) has missing parent #%d" s.id s.name pid)
                  | Some p ->
                    if s.start < p.start -. eps then
                      Some
                        (Printf.sprintf "span #%d (%s) starts before its parent #%d (%s)"
                           s.id s.name p.id p.name)
                    else if is_leaf s && s.start > p.stop +. eps then
                      (* Only leaves must lie inside their parent: an
                         interior child (the next broker's hop) may
                         start after its parent closed — the message
                         was in flight, and across daemons no one can
                         extend the upstream process's span. *)
                      Some
                        (Printf.sprintf "leaf #%d (%s) starts after its parent #%d (%s) ended"
                           s.id s.name p.id p.name)
                    else if is_leaf s && s.stop > p.stop +. eps then
                      Some
                        (Printf.sprintf "leaf #%d (%s) escapes its parent #%d (%s)"
                           s.id s.name p.id p.name)
                    else None))
            spans
        in
        (match problem with
        | Some m -> Error m
        | None ->
          (* sibling leaves must not overlap: stage timers tile, never
             double-bill (per-edge leaves live under "edge" spans) *)
          let by_parent = Hashtbl.create 16 in
          List.iter
            (fun s ->
              match s.parent with
              | Some p when is_leaf s ->
                Hashtbl.replace by_parent p
                  (s :: Option.value ~default:[] (Hashtbl.find_opt by_parent p))
              | _ -> ())
            spans;
          let overlap =
            Hashtbl.fold
              (fun _p leaves acc ->
                match acc with
                | Some _ -> acc
                | None ->
                  let sorted = List.sort by_start leaves in
                  let rec scan = function
                    | a :: (b :: _ as rest) ->
                      if b.start < a.stop -. eps then
                        Some
                          (Printf.sprintf "sibling leaves #%d (%s) and #%d (%s) overlap"
                             a.id a.name b.id b.name)
                      else scan rest
                    | _ -> None
                  in
                  scan sorted)
              by_parent None
          in
          (match overlap with Some m -> Error m | None -> Ok ()))))

let stage_sum spans =
  let has_child = Hashtbl.create 16 in
  List.iter
    (fun s -> match s.parent with Some p -> Hashtbl.replace has_child p () | None -> ())
    spans;
  List.fold_left
    (fun acc s -> if Hashtbl.mem has_child s.id then acc else acc +. duration s)
    0.0 spans

(* ---------------- wire encoding ---------------- *)

(* Same idea as Codec's percent-escaping, scoped to this line format:
   fields are '|'-separated, meta entries ';'- and '='-separated. Floats
   travel as hex ("%h") so they round-trip bit-exactly. *)
let needs_escape c =
  c = '%' || c = '|' || c = ';' || c = '=' || c = '\n' || c = '\r'

let escape s =
  if String.exists needs_escape s then begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if needs_escape c then Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end
  else s

let unescape s =
  if not (String.contains s '%') then Some s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec loop i =
      if i >= n then Some (Buffer.contents buf)
      else if s.[i] = '%' then
        if i + 2 >= n then None
        else
          match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
          | Some code when code >= 0 && code < 256 ->
            Buffer.add_char buf (Char.chr code);
            loop (i + 3)
          | _ -> None
      else begin
        Buffer.add_char buf s.[i];
        loop (i + 1)
      end
    in
    loop 0
  end

let to_wire_line s =
  let meta =
    String.concat ";"
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s" (escape k) (escape v)) s.meta)
  in
  Printf.sprintf "%d|%d|%s|%d|%h|%h|%s|%s" s.id s.trace
    (match s.parent with Some p -> string_of_int p | None -> "-")
    s.broker s.start s.stop (escape s.name) meta

let of_wire_line line =
  match String.split_on_char '|' line with
  | [ id; trace; parent; broker; start; stop; name; meta ] -> (
    let ( let* ) = Option.bind in
    let* id = int_of_string_opt id in
    let* trace = int_of_string_opt trace in
    let* parent =
      if parent = "-" then Some None
      else match int_of_string_opt parent with Some p -> Some (Some p) | None -> None
    in
    let* broker = int_of_string_opt broker in
    let* start = float_of_string_opt start in
    let* stop = float_of_string_opt stop in
    let* name = unescape name in
    let* meta =
      if meta = "" then Some []
      else
        List.fold_left
          (fun acc entry ->
            let* acc = acc in
            match String.index_opt entry '=' with
            | None -> None
            | Some i ->
              let* k = unescape (String.sub entry 0 i) in
              let* v = unescape (String.sub entry (i + 1) (String.length entry - i - 1)) in
              Some ((k, v) :: acc))
          (Some [])
          (String.split_on_char ';' meta)
        |> Option.map List.rev
    in
    Some { id; trace; parent; name; broker; start; stop; meta })
  | _ -> None
