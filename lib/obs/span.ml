(* Causal spans: see span.mli for the span-tree model. The collector is
   a flat ring: one array per span field, indexed by slot = creation
   number mod size, so recording a span stores into preallocated arrays
   and retains no heap block of its own. A span's id is [id0 + creation
   number], which makes [find] arithmetic. Each trace with retained
   spans has one [entry]; its spans are chained oldest to newest
   through [next]. Eviction is globally oldest-first, so the evicted
   span is always the head of its trace's chain. *)

type entry = {
  mutable first : int; (* creation number of the oldest retained span *)
  mutable last : int; (* ... and of the newest *)
  mutable count : int; (* retained spans of the trace *)
  mutable root : int; (* creation number of the first retained root, or -1 *)
}

module Traces = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* Parent column value of a root. *)
let no_parent = min_int

(* Integer meta entries a span can hold (see [add_int_meta]). *)
let int_meta_max = 3

let initial_size = 64

type t = {
  capacity : int;
  id0 : int; (* id of creation number 0 *)
  traces : entry Traces.t;
  mutable size : int; (* slots allocated; doubles up to [capacity] *)
  mutable n : int; (* creation number of the next span *)
  mutable lo : int; (* creation number of the first span since [clear] *)
  mutable trace : int array;
  mutable parent : int array;
  mutable name : string array;
  mutable broker : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable meta : (string * string) list array;
  mutable ints : int array; (* integer meta entries held *)
  mutable int_keys : string array; (* [int_meta_max] per slot *)
  mutable int_vals : int array;
  mutable next : int array; (* creation number of the trace's next span, or -1 *)
  mutable last_lookup_cost : int;
}

type handle = { id : int; owner : t }

type span = {
  id : int;
  trace : int;
  parent : int option;
  name : string;
  broker : int;
  start : float;
  stop : float;
  meta : (string * string) list;
}

(* Fresh columns of [size] slots, holding creation numbers [lo, n) of
   the old ones. *)
let resize (t : t) size =
  let old = t.size in
  let move stride a blank =
    let b = Array.make (stride * size) blank in
    for i = t.lo to t.n - 1 do
      Array.blit a (stride * (i mod old)) b (stride * (i mod size)) stride
    done;
    b
  in
  t.trace <- move 1 t.trace 0;
  t.parent <- move 1 t.parent 0;
  t.name <- move 1 t.name "";
  t.broker <- move 1 t.broker 0;
  t.start <- move 1 t.start 0.0;
  t.stop <- move 1 t.stop 0.0;
  t.meta <- move 1 t.meta [];
  t.ints <- move 1 t.ints 0;
  t.int_keys <- move int_meta_max t.int_keys "";
  t.int_vals <- move int_meta_max t.int_vals 0;
  t.next <- move 1 t.next (-1);
  t.size <- size

let create ?(capacity = 8192) ?(id_base = 0) () =
  if capacity <= 0 then invalid_arg "Span.create: capacity must be positive";
  let t =
    {
      capacity;
      id0 = id_base + 1;
      traces = Traces.create 64;
      size = 0;
      n = 0;
      lo = 0;
      trace = [||];
      parent = [||];
      name = [||];
      broker = [||];
      start = [||];
      stop = [||];
      meta = [||];
      ints = [||];
      int_keys = [||];
      int_vals = [||];
      next = [||];
      last_lookup_cost = 0;
    }
  in
  resize t (min capacity initial_size);
  t

let length (t : t) = t.n - t.lo
let capacity (t : t) = t.capacity

(* Is creation number [i] retained? *)
let live (t : t) i = i >= t.lo && i < t.n && t.n - i <= t.capacity

(* The first root at or after creation number [i] along a trace chain. *)
let rec first_root (t : t) i =
  if i < 0 then -1
  else
    let s = i mod t.size in
    if t.parent.(s) = no_parent then i else first_root t t.next.(s)

(* Creation number [i - capacity] leaves slot [s]. *)
let evict (t : t) i s =
  let tr = t.trace.(s) in
  let e = Traces.find t.traces tr in
  e.count <- e.count - 1;
  if e.count = 0 then Traces.remove t.traces tr
  else begin
    e.first <- t.next.(s);
    if e.root = i - t.capacity then e.root <- first_root t e.first
  end

let push (t : t) ~parent ~trace ~name ~broker ~start ~stop ~meta =
  let i = t.n in
  if i - t.lo = t.size && t.size < t.capacity then resize t (min t.capacity (2 * t.size));
  let s = i mod t.size in
  if i - t.lo >= t.capacity then evict t i s;
  t.trace.(s) <- trace;
  t.parent.(s) <- parent;
  t.name.(s) <- name;
  t.broker.(s) <- broker;
  t.start.(s) <- start;
  t.stop.(s) <- stop;
  t.meta.(s) <- meta;
  t.ints.(s) <- 0;
  t.next.(s) <- -1;
  t.n <- i + 1;
  let is_root = parent = no_parent in
  (match Traces.find t.traces trace with
  | e ->
    t.next.(e.last mod t.size) <- i;
    e.last <- i;
    e.count <- e.count + 1;
    if is_root && e.root < 0 then e.root <- i
  | exception Not_found ->
    Traces.add t.traces trace
      { first = i; last = i; count = 1; root = (if is_root then i else -1) });
  { id = t.id0 + i; owner = t }

let parent_col = function Some p -> p | None -> no_parent

let start_span (t : t) ?parent ~trace ~name ~broker ~at () =
  push t ~parent:(parent_col parent) ~trace ~name ~broker ~start:at ~stop:at ~meta:[]

let record (t : t) ?parent ?(meta = []) ~trace ~name ~broker ~start ~stop () =
  push t ~parent:(parent_col parent) ~trace ~name ~broker ~start ~stop ~meta

(* The slot of a handle's span, or -1 once it has left the ring. *)
let slot_of (h : handle) =
  let t : t = h.owner in
  let i = h.id - t.id0 in
  if live t i then i mod t.size else -1

let finish h ~at =
  let s = slot_of h in
  if s >= 0 then h.owner.stop.(s) <- at

let extend h ~at =
  let s = slot_of h in
  if s >= 0 && at > h.owner.stop.(s) then h.owner.stop.(s) <- at

let add_int_meta h key v =
  let s = slot_of h in
  if s >= 0 then begin
    let t : t = h.owner in
    let k = t.ints.(s) in
    if k = int_meta_max then invalid_arg "Span.add_int_meta: span already holds 3 entries";
    t.int_keys.((int_meta_max * s) + k) <- key;
    t.int_vals.((int_meta_max * s) + k) <- v;
    t.ints.(s) <- k + 1
  end

(* A read-only copy of the retained span with creation number [i]. *)
let snapshot (t : t) i : span =
  let s = i mod t.size in
  let meta =
    match t.ints.(s) with
    | 0 -> t.meta.(s)
    | k ->
      t.meta.(s)
      @ List.init k (fun j ->
            let c = (int_meta_max * s) + j in
            (t.int_keys.(c), string_of_int t.int_vals.(c)))
  in
  let p = t.parent.(s) in
  {
    id = t.id0 + i;
    trace = t.trace.(s);
    parent = (if p = no_parent then None else Some p);
    name = t.name.(s);
    broker = t.broker.(s);
    start = t.start.(s);
    stop = t.stop.(s);
    meta;
  }

let find (t : t) id =
  let i = id - t.id0 in
  if live t i then Some (snapshot t i) else None

let spans_for (t : t) ~trace =
  match Traces.find_opt t.traces trace with
  | None ->
    t.last_lookup_cost <- 0;
    []
  | Some e ->
    t.last_lookup_cost <- e.count;
    let rec walk i acc =
      if i < 0 then List.rev acc else walk t.next.(i mod t.size) (snapshot t i :: acc)
    in
    walk e.first []

let root_for (t : t) ~trace =
  match Traces.find t.traces trace with
  | e when e.root >= 0 -> Some { id = t.id0 + e.root; owner = t }
  | _ | (exception Not_found) -> None

let last_lookup_cost (t : t) = t.last_lookup_cost

let to_list (t : t) =
  let first = max t.lo (t.n - t.capacity) in
  List.init (t.n - first) (fun k -> snapshot t (first + k))

let clear (t : t) =
  t.lo <- t.n;
  Traces.reset t.traces;
  resize t (min t.capacity initial_size)

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
