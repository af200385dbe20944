(* Metrics registry: named counters, gauges and histograms with
   Prometheus-style text and JSON exposition.

   The registry is the uniform surface behind every statistics feed in
   the system: each broker owns one, the overlay simulator owns one for
   network-level quantities, the daemon dumps one over the wire
   (STATS|), and the experiment harness aggregates them for reporting.

   Naming convention: [xroute_<subsystem>_<metric>], with [_total] for
   monotonic counters and [_ms] for millisecond-valued histograms.

   A histogram is its mergeable quantile sketch ({!Sketch}) plus a
   running sum of squares: the sketch keeps count, sum, min and max
   exactly and the quantiles within its relative-error bound, the sum
   of squares keeps the standard deviation exact. Exported as a
   Prometheus summary (p50/p95/p99 quantiles plus [_sum]/[_count]). *)

type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

type histogram = {
  h_sketch : Sketch.t; (* every observation: count, sum, min, max, quantiles *)
  mutable h_sumsq : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

(* Indexed by name, which is stored only here: registration and lookup
   are O(1), so a registry can hold series named after peers read off
   the wire. Exposition sorts by name, so the table's order never
   shows. *)
type t = (string, string * metric) Hashtbl.t (* name -> help, metric *)

let create () : t = Hashtbl.create 64
let find (t : t) name = Option.map snd (Hashtbl.find_opt t name)

let metrics (t : t) =
  Hashtbl.fold (fun name (help, m) acc -> (name, help, m) :: acc) t []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let counter (t : t) ?(help = "") name =
  match find t name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " registered with another type")
  | None ->
    let c = { c_value = 0 } in
    Hashtbl.add t name (help, Counter c);
    c

let gauge (t : t) ?(help = "") name =
  match find t name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " registered with another type")
  | None ->
    let g = { g_value = 0.0 } in
    Hashtbl.add t name (help, Gauge g);
    g

let histogram (t : t) ?(help = "") name =
  match find t name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " registered with another type")
  | None ->
    let h = { h_sketch = Sketch.create (); h_sumsq = 0.0 } in
    Hashtbl.add t name (help, Histogram h);
    h

(* ---------------- counters ---------------- *)

let incr c = c.c_value <- c.c_value + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotonic";
  c.c_value <- c.c_value + n

(* Mirror a pre-existing cumulative source (e.g. [Srt.match_ops]) into a
   counter; never moves backwards, preserving monotonicity. *)
let counter_set c v = if v > c.c_value then c.c_value <- v
let value c = c.c_value

(* ---------------- gauges ---------------- *)

let set g v = g.g_value <- v
let set_int g v = g.g_value <- float_of_int v
let gauge_value g = g.g_value

(* ---------------- histograms ---------------- *)

let observe h v =
  Sketch.observe h.h_sketch v;
  h.h_sumsq <- h.h_sumsq +. (v *. v)

let sketch h = h.h_sketch
let observations h = Sketch.count h.h_sketch
let sum h = Sketch.sum h.h_sketch

(* Count, sum, min and max are the sketch's exact scalars, the
   quantiles its estimates; an empty histogram reads all zeros, never
   the sketch's infinite extrema. *)
let summary h =
  let s = h.h_sketch in
  let count = Sketch.count s in
  if count = 0 then Xroute_support.Stats.summarize [||]
  else begin
    let n = float_of_int count in
    let mean = Sketch.sum s /. n in
    let var =
      if count < 2 then 0.0 else Float.max 0.0 ((h.h_sumsq -. (n *. mean *. mean)) /. (n -. 1.0))
    in
    {
      Xroute_support.Stats.count;
      mean;
      stddev = sqrt var;
      min = Sketch.min_value s;
      max = Sketch.max_value s;
      p50 = Sketch.quantile s 0.5;
      p95 = Sketch.quantile s 0.95;
      p99 = Sketch.quantile s 0.99;
    }
  end

(* ---------------- lookup helpers ---------------- *)

(* One scalar per metric: counter value, gauge value, or histogram
   observation count — the "did this hot path fire at all" view. *)
let scalar t name =
  match find t name with
  | Some (Counter c) -> Some (float_of_int c.c_value)
  | Some (Gauge g) -> Some g.g_value
  | Some (Histogram h) -> Some (float_of_int (observations h))
  | None -> None

(* ---------------- aggregation ---------------- *)

(* Merge registries: counters and gauges sum, histograms merge their
   sketches and sums of squares. Used to total per-broker registries
   network-wide. *)
let aggregate ts =
  let out = create () in
  List.iter
    (fun t ->
      List.iter
        (fun (name, help, m) ->
          match m with
          | Counter c ->
            let c' = counter out ~help name in
            c'.c_value <- c'.c_value + c.c_value
          | Gauge g ->
            let g' = gauge out ~help name in
            g'.g_value <- g'.g_value +. g.g_value
          | Histogram h ->
            let h' = histogram out ~help name in
            h'.h_sumsq <- h'.h_sumsq +. h.h_sumsq;
            Sketch.merge_into ~dst:h'.h_sketch h.h_sketch)
        (metrics t))
    ts;
  out

(* ---------------- exposition ---------------- *)

(* Stable float rendering: integers without a fraction, everything else
   with up to 6 significant digits (valid in both formats). *)
let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_prometheus t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, help, m) ->
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      match m with
      | Counter c ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
        Buffer.add_string buf (Printf.sprintf "%s %d\n" name c.c_value)
      | Gauge g ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name);
        Buffer.add_string buf (Printf.sprintf "%s %s\n" name (fmt_float g.g_value))
      | Histogram h ->
        let s = summary h in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" name);
        Buffer.add_string buf
          (Printf.sprintf "%s{quantile=\"0.5\"} %s\n" name (fmt_float s.p50));
        Buffer.add_string buf
          (Printf.sprintf "%s{quantile=\"0.95\"} %s\n" name (fmt_float s.p95));
        Buffer.add_string buf
          (Printf.sprintf "%s{quantile=\"0.99\"} %s\n" name (fmt_float s.p99));
        Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" name (fmt_float (sum h)));
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name s.count))
    (metrics t);
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let item (name, help, m) =
    let base = Printf.sprintf "\"name\":\"%s\",\"help\":\"%s\"" (json_escape name) (json_escape help) in
    match m with
    | Counter c -> Printf.sprintf "{%s,\"type\":\"counter\",\"value\":%d}" base c.c_value
    | Gauge g -> Printf.sprintf "{%s,\"type\":\"gauge\",\"value\":%s}" base (fmt_float g.g_value)
    | Histogram h ->
      let s = summary h in
      Printf.sprintf
        "{%s,\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"mean\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s}"
        base s.count (fmt_float (sum h)) (fmt_float s.mean) (fmt_float s.min)
        (fmt_float s.max) (fmt_float s.p50) (fmt_float s.p95) (fmt_float s.p99)
  in
  "{\"metrics\":[" ^ String.concat "," (List.map item (metrics t)) ^ "]}"
