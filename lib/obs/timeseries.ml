type sample = { at : float; values : (string * float) list }

type t = {
  ring : sample option array;
  mutable total : int;
  registry : Metrics.t;
}

(* Samples retained, newest kept. *)
let capacity = 128

let create registry = { ring = Array.make capacity None; total = 0; registry }

let scalar_of = function
  | Metrics.Counter c -> float_of_int (Metrics.value c)
  | Metrics.Gauge g -> Metrics.gauge_value g
  | Metrics.Histogram h -> float_of_int (Metrics.observations h)

let snapshot t ~at =
  let values =
    List.map (fun (name, _help, m) -> (name, scalar_of m)) (Metrics.metrics t.registry)
  in
  t.ring.(t.total mod capacity) <- Some { at; values };
  t.total <- t.total + 1

let length t = t.total

let to_list t =
  let n = min t.total capacity in
  let start = t.total - n in
  List.init n (fun i ->
      match t.ring.((start + i) mod capacity) with
      | Some s -> s
      | None -> assert false)

let last t =
  if t.total = 0 then None else t.ring.((t.total - 1) mod capacity)

let last_two t =
  if t.total < 2 then None
  else
    match (t.ring.((t.total - 2) mod capacity), t.ring.((t.total - 1) mod capacity)) with
    | Some prev, Some cur -> Some (prev, cur)
    | _ -> None

let deltas t =
  match last_two t with
  | None -> []
  | Some (prev, cur) ->
    List.map
      (fun (name, v) ->
        let before = Option.value ~default:0.0 (List.assoc_opt name prev.values) in
        (name, v -. before))
      cur.values

let rates t =
  match last_two t with
  | None -> []
  | Some (prev, cur) ->
    let dt_s = (cur.at -. prev.at) /. 1000.0 in
    if dt_s <= 0.0 then []
    else List.map (fun (name, d) -> (name, d /. dt_s)) (deltas t)
