(* Mergeable quantile sketch with a bounded relative error, in the
   DDSketch family: values are binned into exponentially-growing buckets
   indexed by ceil(log_gamma v) with gamma = (1+alpha)/(1-alpha), so the
   midpoint estimate 2*gamma^i/(gamma+1) of any bucket is within a
   relative error of alpha of every value the bucket holds. Bucket
   counts are integers and merge by addition, which makes the merge
   exact, commutative and associative — the reason federation routes
   all cross-broker quantiles through this module, and every
   {!Metrics} histogram is one.

   Values below [tiny] (1e-9) in magnitude land in a dedicated zero
   bucket; negative values get a mirrored bucket table over their
   magnitude, so the sketch is total over floats (NaN is rejected).
   Alongside the buckets the sketch tracks exact count, sum, min and
   max, which quantile estimates are clamped into.

   The wire encoding is canonical: fields are ';'-separated, buckets
   ascending by index, floats rendered as hex float literals ("%h") so
   decode(encode s) reproduces s bit-for-bit on every platform. *)

type t = {
  alpha : float;
  gamma : float;
  log_gamma : float;
  mutable count : int;
  mutable zero : int; (* observations with |v| <= tiny *)
  mutable sum : float;
  mutable lo : float; (* exact min; +inf when empty *)
  mutable hi : float; (* exact max; -inf when empty *)
  pos : (int, int) Hashtbl.t; (* bucket index -> count, v > tiny *)
  neg : (int, int) Hashtbl.t; (* bucket index over -v, v < -tiny *)
}

let tiny = 1e-9
let default_alpha = 0.01

let create ?(alpha = default_alpha) () =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Sketch.create: alpha must be in (0, 1)";
  let gamma = (1.0 +. alpha) /. (1.0 -. alpha) in
  {
    alpha;
    gamma;
    log_gamma = log gamma;
    count = 0;
    zero = 0;
    sum = 0.0;
    lo = infinity;
    hi = neg_infinity;
    pos = Hashtbl.create 64;
    neg = Hashtbl.create 4;
  }

let alpha t = t.alpha
let count t = t.count
let sum t = t.sum
let min_value t = t.lo
let max_value t = t.hi

let bucket_incr tbl idx n =
  match Hashtbl.find_opt tbl idx with
  | Some c -> Hashtbl.replace tbl idx (c + n)
  | None -> Hashtbl.add tbl idx n

(* ceil(log_gamma v) as an int. The +1e-11 nudge keeps exact powers of
   gamma from straddling two buckets across platforms' libm rounding. *)
let index_of t v = int_of_float (Float.ceil ((log v /. t.log_gamma) -. 1e-11))

let observe t v =
  if Float.is_nan v then invalid_arg "Sketch.observe: nan";
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.lo then t.lo <- v;
  if v > t.hi then t.hi <- v;
  if Float.abs v <= tiny then t.zero <- t.zero + 1
  else if v > 0.0 then bucket_incr t.pos (index_of t v) 1
  else bucket_incr t.neg (index_of t (-.v)) 1

(* Midpoint (in log space) of bucket [idx]: within alpha relative error
   of every value binned there. *)
let estimate t idx = 2.0 *. exp (float_of_int idx *. t.log_gamma) /. (t.gamma +. 1.0)

let sorted_buckets tbl =
  Hashtbl.fold (fun idx n acc -> (idx, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Nearest-rank quantile (matching [Stats.percentile]): the value whose
   1-based rank is ceil(q * count) in ascending order. Estimates are
   clamped into the exact [lo, hi] envelope. *)
let quantile t q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Sketch.quantile: q outside [0, 1]";
  if t.count = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
    let clamp v = Float.max t.lo (Float.min t.hi v) in
    (* Ascending order: negatives (largest magnitude first), zeros,
       positives (smallest index first). *)
    let neg_desc =
      sorted_buckets t.neg |> List.rev
      |> List.map (fun (idx, n) -> (`Neg idx, n))
    in
    let zero = if t.zero > 0 then [ (`Zero, t.zero) ] else [] in
    let pos = sorted_buckets t.pos |> List.map (fun (idx, n) -> (`Pos idx, n)) in
    let rec go seen = function
      | [] -> t.hi
      | (b, n) :: rest ->
        if seen + n >= rank then
          clamp
            (match b with
            | `Neg idx -> -.estimate t idx
            | `Zero -> 0.0
            | `Pos idx -> estimate t idx)
        else go (seen + n) rest
    in
    go 0 (neg_desc @ zero @ pos)
  end

let copy t =
  {
    t with
    pos = Hashtbl.copy t.pos;
    neg = Hashtbl.copy t.neg;
  }

let merge_into ~dst src =
  if dst.alpha <> src.alpha then invalid_arg "Sketch.merge: alpha mismatch";
  dst.count <- dst.count + src.count;
  dst.zero <- dst.zero + src.zero;
  dst.sum <- dst.sum +. src.sum;
  if src.lo < dst.lo then dst.lo <- src.lo;
  if src.hi > dst.hi then dst.hi <- src.hi;
  Hashtbl.iter (fun idx n -> bucket_incr dst.pos idx n) src.pos;
  Hashtbl.iter (fun idx n -> bucket_incr dst.neg idx n) src.neg

let merge a b =
  let out = copy a in
  merge_into ~dst:out b;
  out

let clear t =
  t.count <- 0;
  t.zero <- 0;
  t.sum <- 0.0;
  t.lo <- infinity;
  t.hi <- neg_infinity;
  Hashtbl.reset t.pos;
  Hashtbl.reset t.neg

(* ---------------- wire encoding ---------------- *)

(* Hex float literals round-trip exactly and render identically on every
   platform, making the encoding canonical: equal sketches encode to
   equal strings. *)
let fenc v = Printf.sprintf "%h" v
let fdec s = float_of_string_opt s

let buckets_enc tbl =
  sorted_buckets tbl
  |> List.map (fun (idx, n) -> Printf.sprintf "%d:%d" idx n)
  |> String.concat ","

let encode t =
  Printf.sprintf "sk1;%s;%d;%d;%s;%s;%s;%s;%s" (fenc t.alpha) t.count t.zero
    (fenc t.sum) (fenc t.lo) (fenc t.hi) (buckets_enc t.pos) (buckets_enc t.neg)

let buckets_dec tbl s =
  if String.equal s "" then true
  else
    String.split_on_char ',' s
    |> List.for_all (fun pair ->
           match String.split_on_char ':' pair with
           | [ idx; n ] -> (
             match (int_of_string_opt idx, int_of_string_opt n) with
             | Some idx, Some n when n > 0 ->
               bucket_incr tbl idx n;
               true
             | _ -> false)
           | _ -> false)

let decode s =
  match String.split_on_char ';' s with
  | [ "sk1"; a; n; z; sum; lo; hi; pos; neg ] -> (
    match (fdec a, int_of_string_opt n, int_of_string_opt z, fdec sum, fdec lo, fdec hi) with
    | Some alpha, Some count, Some zero, Some sum, Some lo, Some hi
      when alpha > 0.0 && alpha < 1.0 && count >= 0 && zero >= 0 ->
      let t = create ~alpha () in
      t.count <- count;
      t.zero <- zero;
      t.sum <- sum;
      t.lo <- lo;
      t.hi <- hi;
      if buckets_dec t.pos pos && buckets_dec t.neg neg then Some t else None
    | _ -> None)
  | _ -> None

let equal a b = String.equal (encode a) (encode b)
