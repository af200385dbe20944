(* Allocation helper for simulator hot paths.

   [Arena] is a chunked, append-only store of fixed-shape rows
   (int, int, float) — delivery-ledger entries, churn logs — kept in
   parallel unboxed chunk arrays so a million-row ledger costs three
   flat arrays per chunk instead of a million boxed tuples, and grows
   without copying existing rows. *)

module Arena = struct
  type chunk = { a : int array; b : int array; t : floatarray }

  type t = {
    chunk_rows : int;
    mutable chunks : chunk array;
    mutable n_chunks : int;
    mutable len : int;
  }

  let create ?(chunk_rows = 65_536) () =
    let chunk_rows = max chunk_rows 16 in
    { chunk_rows; chunks = [||]; n_chunks = 0; len = 0 }

  let length t = t.len

  let new_chunk t =
    { a = Array.make t.chunk_rows 0;
      b = Array.make t.chunk_rows 0;
      t = Float.Array.create t.chunk_rows }

  let dummy_chunk =
    { a = [||]; b = [||]; t = Float.Array.create 0 }

  let add_chunk t =
    if t.n_chunks = Array.length t.chunks then begin
      let cap = max 4 (2 * Array.length t.chunks) in
      let chunks = Array.make cap dummy_chunk in
      Array.blit t.chunks 0 chunks 0 t.n_chunks;
      t.chunks <- chunks
    end;
    t.chunks.(t.n_chunks) <- new_chunk t;
    t.n_chunks <- t.n_chunks + 1

  let add t a b time =
    let row = t.len in
    let ci = row / t.chunk_rows and ri = row mod t.chunk_rows in
    if ci = t.n_chunks then add_chunk t;
    let c = t.chunks.(ci) in
    c.a.(ri) <- a;
    c.b.(ri) <- b;
    Float.Array.set c.t ri time;
    t.len <- row + 1;
    row

  let check t i =
    if i < 0 || i >= t.len then invalid_arg "Pool.Arena: row out of bounds"

  let get_a t i = check t i; t.chunks.(i / t.chunk_rows).a.(i mod t.chunk_rows)
  let get_b t i = check t i; t.chunks.(i / t.chunk_rows).b.(i mod t.chunk_rows)

  let get_time t i =
    check t i;
    Float.Array.get t.chunks.(i / t.chunk_rows).t (i mod t.chunk_rows)

  let iter t f =
    for ci = 0 to t.n_chunks - 1 do
      let c = t.chunks.(ci) in
      let base = ci * t.chunk_rows in
      let hi = min t.chunk_rows (t.len - base) - 1 in
      for ri = 0 to hi do
        f c.a.(ri) c.b.(ri) (Float.Array.get c.t ri)
      done
    done

  let clear t =
    t.chunks <- [||];
    t.n_chunks <- 0;
    t.len <- 0

  (* Order-sensitive 64-bit digest of rows (splitmix64-style mixing);
     used to compare large ledgers without materializing them as text.
     The incremental form ([digest_empty]/[digest_row]/[digest_close])
     lets a streaming consumer compute the same value {!digest} would
     report over an arena holding the same rows. *)
  let mix h k =
    let h = Int64.add h 0x9E3779B97F4A7C15L in
    let h = Int64.logxor h k in
    let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 30)) 0xBF58476D1CE4E5B9L in
    let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 27)) 0x94D049BB133111EBL in
    Int64.logxor h (Int64.shift_right_logical h 31)

  let digest_empty = 0L

  let digest_row h a b time =
    mix (mix (mix h (Int64.of_int a)) (Int64.of_int b)) (Int64.bits_of_float time)

  let digest_close h len = mix h (Int64.of_int len)

  let digest t =
    let h = ref digest_empty in
    iter t (fun a b time -> h := digest_row !h a b time);
    digest_close !h t.len
end
