(* Rows are sharded into fixed-size chunks so very large tables are not
   one allocation and a spilled table pages one frame at a time. The
   chunk layout is invisible to readers that go through the iteration
   API: row order is always chunk order.

   A table's chunks live in one of two stores. [Resident] is the plain
   in-memory array-of-chunks. [Spilled] keeps the rows in a chunk file
   on disk and reads them back through a shared buffer pool — the chunk
   API below is then a faulting read path, one pinned frame at a time
   for sequential iteration. Which store a new table gets is decided at
   construction by the global spill mode: when enabled, *every* table
   built (base data, join outputs, QuerySplit temps) spills, so the
   engine runs fully out-of-core.

   The store also decides the chunk layout: a resident table holds the
   row arrays it was built from (no encode on the write path of a temp
   that is read once or twice), while a chunk-file frame always holds
   column blocks (a fault decodes into unboxed arrays instead of one
   boxed value per cell). Hand-built columnar chunks ([of_chunk_data])
   stay columnar in either store. *)

type store =
  | Resident of Chunk.t array
  | Spilled of { file : Chunk_file.t; bp : Buffer_pool.t }

type t = {
  name : string;
  schema : Schema.t;
  store : store;
  offsets : int array; (* offsets.(i) = global row id of chunk i's row 0;
                          offsets.(n_chunks) = total rows *)
  chunk_bytes : int array; (* memoized per-chunk byte sizes; -1 = unknown *)
}

(* Default rows per chunk. Set once at startup (--chunk-rows); ints are
   immediate, so a racy read at worst sees the old default. *)
let default_chunk = ref 65_536

let default_chunk_rows () = !default_chunk
let set_default_chunk_rows n = default_chunk := max 1 n

(* Global spill mode: a scratch directory and the buffer pool shared by
   every spilled table. Set once at startup (--spill-dir) or toggled
   around a test body; construction reads it once per table. *)
let spill_mode : (string * Buffer_pool.t) option ref = ref None

let set_spill cfg = spill_mode := cfg
let spill_config () = !spill_mode

let check_arity ~name ~schema rows =
  let arity = Schema.arity schema in
  Array.iter
    (fun r ->
      if Array.length r <> arity then
        invalid_arg
          (Printf.sprintf "Table.create %s: row arity %d, schema arity %d" name
             (Array.length r) arity))
    rows

let offsets_of_chunks chunks =
  let nc = Array.length chunks in
  let offsets = Array.make (nc + 1) 0 in
  for i = 0 to nc - 1 do
    offsets.(i + 1) <- offsets.(i) + Chunk.n_rows chunks.(i)
  done;
  offsets

let of_chunk_data_array ~name ~schema (chunks : Chunk.t array) =
  (* every construction path funnels through here, so degenerate inputs
     are normalized in exactly one place: zero-row chunks are dropped
     (keeping offsets strictly increasing) and can therefore never reach
     the chunk-file writer as a zero-length frame *)
  let chunks =
    if Array.exists (fun c -> Chunk.n_rows c = 0) chunks then
      Array.of_list
        (List.filter (fun c -> Chunk.n_rows c > 0) (Array.to_list chunks))
    else chunks
  in
  let offsets = offsets_of_chunks chunks in
  match !spill_mode with
  | Some (dir, bp) when Array.length chunks > 0 ->
      let file, chunk_bytes =
        Chunk_file.write ~dir ~name ~arity:(Schema.arity schema) chunks
      in
      { name; schema; store = Spilled { file; bp }; offsets; chunk_bytes }
  | _ ->
      {
        name;
        schema;
        store = Resident chunks;
        offsets;
        chunk_bytes = Array.make (Array.length chunks) (-1);
      }

let of_chunk_data ~name ~schema chunks =
  of_chunk_data_array ~name ~schema (Array.of_list chunks)

(* Row-chunk construction: resident tables keep the row arrays as they
   are; under spill mode the chunk-file writer encodes them column-major,
   so the storage, not the caller, picks the layout. *)
let of_chunk_array ~name ~schema chunks =
  of_chunk_data_array ~name ~schema (Array.map Chunk.of_rows chunks)

let create ?chunk_rows ~name ~schema rows =
  check_arity ~name ~schema rows;
  let cr = max 1 (Option.value chunk_rows ~default:!default_chunk) in
  let n = Array.length rows in
  let chunks =
    if n = 0 then [||]
    else if n <= cr then [| rows |]
    else
      Array.init
        ((n + cr - 1) / cr)
        (fun ci ->
          let start = ci * cr in
          Array.sub rows start (min cr (n - start)))
  in
  of_chunk_array ~name ~schema chunks

let of_rows ?chunk_rows ~name ~schema rows =
  create ?chunk_rows ~name ~schema (Array.of_list rows)

let of_chunks ~name ~schema chunks =
  (* pre-chunked construction (per-chunk filter outputs, union of
     tables): batches may be ragged and interleaved with empty ones;
     [of_chunk_array] drops the empties so chunk counts stay
     proportional to data, not to operator fan-out *)
  let chunks = Array.of_list chunks in
  Array.iter (fun c -> check_arity ~name ~schema c) chunks;
  of_chunk_array ~name ~schema chunks

let n_chunks t = Array.length t.offsets - 1
let n_rows t = t.offsets.(n_chunks t)
let spilled t = match t.store with Spilled _ -> true | Resident _ -> false

let chunk_data t i =
  match t.store with
  | Resident chunks -> chunks.(i)
  | Spilled { file; bp } -> Buffer_pool.get bp file i

(* Row view of chunk [i]; decodes a columnar chunk, so layout-aware
   consumers should prefer [chunk_data] / [iter_chunk_data]. *)
let chunk t i = Chunk.rows (chunk_data t i)

let chunk_offset t i = t.offsets.(i)
let chunk_list t = List.init (n_chunks t) (chunk t)

(* Sequential chunk walk: the shared scan loop of iter/iteri/fold. On a
   spilled table each chunk is pinned while the consumer runs (pins
   release on exception, so cancellation mid-scan leaks nothing). *)
let scan_chunk_data t f =
  match t.store with
  | Resident chunks -> Array.iteri f chunks
  | Spilled { file; bp } ->
      for ci = 0 to n_chunks t - 1 do
        Buffer_pool.with_pin bp file ci (fun chunk -> f ci chunk)
      done

let iter_chunk_data f t = scan_chunk_data t f
let scan_chunks t f = scan_chunk_data t (fun ci c -> f ci (Chunk.rows c))
let iter_chunks f t = scan_chunks t f
let iter f t = scan_chunks t (fun _ rows -> Array.iter f rows)

let iteri f t =
  scan_chunks t (fun ci rows ->
      let base = t.offsets.(ci) in
      Array.iteri (fun i row -> f (base + i) row) rows)

let fold f init t =
  let acc = ref init in
  scan_chunks t (fun _ rows -> acc := Array.fold_left f !acc rows);
  !acc

let to_seq t =
  Seq.concat_map (fun ci -> Array.to_seq (chunk t ci))
    (Seq.init (n_chunks t) Fun.id)

let to_rows t =
  match n_chunks t with
  | 0 -> [||]
  | 1 -> chunk t 0
  | _ -> Array.concat (chunk_list t)

(* chunk holding global row [i]: binary search over the offset table *)
let chunk_of_row t i =
  if i < 0 || i >= n_rows t then
    invalid_arg (Printf.sprintf "Table.row %s: index %d out of %d" t.name i (n_rows t));
  let lo = ref 0 and hi = ref (n_chunks t - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.offsets.(mid) <= i then lo := mid else hi := mid - 1
  done;
  !lo

let row t i =
  let ci = chunk_of_row t i in
  Chunk.row (chunk_data t ci) (i - t.offsets.(ci))

let get t ~row:r ~col = (row t r).(col)

let column_values t col =
  let out = Array.make (n_rows t) Value.Null in
  iteri (fun i r -> out.(i) <- r.(col)) t;
  out

let chunk_byte_size t i =
  let b = t.chunk_bytes.(i) in
  if b >= 0 then b
  else begin
    (* only a Resident chunk can be unmemoized: the chunk-file writer
       computes logical sizes during its serialization walk, so spilled
       tables never fault for accounting *)
    let b = Chunk.byte_size (chunk_data t i) in
    (* memo write is racy across domains but idempotent: both sides
       compute the same immediate int *)
    t.chunk_bytes.(i) <- b;
    b
  end

let byte_size t =
  let total = ref 0 in
  for i = 0 to n_chunks t - 1 do
    total := !total + chunk_byte_size t i
  done;
  !total

let rename t name = { t with name; schema = Schema.requalify name t.schema }

let with_name t name = { t with name }

let reschema ~name ~schema t =
  if Schema.arity schema <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Table.reschema %s: arity %d, had %d" name
         (Schema.arity schema) (Schema.arity t.schema));
  { t with name; schema }

(* Canonical multiset digest: rows rendered with columns in sorted-id
   order, then sorted — invariant under row and column order, so
   harness, served and out-of-core runs of the same query
   compare byte-for-byte (chunk-file serialization round-trips values
   exactly, floats through their IEEE bits). *)
let digest t =
  let order =
    Array.to_list t.schema
    |> List.mapi (fun i c -> (Schema.column_id c, i))
    |> List.sort compare
  in
  let rows =
    fold
      (fun acc row ->
        String.concat "\x00"
          (List.map (fun (_, i) -> Value.to_string row.(i)) order)
        :: acc)
      [] t
    |> List.sort compare
  in
  let header = String.concat "\x00" (List.map fst order) in
  Digest.to_hex (Digest.string (String.concat "\x01" (header :: rows)))

let pp_sample ?(limit = 10) fmt t =
  Format.fprintf fmt "table %s (%d rows): %a@." t.name (n_rows t) Schema.pp t.schema;
  let shown = min limit (n_rows t) in
  for i = 0 to shown - 1 do
    let cells = Array.to_list (Array.map Value.to_string (row t i)) in
    Format.fprintf fmt "  | %s@." (String.concat " | " cells)
  done;
  if n_rows t > shown then Format.fprintf fmt "  ... (%d more)@." (n_rows t - shown)
