(* Rows are sharded into fixed-size chunks so very large tables are not
   one allocation and a spilled table pages one frame at a time. The
   chunk layout is invisible to readers that go through the iteration
   API: row order is always chunk order.

   A table's chunks live in one of two stores. [Resident] is the plain
   in-memory array-of-chunks. [Spilled] keeps the rows in a chunk file
   on disk and reads them back through the buffer pool of the table's
   [home] — the chunk API below is then a faulting read path, one pinned
   frame at a time for sequential iteration.

   Where a table lives and how it is cut are properties of the data, not
   of the process: a table built from other tables ([~inputs]) takes the
   home (spill directory and buffer pool) of its first input that has
   one, and is cut at its first input's [chunk_rows]; a base table is
   resident and cut at [chunk_rows] (default 65,536) until [spill] gives
   it a home and writes it there. So spilling a catalog's base tables
   runs every query over it fully out-of-core, temps included, while a
   resident catalog in the same process stays resident.

   The store also decides the chunk layout: a resident table holds the
   row arrays it was built from (no encode on the write path of a temp
   that is read once or twice), while a chunk-file frame always holds
   column blocks (a fault decodes into unboxed arrays instead of one
   boxed value per cell). Hand-built columnar chunks ([of_chunk_data])
   stay columnar in either store. *)

type store =
  | Resident of Chunk.t array
  | Spilled of Chunk_file.t

type t = {
  name : string;
  schema : Schema.t;
  store : store;
  offsets : int array; (* offsets.(i) = global row id of chunk i's row 0;
                          offsets.(n_chunks) = total rows *)
  chunk_bytes : int array; (* memoized per-chunk byte sizes; -1 = unknown *)
  chunk_rows : int; (* the cut of [create]; inherited by derived tables *)
  home : (string * Buffer_pool.t) option;
      (* where this table and every table built from it is spilled: a
         directory and the pool that reads it back; [None] is resident.
         An empty table keeps its home though it has no frame to write. *)
}

let base_chunk_rows = 65_536

(* Process-wide home of tables built from no input. Only the benchmark
   program sets it; see the interface. *)
let spill_mode : (string * Buffer_pool.t) option ref = ref None

let set_spill cfg = spill_mode := cfg

let spilled t = match t.store with Spilled _ -> true | Resident _ -> false

(* the home of a table built from [inputs]: its first input's that has
   one; the shim's for a table built from no input *)
let home_of = function
  | [] -> !spill_mode
  | inputs -> List.find_map (fun t -> t.home) inputs

let inherited_chunk_rows = function
  | [] -> base_chunk_rows
  | t :: _ -> t.chunk_rows

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

let of_chunk_data_array ~home ~chunk_rows ~name ~schema (chunks : Chunk.t array) =
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
  match home with
  | Some (dir, _) when Array.length chunks > 0 ->
      let file, chunk_bytes =
        Chunk_file.write ~dir ~name ~arity:(Schema.arity schema) chunks
      in
      { name; schema; store = Spilled file; offsets; chunk_bytes; chunk_rows; home }
  | _ ->
      {
        name;
        schema;
        store = Resident chunks;
        offsets;
        chunk_bytes = Array.make (Array.length chunks) (-1);
        chunk_rows;
        home;
      }

let of_chunk_data ~inputs ~name ~schema chunks =
  of_chunk_data_array ~home:(home_of inputs) ~chunk_rows:(inherited_chunk_rows inputs)
    ~name ~schema (Array.of_list chunks)

(* Row-chunk construction: resident tables keep the row arrays as they
   are; a spilled table's chunk-file writer encodes them column-major,
   so the storage, not the caller, picks the layout. *)
let of_chunk_array ~inputs ~chunk_rows ~name ~schema chunks =
  of_chunk_data_array ~home:(home_of inputs) ~chunk_rows ~name ~schema
    (Array.map Chunk.of_rows chunks)

let create ?chunk_rows ~inputs ~name ~schema rows =
  check_arity ~name ~schema rows;
  let cr = max 1 (Option.value chunk_rows ~default:(inherited_chunk_rows inputs)) in
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
  of_chunk_array ~inputs ~chunk_rows:cr ~name ~schema chunks

let of_rows ?chunk_rows ~name ~schema rows =
  create ?chunk_rows ~inputs:[] ~name ~schema (Array.of_list rows)

let of_chunks ~inputs ~name ~schema chunks =
  (* pre-chunked construction (per-chunk filter outputs, union of
     tables): batches may be ragged and interleaved with empty ones;
     [of_chunk_array] drops the empties so chunk counts stay
     proportional to data, not to operator fan-out *)
  let chunks = Array.of_list chunks in
  Array.iter (fun c -> check_arity ~name ~schema c) chunks;
  of_chunk_array ~inputs ~chunk_rows:(inherited_chunk_rows inputs) ~name ~schema chunks

let n_chunks t = Array.length t.offsets - 1
let n_rows t = t.offsets.(n_chunks t)

(* the pool a spilled table reads through: its home's, which
   [of_chunk_data_array] gave it when it wrote the file *)
let home_pool t =
  match t.home with Some (_, bp) -> bp | None -> invalid_arg "Table: spilled without a home"

let chunk_data t i =
  match t.store with
  | Resident chunks -> chunks.(i)
  | Spilled file -> Buffer_pool.get (home_pool t) file i

let spill ~dir ~pool t =
  of_chunk_data_array ~home:(Some (dir, pool)) ~chunk_rows:t.chunk_rows ~name:t.name
    ~schema:t.schema
    (Array.init (n_chunks t) (chunk_data t))

let with_scratch_home ~capacity f =
  let dir = Filename.temp_file "qs_spill" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f ~dir ~pool:(Buffer_pool.create ~capacity ()))

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
  | Spilled file ->
      let bp = home_pool t in
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

let row_cells t i ~cols ~buf =
  let ci = chunk_of_row t i in
  let r = i - t.offsets.(ci) in
  match chunk_data t ci with
  | Chunk.Rows rows -> rows.(r)
  | Chunk.Cols col ->
      for k = 0 to Array.length cols - 1 do
        let j = cols.(k) in
        buf.(j) <- Columnar.get col ~row:r ~col:j
      done;
      buf

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

(* The result digest. One pass, no sort, no allocation per row: each
   row is hashed into two 63-bit lanes, and the finalized lanes are
   summed with wraparound, which ignores row order but counts
   multiplicity.

   A row feeds its values in sorted column-id order, each as a word
   sequence that starts with a head word whose low 3 bits are the type
   tag, so the sequence is prefix-free and the row's encoding injective:
   [Null] is the head alone, [Bool] the head with the value above the
   tag, [Int] the head then the int, [Float] the head then its IEEE
   bits (every NaN replaced by one canonical NaN, because
   [Value.compare] treats all NaNs as equal; [-0.0] keeps its sign), and
   [Str] a head carrying the length, then the bytes 8 at a time, the
   last partial word read overlapping (or, under 8 bytes, assembled)
   and fixed by the length. A 64-bit word feeds lane A its low 63 bits
   and lane B its high 63, so the two lanes together see every bit.

   Words are read in native byte order: a digest is compared only with
   digests computed by the same build, never stored. *)

external get64 : string -> int -> int64 = "%caml_string_get64"
external get32 : string -> int -> int32 = "%caml_string_get32"

let seed_a = 0x2545_F491_4F6C_DD1D
let seed_b = 0x1B87_3593_9E37_79B9
let mul_a = 0x5851_F42D_4C95_7F2D
let mul_b = 0x3C6E_F372_FE94_F82B

(* one multiply-xorshift step per word; the shift carries the high
   product bits back down, so a difference anywhere in a word reaches
   every bit of the lane within a few words *)
let[@inline] step_a h x =
  let h = (h lxor x) * mul_a in
  h lxor (h lsr 31)

let[@inline] step_b h x =
  let h = (h lxor x) * mul_b in
  h lxor (h lsr 29)

(* fmix64 (MurmurHash3's finalizer) cut to 63 bits: full avalanche
   before the lanes are summed, so rows differing in one bit add
   unrelated terms *)
let[@inline] fmix h =
  let h = (h lxor (h lsr 32)) * 0x7F51_AFD7_ED55_8CCD in
  let h = (h lxor (h lsr 29)) * 0x44CE_B9FE_1A85_EC53 in
  h lxor (h lsr 32)

(* the 1..7 bytes of a short string as one word of at most 56 bits *)
let[@inline] short_word s len =
  if len >= 4 then
    let lo = Int32.to_int (get32 s 0) land 0xFFFF_FFFF in
    let hi = Int32.to_int (get32 s (len - 4)) land 0xFFFF_FFFF in
    lo lor ((hi lsr (8 * (8 - len))) lsl 32)
  else
    Char.code s.[0] lor (Char.code s.[len / 2] lsl 8) lor (Char.code s.[len - 1] lsl 16)

let nan_bits = Int64.bits_of_float Float.nan

(* The two lanes of the row being hashed. One record per digest, so the
   feeders below update them in place and allocate nothing; each feeder
   is one value's word sequence. *)
type lanes = { mutable a : int; mutable b : int }

let[@inline] feed_word l w =
  l.a <- step_a l.a w;
  l.b <- step_b l.b w

let[@inline] feed_null l = feed_word l 0
let[@inline] feed_bool l v = feed_word l (if v then 9 else 1)

let[@inline] feed_int l i =
  feed_word l 2;
  l.a <- step_a l.a i;
  l.b <- step_b l.b i

let[@inline] feed_float l f =
  let w = if Float.is_nan f then nan_bits else Int64.bits_of_float f in
  feed_word l 3;
  l.a <- step_a l.a (Int64.to_int w);
  l.b <- step_b l.b (Int64.to_int (Int64.shift_right_logical w 1))

let feed_str l s =
  let len = String.length s in
  feed_word l (4 lor (len lsl 3));
  if len >= 8 then begin
    let i = ref 0 in
    while !i < len do
      (* the last word overlaps its predecessor unless the length is a
         multiple of 8 *)
      let w = get64 s (Int.min !i (len - 8)) in
      l.a <- step_a l.a (Int64.to_int w);
      l.b <- step_b l.b (Int64.to_int (Int64.shift_right_logical w 1));
      i := !i + 8
    done
  end
  else if len > 0 then feed_word l (short_word s len)

let feed_value l = function
  | Value.Null -> feed_null l
  | Value.Bool v -> feed_bool l v
  | Value.Int i -> feed_int l i
  | Value.Float f -> feed_float l f
  | Value.Str s -> feed_str l s

(* A column-major cell, fed straight from its unboxed array: the same
   words as [feed_value] of [Columnar.get], without boxing the value. *)
let feed_cell l (c : Columnar.column) i =
  match c with
  | Columnar.CInt (a, nl) -> if Columnar.is_null_at nl i then feed_null l else feed_int l a.(i)
  | Columnar.CFloat (a, nl) ->
      if Columnar.is_null_at nl i then feed_null l else feed_float l a.(i)
  | Columnar.CBool (a, nl) -> if Columnar.is_null_at nl i then feed_null l else feed_bool l a.(i)
  | Columnar.CStr { dict; codes; nulls } ->
      if Columnar.is_null_at nulls i then feed_null l else feed_str l dict.(codes.(i))
  | Columnar.CGen a -> feed_value l a.(i)

let digest t =
  let order =
    Array.to_list t.schema
    |> List.mapi (fun i c -> (Schema.column_id c, i))
    |> List.sort compare
  in
  let cols = Array.of_list (List.map snd order) in
  let ncols = Array.length cols in
  let l = { a = 0; b = 0 } in
  let sum_a = ref 0 and sum_b = ref 0 in
  let row_done () =
    sum_a := !sum_a + fmix l.a;
    sum_b := !sum_b + fmix l.b
  in
  (* a spilled table's frames are column-major: hash them in place *)
  scan_chunk_data t (fun _ chunk ->
      match chunk with
      | Chunk.Rows rows ->
          Array.iter
            (fun row ->
              l.a <- seed_a;
              l.b <- seed_b;
              for k = 0 to ncols - 1 do
                feed_value l row.(cols.(k))
              done;
              row_done ())
            rows
      | Chunk.Cols col ->
          let cs = Array.map (Columnar.column col) cols in
          for i = 0 to Columnar.n_rows col - 1 do
            l.a <- seed_a;
            l.b <- seed_b;
            for k = 0 to ncols - 1 do
              feed_cell l cs.(k) i
            done;
            row_done ()
          done);
  (* once per table: the column ids, the row count and the two sums *)
  let buf = Buffer.create 256 in
  List.iter
    (fun (id, _) ->
      Buffer.add_int32_be buf (Int32.of_int (String.length id));
      Buffer.add_string buf id)
    order;
  Buffer.add_int64_be buf (Int64.of_int (n_rows t));
  Buffer.add_int64_be buf (Int64.of_int !sum_a);
  Buffer.add_int64_be buf (Int64.of_int !sum_b);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp_sample ?(limit = 10) fmt t =
  Format.fprintf fmt "table %s (%d rows): %a@." t.name (n_rows t) Schema.pp t.schema;
  let shown = min limit (n_rows t) in
  for i = 0 to shown - 1 do
    let cells = Array.to_list (Array.map Value.to_string (row t i)) in
    Format.fprintf fmt "  | %s@." (String.concat " | " cells)
  done;
  if n_rows t > shown then Format.fprintf fmt "  ... (%d more)@." (n_rows t - shown)
