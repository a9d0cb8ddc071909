(* On-disk chunk-file format for spilled tables. One write-once file per
   table: a fixed header followed by fixed-size frames, one frame per
   chunk, so a frame's offset is a multiplication away.

     header  : magic "QSCF0004" | n_frames | frame_size | arity   (32 B)
     frame i : n_rows | used_bytes
               | directory: per column, block offset | block length
               | column blocks, zero-padded to frame_size
                                                  (16 + 16 * arity B hdr)

   All integers are 8-byte big-endian unless noted. A block offset is
   counted from the frame's start; [used_bytes] is the total length of
   the blocks, which follow the directory back to back in column order.
   A frame's payload is always column-major — one block per column, see
   below: the writer encodes every row-major chunk it is given with
   [Columnar.of_rows], so a spilled table always faults back in
   columnar, whatever layout it was built in. Floats ship as their IEEE
   bits, so a reloaded chunk is value-for-value identical to the
   spilled one (digest parity).

   A read faults in the frame header and the directory only (one seek,
   one read). Each column block is read (one seek, one read) and decoded
   the first time an accessor touches that column of the chunk
   ([Columnar.of_pending]): a scan that reads 3 of a fact table's 8
   columns reads and decodes 3 blocks. The blocks are read from the file
   as it is then, so a file must outlive every chunk read from it that
   may still be touched. Every corruption check runs where the bytes it
   checks are read: the header and directory at the fault, a block's
   contents at its first touch; each raises [Failure].

   The frame size is computed from the largest *serialized* chunk
   ([ser_chunk_size], exact by construction): a dictionary-heavy string
   column can serialize larger than its row form (dict entries + 4-byte
   codes vs inline strings), so sizing from the row form would overflow
   frames.

   Reads open/seek/read/close per fault and per block: no persistent
   file descriptors means no fd-per-table exhaustion and nothing to
   guard across domains — concurrent reads of the same file are
   independent. *)

type t = {
  id : int;  (* process-unique, the buffer pool's cache key *)
  path : string;
  n_frames : int;
  frame_size : int;  (* bytes per frame, header included *)
  arity : int;
}

let magic = "QSCF0004"
let header_size = 32

(* n_rows, used_bytes, then one (offset, length) pair per column *)
let frame_header_size arity = 16 + (16 * arity)
let next_id = Atomic.make 0

let id t = t.id
let path t = t.path
let n_frames t = t.n_frames

(* --- value serialization ----------------------------------------------- *)

let ser_size = function
  | Value.Null -> 1
  | Value.Bool _ -> 2
  | Value.Int _ | Value.Float _ -> 9
  | Value.Str s -> 5 + String.length s

(* The generic column block's value encoding: a tag byte, then nothing
   ([Null]), one byte ([Bool]), an 8-byte big-endian int ([Int]), the
   8-byte IEEE bits ([Float], so NaN payloads and [-0.0] survive) or a
   4-byte length and the bytes ([Str]). *)
let put_value buf v =
  match v with
  | Value.Null -> Buffer.add_char buf '\000'
  | Value.Bool b ->
      Buffer.add_char buf '\001';
      Buffer.add_char buf (if b then '\001' else '\000')
  | Value.Int i ->
      Buffer.add_char buf '\002';
      Buffer.add_int64_be buf (Int64.of_int i)
  | Value.Float f ->
      Buffer.add_char buf '\003';
      Buffer.add_int64_be buf (Int64.bits_of_float f)
  | Value.Str s ->
      Buffer.add_char buf '\004';
      Buffer.add_int32_be buf (Int32.of_int (String.length s));
      Buffer.add_string buf s

(* [where] names the file, and for a block its frame and column *)
let corrupt where what =
  failwith (Printf.sprintf "Chunk_file %s: corrupt frame (%s)" where what)

(* Every decoder checks that the bytes it is about to read are inside
   the block, so a short or garbled block fails cleanly instead of
   reading past its end. *)
let need where b pos k what = if k < 0 || !pos + k > Bytes.length b then corrupt where what

let get_value where b pos =
  need where b pos 1 "truncated value";
  let tag = Bytes.get b !pos in
  incr pos;
  match tag with
  | '\000' -> Value.Null
  | '\001' ->
      need where b pos 1 "truncated value";
      let c = Bytes.get b !pos in
      incr pos;
      Value.Bool (c <> '\000')
  | '\002' ->
      need where b pos 8 "truncated value";
      let v = Bytes.get_int64_be b !pos in
      pos := !pos + 8;
      Value.Int (Int64.to_int v)
  | '\003' ->
      need where b pos 8 "truncated value";
      let v = Bytes.get_int64_be b !pos in
      pos := !pos + 8;
      Value.Float (Int64.float_of_bits v)
  | '\004' ->
      need where b pos 4 "truncated value";
      let len = Int32.to_int (Bytes.get_int32_be b !pos) in
      pos := !pos + 4;
      need where b pos len "string length";
      let s = Bytes.sub_string b !pos len in
      pos := !pos + len;
      Value.Str s
  | _ -> corrupt where "value tag"

(* --- columnar serialization --------------------------------------------- *)

(* Per-column block:
     tag byte ('I' int | 'F' float | 'B' bool | 'S' string dict | 'G' generic)
     nulls    : flag byte (0 = none), then ceil(n/8) bitset bytes if 1
                (generic columns carry no bitset — NULLs are inline)
     data     : I/F  8n bytes (i64 BE / IEEE bits)
                B    n bytes
                S    i32 dict count | per entry: i32 len + bytes | 4n i32 codes
                G    n tagged values *)

let nulls_ser_size n = function
  | None -> 1
  | Some _ -> 1 + ((n + 7) / 8)

let ser_col_size n (c : Columnar.column) =
  match c with
  | Columnar.CInt (_, nl) | Columnar.CFloat (_, nl) ->
      1 + nulls_ser_size n nl + (8 * n)
  | Columnar.CBool (_, nl) -> 1 + nulls_ser_size n nl + n
  | Columnar.CStr { dict; nulls; _ } ->
      1 + nulls_ser_size n nulls + 4
      + Array.fold_left (fun acc s -> acc + 4 + String.length s) 0 dict
      + (4 * n)
  | Columnar.CGen vs ->
      1 + 1 + Array.fold_left (fun acc v -> acc + ser_size v) 0 vs

(* The column blocks a chunk is written as: a row-major chunk is
   encoded here, a column-major one is written as it is. *)
let columns_of (chunk : Chunk.t) =
  match chunk with Chunk.Rows rows -> Columnar.of_rows rows | Chunk.Cols c -> c

let ser_columns_size c =
  let n = Columnar.n_rows c in
  Array.fold_left (fun acc col -> acc + ser_col_size n col) 0 (Columnar.columns c)

(* Exact serialized size of a chunk's column blocks. This — not the
   row-form size — drives the frame size: a dictionary-heavy string
   column (many distinct values, so dict entries + 4-byte codes exceed
   the inline strings) serializes larger columnar than its row form. *)
let ser_chunk_size chunk = ser_columns_size (columns_of chunk)

let put_nulls buf n nl =
  match nl with
  | None -> Buffer.add_char buf '\000'
  | Some b ->
      Buffer.add_char buf '\001';
      Buffer.add_subbytes buf b 0 ((n + 7) / 8)

let put_column buf n (c : Columnar.column) =
  match c with
  | Columnar.CInt (a, nl) ->
      Buffer.add_char buf 'I';
      put_nulls buf n nl;
      Array.iter (fun v -> Buffer.add_int64_be buf (Int64.of_int v)) a
  | Columnar.CFloat (a, nl) ->
      Buffer.add_char buf 'F';
      put_nulls buf n nl;
      Array.iter (fun v -> Buffer.add_int64_be buf (Int64.bits_of_float v)) a
  | Columnar.CBool (a, nl) ->
      Buffer.add_char buf 'B';
      put_nulls buf n nl;
      Array.iter (fun v -> Buffer.add_char buf (if v then '\001' else '\000')) a
  | Columnar.CStr { dict; codes; nulls } ->
      Buffer.add_char buf 'S';
      put_nulls buf n nulls;
      Buffer.add_int32_be buf (Int32.of_int (Array.length dict));
      Array.iter
        (fun s ->
          Buffer.add_int32_be buf (Int32.of_int (String.length s));
          Buffer.add_string buf s)
        dict;
      Array.iter (fun c -> Buffer.add_int32_be buf (Int32.of_int c)) codes
  | Columnar.CGen vs ->
      Buffer.add_char buf 'G';
      Buffer.add_char buf '\000';
      Array.iter (put_value buf) vs

let get_nulls where b pos n =
  need where b pos 1 "truncated block";
  let flag = Bytes.get b !pos in
  incr pos;
  match flag with
  | '\000' -> None
  | '\001' ->
      let len = (n + 7) / 8 in
      need where b pos len "null bitset";
      let bits = Bytes.sub b !pos len in
      pos := !pos + len;
      Some bits
  | _ -> corrupt where "null flag"

let get_column where b pos n : Columnar.column =
  need where b pos 1 "truncated block";
  let tag = Bytes.get b !pos in
  incr pos;
  match tag with
  | 'I' ->
      let nl = get_nulls where b pos n in
      need where b pos (8 * n) "truncated block";
      let a = Array.make n 0 and base = !pos in
      for i = 0 to n - 1 do
        Array.unsafe_set a i (Int64.to_int (Bytes.get_int64_be b (base + (8 * i))))
      done;
      pos := !pos + (8 * n);
      Columnar.CInt (a, nl)
  | 'F' ->
      let nl = get_nulls where b pos n in
      need where b pos (8 * n) "truncated block";
      (* a loop, not [Array.init]: no boxed float per element *)
      let a = Array.create_float n and base = !pos in
      for i = 0 to n - 1 do
        Array.unsafe_set a i (Int64.float_of_bits (Bytes.get_int64_be b (base + (8 * i))))
      done;
      pos := !pos + (8 * n);
      Columnar.CFloat (a, nl)
  | 'B' ->
      let nl = get_nulls where b pos n in
      need where b pos n "truncated block";
      let a = Array.init n (fun i -> Bytes.get b (!pos + i) <> '\000') in
      pos := !pos + n;
      Columnar.CBool (a, nl)
  | 'S' ->
      let nulls = get_nulls where b pos n in
      need where b pos 4 "truncated block";
      let count = Int32.to_int (Bytes.get_int32_be b !pos) in
      pos := !pos + 4;
      if count < 0 then corrupt where "dict size";
      let dict =
        Array.init count (fun _ ->
            need where b pos 4 "truncated block";
            let len = Int32.to_int (Bytes.get_int32_be b !pos) in
            pos := !pos + 4;
            need where b pos len "dict entry length";
            let s = Bytes.sub_string b !pos len in
            pos := !pos + len;
            s)
      in
      need where b pos (4 * n) "truncated block";
      let codes = Array.make n 0 and base = !pos in
      for i = 0 to n - 1 do
        let c = Int32.to_int (Bytes.get_int32_be b (base + (4 * i))) in
        if (c < 0 || c >= count) && not (count = 0 && c = 0) then corrupt where "dict code";
        Array.unsafe_set codes i c
      done;
      pos := !pos + (4 * n);
      Columnar.CStr { dict; codes; nulls }
  | 'G' ->
      need where b pos 1 "truncated block";
      incr pos (* unused nulls flag byte *);
      Columnar.CGen (Array.init n (fun _ -> get_value where b pos))
  | _ -> corrupt where "column tag"

(* --- writing ------------------------------------------------------------ *)

let sanitize name =
  let name = if String.length name > 40 then String.sub name 0 40 else name in
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_')
    name

let put_i64 oc v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int v);
  Out_channel.output_bytes oc b

let write ~dir ~name ~arity chunks =
  let n = Array.length chunks in
  if n = 0 then invalid_arg "Chunk_file.write: no chunks";
  (* pass 1: encode, then serialized + logical sizes; a zero-row frame
     would make the offset table ambiguous under faulting, so the writer
     rejects what Table.of_chunk_array should already have normalized
     away *)
  let cols =
    Array.mapi
      (fun i chunk ->
        if Chunk.n_rows chunk = 0 then
          invalid_arg
            (Printf.sprintf "Chunk_file.write %s: empty chunk %d" name i);
        columns_of chunk)
      chunks
  in
  let logical = Array.map Columnar.byte_size cols in
  let max_ser = Array.fold_left (fun m c -> max m (ser_columns_size c)) 0 cols in
  let hdr_size = frame_header_size arity in
  let frame_size = hdr_size + max_ser in
  let id = Atomic.fetch_and_add next_id 1 in
  let path = Filename.concat dir (Printf.sprintf "t%06d-%s.qsc" id (sanitize name)) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc magic;
      put_i64 oc n;
      put_i64 oc frame_size;
      put_i64 oc arity;
      (* pass 2: serialize each chunk into its frame — the directory
         from the exact block sizes, then the blocks; seeking to the next
         frame start zero-extends, so short frames need no explicit pad *)
      let buf = Buffer.create (min max_ser 65536) in
      Array.iteri
        (fun i c ->
          let n_rows = Columnar.n_rows c and blocks = Columnar.columns c in
          if Array.length blocks <> arity then
            invalid_arg
              (Printf.sprintf "Chunk_file.write %s: chunk %d has %d columns, not %d" name i
                 (Array.length blocks) arity);
          Out_channel.seek oc (Int64.of_int (header_size + (i * frame_size)));
          Buffer.clear buf;
          Array.iter (put_column buf n_rows) blocks;
          put_i64 oc n_rows;
          put_i64 oc (Buffer.length buf);
          let off = ref hdr_size in
          Array.iter
            (fun col ->
              let len = ser_col_size n_rows col in
              put_i64 oc !off;
              put_i64 oc len;
              off := !off + len)
            blocks;
          Out_channel.output_string oc (Buffer.contents buf))
        cols);
  ({ id; path; n_frames = n; frame_size; arity }, logical)

(* --- reading ------------------------------------------------------------ *)

let get_i64 b off = Int64.to_int (Bytes.get_int64_be b off)

(* [len] bytes at file offset [off]: one open, seek, read, close. A raw
   descriptor, not a buffered channel, so a small block costs a read of
   its own length rather than a channel buffer's 64 KB. *)
let read_at t ~off ~len what =
  let fd = Unix.openfile t.path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create len in
      let rec fill pos =
        if pos < len then
          match Unix.read fd b pos (len - pos) with
          | 0 -> corrupt t.path what
          | n -> fill (pos + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill pos
      in
      fill 0;
      b)

(* The directory must place every block after it and inside the used
   bytes, with no two blocks overlapping. *)
let check_directory t ~lo ~hi dir =
  Array.iter
    (fun (off, len) ->
      if len <= 0 || off < lo || off > hi - len then corrupt t.path "block out of bounds")
    dir;
  let sorted = Array.copy dir in
  Array.sort compare sorted;
  for j = 1 to Array.length sorted - 1 do
    let off, len = sorted.(j - 1) in
    if off + len > fst sorted.(j) then corrupt t.path "overlapping blocks"
  done

let read ?(block = fun ~col:_ load -> load ()) t i =
  if i < 0 || i >= t.n_frames then
    invalid_arg (Printf.sprintf "Chunk_file.read %s: frame %d of %d" t.path i t.n_frames);
  let base = header_size + (i * t.frame_size) in
  let hdr_size = frame_header_size t.arity in
  let hdr = read_at t ~off:base ~len:hdr_size "truncated frame header" in
  let n_rows = get_i64 hdr 0 in
  let used = get_i64 hdr 8 in
  if n_rows <= 0 then corrupt t.path "zero-row frame";
  if used < 0 || used > t.frame_size - hdr_size then corrupt t.path "frame payload size";
  let dir = Array.init t.arity (fun j -> (get_i64 hdr (16 + (16 * j)), get_i64 hdr (24 + (16 * j)))) in
  check_directory t ~lo:hdr_size ~hi:(hdr_size + used) dir;
  (* column [j]'s block, read and decoded on the chunk's first touch of
     that column *)
  let load j () =
    let off, len = dir.(j) in
    let b = read_at t ~off:(base + off) ~len "truncated column block" in
    let where = Printf.sprintf "%s, frame %d, column %d" t.path i j in
    let pos = ref 0 in
    let col = get_column where b pos n_rows in
    if !pos <> len then corrupt where "block trailer";
    col
  in
  Chunk.of_columnar
    (Columnar.of_pending ~len:n_rows (Array.init t.arity (fun j () -> block ~col:j (load j))))
