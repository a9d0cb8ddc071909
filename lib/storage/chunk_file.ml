(* On-disk chunk-file format for spilled tables. One write-once file per
   table: a fixed header followed by fixed-size frames, one frame per
   chunk, so a frame's offset is a multiplication away and faulting a
   chunk is a single seek + read.

     header  : magic "QSCF0003" | n_frames | frame_size | arity   (32 B)
     frame i : n_rows | used_bytes | payload,
               zero-padded to frame_size                          (16 B hdr)

   All integers are 8-byte big-endian unless noted. A frame's payload
   is always column-major — one block per column, see below: the
   writer encodes every row-major chunk it is given with
   [Columnar.of_rows], so a spilled table always faults back in
   columnar, whatever layout it was built in. Floats ship as their
   IEEE bits, so a reloaded chunk is value-for-value identical to the
   spilled one (digest parity).

   The frame size is computed from the largest *serialized* chunk
   ([ser_chunk_size], exact by construction): a dictionary-heavy string
   column can serialize larger than its row form (dict entries + 4-byte
   codes vs inline strings), so sizing from the row form would overflow
   frames.

   Reads open/seek/read/close per fault: no persistent file descriptors
   means no fd-per-table exhaustion and nothing to guard across domains
   — concurrent faults of the same file are independent reads. *)

type t = {
  id : int;  (* process-unique, the buffer pool's cache key *)
  path : string;
  n_frames : int;
  frame_size : int;  (* bytes per frame, header included *)
  arity : int;
}

let magic = "QSCF0003"
let header_size = 32
let frame_header_size = 16
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

let corrupt path what =
  failwith (Printf.sprintf "Chunk_file %s: corrupt frame (%s)" path what)

let get_value path b pos =
  let tag = Bytes.get b !pos in
  incr pos;
  match tag with
  | '\000' -> Value.Null
  | '\001' ->
      let c = Bytes.get b !pos in
      incr pos;
      Value.Bool (c <> '\000')
  | '\002' ->
      let v = Bytes.get_int64_be b !pos in
      pos := !pos + 8;
      Value.Int (Int64.to_int v)
  | '\003' ->
      let v = Bytes.get_int64_be b !pos in
      pos := !pos + 8;
      Value.Float (Int64.float_of_bits v)
  | '\004' ->
      let len = Int32.to_int (Bytes.get_int32_be b !pos) in
      pos := !pos + 4;
      if len < 0 || !pos + len > Bytes.length b then corrupt path "string length";
      let s = Bytes.sub_string b !pos len in
      pos := !pos + len;
      Value.Str s
  | _ -> corrupt path "value tag"

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

(* Exact serialized payload size of a chunk. This — not the row-form
   size — drives the frame size: a dictionary-heavy string column (many
   distinct values, so dict entries + 4-byte codes exceed the inline
   strings) serializes larger columnar than its row form. *)
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

let put_columns buf c =
  let n = Columnar.n_rows c in
  Array.iter (put_column buf n) (Columnar.columns c)

let get_nulls path b pos n =
  let flag = Bytes.get b !pos in
  incr pos;
  match flag with
  | '\000' -> None
  | '\001' ->
      let len = (n + 7) / 8 in
      if !pos + len > Bytes.length b then corrupt path "null bitset";
      let bits = Bytes.sub b !pos len in
      pos := !pos + len;
      Some bits
  | _ -> corrupt path "null flag"

let get_column path b pos n : Columnar.column =
  let tag = Bytes.get b !pos in
  incr pos;
  match tag with
  | 'I' ->
      let nl = get_nulls path b pos n in
      let a =
        Array.init n (fun i -> Int64.to_int (Bytes.get_int64_be b (!pos + (8 * i))))
      in
      pos := !pos + (8 * n);
      Columnar.CInt (a, nl)
  | 'F' ->
      let nl = get_nulls path b pos n in
      let a =
        Array.init n (fun i ->
            Int64.float_of_bits (Bytes.get_int64_be b (!pos + (8 * i))))
      in
      pos := !pos + (8 * n);
      Columnar.CFloat (a, nl)
  | 'B' ->
      let nl = get_nulls path b pos n in
      let a = Array.init n (fun i -> Bytes.get b (!pos + i) <> '\000') in
      pos := !pos + n;
      Columnar.CBool (a, nl)
  | 'S' ->
      let nulls = get_nulls path b pos n in
      let count = Int32.to_int (Bytes.get_int32_be b !pos) in
      pos := !pos + 4;
      if count < 0 then corrupt path "dict size";
      let dict =
        Array.init count (fun _ ->
            let len = Int32.to_int (Bytes.get_int32_be b !pos) in
            pos := !pos + 4;
            if len < 0 || !pos + len > Bytes.length b then
              corrupt path "dict entry length";
            let s = Bytes.sub_string b !pos len in
            pos := !pos + len;
            s)
      in
      let codes =
        Array.init n (fun i -> Int32.to_int (Bytes.get_int32_be b (!pos + (4 * i))))
      in
      pos := !pos + (4 * n);
      Array.iter
        (fun c ->
          if (c < 0 || c >= count) && not (count = 0 && c = 0) then
            corrupt path "dict code")
        codes;
      Columnar.CStr { dict; codes; nulls }
  | 'G' ->
      incr pos (* unused nulls flag byte *);
      Columnar.CGen (Array.init n (fun _ -> get_value path b pos))
  | _ -> corrupt path "column tag"

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
  let frame_size = frame_header_size + max_ser in
  let id = Atomic.fetch_and_add next_id 1 in
  let path = Filename.concat dir (Printf.sprintf "t%06d-%s.qsc" id (sanitize name)) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc magic;
      put_i64 oc n;
      put_i64 oc frame_size;
      put_i64 oc arity;
      (* pass 2: serialize each chunk into its frame; seeking to the next
         frame start zero-extends, so short frames need no explicit pad *)
      let buf = Buffer.create (min max_ser 65536) in
      Array.iteri
        (fun i c ->
          Out_channel.seek oc (Int64.of_int (header_size + (i * frame_size)));
          Buffer.clear buf;
          put_columns buf c;
          put_i64 oc (Columnar.n_rows c);
          put_i64 oc (Buffer.length buf);
          Out_channel.output_string oc (Buffer.contents buf))
        cols);
  ({ id; path; n_frames = n; frame_size; arity }, logical)

(* --- reading ------------------------------------------------------------ *)

let get_i64 b off = Int64.to_int (Bytes.get_int64_be b off)

let read t i =
  if i < 0 || i >= t.n_frames then
    invalid_arg (Printf.sprintf "Chunk_file.read %s: frame %d of %d" t.path i t.n_frames);
  In_channel.with_open_bin t.path (fun ic ->
      In_channel.seek ic (Int64.of_int (header_size + (i * t.frame_size)));
      let hdr = Bytes.create frame_header_size in
      (match In_channel.really_input ic hdr 0 frame_header_size with
      | Some () -> ()
      | None -> corrupt t.path "truncated frame header");
      let n_rows = get_i64 hdr 0 in
      let used = get_i64 hdr 8 in
      if n_rows <= 0 then corrupt t.path "zero-row frame";
      if used < 0 || used > t.frame_size - frame_header_size then
        corrupt t.path "frame payload size";
      let payload = Bytes.create used in
      (match In_channel.really_input ic payload 0 used with
      | Some () -> ()
      | None -> corrupt t.path "truncated frame payload");
      let pos = ref 0 in
      let cols =
        Array.init t.arity (fun _ -> get_column t.path payload pos n_rows)
      in
      if !pos <> used then corrupt t.path "frame payload trailer";
      Chunk.of_columnar (Columnar.of_parts ~len:n_rows cols))

let remove t = try Sys.remove t.path with Sys_error _ -> ()
