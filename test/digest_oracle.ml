(* Reference result digest: the per-row MD5 [Table.digest] replaced,
   kept verbatim together with the value encoding it hashed (the
   [Chunk_file] writer's [put_value]), so the two-lane kernel can be
   checked to draw exactly the same equalities between tables. *)

module Value = Qs_storage.Value
module Schema = Qs_storage.Schema
module Table = Qs_storage.Table

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

(* One pass, no sort: the wrapping sums of the per-row MD5s ignore row
   order but count multiplicity. Every NaN is hashed as one canonical
   NaN because [Value.compare] treats all NaNs as equal; [-0.0] and
   [0.0] keep their distinct bits. *)
let digest (t : Table.t) =
  let order =
    Array.to_list t.Table.schema
    |> List.mapi (fun i c -> (Schema.column_id c, i))
    |> List.sort compare
  in
  let cols = Array.of_list (List.map snd order) in
  let buf = Buffer.create 256 in
  let lo = ref 0L and hi = ref 0L in
  Table.iter
    (fun row ->
      Buffer.clear buf;
      for k = 0 to Array.length cols - 1 do
        match row.(cols.(k)) with
        | Value.Float f when Float.is_nan f -> put_value buf (Value.Float Float.nan)
        | v -> put_value buf v
      done;
      let h = Digest.string (Buffer.contents buf) in
      lo := Int64.add !lo (String.get_int64_le h 0);
      hi := Int64.add !hi (String.get_int64_le h 8))
    t;
  Buffer.clear buf;
  List.iter
    (fun (id, _) ->
      Buffer.add_int32_be buf (Int32.of_int (String.length id));
      Buffer.add_string buf id)
    order;
  Buffer.add_int64_be buf (Int64.of_int (Table.n_rows t));
  Buffer.add_int64_be buf !lo;
  Buffer.add_int64_be buf !hi;
  Digest.to_hex (Digest.string (Buffer.contents buf))
