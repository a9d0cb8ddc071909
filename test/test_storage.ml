(* Schema / Table / Index / Catalog. *)

module Value = Qs_storage.Value
module Schema = Qs_storage.Schema
module Table = Qs_storage.Table
module Index = Qs_storage.Index
module Catalog = Qs_storage.Catalog

let sample_table () =
  Table.of_rows ~name:"emp"
    ~schema:(Schema.make "emp" [ ("id", Value.TInt); ("dept", Value.TStr) ])
    [
      [| Value.Int 1; Value.Str "eng" |];
      [| Value.Int 2; Value.Str "ops" |];
      [| Value.Int 3; Value.Str "eng" |];
    ]

let test_schema_find () =
  let s = Schema.make "emp" [ ("id", Value.TInt); ("dept", Value.TStr) ] in
  Alcotest.(check (option int)) "id at 0" (Some 0) (Schema.find s ~rel:"emp" ~name:"id");
  Alcotest.(check (option int)) "missing rel" None (Schema.find s ~rel:"x" ~name:"id");
  Alcotest.(check (option int)) "by name" (Some 1) (Schema.find_by_name s "dept")

let test_schema_find_by_name_ambiguous () =
  let s =
    Schema.concat
      (Schema.make "a" [ ("id", Value.TInt) ])
      (Schema.make "b" [ ("id", Value.TInt) ])
  in
  Alcotest.(check (option int)) "ambiguous -> None" None (Schema.find_by_name s "id");
  Alcotest.(check (option int)) "qualified works" (Some 1) (Schema.find s ~rel:"b" ~name:"id")

let test_schema_requalify () =
  let s = Schema.make "emp" [ ("id", Value.TInt) ] in
  let s2 = Schema.requalify "e" s in
  Alcotest.(check bool) "requalified" true (Schema.mem s2 ~rel:"e" ~name:"id");
  Alcotest.(check bool) "old gone" false (Schema.mem s2 ~rel:"emp" ~name:"id")

let test_table_arity_check () =
  let schema = Schema.make "t" [ ("a", Value.TInt); ("b", Value.TInt) ] in
  Alcotest.(check bool) "bad arity rejected" true
    (try
       ignore (Table.of_rows ~name:"t" ~schema [ [| Value.Int 1 |] ]);
       false
     with Invalid_argument _ -> true)

let test_table_rename_shares_rows () =
  let t = sample_table () in
  let r = Table.rename t "e" in
  Alcotest.(check bool) "chunks shared" true (Table.chunk r 0 == Table.chunk t 0);
  Alcotest.(check string) "renamed" "e" r.Table.name;
  Alcotest.(check bool) "schema requalified" true (Schema.mem r.Table.schema ~rel:"e" ~name:"id")

let test_table_column_values () =
  let t = sample_table () in
  Alcotest.(check int) "3 values" 3 (Array.length (Table.column_values t 0));
  Alcotest.(check bool) "first id" true (Table.get t ~row:0 ~col:0 = Value.Int 1)

let test_table_byte_size () =
  let t = sample_table () in
  (* 3 ints (8 each) + "eng","ops","eng" (24+3 each) *)
  Alcotest.(check int) "byte size" ((3 * 8) + (3 * 27)) (Table.byte_size t)

let int_rows n = Array.init n (fun i -> [| Value.Int i |])
let int_schema = Schema.make "t" [ ("a", Value.TInt) ]

let test_table_chunking () =
  let t = Table.create ~chunk_rows:2 ~inputs:[] ~name:"t" ~schema:int_schema (int_rows 5) in
  Alcotest.(check int) "5 rows" 5 (Table.n_rows t);
  Alcotest.(check int) "3 chunks" 3 (Table.n_chunks t);
  Alcotest.(check int) "last chunk short" 1 (Array.length (Table.chunk t 2));
  Alcotest.(check int) "offset of chunk 2" 4 (Table.chunk_offset t 2);
  (* iteration visits the original row order with global row ids *)
  let seen = ref [] in
  Table.iteri (fun i row -> seen := (i, Value.as_int row.(0)) :: !seen) t;
  Alcotest.(check (list (pair int int))) "iteri order"
    (List.init 5 (fun i -> (i, i)))
    (List.rev !seen);
  (* random access crosses chunk boundaries (binary search) *)
  for i = 0 to 4 do
    Alcotest.(check bool) ("row " ^ string_of_int i) true
      (Table.get t ~row:i ~col:0 = Value.Int i)
  done;
  Alcotest.(check int) "to_rows flattens" 5 (Array.length (Table.to_rows t))

let test_table_of_chunks_ragged () =
  let c1 = int_rows 3 in
  let c2 = [||] in
  let c3 = Array.init 2 (fun i -> [| Value.Int (10 + i) |]) in
  let t = Table.of_chunks ~inputs:[] ~name:"t" ~schema:int_schema [ c1; c2; c3 ] in
  Alcotest.(check int) "empty chunk dropped" 2 (Table.n_chunks t);
  Alcotest.(check int) "5 rows" 5 (Table.n_rows t);
  Alcotest.(check bool) "chunk arrays shared" true (Table.chunk t 0 == c1);
  Alcotest.(check bool) "order preserved" true (Table.get t ~row:3 ~col:0 = Value.Int 10)

let test_table_byte_size_memo () =
  let t = sample_table () in
  let flat = Table.byte_size t in
  (* chunked layout accounts identically, and the memoized second call
     agrees with the first *)
  let chunked =
    Table.create ~chunk_rows:2 ~inputs:[] ~name:"emp" ~schema:t.Table.schema (Table.to_rows t)
  in
  Alcotest.(check int) "chunked = flat" flat (Table.byte_size chunked);
  Alcotest.(check int) "memoized call stable" flat (Table.byte_size chunked);
  Alcotest.(check int) "per-chunk sizes sum" flat
    (List.init (Table.n_chunks chunked) (Table.chunk_byte_size chunked)
    |> List.fold_left ( + ) 0);
  (* rename shares the memo with the original *)
  Alcotest.(check int) "rename shares size" flat (Table.byte_size (Table.rename chunked "e"))

(* a base table is cut at 65,536 rows unless told otherwise; a table
   built from inputs is cut at its first input's size *)
let test_default_chunk_size () =
  let t = Table.create ~inputs:[] ~name:"t" ~schema:int_schema (int_rows 65_537) in
  Alcotest.(check int) "default applies" 2 (Table.n_chunks t);
  Alcotest.(check int) "default recorded" 65_536 t.Table.chunk_rows;
  let small = Table.create ~chunk_rows:2 ~inputs:[] ~name:"s" ~schema:int_schema (int_rows 1) in
  let d = Table.create ~inputs:[ small; t ] ~name:"d" ~schema:int_schema (int_rows 5) in
  Alcotest.(check int) "first input's size inherited" 3 (Table.n_chunks d);
  let u = Table.create ~chunk_rows:10 ~inputs:[ small ] ~name:"t" ~schema:int_schema (int_rows 5) in
  Alcotest.(check int) "explicit overrides" 1 (Table.n_chunks u)

let test_index_lookup () =
  let t = sample_table () in
  let ix = Index.build t ~column:"dept" ~unique:false in
  Alcotest.(check (list int)) "eng rows" [ 0; 2 ]
    (List.sort compare (Index.lookup ix (Value.Str "eng")));
  Alcotest.(check string) "name" "emp.dept" (Index.name ix)

let test_index_missing_column () =
  Alcotest.(check bool) "missing col rejected" true
    (try
       ignore (Index.build (sample_table ()) ~column:"nope" ~unique:false);
       false
     with Invalid_argument _ -> true)

let catalog_with_fk () =
  let cat = Catalog.create () in
  let dept =
    Table.of_rows ~name:"dept"
      ~schema:(Schema.make "dept" [ ("id", Value.TInt); ("name", Value.TStr) ])
      [ [| Value.Int 1; Value.Str "eng" |]; [| Value.Int 2; Value.Str "ops" |] ]
  in
  let emp =
    Table.of_rows ~name:"emp"
      ~schema:(Schema.make "emp" [ ("id", Value.TInt); ("dept_id", Value.TInt) ])
      [ [| Value.Int 1; Value.Int 1 |]; [| Value.Int 2; Value.Int 1 |] ]
  in
  Catalog.add_table cat ~pk:"id" dept;
  Catalog.add_table cat ~pk:"id" emp;
  Catalog.add_fk cat ~from_table:"emp" ~from_column:"dept_id" ~to_table:"dept" ~to_column:"id";
  cat

let test_catalog_basics () =
  let cat = catalog_with_fk () in
  Alcotest.(check bool) "emp exists" true (Catalog.mem_table cat "emp");
  Alcotest.(check (option string)) "pk" (Some "id") (Catalog.pk cat "emp");
  Alcotest.(check int) "one fk" 1 (List.length (Catalog.fks cat));
  Alcotest.(check int) "references" 1 (List.length (Catalog.references cat "emp"));
  Alcotest.(check int) "referenced_by" 1 (List.length (Catalog.referenced_by cat "dept"));
  Alcotest.(check bool) "fk_between" true
    (Catalog.fk_between cat ~from_table:"emp" ~to_table:"dept" <> None)

let test_catalog_duplicate_table () =
  let cat = catalog_with_fk () in
  Alcotest.(check bool) "dup rejected" true
    (try
       Catalog.add_table cat (sample_table ());
       Catalog.add_table cat (sample_table ());
       false
     with Invalid_argument _ -> true)

let test_index_configs () =
  let cat = catalog_with_fk () in
  Catalog.build_indexes cat Catalog.Pk_only;
  Alcotest.(check bool) "pk index" true (Catalog.find_index cat ~table:"emp" ~column:"id" <> None);
  Alcotest.(check bool) "no fk index" true
    (Catalog.find_index cat ~table:"emp" ~column:"dept_id" = None);
  Catalog.build_indexes cat Catalog.Pk_fk;
  Alcotest.(check bool) "fk index now" true
    (Catalog.find_index cat ~table:"emp" ~column:"dept_id" <> None);
  Alcotest.(check bool) "config recorded" true (Catalog.index_config cat = Some Catalog.Pk_fk)

(* --- the Table.digest contract ----------------------------------------- *)

let digest_rows ?(chunk_rows = 64) cols rows =
  let schema = Schema.make "d" (List.map (fun c -> (c, Value.TStr)) cols) in
  Table.digest (Table.of_rows ~chunk_rows ~name:"d" ~schema rows)

let one v = digest_rows [ "a" ] [ [| v |] ]

let check_differ what a b =
  if a = b then Alcotest.failf "%s: digests collide (%s)" what a

let test_digest_exact_values () =
  check_differ "Int 1 / Float 1.0" (one (Value.Int 1)) (one (Value.Float 1.0));
  check_differ "Int 1 / Str 1" (one (Value.Int 1)) (one (Value.Str "1"));
  check_differ "Float 1.0 / Str 1" (one (Value.Float 1.0)) (one (Value.Str "1"));
  check_differ "Null / Str NULL" (one Value.Null) (one (Value.Str "NULL"));
  check_differ "Bool true / Str true" (one (Value.Bool true)) (one (Value.Str "true"));
  check_differ "0.1 + 0.2 / 0.3" (one (Value.Float (0.1 +. 0.2))) (one (Value.Float 0.3));
  check_differ "1.0000001 / 1.0000002"
    (one (Value.Float 1.0000001))
    (one (Value.Float 1.0000002));
  check_differ "-0.0 / 0.0" (one (Value.Float (-0.0))) (one (Value.Float 0.0))

let test_digest_string_boundaries () =
  let two a b = [| Value.Str a; Value.Str b |] in
  check_differ "NUL across columns"
    (digest_rows [ "a"; "b" ] [ two "a\x00b" "c" ])
    (digest_rows [ "a"; "b" ] [ two "a" "b\x00c" ]);
  check_differ "\\x01 across rows"
    (digest_rows [ "a" ] [ [| Value.Str "x\x01y" |] ])
    (digest_rows [ "a" ] [ [| Value.Str "x" |]; [| Value.Str "y" |] ])

let test_digest_multiplicity () =
  let r = [| Value.Int 1 |] and s = [| Value.Int 2 |] in
  check_differ "{r, r, s} / {r, s, s}"
    (digest_rows [ "a" ] [ r; r; s ])
    (digest_rows [ "a" ] [ r; s; s ]);
  check_differ "{r, r} / {r}" (digest_rows [ "a" ] [ r; r ]) (digest_rows [ "a" ] [ r ])

let test_digest_canonical_nan () =
  let nan_of bits = Value.Float (Int64.float_of_bits bits) in
  let quiet = one (Value.Float Float.nan) in
  List.iter
    (fun bits ->
      Alcotest.(check bool) (Printf.sprintf "%Lx is NaN" bits) true
        (Float.is_nan (Int64.float_of_bits bits));
      Alcotest.(check string) (Printf.sprintf "NaN %Lx" bits) quiet (one (nan_of bits)))
    [ 0x7FF8_0000_0000_0001L; 0x7FF0_0000_0000_0BADL; 0xFFF8_0000_0000_0000L ]

let test_digest_order_invariant () =
  let rows =
    List.init 10 (fun i -> [| Value.Int (i mod 4); Value.Str (string_of_int i) |])
  in
  let d = digest_rows [ "a"; "b" ] rows in
  Alcotest.(check string) "reversed rows" d (digest_rows [ "a"; "b" ] (List.rev rows));
  List.iter
    (fun chunk_rows ->
      Alcotest.(check string)
        (Printf.sprintf "chunk_rows %d" chunk_rows)
        d
        (digest_rows ~chunk_rows [ "a"; "b" ] rows))
    [ 1; 3; 10 ];
  Alcotest.(check string) "columns permuted" d
    (digest_rows [ "b"; "a" ] (List.map (fun r -> [| r.(1); r.(0) |]) rows))

let test_digest_empty_tables () =
  check_differ "empty over different column ids" (digest_rows [ "a" ] [])
    (digest_rows [ "b" ] [])

(* Every value kind and every column encoding — ints with NULLs, floats
   with NaN / -0.0, dictionary strings holding NUL and \x01, bools and a
   mixed-type column that falls back to boxed values — resident as rows
   against spilled as column-major frames. *)
let test_digest_resident_vs_spilled () =
  let rows =
    List.init 11 (fun i ->
        [|
          (if i mod 3 = 0 then Value.Null else Value.Int (i - 5));
          Value.Float
            (match i mod 4 with 0 -> Float.nan | 1 -> -0.0 | 2 -> 0.0 | _ -> 1.0 /. float i);
          Value.Str (if i mod 2 = 0 then "a\x00b" else "c\x01");
          Value.Bool (i mod 2 = 0);
          (if i mod 2 = 0 then Value.Int i else Value.Str (string_of_int i));
        |])
  in
  let schema =
    Schema.make "d"
      [
        ("i", Value.TInt); ("f", Value.TFloat); ("s", Value.TStr); ("b", Value.TBool);
        ("m", Value.TStr);
      ]
  in
  let resident = Table.of_rows ~chunk_rows:4 ~name:"d" ~schema rows in
  Table.with_scratch_home ~capacity:1 (fun ~dir ~pool ->
      let spilled = Table.spill ~dir ~pool resident in
      Alcotest.(check bool) "spilled" true (Table.spilled spilled);
      Table.iter_chunk_data
        (fun ci c ->
          Alcotest.(check bool)
            (Printf.sprintf "frame %d columnar" ci)
            true
            (Qs_storage.Chunk.columnar c <> None))
        spilled;
      Alcotest.(check string) "resident = spilled" (Table.digest resident)
        (Table.digest spilled))

(* --- the digest against its MD5 reference ---------------------------- *)
(* Pairs of tables one or two near-collision mutations apart. The
   two-lane digest must call a pair equal exactly when the per-row MD5
   it replaced ({!Digest_oracle}) does: the mutations that keep the
   multiset (row and column permutations, rechunking, one NaN payload
   for another) must digest equal, every other one must not. Each table
   is also digested column-major, as every frame of a spilled table is,
   and must digest as its row form does. *)

let nan_payloads = [ 0x7FF8_0000_0000_0001L; 0x7FF0_0000_0000_0BADL; 0xFFF8_0000_0000_0000L ]

let value_pool =
  Array.concat
    [
      [|
        Value.Null; Value.Bool true; Value.Bool false; Value.Int 0; Value.Int 1;
        Value.Int (-1); Value.Int max_int; Value.Int min_int; Value.Float 0.0;
        Value.Float (-0.0); Value.Float 1.0; Value.Float (0.1 +. 0.2); Value.Float 0.3;
      |];
      Array.of_list (List.map (fun b -> Value.Float (Int64.float_of_bits b)) nan_payloads);
      Array.map
        (fun s -> Value.Str s)
        [|
          ""; "1"; "NULL"; "true"; "a\x00"; "\x01b"; "x\x01"; "abcdefgh"; "abcdefghi";
          "\x80\xff\x7f title\xc3\xa9"; "0123456789abcdef"; "0123456789abcde\x80";
        |];
    ]

type digest_case = { cols : string list; rows : Value.t array list; chunk_rows : int }

let case_schema c = Schema.make "d" (List.map (fun n -> (n, Value.TStr)) c.cols)

let table_of_case c =
  Table.of_rows ~chunk_rows:c.chunk_rows ~name:"d" ~schema:(case_schema c) c.rows

let column_major_of_case c =
  Fixtures.columnar_table ~chunk_rows:c.chunk_rows ~name:"d" ~schema:(case_schema c)
    (Array.of_list c.rows)

(* values one step from [v]: across a type boundary, or one bit away *)
let near_value v =
  let open QCheck.Gen in
  let flip_bit s =
    if s = "" then return "\x00"
    else
      let* i = int_bound (String.length s - 1) and* bit = int_bound 7 in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl bit)));
      return (Bytes.to_string b)
  in
  match v with
  | Value.Null -> return (Value.Str "NULL")
  | Value.Bool b -> oneofl [ Value.Bool (not b); Value.Str (string_of_bool b) ]
  | Value.Int n ->
      oneofl [ Value.Float (Float.of_int n); Value.Str (string_of_int n); Value.Int (n lxor 1) ]
  | Value.Float f when Float.is_nan f ->
      oneofl
        (Value.Float 0.0 :: List.map (fun b -> Value.Float (Int64.float_of_bits b)) nan_payloads)
  | Value.Float f ->
      let* bit = int_bound 63 in
      oneofl
        [
          Value.Int (int_of_float f);
          Value.Str (string_of_float f);
          Value.Float
            (Int64.float_of_bits
               (Int64.logxor (Int64.bits_of_float f) (Int64.shift_left 1L bit)));
        ]
  | Value.Str s -> map (fun s -> Value.Str s) (flip_bit s)

let replace_nth l i x = List.mapi (fun j y -> if j = i then x else y) l

let gen_mutation c =
  let open QCheck.Gen in
  let n = List.length c.rows and k = List.length c.cols in
  (* mutate one row, or every copy of it: {r, r, s} against {r', r', s}
     is what tells a sum of row hashes from an xor *)
  let one_row f =
    if n = 0 then return c
    else
      let* r = int_bound (n - 1) and* every = bool in
      let old = List.nth c.rows r in
      let* row = f (Array.copy old) in
      if every then
        return { c with rows = List.map (fun x -> if compare x old = 0 then row else x) c.rows }
      else return { c with rows = replace_nth c.rows r row }
  in
  frequency
    [
      ( 4,
        one_row (fun row ->
            let* j = int_bound (k - 1) in
            let* v = near_value row.(j) in
            row.(j) <- v;
            return row) );
      (* a NUL or \x01 byte moved across a column boundary *)
      ( 2,
        one_row (fun row ->
            if k < 2 then return row
            else
              let* j = int_bound (k - 2) and* sep = oneofl [ "\x00"; "\x01" ] in
              let str = function Value.Str s -> s | v -> Value.to_string v in
              let a = str row.(j) and b = str row.(j + 1) in
              let* left = bool in
              row.(j) <- Value.Str (if left then a ^ sep else a);
              row.(j + 1) <- Value.Str (if left then b else sep ^ b);
              return row) );
      ( 1,
        if n = 0 then return c
        else
          let* r = int_bound (n - 1) in
          oneofl
            [
              { c with rows = List.nth c.rows r :: c.rows };
              { c with rows = List.filteri (fun i _ -> i <> r) c.rows };
            ] );
      (1, map (fun rows -> { c with rows }) (shuffle_l c.rows));
      ( 1,
        let* perm = shuffle_l (List.init k Fun.id) in
        let perm = Array.of_list perm in
        return
          {
            c with
            cols = List.map (List.nth c.cols) (Array.to_list perm);
            rows = List.map (fun row -> Array.map (fun p -> row.(p)) perm) c.rows;
          } );
      (1, map (fun chunk_rows -> { c with chunk_rows }) (oneofl [ 1; 3; 64 ]));
    ]

let gen_digest_pair =
  let open QCheck.Gen in
  let* k = int_range 1 3 in
  let* n = int_bound 6 in
  let row = array_repeat k (oneofa value_pool) in
  (* half the rows from three shared ones, so duplicates are common *)
  let* shared = list_repeat 3 row in
  let* rows = list_repeat n (oneof [ oneofl shared; row ]) in
  let* chunk_rows = oneofl [ 1; 3; 64 ] in
  let base = { cols = List.filteri (fun i _ -> i < k) [ "a"; "b"; "c" ]; rows; chunk_rows } in
  let* m = int_range 1 2 in
  let rec mutate c m = if m = 0 then return c else gen_mutation c >>= fun c -> mutate c (m - 1) in
  let* other = mutate base m in
  return (base, other)

let print_digest_case c =
  let cell = function
    | Value.Float f -> Printf.sprintf "%h" f
    | Value.Str s -> Printf.sprintf "%S" s
    | v -> Value.to_string v
  in
  Printf.sprintf "cols %s, chunk_rows %d: %s" (String.concat "," c.cols) c.chunk_rows
    (String.concat " / "
       (List.map (fun r -> String.concat " | " (Array.to_list (Array.map cell r))) c.rows))

let digest_matches_oracle =
  QCheck.Test.make ~name:"digest equalities = per-row MD5 reference" ~count:1000
    (QCheck.make ~print:(QCheck.Print.pair print_digest_case print_digest_case) gen_digest_pair)
    (fun (ca, cb) ->
      let a = table_of_case ca and b = table_of_case cb in
      Table.digest (column_major_of_case ca) = Table.digest a
      && Table.digest (column_major_of_case cb) = Table.digest b
      && Table.digest a = Table.digest b = (Digest_oracle.digest a = Digest_oracle.digest b))

(* One flipped bit anywhere in a value changes the digest: every bit of
   an int and of a float's IEEE word, and every bit of strings of 1 to 17
   bytes, so each byte position of a short string, a whole word and an
   overlapping last word is covered. *)
let test_digest_every_bit () =
  let flipped what base v = check_differ what (one base) (one v) in
  for bit = 0 to 62 do
    flipped (Printf.sprintf "Int bit %d" bit) (Value.Int 12345)
      (Value.Int (12345 lxor (1 lsl bit)))
  done;
  for bit = 0 to 63 do
    let f =
      Int64.float_of_bits (Int64.logxor (Int64.bits_of_float 1.5) (Int64.shift_left 1L bit))
    in
    flipped (Printf.sprintf "Float bit %d" bit) (Value.Float 1.5) (Value.Float f)
  done;
  for len = 1 to 17 do
    let s = String.init len (fun i -> Char.chr (0x41 + i)) in
    for i = 0 to (8 * len) - 1 do
      let b = Bytes.of_string s in
      Bytes.set b (i / 8) (Char.chr (Char.code s.[i / 8] lxor (1 lsl (i mod 8))));
      flipped (Printf.sprintf "%d-byte string, bit %d" len i) (Value.Str s)
        (Value.Str (Bytes.to_string b))
    done
  done

(* The digest allocates nothing per row: on a table of mixed columns
   the whole call stays under one word per row, against the 18.2 words
   per row of the per-row MD5 it replaced. Checked resident (row-major
   chunks) and spilled (column-major frames, hashed in place rather
   than decoded to boxed rows); the spilled table is digested once
   first, so its frames are already in the pool and the measured call
   faults nothing in. *)
let test_digest_allocation () =
  let n = 100_000 in
  let rows =
    Array.init n (fun i ->
        [|
          Value.Int i;
          Value.Float (if i mod 5 = 0 then Float.nan else float i /. 7.0);
          Value.Str ("title " ^ string_of_int i);
          (if i mod 3 = 0 then Value.Null else Value.Str "x");
        |])
  in
  let schema =
    Schema.make "d"
      [ ("i", Value.TInt); ("f", Value.TFloat); ("s", Value.TStr); ("n", Value.TStr) ]
  in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let check what t =
    let before = allocated () in
    ignore (Table.digest t);
    let per_row = (allocated () -. before) /. float n in
    if per_row > 1.0 then Alcotest.failf "%s: digest allocates %.2f words per row" what per_row
  in
  let resident = Table.create ~inputs:[] ~name:"d" ~schema rows in
  check "resident" resident;
  Table.with_scratch_home ~capacity:8 (fun ~dir ~pool ->
      let spilled =
        Table.spill ~dir ~pool (Table.create ~chunk_rows:16_384 ~inputs:[] ~name:"d" ~schema rows)
      in
      Alcotest.(check bool) "spilled" true (Table.spilled spilled);
      Alcotest.(check string) "same digest" (Table.digest resident) (Table.digest spilled);
      check "spilled" spilled)

let suite =
  [
    Alcotest.test_case "schema find" `Quick test_schema_find;
    Alcotest.test_case "ambiguous name" `Quick test_schema_find_by_name_ambiguous;
    Alcotest.test_case "requalify" `Quick test_schema_requalify;
    Alcotest.test_case "table arity check" `Quick test_table_arity_check;
    Alcotest.test_case "rename shares rows" `Quick test_table_rename_shares_rows;
    Alcotest.test_case "column values" `Quick test_table_column_values;
    Alcotest.test_case "byte size" `Quick test_table_byte_size;
    Alcotest.test_case "chunking" `Quick test_table_chunking;
    Alcotest.test_case "of_chunks ragged" `Quick test_table_of_chunks_ragged;
    Alcotest.test_case "byte size memoized" `Quick test_table_byte_size_memo;
    Alcotest.test_case "default chunk rows" `Quick test_default_chunk_size;
    Alcotest.test_case "index lookup" `Quick test_index_lookup;
    Alcotest.test_case "index missing column" `Quick test_index_missing_column;
    Alcotest.test_case "catalog basics" `Quick test_catalog_basics;
    Alcotest.test_case "duplicate table" `Quick test_catalog_duplicate_table;
    Alcotest.test_case "index configurations" `Quick test_index_configs;
    Alcotest.test_case "digest exact values" `Quick test_digest_exact_values;
    Alcotest.test_case "digest string boundaries" `Quick test_digest_string_boundaries;
    Alcotest.test_case "digest multiplicity" `Quick test_digest_multiplicity;
    Alcotest.test_case "digest canonical NaN" `Quick test_digest_canonical_nan;
    Alcotest.test_case "digest order invariant" `Quick test_digest_order_invariant;
    Alcotest.test_case "digest empty tables" `Quick test_digest_empty_tables;
    Alcotest.test_case "digest resident = spilled" `Quick test_digest_resident_vs_spilled;
    Alcotest.test_case "digest allocation-free" `Quick test_digest_allocation;
    QCheck_alcotest.to_alcotest digest_matches_oracle;
    Alcotest.test_case "digest sees every bit" `Quick test_digest_every_bit;
  ]
