(* Columnar chunk layout: exact of_rows/to_rows round-trips, Chunk_file
   frames (always column-major, whatever the writer is handed; NaN,
   -0.0, min_int, NUL-in-string), the frame-sizing regression for
   dictionary-heavy string columns, selection-vector kernel semantics
   and edge cases (empty, full, ragged last chunk), layout preservation
   through filter/project, vectorized vs row-fallback filter parity,
   columnar aggregation parity, and ANALYZE stats parity across
   layouts. The columnar side of each parity test is built by hand
   ([Fixtures.columnar_table]): resident tables built from rows are
   row-major. *)

module Value = Qs_storage.Value
module Schema = Qs_storage.Schema
module Table = Qs_storage.Table
module Chunk = Qs_storage.Chunk
module Columnar = Qs_storage.Columnar
module Chunk_file = Qs_storage.Chunk_file
module Expr = Qs_query.Expr
module Executor = Qs_exec.Executor
module Relop = Qs_exec.Relop
module Logical = Qs_plan.Logical
module Analyze = Qs_stats.Analyze
module Table_stats = Qs_stats.Table_stats

(* NaN-safe, -0.0-aware cell comparison: Value.compare equates NaN with
   itself and -0.0 with 0.0, which is exactly the engine's semantics *)
let check_cells what expect got =
  Alcotest.(check int) (what ^ " rows") (Array.length expect) (Array.length got);
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c v ->
          if Value.compare v got.(r).(c) <> 0 then
            Alcotest.failf "%s: row %d col %d: %s <> %s" what r c
              (Value.to_string v)
              (Value.to_string got.(r).(c)))
        row)
    expect

(* arity 4: ints with min_int/max_int and NULLs, floats with NaN, both
   zero signs and denormals, strings with NULs and repetitions, bools *)
let tricky_rows =
  [|
    [| Value.Int min_int; Value.Float Float.nan; Value.Str "a\x00b"; Value.Bool true |];
    [| Value.Int max_int; Value.Float (-0.0); Value.Str ""; Value.Bool false |];
    [| Value.Null; Value.Float 0.0; Value.Str "snake"; Value.Null |];
    [| Value.Int 0; Value.Null; Value.Str (String.make 300 'x'); Value.Bool true |];
    [| Value.Int (-7); Value.Float infinity; Value.Str "snake"; Value.Bool false |];
    [| Value.Int 42; Value.Float neg_infinity; Value.Null; Value.Bool true |];
    [| Value.Null; Value.Float 1e-300; Value.Str "a\x00b"; Value.Null |];
  |]

let test_of_rows_roundtrip () =
  let c = Columnar.of_rows tricky_rows in
  Alcotest.(check int) "n_rows" 7 (Columnar.n_rows c);
  Alcotest.(check int) "n_cols" 4 (Columnar.n_cols c);
  check_cells "to_rows" tricky_rows (Columnar.to_rows c);
  (* point access and batch decode agree with the rows *)
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun col v ->
          if Value.compare v (Columnar.get c ~row:r ~col) <> 0 then
            Alcotest.failf "get %d %d" r col)
        row;
      check_cells "row" [| row |] [| Columnar.row c r |])
    tricky_rows;
  for col = 0 to 3 do
    let vals = Columnar.column_values c col in
    Array.iteri
      (fun r v ->
        if Value.compare tricky_rows.(r).(col) v <> 0 then
          Alcotest.failf "column_values %d row %d" col r)
      vals
  done;
  (* logical size is layout-invariant *)
  Alcotest.(check int)
    "byte_size"
    (Chunk.byte_size (Chunk.of_rows tricky_rows))
    (Columnar.byte_size c);
  (* empty chunk *)
  let e = Columnar.of_rows [||] in
  Alcotest.(check int) "empty rows" 0 (Columnar.n_rows e);
  Alcotest.(check int) "empty decode" 0 (Array.length (Columnar.to_rows e))

let test_chunk_file_columnar_roundtrip () =
  Table.with_scratch_home ~capacity:1 @@ fun ~dir ~pool:_ ->
  (* the same tricky chunk handed to the writer column-major and
     row-major, through one file *)
  let chunks =
    [| Chunk.of_columnar (Columnar.of_rows tricky_rows); Chunk.of_rows tricky_rows |]
  in
  let file, logical = Chunk_file.write ~dir ~name:"cols" ~arity:4 chunks in
  Alcotest.(check int) "frames" 2 (Chunk_file.n_frames file);
  let c0 = Chunk_file.read file 0 in
  let c1 = Chunk_file.read file 1 in
  (* every frame comes back column-major: the writer encodes a row
     chunk with Columnar.of_rows *)
  Alcotest.(check bool) "frame 0 is columnar" true (Chunk.columnar c0 <> None);
  Alcotest.(check bool) "row-input frame 1 is columnar" true
    (Chunk.columnar c1 <> None);
  check_cells "columnar frame" tricky_rows (Chunk.rows c0);
  check_cells "row-input frame" tricky_rows (Chunk.rows c1);
  (* logical byte accounting is layout-invariant too *)
  Alcotest.(check int) "logical sizes equal" logical.(1) logical.(0);
  Alcotest.(check int)
    "logical size of the row input"
    (Chunk.byte_size (Chunk.of_rows tricky_rows))
    logical.(1);
  (* the rows input path end to end: a table built from the tricky rows
     and spilled faults every chunk back column-major with every value
     intact *)
  let schema =
    Schema.make "k"
      [ ("i", Value.TInt); ("f", Value.TFloat); ("s", Value.TStr); ("b", Value.TBool) ]
  in
  let resident = Table.create ~chunk_rows:3 ~inputs:[] ~name:"k" ~schema tricky_rows in
  let spilled =
    Table.spill ~dir ~pool:(Qs_storage.Buffer_pool.create ~capacity:1 ()) resident
  in
  Alcotest.(check bool) "table spilled" true (Table.spilled spilled);
  Alcotest.(check int) "3 chunks" 3 (Table.n_chunks spilled);
  Table.iter_chunk_data
    (fun ci c ->
      Alcotest.(check bool)
        (Printf.sprintf "spilled chunk %d columnar" ci)
        true
        (Chunk.columnar c <> None))
    spilled;
  check_cells "spilled table" tricky_rows (Table.to_rows spilled);
  Alcotest.(check string) "digest" (Table.digest resident) (Table.digest spilled)

(* the frame-sizing regression: a dictionary-heavy string column (every
   value distinct and long) serializes LARGER column-major than the
   tagged row form — dict entries plus 4-byte codes exceed the inline
   strings — so frame size must come from the serialized column blocks,
   not from the row form the writer was handed *)
let test_frame_sizing_dict_heavy () =
  let rows = Array.init 64 (fun i -> [| Value.Str (String.make 48 'a' ^ string_of_int i) |]) in
  let row_chunk = Chunk.of_rows rows in
  let col_chunk = Chunk.of_columnar (Columnar.of_rows rows) in
  (* tagged inline form: tag byte + 4-byte length + bytes per value *)
  let row_form =
    Array.fold_left
      (fun acc r ->
        match r.(0) with Value.Str s -> acc + 5 + String.length s | _ -> acc)
      0 rows
  in
  let ser_row = Chunk_file.ser_chunk_size row_chunk in
  let ser_col = Chunk_file.ser_chunk_size col_chunk in
  Alcotest.(check int) "row input sized as its column blocks" ser_col ser_row;
  Alcotest.(check bool)
    (Printf.sprintf "columnar serializes larger (%d > %d)" ser_col row_form)
    true (ser_col > row_form);
  (* a file whose largest frame is the dict-heavy chunk, handed in
     row-major behind a small chunk, still round-trips exactly — sizing
     frames from the row form would write it out of bounds *)
  Table.with_scratch_home ~capacity:1 @@ fun ~dir ~pool:_ ->
  let small = [| [| Value.Str "x" |] |] in
  let file, _ =
    Chunk_file.write ~dir ~name:"dict" ~arity:1
      [| Chunk.of_rows small; row_chunk; col_chunk |]
  in
  check_cells "small frame" small (Chunk.rows (Chunk_file.read file 0));
  check_cells "row-input dict frame" rows (Chunk.rows (Chunk_file.read file 1));
  check_cells "dict frame" rows (Chunk.rows (Chunk_file.read file 2))

(* --- selection-vector kernels ------------------------------------------ *)

let sel_check what expect got =
  match got with
  | None -> Alcotest.failf "%s: kernel declined" what
  | Some sel ->
      Alcotest.(check (array int)) what (Array.of_list expect) sel

let test_selvec_kernels () =
  let ints = Columnar.of_rows (Array.init 10 (fun i -> [| Value.Int i |])) in
  (* empty input vector stays empty *)
  sel_check "empty sel" []
    (Columnar.eval_cmp ints ~col:0 Columnar.Lt (Value.Int 5) ~sel:(Some [||]));
  (* dense input, full survivors *)
  sel_check "full" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Columnar.eval_cmp ints ~col:0 Columnar.Lt (Value.Int 100) ~sel:None);
  (* dense input, nothing survives *)
  sel_check "none" []
    (Columnar.eval_cmp ints ~col:0 Columnar.Lt (Value.Int 0) ~sel:None);
  (* narrowing a sparse vector preserves order and subset-ness *)
  sel_check "narrow" [ 5; 7 ]
    (Columnar.eval_cmp ints ~col:0 Columnar.Ge (Value.Int 4)
       ~sel:(Some [| 1; 3; 5; 7 |]));
  (* int column vs float constant compares numerically *)
  sel_check "int vs float" [ 0; 1; 2 ]
    (Columnar.eval_cmp ints ~col:0 Columnar.Lt (Value.Float 2.5) ~sel:None);
  (* NULL constant never matches *)
  sel_check "null const" []
    (Columnar.eval_cmp ints ~col:0 Columnar.Eq Value.Null ~sel:None);
  (* a mixed-type (generic) column has no kernel *)
  let mixed = Columnar.of_rows [| [| Value.Int 1 |]; [| Value.Str "x" |] |] in
  Alcotest.(check bool)
    "generic column declines" true
    (Columnar.eval_cmp mixed ~col:0 Columnar.Eq (Value.Int 1) ~sel:None = None)

let test_selvec_float_semantics () =
  let fl =
    Columnar.of_rows
      [|
        [| Value.Float Float.nan |]; [| Value.Float (-0.0) |];
        [| Value.Float 0.0 |]; [| Value.Float 1.0 |];
      |]
  in
  let cmp op k = Columnar.eval_cmp fl ~col:0 op (Value.Float k) ~sel:None in
  (* Value.compare semantics: NaN sorts below every float and equals
     itself; -0.0 = 0.0 *)
  sel_check "lt 0" [ 0 ] (cmp Columnar.Lt 0.0);
  sel_check "le 0" [ 0; 1; 2 ] (cmp Columnar.Le 0.0);
  sel_check "ge 0" [ 1; 2; 3 ] (cmp Columnar.Ge 0.0);
  sel_check "eq 0 matches -0" [ 1; 2 ] (cmp Columnar.Eq 0.0);
  sel_check "ne 0" [ 0; 3 ] (cmp Columnar.Ne 0.0);
  sel_check "eq nan" [ 0 ] (cmp Columnar.Eq Float.nan);
  sel_check "ne nan" [ 1; 2; 3 ] (cmp Columnar.Ne Float.nan);
  sel_check "lt nan" [] (cmp Columnar.Lt Float.nan);
  sel_check "le nan" [ 0 ] (cmp Columnar.Le Float.nan);
  sel_check "gt nan" [ 1; 2; 3 ] (cmp Columnar.Gt Float.nan);
  sel_check "ge nan" [ 0; 1; 2; 3 ] (cmp Columnar.Ge Float.nan)

let test_selvec_nulls_and_take () =
  let c = Columnar.of_rows tricky_rows in
  (* IS NULL / IS NOT NULL on the int column (rows 2 and 6 are NULL) *)
  sel_check "is null" [ 2; 6 ]
    (Columnar.eval_null c ~col:0 ~want_null:true ~sel:None);
  sel_check "not null" [ 0; 1; 3; 4; 5 ]
    (Columnar.eval_null c ~col:0 ~want_null:false ~sel:None);
  (* NULLs never pass a comparison *)
  (match Columnar.eval_cmp c ~col:0 Columnar.Le (Value.Int max_int) ~sel:None with
  | None -> Alcotest.fail "int kernel declined"
  | Some sel ->
      Alcotest.(check (array int)) "nulls excluded" [| 0; 1; 3; 4; 5 |] sel);
  (* gather keeps exact values (dict shared) and drops collapsed nulls *)
  let taken = Columnar.take c [| 0; 2; 6 |] in
  check_cells "take"
    [| tricky_rows.(0); tricky_rows.(2); tricky_rows.(6) |]
    (Columnar.to_rows taken);
  let dense = Columnar.take c [| 0; 1; 3; 4; 5 |] in
  sel_check "taken rows all non-null" [ 0; 1; 2; 3; 4 ]
    (Columnar.eval_null dense ~col:0 ~want_null:false ~sel:None);
  (* column projection shares columns *)
  let p = Columnar.project c [ 2; 0 ] in
  Alcotest.(check int) "projected cols" 2 (Columnar.n_cols p);
  check_cells "project"
    (Array.map (fun r -> [| r.(2); r.(0) |]) tricky_rows)
    (Columnar.to_rows p)

(* --- executor parity across layouts ------------------------------------ *)

let wide_schema =
  Schema.make "t"
    [
      ("id", Value.TInt); ("amount", Value.TInt); ("price", Value.TFloat);
      ("cat", Value.TStr); ("flag", Value.TBool);
    ]

(* 30 rows, chunk_rows 8 => ragged last chunk of 6 *)
let wide_rows =
  Array.init 30 (fun i ->
      let h = (i * 2654435761) land 0x3fffffff in
      [|
        Value.Int i;
        (if i mod 7 = 3 then Value.Null else Value.Int (h mod 100));
        (if i mod 11 = 5 then Value.Float Float.nan
         else if i mod 11 = 6 then Value.Float (-0.0)
         else Value.Float (float_of_int (h mod 40) /. 4.0));
        Value.Str [| "a"; "b"; "a\x00b"; "long-tail-category" |].(h mod 4);
        Value.Bool (i mod 2 = 0);
      |])

let mk_row_table () =
  Table.create ~chunk_rows:8 ~inputs:[] ~name:"t" ~schema:wide_schema wide_rows

let mk_col_table () =
  Fixtures.columnar_table ~chunk_rows:8 ~name:"t" ~schema:wide_schema wide_rows

let filter_parity_cases =
  [
    ("selective int", [ Expr.Cmp (Expr.Lt, Expr.col "t" "amount", Expr.vint 50) ]);
    ("none survive", [ Expr.Cmp (Expr.Lt, Expr.col "t" "amount", Expr.vint (-1)) ]);
    ("all survive", [ Expr.Not_null (Expr.col "t" "id") ]);
    ("between", [ Expr.Between (Expr.col "t" "amount", Value.Int 10, Value.Int 60) ]);
    ("is null", [ Expr.Is_null (Expr.col "t" "amount") ]);
    ("float vs nan", [ Expr.Cmp (Expr.Eq, Expr.col "t" "price", Expr.vfloat Float.nan) ]);
    ("float le zero", [ Expr.Cmp (Expr.Le, Expr.col "t" "price", Expr.vfloat 0.0) ]);
    ("string eq", [ Expr.Cmp (Expr.Eq, Expr.col "t" "cat", Expr.vstr "a\x00b") ]);
    ("string ne", [ Expr.Cmp (Expr.Ne, Expr.col "t" "cat", Expr.vstr "a") ]);
    ( "kernel + residual",
      [
        Expr.Cmp (Expr.Gt, Expr.col "t" "amount", Expr.vint 5);
        (* Arith has no kernel: exercises partial application + row
           fallback over the kernel's survivors *)
        Expr.Cmp
          ( Expr.Lt,
            Expr.Arith (Expr.Add, Expr.col "t" "amount", Expr.vint 1),
            Expr.vint 80 );
      ] );
    ( "flipped const-col",
      [ Expr.Cmp (Expr.Gt, Expr.vint 50, Expr.col "t" "amount") ] );
  ]

let test_filter_parity_across_layouts () =
  let row_tbl = mk_row_table () in
  let col_tbl = mk_col_table () in
  List.iter
    (fun (what, preds) ->
      let a = Executor.filter_table row_tbl preds in
      let b = Executor.filter_table col_tbl preds in
      Alcotest.(check int) (what ^ " rows") (Table.n_rows a) (Table.n_rows b);
      Alcotest.(check string) (what ^ " digest") (Table.digest a) (Table.digest b))
    filter_parity_cases;
  (* the all-survivors filter returns the full table either way *)
  let keep_all = [ Expr.Not_null (Expr.col "t" "id") ] in
  Alcotest.(check string)
    "full filter = identity"
    (Table.digest col_tbl)
    (Table.digest (Executor.filter_table col_tbl keep_all));
  (* the hand-built tables really differ in layout *)
  Alcotest.(check bool)
    "row side is row-major" true
    (Chunk.columnar (Table.chunk_data row_tbl 0) = None);
  Alcotest.(check int) "same chunking" (Table.n_chunks row_tbl) (Table.n_chunks col_tbl);
  (* a columnar filter output stays columnar (layout preserved, not
     decoded to rows) *)
  let filtered =
    Executor.filter_table col_tbl
      [ Expr.Cmp (Expr.Lt, Expr.col "t" "amount", Expr.vint 50) ]
  in
  Alcotest.(check bool)
    "filter preserves columnar" true
    (Table.n_chunks filtered = 0
    || Chunk.columnar (Table.chunk_data filtered 0) <> None);
  (* vectorized kernels actually ran on the columnar side *)
  let v0 = Executor.vectorized_chunks () in
  ignore
    (Executor.filter_table col_tbl
       [ Expr.Cmp (Expr.Lt, Expr.col "t" "amount", Expr.vint 50) ]);
  Alcotest.(check bool)
    "vectorized counter moved" true
    (Executor.vectorized_chunks () > v0)

let test_project_parity_across_layouts () =
  let row_tbl = mk_row_table () in
  let col_tbl = mk_col_table () in
  let cols = [ { Expr.rel = "t"; name = "cat" }; { Expr.rel = "t"; name = "id" } ] in
  let a = Executor.project row_tbl cols in
  let b = Executor.project col_tbl cols in
  Alcotest.(check string) "project digest" (Table.digest a) (Table.digest b);
  Alcotest.(check bool)
    "project preserves columnar" true
    (Chunk.columnar (Table.chunk_data b 0) <> None)

let test_aggregate_parity_across_layouts () =
  let group_by = [ { Expr.rel = "t"; name = "cat" } ] in
  let aggs =
    [
      { Logical.fn = Logical.Sum; arg = Some (Expr.col "t" "amount"); label = "total" };
      { Logical.fn = Logical.Count_star; arg = None; label = "n" };
      { Logical.fn = Logical.Min; arg = Some (Expr.col "t" "price"); label = "lo" };
      { Logical.fn = Logical.Max; arg = Some (Expr.col "t" "id"); label = "hi" };
    ]
  in
  let row_tbl = mk_row_table () in
  let col_tbl = mk_col_table () in
  let a = Relop.aggregate ~name:"g" ~group_by ~aggs row_tbl in
  let b = Relop.aggregate ~name:"g" ~group_by ~aggs col_tbl in
  Alcotest.(check string) "agg digest" (Table.digest a) (Table.digest b);
  (* group order is first-appearance under both layouts (NaN-safe) *)
  check_cells "row order identical" (Table.to_rows a) (Table.to_rows b);
  (* an arithmetic agg argument takes the row path under both layouts *)
  let arith_aggs =
    [
      {
        Logical.fn = Logical.Sum;
        arg = Some (Expr.Arith (Expr.Mul, Expr.col "t" "amount", Expr.vint 2));
        label = "twice";
      };
    ]
  in
  Alcotest.(check string)
    "arith agg digest"
    (Table.digest (Relop.aggregate ~name:"g" ~group_by ~aggs:arith_aggs row_tbl))
    (Table.digest (Relop.aggregate ~name:"g" ~group_by ~aggs:arith_aggs col_tbl))

let test_analyze_parity_across_layouts () =
  (* no NaNs here: stats records are compared structurally *)
  let n = 3000 in
  let schema =
    Schema.make "s" [ ("k", Value.TInt); ("v", Value.TFloat); ("s", Value.TStr) ]
  in
  let rows =
    Array.init n (fun i ->
        let h = (i * 48271) mod 65537 in
        [|
          (if h mod 13 = 0 then Value.Null else Value.Int (h mod 200));
          Value.Float (float_of_int (h mod 1000) /. 16.0);
          Value.Str ("s" ^ string_of_int (h mod 50));
        |])
  in
  let check ~sample =
    let a = Analyze.of_table ~sample (Table.create ~chunk_rows:256 ~inputs:[] ~name:"s" ~schema rows) in
    let b =
      Analyze.of_table ~sample (Fixtures.columnar_table ~chunk_rows:256 ~name:"s" ~schema rows)
    in
    Alcotest.(check int) "n_rows" (Table_stats.n_rows a) (Table_stats.n_rows b);
    List.iter2
      (fun ((ca : Schema.column), sa) ((_ : Schema.column), sb) ->
        if compare sa sb <> 0 then
          Alcotest.failf "column %s stats differ across layouts (sample %d)"
            ca.Schema.name sample)
      (Table_stats.columns a) (Table_stats.columns b)
  in
  (* full-table pass and the strided per-chunk sample *)
  check ~sample:(2 * n);
  check ~sample:500

let suite =
  [
    Alcotest.test_case "of_rows/to_rows exact round-trip" `Quick test_of_rows_roundtrip;
    Alcotest.test_case "chunk file round-trips columnar frames" `Quick
      test_chunk_file_columnar_roundtrip;
    Alcotest.test_case "frame size from serialized form (dict-heavy)" `Quick
      test_frame_sizing_dict_heavy;
    Alcotest.test_case "selection-vector kernels" `Quick test_selvec_kernels;
    Alcotest.test_case "float kernel semantics (NaN, -0.0)" `Quick
      test_selvec_float_semantics;
    Alcotest.test_case "null kernels, take, project" `Quick test_selvec_nulls_and_take;
    Alcotest.test_case "filter parity across layouts" `Quick
      test_filter_parity_across_layouts;
    Alcotest.test_case "project parity across layouts" `Quick
      test_project_parity_across_layouts;
    Alcotest.test_case "aggregate parity across layouts" `Quick
      test_aggregate_parity_across_layouts;
    Alcotest.test_case "ANALYZE parity across layouts" `Quick
      test_analyze_parity_across_layouts;
  ]
