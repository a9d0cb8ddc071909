(* Column-granular faults. A chunk-file frame faults in its header and
   column directory only; each column block is read and decoded the
   first time a reader touches that column, and stays with the frame.
   Covers: every column kind round-tripping block by block; touching k
   columns of a spilled frame reads exactly those k blocks (counted
   through the buffer pool's io spans); two domains first-touching one
   pending column of a shared frame; and corrupt frames (a truncated
   block, a bad column tag, a directory entry out of bounds or
   overlapping another, an out-of-range dict code, a bad null flag)
   each failing cleanly at the read that touches them, leaking no pin
   and leaving the pool usable. *)

module Value = Qs_storage.Value
module Schema = Qs_storage.Schema
module Table = Qs_storage.Table
module Chunk = Qs_storage.Chunk
module Columnar = Qs_storage.Columnar
module Chunk_file = Qs_storage.Chunk_file
module Buffer_pool = Qs_storage.Buffer_pool
module Span = Qs_util.Span
module Executor = Qs_exec.Executor
module Optimizer = Qs_plan.Optimizer
module Estimator = Qs_stats.Estimator
module Strategy = Qs_core.Strategy

(* --- fixtures ------------------------------------------------------------ *)

(* one column of every kind, without and with NULLs: the label each
   column's decoded form must carry *)
let kinds = [| "I"; "I+null"; "F"; "F+null"; "B"; "B+null"; "S"; "S+null"; "G"; "G" |]

let kind_of (c : Columnar.column) =
  match c with
  | Columnar.CInt (_, None) -> "I"
  | Columnar.CInt (_, Some _) -> "I+null"
  | Columnar.CFloat (_, None) -> "F"
  | Columnar.CFloat (_, Some _) -> "F+null"
  | Columnar.CBool (_, None) -> "B"
  | Columnar.CBool (_, Some _) -> "B+null"
  | Columnar.CStr { nulls = None; _ } -> "S"
  | Columnar.CStr { nulls = Some _; _ } -> "S+null"
  | Columnar.CGen _ -> "G"

let kinds_row base i =
  let i = base + i in
  let every k v = if i mod k = 0 then Value.Null else v in
  [|
    Value.Int ((i * 3) - 7);
    every 3 (Value.Int i);
    Value.Float (float_of_int i /. 7.0);
    every 4 (Value.Float (-0.5 *. float_of_int i));
    Value.Bool (i mod 2 = 0);
    every 5 (Value.Bool (i mod 3 = 0));
    Value.Str (string_of_int (i mod 5));
    every 2 (Value.Str ("s" ^ string_of_int i));
    (if i mod 2 = 0 then Value.Int i else Value.Str "x");
    Value.Null;
  |]

let kinds_schema name =
  Schema.make name
    (List.init (Array.length kinds) (fun j ->
         ( Printf.sprintf "c%d" j,
           match j with
           | 0 | 1 -> Value.TInt
           | 2 | 3 -> Value.TFloat
           | 4 | 5 -> Value.TBool
           | _ -> Value.TStr )))

let check_value what want got =
  if Value.compare want got <> 0 || Value.is_null want <> Value.is_null got then
    Alcotest.failf "%s: %s <> %s" what (Value.to_string want) (Value.to_string got)

(* the tracer's block reads, as (chunk, column) pairs in order *)
let block_reads tr =
  List.filter_map
    (fun (s : Span.span) ->
      match (s.Span.cat, List.assoc_opt "col" s.Span.args) with
      | Span.Io, Some c -> Some (int_of_string (List.assoc "chunk" s.Span.args), int_of_string c)
      | _ -> None)
    (Span.spans tr)

let frame_faults tr =
  List.length
    (List.filter
       (fun (s : Span.span) ->
         s.Span.cat = Span.Io && s.Span.name = "fault" && not (List.mem_assoc "col" s.Span.args))
       (Span.spans tr))

(* the chunk file of a spilled table, found by its name in the spill dir *)
let file_of ~dir name =
  let suffix = "-" ^ name ^ ".qsc" in
  match
    List.find_opt
      (fun f -> String.ends_with ~suffix f)
      (Array.to_list (Sys.readdir dir))
  with
  | Some f -> Filename.concat dir f
  | None -> Alcotest.failf "no chunk file for %s" name

(* --- per-block round trip -------------------------------------------------- *)

(* every kind, alone: a fresh read of the frame touches one column, reads
   that one block, and decodes it to exactly the column written *)
let test_blocks_round_trip () =
  Table.with_scratch_home ~capacity:1 @@ fun ~dir ~pool:_ ->
  let frames = [| Array.init 37 (kinds_row 0); Array.init 64 (kinds_row 37) |] in
  let written = Array.map Columnar.of_rows frames in
  Array.iteri
    (fun j want ->
      Alcotest.(check string) (Printf.sprintf "column %d kind" j) want
        (kind_of (Columnar.column written.(1) j)))
    kinds;
  let file, _ =
    Chunk_file.write ~dir ~name:"kinds" ~arity:(Array.length kinds)
      (Array.map Chunk.of_rows frames)
  in
  let touched = ref [] in
  let block ~col load =
    touched := col :: !touched;
    load ()
  in
  Array.iteri
    (fun f rows ->
      for j = 0 to Array.length kinds - 1 do
        touched := [];
        let c = Option.get (Chunk.columnar (Chunk_file.read ~block file f)) in
        Alcotest.(check (list int)) "the fault reads no block" [] !touched;
        let got = Columnar.column c j in
        Alcotest.(check (list int)) (Printf.sprintf "frame %d: only block %d" f j) [ j ] !touched;
        if got <> Columnar.column written.(f) j then
          Alcotest.failf "frame %d column %d (%s) decoded differently" f j kinds.(j);
        Array.iteri
          (fun i row -> check_value "cell" row.(j) (Columnar.get c ~row:i ~col:j))
          rows;
        ignore (Columnar.column_values c j);
        Alcotest.(check (list int)) "a decoded block is kept" [ j ] !touched
      done;
      (* the full row view reads every block once *)
      touched := [];
      let c = Chunk_file.read ~block file f in
      Array.iteri
        (fun i row -> Array.iteri (fun j v -> check_value "row" v (Chunk.row c i).(j)) row)
        rows;
      Alcotest.(check (list int)) "every block once"
        (List.init (Array.length kinds) Fun.id)
        (List.sort compare !touched))
    frames

(* --- touching k columns reads k blocks ------------------------------------ *)

let test_touch_reads_only_touched () =
  Table.with_scratch_home ~capacity:4 (fun ~dir ~pool:bp ->
      let rows = Array.init 100 (kinds_row 0) in
      let tbl =
        Table.spill ~dir ~pool:bp
          (Table.create ~chunk_rows:50 ~inputs:[] ~name:"touch" ~schema:(kinds_schema "touch") rows)
      in
      let tr = Span.create () in
      Buffer_pool.set_tracer bp (Some tr);
      Fun.protect ~finally:(fun () -> Buffer_pool.set_tracer bp None) @@ fun () ->
      let c = Option.get (Chunk.columnar (Table.chunk_data tbl 0)) in
      Alcotest.(check int) "one frame fault" 1 (frame_faults tr);
      Alcotest.(check (list (pair int int))) "no block read yet" [] (block_reads tr);
      (* each accessor reads the block of the column it touches *)
      check_value "get" rows.(3).(2) (Columnar.get c ~row:3 ~col:2);
      let hits = Columnar.eval_cmp c ~col:6 Columnar.Eq (Value.Str "1") ~sel:None in
      Alcotest.(check int) "eval_cmp" 10 (Array.length (Option.get hits));
      let p = Columnar.project c [ 0; 2; 8 ] in
      Alcotest.(check (list (pair int int))) "project reads nothing"
        [ (0, 2); (0, 6) ] (block_reads tr);
      let t = Columnar.take p [| 1; 2 |] in
      check_value "take" rows.(2).(8) (Columnar.get t ~row:1 ~col:2);
      ignore (Columnar.eval_null c ~col:9 ~want_null:true ~sel:None);
      ignore (Columnar.column_values c 2);
      (* a lookup through the table reads its cells' blocks of chunk 1 *)
      let buf = Array.make (Array.length kinds) Value.Null in
      let r = Table.row_cells tbl 60 ~cols:[| 1; 3 |] ~buf in
      check_value "row_cells" rows.(60).(1) r.(1);
      check_value "row_cells" rows.(60).(3) r.(3);
      (* hits share the decoded columns: nothing more is read *)
      let c' = Option.get (Chunk.columnar (Table.chunk_data tbl 0)) in
      check_value "hit" rows.(7).(2) (Columnar.get c' ~row:7 ~col:2);
      check_value "hit" rows.(9).(8) (Columnar.get c' ~row:9 ~col:8);
      Alcotest.(check int) "two frame faults" 2 (frame_faults tr);
      Alcotest.(check (list (pair int int)))
        "exactly the touched blocks, once each"
        [ (0, 2); (0, 6); (0, 0); (0, 8); (0, 9); (1, 1); (1, 3) ]
        (block_reads tr);
      let st = Buffer_pool.stats bp in
      Alcotest.(check int) "misses" 2 st.Buffer_pool.misses)

(* a filtered, projected scan of a spilled table reads the blocks of the
   filter's and the projection's columns only *)
let test_scan_reads_only_touched () =
  Table.with_scratch_home ~capacity:4 (fun ~dir ~pool:bp ->
      let rows = Array.init 120 (kinds_row 0) in
      let schema = kinds_schema "scan" in
      let tbl = Table.spill ~dir ~pool:bp (Table.create ~chunk_rows:40 ~inputs:[] ~name:"scan" ~schema rows) in
      let tr = Span.create () in
      Buffer_pool.set_tracer bp (Some tr);
      Fun.protect ~finally:(fun () -> Buffer_pool.set_tracer bp None) @@ fun () ->
      let filter =
        Qs_query.Expr.Cmp
          (Qs_query.Expr.Gt, Qs_query.Expr.Col { Qs_query.Expr.rel = "scan"; name = "c0" },
           Qs_query.Expr.Const (Value.Int 50))
      in
      let input =
        {
          Qs_stats.Fragment.id = "scan";
          table = tbl;
          provides = [ "scan" ];
          filters = [ filter ];
          stats = Qs_stats.Table_stats.rowcount_only 120;
          is_temp = false;
          base_table = None;
          provenance = "scan";
          stats_epoch = 0;
          memo = Hashtbl.create 1;
          scratch = Qs_util.Scratch.create ();
        }
      in
      let out = Executor.filter_input ~positions:[ 7 ] input in
      let cols = List.sort_uniq compare (List.map snd (block_reads tr)) in
      Alcotest.(check (list int)) "filter + projection blocks only" [ 0; 7 ] cols;
      let want = List.filter (fun r -> Value.compare r.(0) (Value.Int 50) > 0) (Array.to_list rows) in
      Alcotest.(check int) "survivors" (List.length want) (Table.n_rows out);
      let buf = [| Value.Null |] in
      List.iteri
        (fun i r -> check_value "projected cell" r.(7) (Table.row_cells out i ~cols:[| 0 |] ~buf).(0))
        want)

(* --- two domains, one pending column -------------------------------------- *)

let test_two_domains_share_pending () =
  Table.with_scratch_home ~capacity:2 (fun ~dir ~pool:bp ->
      let rows = Array.init 4000 (kinds_row 0) in
      let tbl =
        Table.spill ~dir ~pool:bp
          (Table.create ~chunk_rows:4000 ~inputs:[] ~name:"shared" ~schema:(kinds_schema "shared") rows)
      in
      let c = Option.get (Chunk.columnar (Table.chunk_data tbl 0)) in
      let digest vs = Digest.to_hex (Digest.string (Marshal.to_string vs [ Marshal.No_sharing ])) in
      let want j = digest (Array.map (fun r -> r.(j)) rows) in
      List.iter
        (fun j ->
          let ready = Atomic.make 0 in
          let touch () =
            Atomic.incr ready;
            while Atomic.get ready < 2 do
              Domain.cpu_relax ()
            done;
            let vs = Columnar.column_values c j in
            (digest vs, Columnar.column c j)
          in
          let d1 = Domain.spawn touch and d2 = Domain.spawn touch in
          let g1, c1 = Domain.join d1 and g2, c2 = Domain.join d2 in
          Alcotest.(check string) (Printf.sprintf "column %d: same digest" j) g1 g2;
          Alcotest.(check string) (Printf.sprintf "column %d: right values" j) (want j) g1;
          Alcotest.(check bool) (Printf.sprintf "column %d: one shared decode" j) true (c1 == c2))
        [ 1; 3; 7; 8 ])

(* --- corrupt frames -------------------------------------------------------- *)

let get_i64 s off = Int64.to_int (String.get_int64_be s off)

(* frame [i]'s start, and its directory entry (offset from the frame's
   start, length) for column [j] *)
let frame_start s i = 32 + (i * get_i64 s 16)

let dir_entry s i j =
  let e = frame_start s i + 16 + (16 * j) in
  (get_i64 s e, get_i64 s (e + 8))

(* rewrite the file with [f] of its bytes *)
let patch path f =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let s = f s in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let poke f s =
  let b = Bytes.of_string s in
  f b;
  Bytes.to_string b

let victim_schema name =
  Schema.make name [ ("id", Value.TInt); ("tag", Value.TStr); ("price", Value.TFloat) ]

let victim_rows n =
  Array.init n (fun i ->
      [|
        (if i mod 7 = 0 then Value.Null else Value.Int i);
        Value.Str (Printf.sprintf "tag%d" (i mod 4));
        Value.Float (float_of_int i *. 1.25);
      |])

(* [corrupt] damages the file of a spilled 120-row table (two 60-row
   frames of an int column with NULLs, a dict string column and a float
   column). Touching column [bad_col] of frame [frame] — or, with
   [at_fault], faulting the frame at all — must raise a [Failure] naming
   [what]; a column left intact still reads; no pin leaks; and the pool
   still runs the next query. *)
let corrupt_case ~what ?(at_fault = false) ~frame ~bad_col ~good_col corrupt () =
  Table.with_scratch_home ~capacity:3 (fun ~dir ~pool:bp ->
      let cat = Fixtures.shop_catalog ~n_orders:200 ~chunk_rows:60 ~spill:(dir, bp) () in
      let registry = Qs_stats.Stats_registry.create cat in
      let ctx = Strategy.make_ctx registry Estimator.default in
      let frag = Strategy.fragment_of_query ctx (Fixtures.shop_query ()) in
      let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
      let expected = Table.digest (fst (Executor.run plan)) in
      let rows = victim_rows 120 in
      let victim =
        Table.spill ~dir ~pool:bp
          (Table.create ~chunk_rows:60 ~inputs:[] ~name:"victim" ~schema:(victim_schema "victim") rows)
      in
      patch (file_of ~dir "victim") corrupt;
      let expect_failure label f =
        match f () with
        | _ -> Alcotest.failf "%s: corrupt %s read without error" label what
        | exception Failure msg ->
            if not (Str_helpers.contains msg what) then
              Alcotest.failf "%s: failure %S does not name %S" label msg what
      in
      let row = (frame * 60) + 1 in
      let buf = Array.make 3 Value.Null in
      let lookup col () = Table.row_cells victim row ~cols:[| col |] ~buf in
      if at_fault then expect_failure "fault" (lookup good_col)
      else begin
        (* the fault and the intact column read; the bad block fails
           at its first touch, and again at the next *)
        check_value "intact column" rows.(row).(good_col) (lookup good_col ()).(good_col);
        expect_failure "first touch" (lookup bad_col);
        expect_failure "next touch" (lookup bad_col)
      end;
      expect_failure "scan" (fun () -> Table.digest victim);
      Alcotest.(check int) "no pins leaked" 0 (Buffer_pool.pinned bp);
      Alcotest.(check string) "next query" expected (Table.digest (fst (Executor.run plan)));
      Alcotest.(check int) "no pins after the next query" 0 (Buffer_pool.pinned bp))

(* the file ends inside frame 1's last block *)
let test_truncated_file =
  corrupt_case ~what:"truncated column block" ~frame:1 ~bad_col:2 ~good_col:1 (fun s ->
      let off, len = dir_entry s 1 2 in
      String.sub s 0 (frame_start s 1 + off + len - 3))

(* the directory gives frame 0's int block four bytes less than its
   values need *)
let test_short_block =
  corrupt_case ~what:"truncated block" ~frame:0 ~bad_col:0 ~good_col:2 (fun s ->
      let _, len = dir_entry s 0 0 in
      poke (fun b -> Bytes.set_int64_be b (frame_start s 0 + 24) (Int64.of_int (len - 4))) s)

let test_bad_column_tag =
  corrupt_case ~what:"column tag" ~frame:0 ~bad_col:2 ~good_col:0 (fun s ->
      let off, _ = dir_entry s 0 2 in
      poke (fun b -> Bytes.set b (frame_start s 0 + off) 'Z') s)

let test_directory_out_of_bounds =
  corrupt_case ~what:"block out of bounds" ~at_fault:true ~frame:1 ~bad_col:1 ~good_col:0
    (fun s ->
      poke
        (fun b ->
          Bytes.set_int64_be b (frame_start s 1 + 16 + 16) (Int64.of_int (get_i64 s 16)))
        s)

let test_directory_overlap =
  corrupt_case ~what:"overlapping blocks" ~at_fault:true ~frame:0 ~bad_col:1 ~good_col:2
    (fun s ->
      let off0, _ = dir_entry s 0 0 in
      poke (fun b -> Bytes.set_int64_be b (frame_start s 0 + 16 + 16) (Int64.of_int off0)) s)

(* the dict string block ends with its codes: make the first one point
   past the dictionary *)
let test_dict_code_out_of_range =
  corrupt_case ~what:"dict code" ~frame:1 ~bad_col:1 ~good_col:0 (fun s ->
      let off, len = dir_entry s 1 1 in
      let first_code = frame_start s 1 + off + len - (4 * 60) in
      poke (fun b -> Bytes.set_int32_be b first_code 9l) s)

(* the int block's null flag (the byte after its tag) is neither 0 nor 1 *)
let test_bad_null_flag =
  corrupt_case ~what:"null flag" ~frame:0 ~bad_col:0 ~good_col:1 (fun s ->
      let off, _ = dir_entry s 0 0 in
      poke (fun b -> Bytes.set b (frame_start s 0 + off + 1) '\007') s)

let suite =
  [
    Alcotest.test_case "every column kind round-trips block by block" `Quick
      test_blocks_round_trip;
    Alcotest.test_case "touching k columns reads only those k blocks" `Quick
      test_touch_reads_only_touched;
    Alcotest.test_case "a filtered projected scan reads only its blocks" `Quick
      test_scan_reads_only_touched;
    Alcotest.test_case "two domains first-touch one pending column" `Quick
      test_two_domains_share_pending;
    Alcotest.test_case "corrupt: truncated file" `Quick test_truncated_file;
    Alcotest.test_case "corrupt: short block" `Quick test_short_block;
    Alcotest.test_case "corrupt: bad column tag" `Quick test_bad_column_tag;
    Alcotest.test_case "corrupt: directory out of bounds" `Quick test_directory_out_of_bounds;
    Alcotest.test_case "corrupt: overlapping directory entries" `Quick test_directory_overlap;
    Alcotest.test_case "corrupt: dict code out of range" `Quick test_dict_code_out_of_range;
    Alcotest.test_case "corrupt: bad null flag" `Quick test_bad_null_flag;
  ]
