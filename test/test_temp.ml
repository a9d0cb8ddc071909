(* Temp-table materialization (§5) and the §6.4 statistics switch. *)

module Value = Qs_storage.Value
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Temp = Qs_exec.Temp
module Table_stats = Qs_stats.Table_stats
module Fragment = Qs_stats.Fragment
module Expr = Qs_query.Expr

let source () =
  Table.of_rows ~name:"join"
    ~schema:
      (Schema.concat
         (Schema.make "a" [ ("id", Value.TInt); ("x", Value.TStr) ])
         (Schema.make "b" [ ("id", Value.TInt); ("y", Value.TInt) ]))
    [
      [| Value.Int 1; Value.Str "p"; Value.Int 9; Value.Int 100 |];
      [| Value.Int 2; Value.Str "q"; Value.Int 8; Value.Int 200 |];
    ]

let test_namer_sequences () =
  let n1 = Temp.namer () in
  let n2 = Temp.namer () in
  Alcotest.(check string) "T1" "T1" (n1 ());
  Alcotest.(check string) "T2" "T2" (n1 ());
  Alcotest.(check string) "independent generator" "T1" (n2 ())

let test_materialize_projects_and_renames () =
  let t =
    Temp.materialize ~name:"T1"
      ~keep:[ { Expr.rel = "a"; name = "id" }; { Expr.rel = "b"; name = "y" } ]
      (source ())
  in
  Alcotest.(check string) "renamed" "T1" t.Table.name;
  Alcotest.(check int) "two columns" 2 (Schema.arity t.Table.schema);
  (* alias qualifiers survive, so pending predicates still resolve *)
  Alcotest.(check bool) "a.id kept" true (Schema.mem t.Table.schema ~rel:"a" ~name:"id");
  Alcotest.(check bool) "b.y kept" true (Schema.mem t.Table.schema ~rel:"b" ~name:"y");
  Alcotest.(check int) "rows preserved" 2 (Table.n_rows t)

let test_materialize_keep_everything () =
  let t = Temp.materialize ~name:"T1" ~keep:[] (source ()) in
  Alcotest.(check int) "all columns" 4 (Schema.arity t.Table.schema)

let test_stats_modes () =
  let t = source () in
  let full = Temp.stats_of ~collect:true t in
  let rc = Temp.stats_of ~collect:false t in
  Alcotest.(check bool) "analyzed" true (Table_stats.has_column_stats full);
  Alcotest.(check bool) "rowcount only" false (Table_stats.has_column_stats rc);
  Alcotest.(check int) "both know the row count" (Table_stats.n_rows full)
    (Table_stats.n_rows rc)

let test_to_input () =
  let t = Temp.materialize ~name:"T1" ~keep:[] (source ()) in
  let input =
    Temp.to_input ~name:"T1" ~provenance:"prov" ~provides:[ "a"; "b" ]
      ~collect_stats:true t
  in
  Alcotest.(check bool) "temp flag" true input.Fragment.is_temp;
  Alcotest.(check bool) "no base table" true (input.Fragment.base_table = None);
  Alcotest.(check (list string)) "provides" [ "a"; "b" ] input.Fragment.provides;
  Alcotest.(check string) "provenance" "prov" input.Fragment.provenance;
  Alcotest.(check int) "no pending filters" 0 (List.length input.Fragment.filters);
  Alcotest.(check bool) "stats attached" true
    (Table_stats.find input.Fragment.stats ~rel:"a" ~name:"id" <> None)

(* --- partition-aware temps --------------------------------------------- *)

module Executor = Qs_exec.Executor
module Physical = Qs_plan.Physical
module Pool = Qs_util.Pool

(* r0(id) is a hub: r1.fk and r2.fk both reference it *)
let hub_tables () =
  let r0 =
    Table.create ~name:"r0"
      ~schema:(Schema.make "r0" [ ("id", Value.TInt); ("a", Value.TStr) ])
      (Array.init 40 (fun i ->
           [| Value.Int (i + 1); Value.Str (string_of_int (i * 3)) |]))
  in
  let r1 =
    Table.create ~name:"r1"
      ~schema:(Schema.make "r1" [ ("fk", Value.TInt); ("w", Value.TInt) ])
      (Array.init 120 (fun i -> [| Value.Int (1 + (i * 7 mod 40)); Value.Int i |]))
  in
  let r2 =
    Table.create ~name:"r2"
      ~schema:(Schema.make "r2" [ ("fk", Value.TInt); ("u", Value.TInt) ])
      (* some fks miss the hub entirely *)
      (Array.init 60 (fun i -> [| Value.Int (1 + (i * 11 mod 50)); Value.Int (-i) |]))
  in
  (r0, r1, r2)

let input_of name t =
  Temp.to_input ~name ~provenance:"test" ~provides:[ name ] ~collect_stats:false t

let scan input = Physical.scan input ~est_rows:1.0 ~est_cost:1.0

(* Two QuerySplit-style steps by hand: join r1 with the hub, materialize
   the result as a temp (optionally stripping its partition layout),
   then join the temp with r2 on the hub key again. *)
let two_step_digest ~pool ~drop_layout () =
  let r0, r1, r2 = hub_tables () in
  let plan1 =
    Physical.join ~method_:Physical.Hash () ~left:(scan (input_of "r1" r1))
      ~right:(scan (input_of "r0" r0))
      ~preds:[ Expr.eq (Expr.col "r1" "fk") (Expr.col "r0" "id") ]
      ~est_rows:1.0 ~est_cost:1.0
  in
  let t1, _ = Executor.run ?pool plan1 in
  let temp = Temp.materialize ~name:"T1" ~keep:[] t1 in
  let temp = if drop_layout then Table.without_partitioning temp else temp in
  let plan2 =
    Physical.join ~method_:Physical.Hash () ~left:(scan (input_of "r2" r2))
      ~right:(scan (input_of "T1" temp))
      ~preds:[ Expr.eq (Expr.col "r2" "fk") (Expr.col "r0" "id") ]
      ~est_rows:1.0 ~est_cost:1.0
  in
  let out, _ = Executor.run ?pool plan2 in
  Table.digest out

(* The property behind partition-aware temps: whether or not the next
   step consumes the temp through its preserved layout, the result is
   byte-identical — across chunk sizes {1,7,64} and pool widths {1,4}. *)
let test_layout_invariance_property () =
  let saved = Table.default_chunk_rows () in
  Fun.protect
    ~finally:(fun () -> Table.set_default_chunk_rows saved)
    (fun () ->
      let expected = ref None in
      List.iter
        (fun chunk_rows ->
          Table.set_default_chunk_rows chunk_rows;
          List.iter
            (fun width ->
              Pool.with_pool ~domains:width (fun pool ->
                  List.iter
                    (fun drop_layout ->
                      Executor.reset_counters ();
                      let d =
                        two_step_digest ~pool:(Some pool) ~drop_layout ()
                      in
                      let label =
                        Printf.sprintf
                          "digest (chunk_rows=%d width=%d layout %s)" chunk_rows
                          width
                          (if drop_layout then "dropped" else "preserved")
                      in
                      (match !expected with
                      | None -> expected := Some d
                      | Some e -> Alcotest.(check string) label e d);
                      (* the layout really is what step 2 consumes: with
                         it, the partitioned join reuses; without it (or
                         without partitions), it re-hashes every row *)
                      let reused = Executor.partition_reuses () > 0 in
                      Alcotest.(check bool)
                        (label ^ ": reuse iff preserved and partitioned")
                        ((not drop_layout) && width > 1)
                        reused)
                    [ false; true ]))
            [ 1; 4 ])
        [ 1; 7; 64 ])

let suite =
  [
    Alcotest.test_case "namer" `Quick test_namer_sequences;
    Alcotest.test_case "materialize projects" `Quick test_materialize_projects_and_renames;
    Alcotest.test_case "materialize keep all" `Quick test_materialize_keep_everything;
    Alcotest.test_case "stats modes" `Quick test_stats_modes;
    Alcotest.test_case "to_input" `Quick test_to_input;
    Alcotest.test_case "partitioned temp layout invariance" `Quick
      test_layout_invariance_property;
  ]
