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

let suite =
  [
    Alcotest.test_case "namer" `Quick test_namer_sequences;
    Alcotest.test_case "materialize projects" `Quick test_materialize_projects_and_renames;
    Alcotest.test_case "materialize keep all" `Quick test_materialize_keep_everything;
    Alcotest.test_case "stats modes" `Quick test_stats_modes;
    Alcotest.test_case "to_input" `Quick test_to_input;
  ]
