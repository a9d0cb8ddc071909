(* Non-SPJ operators: aggregation, union all, semi/anti join, flatten. *)

module Value = Qs_storage.Value
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Relop = Qs_exec.Relop
module Logical = Qs_plan.Logical
module Expr = Qs_query.Expr

let sales () =
  Table.of_rows ~name:"s"
    ~schema:
      (Schema.make "s" [ ("region", Value.TStr); ("amount", Value.TInt); ("disc", Value.TFloat) ])
    [
      [| Value.Str "n"; Value.Int 10; Value.Float 0.1 |];
      [| Value.Str "n"; Value.Int 20; Value.Float 0.2 |];
      [| Value.Str "s"; Value.Int 5; Value.Float 0.0 |];
      [| Value.Str "s"; Value.Null; Value.Float 0.3 |];
    ]

let agg fn arg label = { Logical.fn; arg; label }

let find_row (t : Table.t) key =
  Array.to_list (Table.to_rows t)
  |> List.find (fun row -> Value.to_string row.(0) = key)

let test_group_by_sum_count () =
  let out =
    Relop.aggregate ~name:"g"
      ~group_by:[ { Expr.rel = "s"; name = "region" } ]
      ~aggs:
        [
          agg Logical.Sum (Some (Expr.col "s" "amount")) "total";
          agg Logical.Count_star None "rows";
          agg Logical.Count (Some (Expr.col "s" "amount")) "non_null";
        ]
      (sales ())
  in
  Alcotest.(check int) "2 groups" 2 (Table.n_rows out);
  let n = find_row out "n" in
  Alcotest.(check bool) "sum n = 30" true (n.(1) = Value.Int 30);
  Alcotest.(check bool) "count n = 2" true (n.(2) = Value.Int 2);
  let s = find_row out "s" in
  Alcotest.(check bool) "sum s = 5" true (s.(1) = Value.Int 5);
  Alcotest.(check bool) "count* counts null row" true (s.(2) = Value.Int 2);
  Alcotest.(check bool) "count(amount) skips null" true (s.(3) = Value.Int 1)

let test_min_max_avg () =
  let out =
    Relop.aggregate ~name:"g" ~group_by:[]
      ~aggs:
        [
          agg Logical.Min (Some (Expr.col "s" "amount")) "mn";
          agg Logical.Max (Some (Expr.col "s" "amount")) "mx";
          agg Logical.Avg (Some (Expr.col "s" "amount")) "avg";
        ]
      (sales ())
  in
  Alcotest.(check int) "one row" 1 (Table.n_rows out);
  let row = Table.row out 0 in
  Alcotest.(check bool) "min 5" true (row.(0) = Value.Int 5);
  Alcotest.(check bool) "max 20" true (row.(1) = Value.Int 20);
  (match row.(2) with
  | Value.Float f -> Alcotest.(check (float 1e-9)) "avg over non-null" (35.0 /. 3.0) f
  | _ -> Alcotest.fail "avg should be float")

let test_global_agg_on_empty_input () =
  let empty =
    Table.create ~inputs:[] ~name:"s" ~schema:(Schema.make "s" [ ("amount", Value.TInt) ]) [||]
  in
  let out =
    Relop.aggregate ~name:"g" ~group_by:[]
      ~aggs:
        [
          agg Logical.Count_star None "rows";
          agg Logical.Sum (Some (Expr.col "s" "amount")) "total";
        ]
      empty
  in
  Alcotest.(check int) "one row even when empty" 1 (Table.n_rows out);
  Alcotest.(check bool) "count 0" true (Table.get out ~row:0 ~col:0 = Value.Int 0);
  Alcotest.(check bool) "sum null" true (Value.is_null (Table.get out ~row:0 ~col:1))

let test_group_by_empty_input_no_rows () =
  let empty =
    Table.create ~inputs:[] ~name:"s"
      ~schema:(Schema.make "s" [ ("region", Value.TStr); ("amount", Value.TInt) ])
      [||]
  in
  let out =
    Relop.aggregate ~name:"g"
      ~group_by:[ { Expr.rel = "s"; name = "region" } ]
      ~aggs:[ agg Logical.Count_star None "rows" ]
      empty
  in
  Alcotest.(check int) "no groups" 0 (Table.n_rows out)

let test_agg_with_arith_expression () =
  let revenue =
    Expr.Arith
      (Expr.Mul, Expr.col "s" "amount",
       Expr.Arith (Expr.Sub, Expr.vfloat 1.0, Expr.col "s" "disc"))
  in
  let out =
    Relop.aggregate ~name:"g" ~group_by:[]
      ~aggs:[ agg Logical.Sum (Some revenue) "rev" ]
      (sales ())
  in
  match Table.get out ~row:0 ~col:0 with
  | Value.Float f -> Alcotest.(check (float 1e-6)) "10*.9+20*.8+5*1" 30.0 f
  | v -> Alcotest.failf "expected float, got %s" (Value.to_string v)

let test_union_all () =
  let out = Relop.union_all ~name:"u" [ sales (); sales () ] in
  Alcotest.(check int) "8 rows" 8 (Table.n_rows out);
  Alcotest.(check bool) "flat qualified" true
    (Schema.mem out.Table.schema ~rel:"u" ~name:"s_region")

(* Union passes each input's chunks through as they are: a resident
   table's boxed rows, a join's boxed output and a spilled table's typed
   frames. The digest is that of all their rows under the union's
   schema, as when every chunk was decoded to rows; a resident union
   shares its inputs' chunks. *)
let test_union_layouts () =
  let module Physical = Qs_plan.Physical in
  let rows = Table.to_rows (sales ()) in
  let titles =
    Table.create ~inputs:[] ~name:"t"
      ~schema:(Schema.make "t" [ ("k", Value.TInt); ("region", Value.TStr) ])
      [| [| Value.Int 1; Value.Str "e" |]; [| Value.Int 2; Value.Null |] |]
  in
  let amounts =
    Table.create ~inputs:[] ~name:"m"
      ~schema:(Schema.make "m" [ ("k", Value.TInt); ("amount", Value.TInt); ("disc", Value.TFloat) ])
      [|
        [| Value.Int 1; Value.Int 7; Value.Float Float.nan |];
        [| Value.Int 2; Value.Int 8; Value.Float (-0.0) |];
        [| Value.Int 2; Value.Null; Value.Float 1.0 |];
      |]
  in
  let scan t = Physical.scan (Test_executor.fragment_input t) ~est_rows:1.0 ~est_cost:1.0 in
  let joined, _ =
    Qs_exec.Executor.run
      ~project:[ { Expr.rel = "t"; name = "region" }; { Expr.rel = "m"; name = "amount" }; { Expr.rel = "m"; name = "disc" } ]
      (Physical.join ~method_:Physical.Hash () ~left:(scan titles) ~right:(scan amounts)
         ~preds:[ Expr.eq (Expr.col "t" "k") (Expr.col "m" "k") ]
         ~est_rows:1.0 ~est_cost:1.0)
  in
  Alcotest.(check bool) "the join output is boxed columns" true
    (match Qs_storage.Columnar.column (Table.chunk_data joined 0) 0 with
    | Qs_storage.Columnar.CGen _ -> true
    | _ -> false);
  let expect (u : Table.t) inputs =
    Table.digest
      (Table.create ~inputs:[] ~name:"u" ~schema:u.Table.schema
         (Array.concat (List.map Table.to_rows inputs)))
  in
  let resident = [ sales (); joined ] in
  let u = Relop.union_all ~name:"u" resident in
  Alcotest.(check string) "resident digest" (expect u resident) (Table.digest u);
  Alcotest.(check bool) "chunks shared" true
    (Table.chunk_data u 0 == Table.chunk_data (List.hd resident) 0
    && Table.chunk_data u 1 == Table.chunk_data joined 0);
  Table.with_scratch_home ~capacity:1 (fun ~dir ~pool ->
      let spilled =
        Table.spill ~dir ~pool
          (Table.create ~chunk_rows:3 ~inputs:[] ~name:"s" ~schema:(sales ()).Table.schema rows)
      in
      let inputs = [ sales (); joined; spilled ] in
      let u = Relop.union_all ~name:"u" inputs in
      Alcotest.(check bool) "spilled" true (Table.spilled u);
      Alcotest.(check int) "rows" 11 (Table.n_rows u);
      Alcotest.(check string) "digest with a spilled input" (expect u inputs) (Table.digest u))

let test_union_arity_mismatch () =
  let narrow =
    Table.create ~inputs:[] ~name:"n" ~schema:(Schema.make "n" [ ("a", Value.TInt) ]) [||]
  in
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (Relop.union_all ~name:"u" [ sales (); narrow ]);
       false
     with Invalid_argument _ -> true)

let people_orders () =
  let people =
    Table.of_rows ~name:"p"
      ~schema:(Schema.make "p" [ ("id", Value.TInt); ("name", Value.TStr) ])
      [
        [| Value.Int 1; Value.Str "ann" |];
        [| Value.Int 2; Value.Str "bob" |];
        [| Value.Int 3; Value.Str "eve" |];
      ]
  in
  let orders =
    Table.of_rows ~name:"o"
      ~schema:(Schema.make "o" [ ("pid", Value.TInt); ("amt", Value.TInt) ])
      [
        [| Value.Int 1; Value.Int 100 |];
        [| Value.Int 1; Value.Int 5 |];
        [| Value.Int 3; Value.Int 7 |];
      ]
  in
  (people, orders)

let test_semi_join () =
  let people, orders = people_orders () in
  let on = [ Expr.eq (Expr.col "o" "pid") (Expr.col "p" "id") ] in
  let out = Relop.semi_join ~name:"sj" ~anti:false ~left:people ~right:orders ~on in
  Alcotest.(check int) "ann and eve" 2 (Table.n_rows out)

let test_semi_join_no_duplicates () =
  (* ann has two orders but appears once *)
  let people, orders = people_orders () in
  let on = [ Expr.eq (Expr.col "o" "pid") (Expr.col "p" "id") ] in
  let out = Relop.semi_join ~name:"sj" ~anti:false ~left:people ~right:orders ~on in
  let names =
    Table.fold (fun acc r -> Value.to_string r.(1) :: acc) [] out
  in
  Alcotest.(check (list string)) "each person once" [ "ann"; "eve" ]
    (List.sort compare names)

let test_anti_join () =
  let people, orders = people_orders () in
  let on = [ Expr.eq (Expr.col "o" "pid") (Expr.col "p" "id") ] in
  let out = Relop.semi_join ~name:"aj" ~anti:true ~left:people ~right:orders ~on in
  Alcotest.(check int) "only bob" 1 (Table.n_rows out);
  Alcotest.(check string) "bob" "bob" (Value.to_string (Table.get out ~row:0 ~col:1))

let test_semi_join_residual_pred () =
  let people, orders = people_orders () in
  let on =
    [
      Expr.eq (Expr.col "o" "pid") (Expr.col "p" "id");
      Expr.Cmp (Expr.Gt, Expr.col "o" "amt", Expr.vint 50);
    ]
  in
  let out = Relop.semi_join ~name:"sj" ~anti:false ~left:people ~right:orders ~on in
  Alcotest.(check int) "only ann (amt 100)" 1 (Table.n_rows out)

let test_flatten_unique_names () =
  let joined =
    Table.create ~inputs:[] ~name:"j"
      ~schema:
        (Schema.concat
           (Schema.make "a" [ ("id", Value.TInt) ])
           (Schema.make "b" [ ("id", Value.TInt) ]))
      [| [| Value.Int 1; Value.Int 2 |] |]
  in
  let out = Relop.flatten ~name:"f" joined in
  Alcotest.(check bool) "a_id present" true (Schema.mem out.Table.schema ~rel:"f" ~name:"a_id");
  Alcotest.(check bool) "b_id present" true (Schema.mem out.Table.schema ~rel:"f" ~name:"b_id")

(* --- exact SUM / AVG ------------------------------------------------------ *)

let one_agg fn vs =
  let t =
    Table.of_rows ~name:"x"
      ~schema:(Schema.make "x" [ ("v", Value.TFloat) ])
      (List.map (fun v -> [| v |]) vs)
  in
  let out = Relop.aggregate ~name:"g" ~group_by:[] ~aggs:[ agg fn (Some (Expr.col "x" "v")) "s" ] t in
  (Table.row out 0).(0)

let bits = function
  | Value.Float f -> Printf.sprintf "%h" f
  | v -> Value.to_string v

let check_agg what fn vs want =
  Alcotest.(check string) what (bits want) (bits (one_agg fn vs))

let test_exact_sum () =
  let fs = List.map (fun f -> Value.Float f) in
  check_agg "ten 0.1s sum to 1" Logical.Sum (fs (List.init 10 (fun _ -> 0.1))) (Value.Float 1.0);
  check_agg "ten 0.1s average 0.1" Logical.Avg (fs (List.init 10 (fun _ -> 0.1))) (Value.Float 0.1);
  check_agg "cancellation keeps the small term" Logical.Sum (fs [ 1e16; 1.0; -1e16 ]) (Value.Float 1.0);
  check_agg "a tie broken by a lower partial" Logical.Sum (fs [ 1e-16; 1.0; 1e16 ])
    (Value.Float 10000000000000002.0);
  check_agg "int sum above 2^53 is exact" Logical.Sum
    [ Value.Int (1 lsl 53); Value.Int 1 ]
    (Value.Int ((1 lsl 53) + 1));
  check_agg "int sum cancels exactly" Logical.Sum
    [ Value.Int (1 lsl 60); Value.Int 3; Value.Int (-(1 lsl 60)) ]
    (Value.Int 3);
  check_agg "int + float rounds the exact sum once" Logical.Sum
    [ Value.Int ((1 lsl 53) + 1); Value.Float 0.5 ]
    (Value.Float 9007199254740994.0);
  check_agg "sum of -0.0 is 0.0, as from a zero start" Logical.Sum (fs [ -0.0 ]) (Value.Float 0.0);
  check_agg "infinity wins" Logical.Sum (fs [ 1.0; infinity; 2.0 ]) (Value.Float infinity);
  Alcotest.(check bool) "inf - inf is nan" true
    (match one_agg Logical.Sum (fs [ infinity; 1.0; neg_infinity ]) with
    | Value.Float f -> Float.is_nan f
    | _ -> false);
  check_agg "nulls only" Logical.Sum [ Value.Null ] Value.Null

(* A float of any magnitude and sign, an int, or NULL *)
let gen_value =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun m e neg -> Value.Float (ldexp (if neg then -.m else m) e))
            (float_bound_inclusive 1.0) (int_range (-70) 70) bool );
        (2, map (fun i -> Value.Int i) (int_range (-1_000_000) 1_000_000));
        (1, return Value.Null);
      ])

let gen_input =
  QCheck.Gen.(pair (list_size (int_range 0 200) (pair (int_range 0 3) gen_value)) int)

(* an aggregate's input in any order gives a bit-identical result *)
let qcheck_permuted_aggregate =
  QCheck.Test.make ~name:"a permuted aggregate input gives a bit-identical result" ~count:200
    (QCheck.make gen_input)
    (fun (rows, seed) ->
      let schema = Schema.make "x" [ ("g", Value.TInt); ("v", Value.TFloat) ] in
      let table rows =
        Table.of_rows ~chunk_rows:7 ~name:"x" ~schema
          (List.map (fun (g, v) -> [| Value.Int g; v |]) rows)
      in
      let shuffled =
        let a = Array.of_list rows in
        let st = Random.State.make [| seed |] in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list a
      in
      let run t =
        let v = Some (Expr.col "x" "v") in
        Relop.aggregate ~name:"g"
          ~group_by:[ { Expr.rel = "x"; name = "g" } ]
          ~aggs:
            [
              agg Logical.Sum v "s";
              agg Logical.Avg v "a";
              agg Logical.Count v "c";
              agg Logical.Min v "mn";
              agg Logical.Max v "mx";
            ]
          t
        |> Table.digest
      in
      run (table rows) = run (table shuffled))

let suite =
  [
    Alcotest.test_case "group by sum/count" `Quick test_group_by_sum_count;
    Alcotest.test_case "min/max/avg" `Quick test_min_max_avg;
    Alcotest.test_case "global agg empty input" `Quick test_global_agg_on_empty_input;
    Alcotest.test_case "group-by empty input" `Quick test_group_by_empty_input_no_rows;
    Alcotest.test_case "agg over expression" `Quick test_agg_with_arith_expression;
    Alcotest.test_case "union all" `Quick test_union_all;
    Alcotest.test_case "union keeps chunk layouts" `Quick test_union_layouts;
    Alcotest.test_case "union arity mismatch" `Quick test_union_arity_mismatch;
    Alcotest.test_case "semi join" `Quick test_semi_join;
    Alcotest.test_case "semi join dedup" `Quick test_semi_join_no_duplicates;
    Alcotest.test_case "anti join" `Quick test_anti_join;
    Alcotest.test_case "semi residual pred" `Quick test_semi_join_residual_pred;
    Alcotest.test_case "flatten names" `Quick test_flatten_unique_names;
    Alcotest.test_case "exact sum and avg" `Quick test_exact_sum;
    QCheck_alcotest.to_alcotest qcheck_permuted_aggregate;
  ]
