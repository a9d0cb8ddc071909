(* The §3.3 driver: non-SPJ segmentation, pseudo relations, and agreement
   between strategies on logical trees. *)

module Value = Qs_storage.Value
module Table = Qs_storage.Table
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Logical = Qs_plan.Logical
module Estimator = Qs_stats.Estimator
module Strategy = Qs_core.Strategy
module Driver = Qs_core.Driver
module Static = Qs_core.Static
module Querysplit = Qs_core.Querysplit

let qs = Querysplit.strategy Querysplit.default_config

let rel alias table = { Query.alias; table }
let cref r n = { Expr.rel = r; Expr.name = n }

let spj_core () =
  Query.make ~name:"core"
    [ rel "o" "orders"; rel "c" "customers"; rel "p" "products" ]
    [
      Expr.eq (Expr.col "o" "customer_id") (Expr.col "c" "id");
      Expr.eq (Expr.col "o" "product_id") (Expr.col "p" "id");
      Expr.Cmp (Expr.Eq, Expr.col "c" "city", Expr.vstr "oslo");
    ]

let test_agg_over_spj () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:800 () in
  let tree =
    Logical.Agg
      {
        name = "by_kind";
        group_by = [ cref "p" "kind" ];
        aggs = [ { Logical.fn = Logical.Count_star; arg = None; label = "orders" } ];
        input = Logical.Spj (spj_core ());
      }
  in
  let a = Driver.run Static.default ctx tree in
  let b = Driver.run qs ctx tree in
  Alcotest.(check bool) "agg agrees" true
    (Fixtures.tables_equal a.Strategy.result b.Strategy.result);
  Alcotest.(check bool) "some groups" true (Table.n_rows a.Strategy.result > 0)

let test_agg_sum_value_correct () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:500 () in
  (* COUNT over all orders must equal the table size *)
  let tree =
    Logical.Agg
      {
        name = "cnt";
        group_by = [];
        aggs = [ { Logical.fn = Logical.Count_star; arg = None; label = "n" } ];
        input =
          Logical.Spj (Query.make ~name:"all_orders" [ rel "o" "orders" ] []);
      }
  in
  let out = Driver.run Static.default ctx tree in
  Alcotest.(check bool) "count = 500" true
    (Table.get out.Strategy.result ~row:0 ~col:0 = Value.Int 500)

let test_union_of_aggs () =
  let _, ctx = Fixtures.shop_ctx () in
  let mk_branch name city =
    Logical.Agg
      {
        name;
        group_by = [ cref "c" "city" ];
        aggs = [ { Logical.fn = Logical.Count_star; arg = None; label = "n" } ];
        input =
          Logical.Spj
            (Query.make ~name:(name ^ "_spj")
               [ rel "o" "orders"; rel "c" "customers" ]
               [
                 Expr.eq (Expr.col "o" "customer_id") (Expr.col "c" "id");
                 Expr.Cmp (Expr.Eq, Expr.col "c" "city", Expr.vstr city);
               ]);
      }
  in
  let tree =
    Logical.Union_all { name = "u"; inputs = [ mk_branch "b1" "oslo"; mk_branch "b2" "lima" ] }
  in
  let a = Driver.run Static.default ctx tree in
  let b = Driver.run qs ctx tree in
  Alcotest.(check int) "two rows" 2 (Table.n_rows a.Strategy.result);
  Alcotest.(check bool) "agree" true (Fixtures.tables_equal a.Strategy.result b.Strategy.result)

let test_semi_tree () =
  let _, ctx = Fixtures.shop_ctx () in
  let tree =
    Logical.Semi
      {
        name = "buyers";
        left = Logical.Spj (Query.make ~name:"cust" [ rel "c" "customers" ] []);
        right =
          Logical.Spj
            (Query.make ~name:"big_orders" [ rel "o" "orders" ]
               [ Expr.Cmp (Expr.Ge, Expr.col "o" "qty", Expr.vint 8) ]);
        on = [ Expr.eq (Expr.col "o" "customer_id") (Expr.col "c" "id") ];
      }
  in
  let a = Driver.run Static.default ctx tree in
  let b = Driver.run qs ctx tree in
  Alcotest.(check bool) "agree" true (Fixtures.tables_equal a.Strategy.result b.Strategy.result);
  Alcotest.(check bool) "some buyers" true (Table.n_rows a.Strategy.result > 0);
  Alcotest.(check bool) "fewer than all" true (Table.n_rows a.Strategy.result < 120)

let test_let_binding_pseudo_relation () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:600 () in
  (* bind per-product order counts, then query them like a base table *)
  let binding =
    Logical.Agg
      {
        name = "prod_stats";
        group_by = [ cref "p" "id" ];
        aggs = [ { Logical.fn = Logical.Count_star; arg = None; label = "n_orders" } ];
        input =
          Logical.Spj
            (Query.make ~name:"op" [ rel "o" "orders"; rel "p" "products" ]
               [ Expr.eq (Expr.col "o" "product_id") (Expr.col "p" "id") ]);
      }
  in
  let body =
    Logical.Spj
      (Query.make ~name:"hot"
         [ { Query.alias = "ps"; table = "prod_stats" } ]
         [ Expr.Cmp (Expr.Ge, Expr.col "ps" "n_orders", Expr.vint 10) ])
  in
  let tree = Logical.Let { bindings = [ binding ]; body } in
  let a = Driver.run Static.default ctx tree in
  let b = Driver.run qs ctx tree in
  Alcotest.(check bool) "agree" true (Fixtures.tables_equal a.Strategy.result b.Strategy.result)

let test_iterations_concatenated () =
  let _, ctx = Fixtures.shop_ctx () in
  let tree =
    Logical.Union_all
      {
        name = "u";
        (* both branches project the same two columns, so the union is
           well-typed; what we check is that the traces concatenate *)
        inputs =
          [
            Logical.Spj (Fixtures.shop_query ~name:"s1" ());
            Logical.Spj (Fixtures.shop_query ~name:"s2" ());
          ];
      }
  in
  let o = Driver.run qs ctx tree in
  (* both segments' iterations are visible in the trace *)
  Alcotest.(check bool) "traces from both segments" true
    (List.length o.Strategy.iterations >= 2)

let test_starbench_nonspj_agree () =
  let cat = Qs_workload.Starbench.build ~scale:0.1 ~seed:9 () in
  Qs_storage.Catalog.build_indexes cat Qs_storage.Catalog.Pk_fk;
  let registry = Qs_stats.Stats_registry.create cat in
  let trees = Qs_workload.Starbench.queries cat ~seed:10 in
  List.iter
    (fun tree ->
      let ctx () = Strategy.make_ctx registry Estimator.default in
      let a = Driver.run Static.default (ctx ()) tree in
      let b = Driver.run qs (ctx ()) tree in
      if not (Fixtures.tables_equal a.Strategy.result b.Strategy.result) then
        Alcotest.failf "mismatch on %s" (Logical.name tree))
    trees

(* --- column pruning through non-SPJ operators ----------------------------

   [Driver.prune] narrows the SPJ segments an aggregate or a semi/anti
   right side reads. The reference is [Unpruned], which runs every
   segment as written through the naive join, so a pruning bug cannot
   agree with itself. *)

let cnt label = { Logical.fn = Logical.Count_star; arg = None; label }

(* Default and QuerySplit both equal the unpruned reference by digest
   (floats to 9 significant digits, see [Unpruned.digest]) *)
let check_against_unpruned ?(what = "tree") ctx tree =
  let want = Unpruned.digest (Unpruned.run ctx tree) in
  List.iter
    (fun (sname, strategy) ->
      let o = Driver.run strategy ctx tree in
      Alcotest.(check string) (Printf.sprintf "%s: %s = unpruned" what sname) want
        (Unpruned.digest o.Strategy.result))
    [ ("default", Static.default); ("querysplit", qs) ]

let output_of = function
  | Logical.Spj q -> q.Query.output
  | t -> Alcotest.failf "expected an SPJ segment, got %s" (Logical.name t)

let cols = Alcotest.(list (pair string string))
let pairs = List.map (fun (c : Expr.colref) -> (c.Expr.rel, c.Expr.name))

let test_prune_count_star () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:800 () in
  let tree = Logical.Agg { name = "n"; group_by = []; aggs = [ cnt "n" ]; input = Logical.Spj (spj_core ()) } in
  (match Driver.prune tree with
  | Logical.Agg { input; _ } ->
      (* no column read: keep the first join column the SPJ reads *)
      Alcotest.check cols "one join column" [ ("o", "customer_id") ] (pairs (output_of input))
  | _ -> Alcotest.fail "prune changed the root");
  check_against_unpruned ~what:"count(*)" ctx tree;
  (* with no predicate there is no column the SPJ reads: SELECT * stays *)
  let bare =
    Logical.Agg
      {
        name = "n";
        group_by = [];
        aggs = [ cnt "n" ];
        input = Logical.Spj (Query.make ~name:"all_orders" [ rel "o" "orders" ] []);
      }
  in
  (match Driver.prune bare with
  | Logical.Agg { input; _ } -> Alcotest.check cols "select *" [] (pairs (output_of input))
  | _ -> Alcotest.fail "prune changed the root");
  check_against_unpruned ~what:"count(*) no predicate" ctx bare

let test_prune_arith_argument () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:800 () in
  let revenue = Expr.Arith (Expr.Mul, Expr.col "o" "qty", Expr.col "p" "price") in
  let tree =
    Logical.Agg
      {
        name = "rev";
        group_by = [ cref "c" "city" ];
        aggs = [ { Logical.fn = Logical.Sum; arg = Some revenue; label = "rev" }; cnt "n" ];
        input = Logical.Spj (spj_core ());
      }
  in
  (match Driver.prune tree with
  | Logical.Agg { input; _ } ->
      Alcotest.check cols "group key and both operands"
        [ ("c", "city"); ("o", "qty"); ("p", "price") ]
        (pairs (output_of input))
  | _ -> Alcotest.fail "prune changed the root");
  check_against_unpruned ~what:"sum(qty * price)" ctx tree

let test_prune_semi_anti_right () =
  let _, ctx = Fixtures.shop_ctx () in
  let semi anti =
    let s =
      {
        Logical.name = (if anti then "never" else "buyers");
        left = Logical.Spj (Query.make ~name:"cust" [ rel "c" "customers" ] []);
        right =
          Logical.Spj
            (Query.make ~name:"big_orders" [ rel "o" "orders" ]
               [ Expr.Cmp (Expr.Ge, Expr.col "o" "qty", Expr.vint 8) ]);
        (* an equality and a residual, each reading one right column *)
        on =
          [
            Expr.eq (Expr.col "o" "customer_id") (Expr.col "c" "id");
            Expr.Cmp (Expr.Lt, Expr.col "o" "product_id", Expr.col "c" "id");
          ];
      }
    in
    if anti then Logical.Anti s else Logical.Semi s
  in
  List.iter
    (fun anti ->
      let tree = semi anti in
      (match Driver.prune tree with
      | Logical.Semi s | Logical.Anti s ->
          Alcotest.check cols "left whole" [] (pairs (output_of s.Logical.left));
          Alcotest.check cols "right: the on columns"
            [ ("o", "customer_id"); ("o", "product_id") ]
            (pairs (output_of s.Logical.right))
      | _ -> Alcotest.fail "prune changed the root");
      check_against_unpruned ~what:(if anti then "anti" else "semi") ctx tree;
      (* under an aggregate the same right side is pruned the same way *)
      check_against_unpruned ~what:"count over semi" ctx
        (Logical.Agg { name = "k"; group_by = []; aggs = [ cnt "k" ]; input = tree }))
    [ false; true ]

let test_prune_let_binding_whole () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:600 () in
  (* an SPJ binding is scanned by name, so every column stays; the SPJ
     under an aggregate binding is pruned as anywhere else *)
  let orders =
    Logical.Spj
      (Query.make ~name:"big" [ rel "o" "orders" ]
         [ Expr.Cmp (Expr.Ge, Expr.col "o" "qty", Expr.vint 5) ])
  in
  let stats =
    Logical.Agg
      {
        name = "prod_stats";
        group_by = [ cref "p" "id" ];
        aggs = [ cnt "n_orders" ];
        input =
          Logical.Spj
            (Query.make ~name:"op" [ rel "o" "orders"; rel "p" "products" ]
               [ Expr.eq (Expr.col "o" "product_id") (Expr.col "p" "id") ]);
      }
  in
  let body =
    Logical.Agg
      {
        name = "hot";
        group_by = [ cref "b" "o_qty" ];
        aggs = [ cnt "n" ];
        input =
          Logical.Spj
            (Query.make ~name:"hot_spj"
               [ { Query.alias = "b"; table = "big" }; { Query.alias = "ps"; table = "prod_stats" } ]
               [
                 Expr.eq (Expr.col "b" "o_product_id") (Expr.col "ps" "p_id");
                 Expr.Cmp (Expr.Ge, Expr.col "ps" "n_orders", Expr.vint 10);
               ]);
      }
  in
  let tree = Logical.Let { bindings = [ orders; stats ]; body } in
  (match Driver.prune tree with
  | Logical.Let { bindings = [ b1; Logical.Agg { input; _ } ]; body = Logical.Agg a } ->
      Alcotest.check cols "spj binding whole" [] (pairs (output_of b1));
      Alcotest.check cols "agg binding's input pruned" [ ("p", "id") ] (pairs (output_of input));
      Alcotest.check cols "body's input pruned" [ ("b", "o_qty") ] (pairs (output_of a.input))
  | _ -> Alcotest.fail "prune changed the tree's shape");
  check_against_unpruned ~what:"let" ctx tree

let test_prune_select_star_result () =
  let _, ctx = Fixtures.shop_ctx () in
  let star name = Logical.Spj (Query.make ~name (spj_core ()).Query.rels (spj_core ()).Query.preds) in
  (* the tree's own result, and a union's positional inputs, stay whole *)
  List.iter
    (fun tree ->
      Alcotest.(check bool) "unchanged" true (Driver.prune tree = tree);
      check_against_unpruned ~what:(Logical.name tree) ctx tree)
    [ star "top"; Logical.Union_all { name = "u"; inputs = [ star "a"; star "b" ] } ];
  let o = Driver.run qs ctx (star "top") in
  Alcotest.(check int) "every column of o, c and p" 10
    (Array.length o.Strategy.result.Table.schema)

(* Every non-SPJ tree of DSB and Starbench: Default and QuerySplit equal
   the unpruned reference, on resident tables and fully spilled through
   a 4-frame pool. The reference runs resident; the data depend only on
   the seeds, so it holds for the spilled build as well. *)
let workload_trees () =
  let dsb () =
    let cat = Qs_workload.Dsb.build ~scale:0.1 ~seed:1 () in
    Qs_storage.Catalog.build_indexes cat Qs_storage.Catalog.Pk_fk;
    (cat, Qs_workload.Dsb.nonspj_queries cat ~seed:2)
  in
  let star () =
    let cat = Qs_workload.Starbench.build ~scale:0.1 ~seed:9 () in
    Qs_storage.Catalog.build_indexes cat Qs_storage.Catalog.Pk_fk;
    (cat, Qs_workload.Starbench.queries cat ~seed:10)
  in
  [ ("dsb", dsb); ("starbench", star) ]

let test_workloads_against_unpruned () =
  let ctx cat = Strategy.make_ctx (Qs_stats.Stats_registry.create cat) Estimator.default in
  let reference =
    List.map
      (fun (corpus, build) ->
        let cat, trees = build () in
        ( corpus,
          List.map (fun t -> (Logical.name t, Unpruned.digest (Unpruned.run (ctx cat) t))) trees ))
      (workload_trees ())
  in
  Alcotest.(check int) "dsb non-SPJ trees" 37 (List.length (List.assoc "dsb" reference));
  let check store =
    List.iter
      (fun (corpus, build) ->
        let cat, trees = build () in
        List.iter2
          (fun tree (name, want) ->
            List.iter
              (fun (sname, strategy) ->
                let o = Driver.run strategy (ctx cat) tree in
                Alcotest.(check string)
                  (Printf.sprintf "%s/%s %s (%s)" corpus name sname store)
                  want (Unpruned.digest o.Strategy.result))
              [ ("default", Static.default); ("querysplit", qs) ])
          trees (List.assoc corpus reference))
      (workload_trees ())
  in
  check "resident";
  Test_bufpool.with_spill ~capacity:4 (fun bp ->
      check "spilled";
      Alcotest.(check int) "no pins leaked" 0 (Qs_storage.Buffer_pool.pinned bp))

let suite =
  [
    Alcotest.test_case "agg over spj" `Quick test_agg_over_spj;
    Alcotest.test_case "count value" `Quick test_agg_sum_value_correct;
    Alcotest.test_case "union of aggs" `Quick test_union_of_aggs;
    Alcotest.test_case "semi tree" `Quick test_semi_tree;
    Alcotest.test_case "let pseudo relation" `Quick test_let_binding_pseudo_relation;
    Alcotest.test_case "iterations concatenated" `Quick test_iterations_concatenated;
    Alcotest.test_case "starbench agreement" `Slow test_starbench_nonspj_agree;
    Alcotest.test_case "prune count(*) keeps one read column" `Quick test_prune_count_star;
    Alcotest.test_case "prune arithmetic aggregate argument" `Quick test_prune_arith_argument;
    Alcotest.test_case "prune semi/anti right side" `Quick test_prune_semi_anti_right;
    Alcotest.test_case "prune leaves let bindings whole" `Quick test_prune_let_binding_whole;
    Alcotest.test_case "prune keeps a select * result whole" `Quick test_prune_select_star_result;
    Alcotest.test_case "dsb + starbench trees = unpruned reference" `Slow
      test_workloads_against_unpruned;
  ]
