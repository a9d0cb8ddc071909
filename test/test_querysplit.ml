(* QuerySplit end-to-end: Theorem 1 (result equivalence with direct
   execution) as a property, across all QSA × SSA policies; the loop's
   bookkeeping; the §6.4 statistics toggle; timeout behaviour. *)

module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Fragment = Qs_stats.Fragment
module Estimator = Qs_stats.Estimator
module Strategy = Qs_core.Strategy
module Querysplit = Qs_core.Querysplit
module Qsa = Qs_core.Qsa
module Ssa = Qs_core.Ssa
module Naive = Qs_exec.Naive
module Rng = Qs_util.Rng

let truth ctx q =
  let frag = Strategy.fragment_of_query ctx q in
  Naive.rows frag

let run_qs ?(config = Querysplit.default_config) ctx q =
  ((Querysplit.strategy config).Strategy.run ctx q).Strategy.result

let test_matches_truth_on_shop () =
  let _, ctx = Fixtures.shop_ctx () in
  let q = Fixtures.shop_query () in
  Alcotest.(check bool) "same relation" true
    (Fixtures.tables_equal (truth ctx q) (run_qs ctx q))

let test_all_policy_combinations () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:500 () in
  let q = Fixtures.shop_query () in
  let expected = truth ctx q in
  List.iter
    (fun qsa ->
      List.iter
        (fun ssa ->
          let got = run_qs ~config:{ Querysplit.qsa; ssa } ctx q in
          if not (Fixtures.tables_equal expected got) then
            Alcotest.failf "mismatch under %s/%s" (Qsa.policy_name qsa)
              (Ssa.policy_name ssa))
        (Ssa.all_phi @ [ Ssa.Global_deep ]))
    Qsa.all_policies

let test_single_relation_query () =
  let _, ctx = Fixtures.shop_ctx () in
  let q =
    Query.make ~name:"one"
      ~output:[ { Expr.rel = "c"; name = "city" } ]
      [ { Query.alias = "c"; table = "customers" } ]
      [ Expr.Cmp (Expr.Eq, Expr.col "c" "vip", Expr.Const (Qs_storage.Value.Bool true)) ]
  in
  Alcotest.(check bool) "singleton works" true
    (Fixtures.tables_equal (truth ctx q) (run_qs ctx q))

let test_cartesian_isolated_results () =
  let _, ctx = Fixtures.shop_ctx () in
  let q =
    Query.make ~name:"cart"
      [
        { Query.alias = "c"; table = "customers" };
        { Query.alias = "p"; table = "products" };
      ]
      [
        Expr.Cmp (Expr.Eq, Expr.col "c" "city", Expr.vstr "kiel");
        Expr.Cmp (Expr.Eq, Expr.col "p" "kind", Expr.vstr "tool");
      ]
  in
  Alcotest.(check bool) "cartesian merge" true
    (Fixtures.tables_equal (truth ctx q) (run_qs ctx q))

let test_iteration_count_matches_subqueries () =
  let _, ctx = Fixtures.shop_ctx () in
  let q = Fixtures.shop_query () in
  let subs = Qsa.split (Strategy.catalog ctx) q Qsa.RCenter in
  let outcome = (Querysplit.strategy Querysplit.default_config).Strategy.run ctx q in
  (* one iteration per subquery unless subqueries get absorbed *)
  Alcotest.(check bool) "iterations <= subqueries" true
    (List.length outcome.Strategy.iterations <= List.length subs);
  Alcotest.(check bool) "at least one iteration" true
    (List.length outcome.Strategy.iterations >= 1);
  (* all but the final iteration materialize *)
  let mats = List.filter (fun i -> i.Strategy.materialized) outcome.Strategy.iterations in
  Alcotest.(check int) "mats = iters - 1"
    (List.length outcome.Strategy.iterations - 1)
    (List.length mats)

let test_stats_toggle_same_result () =
  let cat = Fixtures.shop_catalog () in
  let registry = Qs_stats.Stats_registry.create cat in
  let q = Fixtures.shop_query () in
  let with_stats =
    run_qs (Strategy.make_ctx ~collect_stats:true registry Estimator.default) q
  in
  let without =
    run_qs (Strategy.make_ctx ~collect_stats:false registry Estimator.default) q
  in
  Alcotest.(check bool) "same result either way" true
    (Fixtures.tables_equal with_stats without)

let test_timeout_reported () =
  let _, ctx0 = Fixtures.shop_ctx ~n_orders:4000 () in
  let ctx = { ctx0 with Strategy.deadline = ref (Some (Qs_util.Timer.now ())) } in
  let outcome =
    (Querysplit.strategy Querysplit.default_config).Strategy.run ctx (Fixtures.shop_query ())
  in
  Alcotest.(check bool) "timed out" true outcome.Strategy.timed_out

let test_subquery_plans_hook () =
  let _, ctx = Fixtures.shop_ctx () in
  let plans = Querysplit.subquery_plans ctx (Fixtures.shop_query ()) Querysplit.default_config in
  Alcotest.(check bool) "at least one subquery" true (List.length plans >= 1);
  List.iter
    (fun (_, cost, rows) ->
      Alcotest.(check bool) "positive estimates" true (cost > 0.0 && rows >= 0.0))
    plans

let test_trace_estimates_recorded () =
  let _, ctx = Fixtures.shop_ctx () in
  let outcome =
    (Querysplit.strategy Querysplit.default_config).Strategy.run ctx (Fixtures.shop_query ())
  in
  List.iter
    (fun (it : Strategy.iteration) ->
      Alcotest.(check bool) "actual >= 0" true (it.Strategy.actual_rows >= 0);
      Alcotest.(check bool) "est >= 0" true (it.Strategy.est_rows >= 0.0))
    outcome.Strategy.iterations

(* Theorem 1 as a property: on random queries, QuerySplit under a random
   policy pair produces exactly the direct execution's result. *)
let qcheck_theorem1 =
  QCheck.Test.make ~name:"Theorem 1: QuerySplit = direct execution" ~count:30
    QCheck.(triple (int_range 0 100_000) (int_range 0 2) (int_range 0 5))
    (fun (seed, qsa_i, ssa_i) ->
      let _, ctx = Fixtures.shop_ctx ~n_orders:400 () in
      let rng = Rng.create seed in
      let q = Fixtures.random_shop_query rng in
      let qsa = List.nth Qsa.all_policies qsa_i in
      let ssa = List.nth (Ssa.all_phi @ [ Ssa.Global_deep ]) ssa_i in
      let got = run_qs ~config:{ Querysplit.qsa; ssa } ctx q in
      Fixtures.tables_equal (truth ctx q) got)

(* Theorem 1 on the JOB-like workload against the Cinema data *)
let qcheck_theorem1_cinema =
  QCheck.Test.make ~name:"Theorem 1 on Cinema queries" ~count:1 QCheck.unit
    (fun () ->
      let cat = Lazy.force Fixtures.cinema in
      let registry = Qs_stats.Stats_registry.create cat in
      let ctx = Strategy.make_ctx registry Estimator.default in
      List.for_all
        (fun q ->
          let expected = truth ctx q in
          Fixtures.tables_equal expected (run_qs ctx q))
        (Lazy.force Fixtures.cinema_queries))

let suite =
  [
    Alcotest.test_case "matches truth" `Quick test_matches_truth_on_shop;
    Alcotest.test_case "all policy combos" `Quick test_all_policy_combinations;
    Alcotest.test_case "single relation" `Quick test_single_relation_query;
    Alcotest.test_case "cartesian isolated" `Quick test_cartesian_isolated_results;
    Alcotest.test_case "iteration bookkeeping" `Quick test_iteration_count_matches_subqueries;
    Alcotest.test_case "stats toggle" `Quick test_stats_toggle_same_result;
    Alcotest.test_case "timeout" `Quick test_timeout_reported;
    Alcotest.test_case "subquery_plans hook" `Quick test_subquery_plans_hook;
    Alcotest.test_case "trace estimates" `Quick test_trace_estimates_recorded;
    QCheck_alcotest.to_alcotest qcheck_theorem1;
    QCheck_alcotest.to_alcotest qcheck_theorem1_cinema;
  ]
