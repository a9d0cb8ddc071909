(* Plan similarity (Table 1's metric). *)

module Value = Qs_storage.Value
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Fragment = Qs_stats.Fragment
module Physical = Qs_plan.Physical
module Similarity = Qs_plan.Similarity
module Expr = Qs_query.Expr

let input name =
  let tbl =
    Table.create ~inputs:[] ~name ~schema:(Schema.make name [ ("id", Value.TInt) ]) [||]
  in
  {
    Fragment.id = name;
    table = tbl;
    provides = [ name ];
    filters = [];
    stats = Qs_stats.Table_stats.rowcount_only 0;
    is_temp = false;
    base_table = Some name;
    provenance = name;
    stats_epoch = 0;
    memo = Hashtbl.create 1;
      scratch = Qs_util.Scratch.create ();
  }

let scan name = Physical.scan (input name) ~est_rows:1.0 ~est_cost:1.0

let join l r =
  Physical.join ~method_:Physical.Hash () ~left:l ~right:r
    ~preds:[ Expr.eq (Expr.col "x" "a") (Expr.col "y" "b") ]
    ~est_rows:1.0 ~est_cost:1.0

let test_identical_plans () =
  let mk () = join (join (scan "a") (scan "b")) (scan "c") in
  Alcotest.(check int) "full agreement" 3 (Similarity.score (mk ()) (mk ()))

let test_build_probe_swap_ignored () =
  let p1 = join (scan "a") (scan "b") in
  let p2 = join (scan "b") (scan "a") in
  Alcotest.(check int) "commutative" 2 (Similarity.score p1 p2)

let test_disjoint_first_joins () =
  (* ((a b) c d) vs ((c d) a b): first joins share nothing *)
  let p1 = join (join (join (scan "a") (scan "b")) (scan "c")) (scan "d") in
  let p2 = join (join (join (scan "c") (scan "d")) (scan "a")) (scan "b") in
  Alcotest.(check int) "score 0" 0 (Similarity.score p1 p2)

let test_one_shared_leaf () =
  (* (a b) vs (a c): the first joins share a *)
  let p1 = join (join (scan "a") (scan "b")) (scan "c") in
  let p2 = join (join (scan "a") (scan "c")) (scan "b") in
  Alcotest.(check int) "score 1" 1 (Similarity.score p1 p2)

let test_agree_on_first_join_only () =
  (* ((a b) c) d  vs  ((a b) d) c: common subtree = {a,b} *)
  let p1 = join (join (join (scan "a") (scan "b")) (scan "c")) (scan "d") in
  let p2 = join (join (join (scan "a") (scan "b")) (scan "d")) (scan "c") in
  Alcotest.(check int) "score 2" 2 (Similarity.score p1 p2)

let test_three_leaf_common () =
  (* ((a b) c) shared, then diverges *)
  let base () = join (join (scan "a") (scan "b")) (scan "c") in
  let p1 = join (join (base ()) (scan "d")) (scan "e") in
  let p2 = join (join (base ()) (scan "e")) (scan "d") in
  Alcotest.(check int) "score 3" 3 (Similarity.score p1 p2)

let test_bushy_vs_left_deep () =
  (* bushy (a b)(c d) vs left-deep (((a b) c) d: common = {a,b} *)
  let p1 = join (join (scan "a") (scan "b")) (join (scan "c") (scan "d")) in
  let p2 = join (join (join (scan "a") (scan "b")) (scan "c")) (scan "d") in
  Alcotest.(check int) "score 2" 2 (Similarity.score p1 p2)

let test_buckets () =
  Alcotest.(check string) "0" "0" (Similarity.bucket 0);
  Alcotest.(check string) "1" "1" (Similarity.bucket 1);
  Alcotest.(check string) "2" "2" (Similarity.bucket 2);
  Alcotest.(check string) ">2" ">2" (Similarity.bucket 3);
  Alcotest.(check string) ">2 big" ">2" (Similarity.bucket 9)

let suite =
  [
    Alcotest.test_case "identical" `Quick test_identical_plans;
    Alcotest.test_case "swap ignored" `Quick test_build_probe_swap_ignored;
    Alcotest.test_case "disjoint firsts" `Quick test_disjoint_first_joins;
    Alcotest.test_case "one shared leaf" `Quick test_one_shared_leaf;
    Alcotest.test_case "first join only" `Quick test_agree_on_first_join_only;
    Alcotest.test_case "three-leaf common" `Quick test_three_leaf_common;
    Alcotest.test_case "bushy vs left-deep" `Quick test_bushy_vs_left_deep;
    Alcotest.test_case "buckets" `Quick test_buckets;
  ]
