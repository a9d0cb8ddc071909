(* Physical plan trees: construction rules, traversal order, node
   replacement, rendering. *)

module Value = Qs_storage.Value
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Fragment = Qs_stats.Fragment
module Physical = Qs_plan.Physical
module Expr = Qs_query.Expr

let input name =
  let tbl = Table.create ~inputs:[] ~name ~schema:(Schema.make name [ ("id", Value.TInt) ]) [||] in
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

let scan name = Physical.scan (input name) ~est_rows:5.0 ~est_cost:1.0

let hj l r =
  Physical.join ~method_:Physical.Hash () ~left:l ~right:r
    ~preds:[ Expr.eq (Expr.col "x" "a") (Expr.col "y" "b") ]
    ~est_rows:3.0 ~est_cost:2.0

let test_leaves_in_order () =
  let plan = hj (hj (scan "a") (scan "b")) (scan "c") in
  Alcotest.(check (list string)) "left-to-right" [ "a"; "b"; "c" ]
    (List.map (fun i -> i.Fragment.id) (Physical.leaves plan))

let test_joins_post_order () =
  let inner = hj (scan "a") (scan "b") in
  let plan = hj inner (scan "c") in
  let order = Physical.joins_post_order plan in
  Alcotest.(check int) "two joins" 2 (List.length order);
  Alcotest.(check int) "child first" inner.Physical.id (List.hd order).Physical.id;
  Alcotest.(check int) "root last" plan.Physical.id (List.nth order 1).Physical.id

let test_deepest_join () =
  let inner = hj (scan "a") (scan "b") in
  let plan = hj inner (scan "c") in
  match Physical.deepest_join plan with
  | Some n -> Alcotest.(check int) "the scan-scan join" inner.Physical.id n.Physical.id
  | None -> Alcotest.fail "expected a deepest join"

let test_find_and_replace () =
  let inner = hj (scan "a") (scan "b") in
  let plan = hj inner (scan "c") in
  Alcotest.(check bool) "find hits" true (Physical.find plan inner.Physical.id <> None);
  let replacement = scan "t1" in
  let swapped = Physical.replace plan ~id:inner.Physical.id ~by:replacement in
  Alcotest.(check int) "one join left" 1 (Physical.n_joins swapped);
  Alcotest.(check (list string)) "rels recomputed" [ "t1"; "c" ]
    (List.map (fun i -> i.Fragment.id) (Physical.leaves swapped));
  (* replacing a missing id is the identity *)
  Alcotest.(check bool) "missing id identity" true
    (Physical.replace plan ~id:(-1) ~by:replacement == plan)

let test_index_nl_requires_index () =
  Alcotest.(check bool) "rejected" true
    (try
       ignore
         (Physical.join ~method_:Physical.Index_nl () ~left:(scan "a") ~right:(scan "b")
            ~preds:[] ~est_rows:1.0 ~est_cost:1.0);
       false
     with Invalid_argument _ -> true)

let test_hash_rejects_index () =
  let tbl =
    Table.of_rows ~name:"ix"
      ~schema:(Schema.make "ix" [ ("id", Value.TInt) ])
      [ [| Value.Int 1 |] ]
  in
  let ix = Qs_storage.Index.build tbl ~column:"id" ~unique:true in
  Alcotest.(check bool) "rejected" true
    (try
       ignore
         (Physical.join ~method_:Physical.Hash
            ~index:(ix, { Expr.rel = "a"; name = "id" }, { Expr.rel = "b"; name = "id" })
            () ~left:(scan "a") ~right:(scan "b") ~preds:[] ~est_rows:1.0 ~est_cost:1.0);
       false
     with Invalid_argument _ -> true)

let test_join_leaf_sets () =
  let plan = hj (hj (scan "a") (scan "b")) (scan "c") in
  Alcotest.(check (list (list string))) "sorted alias sets"
    [ [ "a"; "b" ]; [ "a"; "b"; "c" ] ]
    (Physical.join_leaf_sets plan)

let test_rendering () =
  let plan = hj (scan "a") (scan "b") in
  let s = Physical.to_string plan in
  Alcotest.(check bool) "mentions method" true (Str_helpers.contains s "HashJoin");
  Alcotest.(check bool) "mentions scans" true
    (Str_helpers.contains s "Scan a" && Str_helpers.contains s "Scan b")

let test_fresh_ids () =
  let a = scan "a" and b = scan "b" in
  Alcotest.(check bool) "distinct ids" true (a.Physical.id <> b.Physical.id)

(* Every planning domain allocates node ids from one counter; the
   executor keys its per-run stats by them, so two nodes of one plan
   must never share an id. In each round two domains allocate 100k
   nodes each, released together by a spin barrier so the allocations
   overlap; a lost update shows as a repeated id. One round catches a
   racy counter only sometimes, so the test runs ten. *)
let test_fresh_ids_across_domains () =
  let per_domain = 100_000 in
  let inp = input "a" in
  for _ = 1 to 10 do
    let ready = Atomic.make 0 in
    let alloc () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      let ids = Array.make per_domain 0 in
      for i = 0 to per_domain - 1 do
        ids.(i) <- (Physical.scan inp ~est_rows:1.0 ~est_cost:1.0).Physical.id
      done;
      ids
    in
    let d1 = Domain.spawn alloc and d2 = Domain.spawn alloc in
    let ids = Array.append (Domain.join d1) (Domain.join d2) in
    let seen = Hashtbl.create (2 * per_domain) in
    Array.iter (fun id -> Hashtbl.replace seen id ()) ids;
    Alcotest.(check int) "every id distinct" (2 * per_domain) (Hashtbl.length seen)
  done

let suite =
  [
    Alcotest.test_case "leaves order" `Quick test_leaves_in_order;
    Alcotest.test_case "post order" `Quick test_joins_post_order;
    Alcotest.test_case "deepest join" `Quick test_deepest_join;
    Alcotest.test_case "find/replace" `Quick test_find_and_replace;
    Alcotest.test_case "index NL needs index" `Quick test_index_nl_requires_index;
    Alcotest.test_case "hash rejects index" `Quick test_hash_rejects_index;
    Alcotest.test_case "join leaf sets" `Quick test_join_leaf_sets;
    Alcotest.test_case "rendering" `Quick test_rendering;
    Alcotest.test_case "fresh ids" `Quick test_fresh_ids;
    Alcotest.test_case "fresh ids across domains" `Quick test_fresh_ids_across_domains;
  ]
