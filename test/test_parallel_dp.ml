(* Planning on concurrent domains and the cross-step DP memo: every test
   here is a determinism proof, asserting that plans picked while other
   domains plan other queries, and memo replay, are byte-identical to
   the sequential, memo-free optimizer. *)

module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Value = Qs_storage.Value
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Estimator = Qs_stats.Estimator
module Fragment = Qs_stats.Fragment
module Stats_registry = Qs_stats.Stats_registry
module Optimizer = Qs_plan.Optimizer
module Physical = Qs_plan.Physical
module Dp_memo = Qs_plan.Dp_memo
module Strategy = Qs_core.Strategy
module Runner = Qs_harness.Runner
module Algos = Qs_harness.Algos
module Fuzz = Qs_workload.Fuzz
module Pool = Qs_util.Pool
module Span = Qs_util.Span

let plan_of ?memo cat frag =
  Physical.to_string (Optimizer.optimize ?memo cat Estimator.default frag).Optimizer.plan

(* A PK-FK chain r0 <- r1 <- ... <- r{n-1}: single connected component, so
   every DP level is fully populated. *)
let chain_catalog n_rels =
  let cat = Catalog.create () in
  for i = 0 to n_rels - 1 do
    let name = Printf.sprintf "r%d" i in
    let tbl =
      Table.create ~inputs:[] ~name
        ~schema:(Schema.make name [ ("id", Value.TInt); ("fk", Value.TInt) ])
        (Array.init 200 (fun j ->
             [| Value.Int (j + 1); Value.Int (1 + (j * 7 mod 200)) |]))
    in
    Catalog.add_table cat ~pk:"id" tbl;
    if i > 0 then
      Catalog.add_fk cat ~from_table:name ~from_column:"fk"
        ~to_table:(Printf.sprintf "r%d" (i - 1))
        ~to_column:"id"
  done;
  Catalog.build_indexes cat Catalog.Pk_fk;
  cat

let chain_query n_rels =
  let alias i = Printf.sprintf "r%d" i in
  Query.make
    ~name:(Printf.sprintf "chain%d" n_rels)
    (List.init n_rels (fun i -> { Query.alias = alias i; table = alias i }))
    (List.init (n_rels - 1) (fun i ->
         Expr.Cmp
           (Expr.Eq, Expr.col (alias (i + 1)) "fk", Expr.col (alias i) "id")))

let chain_frag n_rels =
  let cat = chain_catalog n_rels in
  let registry = Stats_registry.create cat in
  (cat, registry, Fragment.of_query registry (chain_query n_rels))

(* 200 seeded random queries planned the way harness cells plan them:
   each query on the one domain that picked it up, with its own ctx, over
   one shared registry, while other domains plan other queries. Every
   plan must equal the sequential one at every pool width, including
   width 1 (the pool's inline path). *)
let test_parallel_corpus () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:400 () in
  let registry = ctx.Strategy.registry in
  let queries = Fuzz.queries cat ~seed:20230617 ~n:200 () in
  let plan_in_own_ctx q =
    let ctx = Strategy.make_ctx registry Estimator.default in
    plan_of cat (Strategy.fragment_of_query ctx q)
  in
  let expected = List.map plan_in_own_ctx queries in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          List.iter2
            (fun exp got ->
              Alcotest.(check string) (Printf.sprintf "domains=%d" domains) exp got)
            expected
            (Pool.map pool plan_in_own_ctx queries)))
    [ 1; 2; 4 ]

(* memo property over the corpus: first call populates, second call
   replays — both must match the memo-free plan, and the replay must
   actually hit *)
let test_memo_property_corpus () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:400 () in
  let queries = Fuzz.queries cat ~seed:7 ~n:60 () in
  let hits_total = ref 0 in
  List.iter
    (fun q ->
      let frag = Strategy.fragment_of_query ctx q in
      let expected = plan_of cat frag in
      let memo = Dp_memo.create () in
      Alcotest.(check string)
        (q.Query.name ^ " populate") expected (plan_of ~memo cat frag);
      let h0 = Dp_memo.hits memo in
      Alcotest.(check string)
        (q.Query.name ^ " replay") expected (plan_of ~memo cat frag);
      hits_total := !hits_total + (Dp_memo.hits memo - h0))
    queries;
  if !hits_total = 0 then Alcotest.fail "memo replay never hit"

(* registering a temp over some aliases must invalidate every memoized
   subset touching them — and only change which work is redone, never the
   chosen plan *)
let test_memo_bump_invalidates () =
  let cat, _, frag = chain_frag 6 in
  let expected = plan_of cat frag in
  let memo = Dp_memo.create () in
  Alcotest.(check string) "populate" expected (plan_of ~memo cat frag);
  let h0 = Dp_memo.hits memo in
  Alcotest.(check string) "replay" expected (plan_of ~memo cat frag);
  if Dp_memo.hits memo <= h0 then Alcotest.fail "replay should hit";
  Dp_memo.bump memo ~aliases:[ "r3" ];
  let m1 = Dp_memo.misses memo in
  Alcotest.(check string) "after bump" expected (plan_of ~memo cat frag);
  if Dp_memo.misses memo <= m1 then
    Alcotest.fail "bump must force subsets containing r3 to miss";
  Alcotest.(check int) "alias epoch advanced" 1 (Dp_memo.alias_epoch memo "r3")

(* re-ANALYZE (Stats_registry.invalidate) bumps the per-table epoch; base
   inputs built afterwards carry it, so memo keys derived from the old
   epoch are never looked up again *)
let test_memo_registry_invalidate () =
  let cat, registry, frag = chain_frag 6 in
  let epoch_of f alias =
    let i = List.find (fun i -> i.Fragment.id = alias) f.Fragment.inputs in
    i.Fragment.stats_epoch
  in
  Alcotest.(check int) "fresh epoch" 0 (epoch_of frag "r2");
  let memo = Dp_memo.create () in
  let expected = plan_of cat frag in
  Alcotest.(check string) "populate" expected (plan_of ~memo cat frag);
  Stats_registry.invalidate registry "r2";
  let frag' = Fragment.of_query registry (chain_query 6) in
  Alcotest.(check int) "bumped epoch" 1 (epoch_of frag' "r2");
  let m0 = Dp_memo.misses memo in
  Alcotest.(check string) "after invalidate" expected (plan_of ~memo cat frag');
  if Dp_memo.misses memo <= m0 then
    Alcotest.fail "re-ANALYZE must force subsets containing r2 to miss"

(* end-to-end: QuerySplit with a cross-step memo returns the same result
   tables as without, and the memo earns hits across re-opt steps *)
let test_memo_strategy_equivalence () =
  let cat, _ = Fixtures.shop_ctx ~n_orders:400 () in
  let registry = Stats_registry.create cat in
  let queries = Fuzz.queries cat ~seed:31 ~n:30 () in
  let hits_total = ref 0 in
  List.iter
    (fun q ->
      let ctx_off = Strategy.make_ctx registry Estimator.default in
      let plain = (Algos.querysplit.Runner.strategy.Strategy.run ctx_off q).Strategy.result in
      let memo = Dp_memo.create () in
      let ctx_on = Strategy.make_ctx ~dp_memo:memo registry Estimator.default in
      let memoed = (Algos.querysplit.Runner.strategy.Strategy.run ctx_on q).Strategy.result in
      if not (Fixtures.tables_equal plain memoed) then
        Alcotest.failf "%s: memo-on result diverges" q.Query.name;
      hits_total := !hits_total + Dp_memo.hits memo)
    queries;
  if !hits_total = 0 then
    Alcotest.fail "QuerySplit never hit the cross-step memo"

(* above 13 inputs the optimizer falls back to the greedy planner
   (visible in the optimize span name) *)
let test_dp_limit_greedy_fallback () =
  let cat, _, frag = chain_frag 14 in
  let tr = Span.create () in
  let r = Optimizer.optimize ~spans:tr cat Estimator.default frag in
  Alcotest.(check int) "every input planned" 14
    (List.length (Physical.leaves r.Optimizer.plan));
  let names =
    List.filter_map
      (fun (s : Span.span) -> if s.Span.cat = Span.Optimize then Some s.Span.name else None)
      (Span.spans tr)
  in
  Alcotest.(check (list string)) "greedy span" [ "greedy n=14" ] names

let suite =
  [
    Alcotest.test_case "parallel corpus 200q domains {1,2,4}" `Slow
      test_parallel_corpus;
    Alcotest.test_case "memo property corpus" `Slow test_memo_property_corpus;
    Alcotest.test_case "memo bump invalidates aliases" `Quick
      test_memo_bump_invalidates;
    Alcotest.test_case "memo registry invalidate" `Quick
      test_memo_registry_invalidate;
    Alcotest.test_case "memo-on QuerySplit equivalence" `Slow
      test_memo_strategy_equivalence;
    Alcotest.test_case "dp limit greedy fallback" `Quick
      test_dp_limit_greedy_fallback;
  ]
