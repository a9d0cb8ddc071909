(* Differential executor testing: seeded random SPJ queries (Fuzz) run
   through the naive reference executor, the optimized executor and every
   re-optimization strategy must produce identical result multisets.

   The query corpus is deterministic (fixed seeds), so a failure here is
   reproducible by name (fuzz_<i>). *)

module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Query = Qs_query.Query
module Estimator = Qs_stats.Estimator
module Optimizer = Qs_plan.Optimizer
module Executor = Qs_exec.Executor
module Naive = Qs_exec.Naive
module Strategy = Qs_core.Strategy
module Fuzz = Qs_workload.Fuzz

(* result sets above this are skipped: an explosive cross-FK join tells us
   nothing new about plan equivalence and only burns test time *)
let max_result_rows = 60_000

let check_query ctx (q : Query.t) =
  let frag = Strategy.fragment_of_query ctx q in
  (* the weighted count is cheap: skip explosive queries before anything
     materializes their result *)
  if Naive.count frag <= max_result_rows then begin
    let expected = Naive.rows frag in
    (* the optimized executor on the DP plan... *)
    let cat = Strategy.catalog ctx in
    let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
    let table, stats = Executor.run plan in
    let got = Executor.project ~name:q.Query.name table q.Query.output in
    if not (Fixtures.tables_equal expected got) then
      Alcotest.failf "%s: optimized executor diverges from naive (%d vs %d rows)"
        q.Query.name (Table.n_rows expected) (Table.n_rows got);
    (* ... with complete per-node stats ... *)
    List.iter
      (fun (n : Qs_plan.Physical.t) ->
        if not (Hashtbl.mem stats n.Qs_plan.Physical.id) then
          Alcotest.failf "%s: node %d missing from executor stats" q.Query.name
            n.Qs_plan.Physical.id)
      (Qs_plan.Physical.nodes plan);
    (* ... and every strategy agrees *)
    List.iter
      (fun (s : Strategy.t) ->
        let r = (s.Strategy.run ctx q).Strategy.result in
        if not (Fixtures.tables_equal expected r) then
          Alcotest.failf "%s: strategy %s diverges from naive" q.Query.name
            s.Strategy.name)
      Test_strategies.all_strategies
  end

let test_shop_corpus () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:400 () in
  let queries = Fuzz.queries cat ~seed:20230617 ~n:180 () in
  List.iter (check_query ctx) queries

let test_cinema_corpus () =
  let cat = Lazy.force Fixtures.cinema in
  let registry = Qs_stats.Stats_registry.create cat in
  let ctx = Strategy.make_ctx registry Estimator.default in
  let queries = Fuzz.queries cat ~seed:42 ~max_rels:3 ~n:20 () in
  List.iter (check_query ctx) queries

(* generator sanity: the corpus is deterministic and structurally valid *)
let test_fuzz_deterministic () =
  let cat = Fixtures.shop_catalog ~n_orders:100 () in
  let a = Fuzz.queries cat ~seed:9 ~n:25 () in
  let b = Fuzz.queries cat ~seed:9 ~n:25 () in
  List.iter2
    (fun qa qb ->
      Alcotest.(check string) "same SQL" (Query.to_sql qa) (Query.to_sql qb))
    a b;
  List.iter
    (fun q ->
      match Query.validate cat q with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s invalid: %s" q.Query.name m)
    a

let test_fuzz_varies () =
  let cat = Fixtures.shop_catalog ~n_orders:100 () in
  let qs = Fuzz.queries cat ~seed:5 ~n:40 () in
  let distinct =
    List.sort_uniq compare (List.map Query.to_sql qs) |> List.length
  in
  Alcotest.(check bool) "corpus is not degenerate" true (distinct > 20)

(* --- parallel harness ------------------------------------------------- *)

module Runner = Qs_harness.Runner
module Algos = Qs_harness.Algos
module Metrics = Qs_obs.Metrics

let counters_equal label a b =
  Alcotest.(check (list string)) (label ^ ": counter names") (Metrics.counter_names a)
    (Metrics.counter_names b);
  List.iter
    (fun name ->
      Alcotest.(check int) (label ^ ": counter " ^ name) (Metrics.counter a name)
        (Metrics.counter b name))
    (Metrics.counter_names a)

(* 200 seeded queries through the harness at increasing domain counts:
   result digests and all metric counters must be independent of the
   fan-out (a fresh env per run keeps stats/oracle caches comparable). *)
let test_parallel_harness_corpus () =
  let cat = Fixtures.shop_catalog ~n_orders:400 () in
  let queries = Fuzz.queries cat ~seed:20230617 ~n:200 () in
  let run domains =
    Runner.run_spj ~timeout:60.0 ~domains (Runner.make_env ~seed:7 cat) Algos.default
      queries
  in
  let seq = run 1 in
  let seq_metrics = Runner.metrics_of_results seq in
  List.iter
    (fun domains ->
      let par = run domains in
      Alcotest.(check int) "one result per query" (List.length seq) (List.length par);
      List.iter2
        (fun (a : Runner.qresult) (b : Runner.qresult) ->
          Alcotest.(check string) "query order" a.Runner.query b.Runner.query;
          if a.Runner.digest <> b.Runner.digest then
            Alcotest.failf "%s: digest differs at domains=%d" a.Runner.query domains;
          Alcotest.(check bool) "timeout status" a.Runner.timed_out b.Runner.timed_out;
          Alcotest.(check int) "materializations" a.Runner.mats b.Runner.mats)
        seq par;
      (* aggregate counters match the sequential run... *)
      counters_equal
        (Printf.sprintf "domains=%d" domains)
        seq_metrics
        (Runner.metrics_of_results par);
      (* ...and merging per-chunk registries (as the harness does with
         per-domain registries) reproduces the whole *)
      let n_chunks = 4 in
      let chunks = Array.make n_chunks [] in
      List.iteri (fun i r -> chunks.(i mod n_chunks) <- r :: chunks.(i mod n_chunks)) par;
      let merged = Metrics.create () in
      Array.iter
        (fun chunk -> Metrics.merge ~into:merged (Runner.metrics_of_results chunk))
        chunks;
      counters_equal (Printf.sprintf "domains=%d merged chunks" domains) seq_metrics merged;
      match
        (Metrics.histogram seq_metrics "qerror", Metrics.histogram merged "qerror")
      with
      | Some hs, Some hm ->
          Alcotest.(check int) "merged qerror count" (Qs_obs.Histogram.count hs)
            (Qs_obs.Histogram.count hm)
      | None, None -> ()
      | _ -> Alcotest.fail "qerror histogram present in only one run")
    [ 2; 4 ]

(* --- per-node cardinalities against naive execution ------------------ *)

(* The morsel-driven engine over the whole corpus: the result multiset
   equals naive execution's, and so does every plan node's
   cardinality. *)
let test_node_cardinalities_corpus () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:400 () in
  let queries = Fuzz.queries cat ~seed:20230617 ~n:200 () in
  List.iter
    (fun (q : Query.t) ->
      let frag = Strategy.fragment_of_query ctx q in
      if Naive.count frag <= max_result_rows then begin
        let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
        let expected = Naive.rows frag in
        let table, stats = Executor.run plan in
        let got = Executor.project ~name:q.Query.name table q.Query.output in
        if not (Fixtures.tables_equal expected got) then
          Alcotest.failf "%s: run diverges from naive (%d vs %d rows)" q.Query.name
            (Table.n_rows expected) (Table.n_rows got);
        Fixtures.check_node_rows ~what:q.Query.name frag plan stats
      end)
    queries

(* ?row_limit semantics over spilled tables: any join producing more
   than [limit] rows must trip {!Executor.Timeout}, a limit no operator
   reaches must not trip, and the surviving run must agree with naive execution — with
   every pin released on the Timeout unwinds. *)
let test_limit_spill () =
  let saved = Table.default_chunk_rows () in
  Table.set_default_chunk_rows 32;
  Fun.protect
    ~finally:(fun () -> Table.set_default_chunk_rows saved)
    (fun () ->
      let dir = Filename.temp_file "qs_limit" "" in
      Sys.remove dir;
      Sys.mkdir dir 0o700;
      let bp = Qs_storage.Buffer_pool.create ~capacity:4 () in
      let saved_spill = Table.spill_config () in
      Table.set_spill (Some (dir, bp));
      Fun.protect
        ~finally:(fun () ->
          Table.set_spill saved_spill;
          Array.iter
            (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
            (Sys.readdir dir);
          (try Sys.rmdir dir with Sys_error _ -> ()))
        (fun () ->
          let cat, ctx = Fixtures.shop_ctx ~n_orders:400 () in
          let queries = Fuzz.queries cat ~seed:7 ~n:40 () in
          let tripped = ref 0 in
          List.iter
            (fun (q : Query.t) ->
              let frag = Strategy.fragment_of_query ctx q in
              if Naive.count frag <= max_result_rows then begin
                let plan =
                  (Optimizer.optimize cat Estimator.default frag).Optimizer.plan
                in
                (* an explicit limit far above any operator output:
                   the run over spilled tables must not trip it *)
                let relaxed, _ = Executor.run ~row_limit:Executor.default_row_limit plan in
                let got = Executor.project ~name:q.Query.name relaxed q.Query.output in
                if not (Fixtures.tables_equal (Naive.rows frag) got) then
                  Alcotest.failf "%s: diverges from naive under a slack limit"
                    q.Query.name;
                (* a limit strictly below some join's naive output:
                   more than [limit] rows survive that join in any
                   evaluation order, so the run must raise *)
                let naive_rows = Fixtures.naive_node_rows frag plan in
                let join_max =
                  List.fold_left
                    (fun m (n : Qs_plan.Physical.t) ->
                      match n.Qs_plan.Physical.node with
                      | Qs_plan.Physical.Join _ ->
                          max m (List.assoc n.Qs_plan.Physical.id naive_rows)
                      | Qs_plan.Physical.Scan _ -> m)
                    0
                    (Qs_plan.Physical.nodes plan)
                in
                if join_max > 1 then begin
                  incr tripped;
                  (match Executor.run ~row_limit:(join_max - 1) plan with
                  | _ -> Alcotest.failf "%s: the run ignored the limit" q.Query.name
                  | exception Executor.Timeout -> ());
                  Alcotest.(check int)
                    (q.Query.name ^ ": no pins leaked by limit unwind")
                    0
                    (Qs_storage.Buffer_pool.pinned bp)
                end
              end)
            queries;
          Alcotest.(check bool) "some queries exercised the tight limit" true
            (!tripped > 5)))

(* Tracing must be observation-only: running the corpus with a span
   tracer attached yields result digests
   byte-identical to the untraced run, for both the plain executor and
   the full QuerySplit loop. *)
let test_traced_corpus_observation_only () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:400 () in
  let tracer = Qs_util.Span.create () in
  let _, ctx_traced = Fixtures.shop_ctx ~n_orders:400 ~spans:tracer () in
  let qs = Qs_core.Querysplit.strategy Qs_core.Querysplit.default_config in
  let queries = Fuzz.queries cat ~seed:20230617 ~n:200 () in
  List.iter
    (fun (q : Query.t) ->
      let frag = Strategy.fragment_of_query ctx q in
      if Naive.count frag <= max_result_rows then begin
        let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
        let plain, _ = Executor.run plan in
        let traced, _ = Executor.run ~spans:tracer plan in
        if Table.digest plain <> Table.digest traced then
          Alcotest.failf "%s: executor digest changes under tracing" q.Query.name;
        let a = (qs.Strategy.run ctx q).Strategy.result in
        let b = (qs.Strategy.run ctx_traced q).Strategy.result in
        if Table.digest a <> Table.digest b then
          Alcotest.failf "%s: querysplit digest changes under tracing" q.Query.name
      end)
    queries;
  Alcotest.(check bool) "the tracer actually observed the runs" true
    (Qs_util.Span.count tracer > 0)

(* --- sharded storage --------------------------------------------------- *)

module Schema = Qs_storage.Schema
module Value = Qs_storage.Value
module Expr = Qs_query.Expr
module Relop = Qs_exec.Relop
module Logical = Qs_plan.Logical

(* Chunked scan/filter/aggregate must be *row-for-row* identical to the
   flat path, for every chunk size. *)
let test_chunked_scan_property () =
  let n = 200 in
  let schema =
    Schema.make "f" [ ("id", Value.TInt); ("grp", Value.TInt); ("amount", Value.TInt) ]
  in
  let rows =
    Array.init n (fun i ->
        let h = i * 131 mod 1009 in
        [| Value.Int i; Value.Int (h mod 7); Value.Int (h mod 100) |])
  in
  let filters = [ Expr.Cmp (Expr.Lt, Expr.col "f" "amount", Expr.vint 50) ] in
  let group_by = [ { Expr.rel = "f"; name = "grp" } ] in
  let aggs =
    [
      { Logical.fn = Logical.Sum; arg = Some (Expr.col "f" "amount"); label = "total" };
      { Logical.fn = Logical.Count_star; arg = None; label = "n" };
      { Logical.fn = Logical.Max; arg = Some (Expr.col "f" "id"); label = "top" };
    ]
  in
  let flat = Table.create ~chunk_rows:n ~name:"f" ~schema rows in
  let base_filtered = Executor.filter_table flat filters in
  let base_agg = Relop.aggregate ~name:"g" ~group_by ~aggs flat in
  List.iter
    (fun chunk_rows ->
      let tbl = Table.create ~chunk_rows ~name:"f" ~schema rows in
      let label what = Printf.sprintf "%s (chunk_rows=%d)" what chunk_rows in
      let filtered = Executor.filter_table tbl filters in
      Alcotest.(check bool) (label "filter row-identical") true
        (Table.to_rows base_filtered = Table.to_rows filtered);
      let agged = Relop.aggregate ~name:"g" ~group_by ~aggs tbl in
      Alcotest.(check bool) (label "aggregate row-identical") true
        (Table.to_rows base_agg = Table.to_rows agged))
    [ 1; 7; 64; n ]

(* the full differential corpus with the catalog sharded into small chunks:
   optimized plans over chunked tables must equal the flat results *)
let test_chunked_corpus () =
  let saved = Table.default_chunk_rows () in
  Fun.protect
    ~finally:(fun () -> Table.set_default_chunk_rows saved)
    (fun () ->
      let cat_flat, ctx_flat = Fixtures.shop_ctx ~n_orders:400 () in
      Table.set_default_chunk_rows 64;
      let _, ctx_chunked = Fixtures.shop_ctx ~n_orders:400 () in
      let queries = Fuzz.queries cat_flat ~seed:20230617 ~n:200 () in
      List.iter
        (fun (q : Query.t) ->
          let frag = Strategy.fragment_of_query ctx_flat q in
          if Naive.count frag <= max_result_rows then begin
            let plan =
              (Optimizer.optimize cat_flat Estimator.default frag).Optimizer.plan
            in
            let seq, _ = Executor.run plan in
            let frag_c = Strategy.fragment_of_query ctx_chunked q in
            let plan_c =
              (Optimizer.optimize (Strategy.catalog ctx_chunked) Estimator.default
                 frag_c)
                .Optimizer.plan
            in
            let chunked, _ = Executor.run plan_c in
            if not (Fixtures.tables_equal seq chunked) then
              Alcotest.failf "%s: chunked scan diverges (%d vs %d rows)"
                q.Query.name (Table.n_rows seq) (Table.n_rows chunked)
          end)
        queries)

let suite =
  [
    Alcotest.test_case "fuzz corpus deterministic" `Quick test_fuzz_deterministic;
    Alcotest.test_case "fuzz corpus varies" `Quick test_fuzz_varies;
    Alcotest.test_case "shop corpus: naive = executor = strategies" `Slow
      test_shop_corpus;
    Alcotest.test_case "cinema corpus: naive = executor = strategies" `Slow
      test_cinema_corpus;
    Alcotest.test_case "parallel harness: digests + counters invariant" `Slow
      test_parallel_harness_corpus;
    Alcotest.test_case "node cardinalities = naive" `Slow
      test_node_cardinalities_corpus;
    Alcotest.test_case "row limit: limit x spill" `Slow test_limit_spill;
    Alcotest.test_case "traced corpus digests = untraced" `Slow
      test_traced_corpus_observation_only;
    Alcotest.test_case "chunked scan row-identical across chunk sizes" `Quick
      test_chunked_scan_property;
    Alcotest.test_case "chunked corpus = flat" `Slow test_chunked_corpus;
  ]
