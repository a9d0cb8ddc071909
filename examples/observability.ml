(* Observability: record a plan's execution in spans, render EXPLAIN ANALYZE, and
   aggregate a workload run into a metrics report.

   Run with: dune exec examples/observability.exe *)

module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Estimator = Qs_stats.Estimator
module Optimizer = Qs_plan.Optimizer
module Executor = Qs_exec.Executor
module Strategy = Qs_core.Strategy
module Runner = Qs_harness.Runner
module Algos = Qs_harness.Algos
module Explain = Qs_obs.Explain
module Metrics = Qs_obs.Metrics
module Histogram = Qs_obs.Histogram

let () =
  (* 1. a small JOB-like database and one of its curated queries *)
  let cat = Qs_workload.Cinema.build ~scale:0.1 ~seed:7 () in
  Catalog.build_indexes cat Catalog.Pk_fk;
  let env = Runner.make_env ~seed:7 cat in
  let queries = Qs_workload.Cinema.queries cat ~seed:8 ~n:6 in
  let q = List.hd queries in

  (* 2. EXPLAIN: the optimizer's plan, estimates only *)
  let ctx = Strategy.make_ctx env.Runner.registry Estimator.default in
  let frag = Strategy.fragment_of_query ctx q in
  let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
  print_endline "=== EXPLAIN (estimates only) ===";
  print_string (Explain.render plan);

  (* 3. EXPLAIN ANALYZE: execute with a span tracer; every node now carries
     its actual cardinality, Q-error and input volume, and the pipeline
     and its breakers their wall-clock *)
  let spans = Qs_util.Span.create () in
  let table, stats = Executor.run ~spans plan in
  print_endline "\n=== EXPLAIN ANALYZE ===";
  print_string (Explain.render ~stats ~spans plan);
  Printf.printf "-- %s; %d result rows\n" (Explain.summary ~stats plan)
    (Table.n_rows table);

  (* 4. a workload run aggregated into per-strategy metrics *)
  let labelled =
    List.map
      (fun algo ->
        (algo.Runner.label, Runner.run_spj ~timeout:10.0 env algo queries))
      [ Algos.default; Algos.querysplit ]
  in
  print_endline "\n=== per-strategy Q-error distribution ===";
  List.iter
    (fun (label, rs) ->
      let m = Runner.metrics_of_results rs in
      match Metrics.histogram m "qerror" with
      | None -> Printf.printf "%-12s (no iterations)\n" label
      | Some h ->
          Printf.printf "%-12s p50=%.2f p95=%.2f max=%.2f over %d iterations\n"
            label
            (Histogram.percentile h 0.5)
            (Histogram.percentile h 0.95)
            (Histogram.max_value h) (Histogram.count h))
    labelled;
  print_endline "\n=== machine-readable report ===";
  print_endline (Runner.metrics_report labelled)
