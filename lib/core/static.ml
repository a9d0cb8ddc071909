module Table = Qs_storage.Table
module Query = Qs_query.Query
module Estimator = Qs_stats.Estimator
module Optimizer = Qs_plan.Optimizer
module Physical = Qs_plan.Physical
module Executor = Qs_exec.Executor
module Timer = Qs_util.Timer

let run_with ~name ?allowed ~estimator_of ctx (q : Query.t) =
  let start = Timer.now () in
  Strategy.guard ctx @@ fun () ->
  let frag = Strategy.fragment_of_query ctx q in
  let est = estimator_of ctx in
  let res =
    Optimizer.optimize ?allowed ?spans:ctx.Strategy.spans
      ?memo:ctx.Strategy.dp_memo (Strategy.catalog ctx) est frag
  in
  let table, _ =
    Executor.run ?deadline:!(ctx.Strategy.deadline) ?cancel:ctx.Strategy.cancel
      ?spans:ctx.Strategy.spans res.Optimizer.plan
  in
  let result = Executor.project ~name:q.Query.name table q.Query.output in
  Strategy.finished ~start ~result
    ~iterations:
      [
        {
          Strategy.index = 1;
          description = name ^ ":" ^ q.Query.name;
          est_rows = res.Optimizer.est_rows;
          actual_rows = Table.n_rows table;
          elapsed = Timer.now () -. start;
          mat_bytes = 0;
          materialized = false;
          replanned = false;
        };
      ]

let default =
  {
    Strategy.name = "static";
    run = run_with ~name:"static" ~estimator_of:(fun ctx -> ctx.Strategy.estimator);
  }

let use_robust =
  {
    Strategy.name = "use";
    run =
      run_with ~name:"use" ~allowed:[ Physical.Hash; Physical.Nl ]
        ~estimator_of:(fun _ -> Estimator.pessimistic);
  }
