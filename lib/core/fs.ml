module Table = Qs_storage.Table
module Query = Qs_query.Query
module Fragment = Qs_stats.Fragment
module Estimator = Qs_stats.Estimator
module Optimizer = Qs_plan.Optimizer
module Executor = Qs_exec.Executor
module Timer = Qs_util.Timer

let scale_factors = [ 0.25; 1.0; 4.0 ]

(* Scale the estimator's join cardinalities by factor^(joins): single
   inputs keep their estimates, every extra input compounds the factor. *)
let scaled factor (est : Estimator.t) =
  {
    Estimator.name = Printf.sprintf "%s*%.2g" est.Estimator.name factor;
    card =
      (fun frag ->
        let n = List.length frag.Fragment.inputs in
        if n <= 1 then est.Estimator.card frag
        else est.Estimator.card frag *. Float.pow factor (float_of_int (n - 1)));
  }

let run ctx (q : Query.t) =
  let start = Timer.now () in
  Strategy.guard ctx @@ fun () ->
  let frag = Strategy.fragment_of_query ctx q in
  let cat = Strategy.catalog ctx in
  let scenarios = List.map (fun f -> scaled f ctx.Strategy.estimator) scale_factors in
  let candidates =
    List.map
      (fun est ->
        (Optimizer.optimize ?spans:ctx.Strategy.spans
           ?memo:ctx.Strategy.dp_memo cat est frag)
          .Optimizer.plan)
      scenarios
  in
  let worst_case plan =
    List.fold_left
      (fun acc est -> Float.max acc (Optimizer.cost_plan cat est frag plan))
      0.0 scenarios
  in
  let plan =
    List.fold_left
      (fun best cand -> if worst_case cand < worst_case best then cand else best)
      (List.hd candidates) (List.tl candidates)
  in
  let table, _ =
    Executor.run ?deadline:!(ctx.Strategy.deadline) ?cancel:ctx.Strategy.cancel
      ?spans:ctx.Strategy.spans plan
  in
  let result = Executor.project ~name:q.Query.name table q.Query.output in
  Strategy.finished ~start ~result
    ~iterations:
      [
        {
          Strategy.index = 1;
          description = "fs:" ^ q.Query.name;
          est_rows = plan.Qs_plan.Physical.est_rows;
          actual_rows = Table.n_rows table;
          elapsed = Timer.now () -. start;
          mat_bytes = 0;
          materialized = false;
          replanned = false;
        };
      ]

let strategy = { Strategy.name = "fs"; run }
