module Table = Qs_storage.Table
module Logical = Qs_plan.Logical
module Relop = Qs_exec.Relop
module Executor = Qs_exec.Executor
module Timer = Qs_util.Timer

let rec eval (strategy : Strategy.t) ctx node =
  match (node : Logical.t) with
  | Logical.Spj q ->
      let o =
        Qs_util.Span.span ctx.Strategy.spans Qs_util.Span.Execute
          ("spj:" ^ q.Qs_query.Query.name)
          (fun () -> strategy.Strategy.run ctx q)
      in
      if o.Strategy.timed_out then raise Executor.Timeout;
      (o.Strategy.result, o.Strategy.iterations)
  | Logical.Agg { name; group_by; aggs; input } ->
      let tbl, iters = eval strategy ctx input in
      (Relop.aggregate ~name ~group_by ~aggs tbl, iters)
  | Logical.Union_all { name; inputs } ->
      let results = List.map (eval strategy ctx) inputs in
      let tables = List.map fst results in
      let iters = List.concat_map snd results in
      (Relop.union_all ~name tables, iters)
  | Logical.Semi { name; left; right; on } ->
      let lt, li = eval strategy ctx left in
      let rt, ri = eval strategy ctx right in
      (Relop.semi_join ~name ~anti:false ~left:lt ~right:rt ~on, li @ ri)
  | Logical.Anti { name; left; right; on } ->
      let lt, li = eval strategy ctx left in
      let rt, ri = eval strategy ctx right in
      (Relop.semi_join ~name ~anti:true ~left:lt ~right:rt ~on, li @ ri)
  | Logical.Let { bindings; body } ->
      let iters =
        List.concat_map
          (fun b ->
            let tbl, iters = eval strategy ctx b in
            let named =
              (* SPJ outputs still carry alias qualifiers; flatten them so
                 the parent can scan the result as one relation *)
              if Logical.is_spj b then Relop.flatten ~name:(Logical.name b) tbl
              else tbl
            in
            Strategy.register_pseudo ctx named;
            iters)
          bindings
      in
      let tbl, body_iters = eval strategy ctx body in
      (tbl, iters @ body_iters)

let run strategy (ctx : Strategy.ctx) tree =
  Hashtbl.reset ctx.Strategy.pseudo;
  let start = Timer.now () in
  Strategy.guard ctx @@ fun () ->
  let result, iterations = eval strategy ctx tree in
  Strategy.finished ~start ~result ~iterations
