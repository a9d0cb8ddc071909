(* An unpruned reference evaluator for logical trees, independent of
   [Driver]: every SPJ segment runs as written (a [SELECT *] one keeps
   every column) through the naive join ([Naive.rows], then
   [Executor.project] onto its output), and the non-SPJ operators above
   run through [Relop] exactly as the driver would run them. Its results
   are what the driver's column pruning must not change. *)

module Logical = Qs_plan.Logical
module Relop = Qs_exec.Relop
module Naive = Qs_exec.Naive
module Executor = Qs_exec.Executor
module Strategy = Qs_core.Strategy
module Query = Qs_query.Query
module Table = Qs_storage.Table

let rec eval ctx (node : Logical.t) =
  match node with
  | Logical.Spj q ->
      Executor.project ~name:q.Query.name
        (Naive.rows (Strategy.fragment_of_query ctx q))
        q.Query.output
  | Logical.Agg { name; group_by; aggs; input } ->
      Relop.aggregate ~name ~group_by ~aggs (eval ctx input)
  | Logical.Union_all { name; inputs } -> Relop.union_all ~name (List.map (eval ctx) inputs)
  | Logical.Semi { name; left; right; on } ->
      Relop.semi_join ~name ~anti:false ~left:(eval ctx left) ~right:(eval ctx right) ~on
  | Logical.Anti { name; left; right; on } ->
      Relop.semi_join ~name ~anti:true ~left:(eval ctx left) ~right:(eval ctx right) ~on
  | Logical.Let { bindings; body } ->
      List.iter
        (fun b ->
          let tbl = eval ctx b in
          Strategy.register_pseudo ctx
            (if Logical.is_spj b then Relop.flatten ~name:(Logical.name b) tbl else tbl))
        bindings;
      eval ctx body

(* a fresh pseudo-relation scope per tree, as [Driver.run] gives it *)
let run ctx tree =
  Hashtbl.reset ctx.Strategy.pseudo;
  eval ctx tree
