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
module Value = Qs_storage.Value

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

(* The digest two evaluations of one tree must share. A float SUM or AVG
   depends on the order its rows arrive in (float addition is not
   associative), and every plan feeds them in its own order: without any
   pruning, the naive join and Default already disagree in the last bits
   on 10 of the 37 DSB trees at scale 0.1, and Default and QuerySplit on
   some of them. Floats are therefore rounded to 9 significant digits
   before digesting; every other value, the row count and the column ids
   must match exactly. *)
let digest (t : Table.t) =
  let round = function
    | Value.Float f when Float.is_finite f ->
        Value.Float (float_of_string (Printf.sprintf "%.9g" f))
    | v -> v
  in
  let rows = Table.fold (fun acc row -> Array.map round row :: acc) [] t in
  Table.digest (Table.of_rows ~name:t.Table.name ~schema:t.Table.schema (List.rev rows))
