module Table = Qs_storage.Table
module Logical = Qs_plan.Logical
module Relop = Qs_exec.Relop
module Executor = Qs_exec.Executor
module Timer = Qs_util.Timer
module Query = Qs_query.Query
module Expr = Qs_query.Expr

(* --- column pruning through non-SPJ operators ----------------------------

   An aggregate reads only its group-by keys and the columns of its
   arguments; a semi/anti join reads its right input only through [on].
   An SPJ segment that feeds one of them as [SELECT *] therefore runs
   with exactly those columns as its output, so its temps, ANALYZE
   passes, spill frames and join rows carry no column nobody reads.
   Rows are neither added nor removed (bag semantics: no operator
   deduplicates), so every count, group and EXISTS test is unchanged.
   Everything whose output is visible by name or by position stays
   whole: the tree's own result, [Let] bindings (a later segment may
   scan any column), UNION ALL inputs and semi/anti left inputs. *)

let dedup cols =
  List.rev
    (List.fold_left (fun acc c -> if List.mem c acc then acc else c :: acc) [] cols)

(* [q] with [reads] (restricted to its aliases) as its output. A read
   of no column still needs the row count: it keeps the first column
   [q]'s own predicates read, joins first, or stays [SELECT *] when it
   has none. *)
let narrow (q : Query.t) reads =
  let aliases = Query.aliases q in
  let own = List.filter (fun (c : Expr.colref) -> List.mem c.Expr.rel aliases) in
  let output =
    match dedup (own reads) with
    | [] -> (
        let preds = Query.join_preds q @ q.Query.preds in
        match own (List.concat_map Expr.cols_of_pred preds) with
        | c :: _ -> [ c ]
        | [] -> [])
    | cols -> cols
  in
  Query.make ~name:q.Query.name ~output q.Query.rels q.Query.preds

let rec prune (node : Logical.t) =
  match node with
  | Logical.Spj _ -> node
  | Logical.Agg a ->
      let reads =
        a.group_by
        @ List.concat_map
            (fun (g : Logical.agg) ->
              Option.fold ~none:[] ~some:Expr.cols_of_scalar g.Logical.arg)
            a.aggs
      in
      Logical.Agg { a with input = prune_read reads a.input }
  | Logical.Union_all u -> Logical.Union_all { u with inputs = List.map prune u.inputs }
  | Logical.Semi s -> Logical.Semi (prune_semi s)
  | Logical.Anti s -> Logical.Anti (prune_semi s)
  | Logical.Let { bindings; body } ->
      Logical.Let { bindings = List.map prune_binding bindings; body = prune body }

(* an input its parent reads only through [reads] *)
and prune_read reads = function
  | Logical.Spj q when q.Query.output = [] -> Logical.Spj (narrow q reads)
  | input -> prune input

and prune_semi (s : Logical.semi) =
  {
    s with
    left = prune s.left;
    right = prune_read (List.concat_map Expr.cols_of_pred s.on) s.right;
  }

(* a binding is scanned by name: an SPJ one keeps its columns, but what
   runs under a non-SPJ one is pruned as anywhere else *)
and prune_binding b = if Logical.is_spj b then b else prune b

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
  let result, iterations = eval strategy ctx (prune tree) in
  Strategy.finished ~start ~result ~iterations
