module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Fragment = Qs_stats.Fragment
module Estimator = Qs_stats.Estimator
module Stats_registry = Qs_stats.Stats_registry
module Analyze = Qs_stats.Analyze
module Table_stats = Qs_stats.Table_stats
module Executor = Qs_exec.Executor
module Timer = Qs_util.Timer

type iteration = {
  index : int;
  description : string;
  est_rows : float;
  actual_rows : int;
  elapsed : float;
  mat_bytes : int;
  materialized : bool;
  replanned : bool;
}

type outcome = {
  result : Table.t;
  elapsed : float;
  iterations : iteration list;
  timed_out : bool;
}

type ctx = {
  registry : Stats_registry.t;
  estimator : Estimator.t;
  collect_stats : bool;
  deadline : float option ref;
  seed : int;
  pseudo : (string, Table.t * Table_stats.t) Hashtbl.t;
  spans : Qs_util.Span.t option;
  dp_memo : Qs_plan.Dp_memo.t option;
  cancel : Qs_util.Cancel.t option;
  flight : Qs_obs.Flight.t option;
}

type t = {
  name : string;
  run : ctx -> Query.t -> outcome;
}

let make_ctx ?(collect_stats = true) ?(deadline = None) ?(seed = 42) ?spans
    ?dp_memo ?cancel ?flight registry estimator =
  {
    registry; estimator; collect_stats; deadline = ref deadline; seed;
    pseudo = Hashtbl.create 8; spans; dp_memo; cancel; flight;
  }

(* One re-optimization journal entry, fanned out to both sinks: the
   always-on flight record (telemetry) and, when a tracer is attached,
   a [reopt-step] span whose args render in profiles. Strategies call
   this instead of hand-rolling the span. *)
let journal ctx ?score ~subquery ~est_rows ~actual_rows ~replanned ~remaining
    ~name ~start () =
  Qs_obs.Flight.step ctx.flight ?score ~subquery ~est_rows ~actual_rows
    ~replanned ~remaining ();
  let args =
    ("subquery", subquery)
    :: (match score with
       | Some s -> [ ("score", Printf.sprintf "%.6g" s) ]
       | None -> [])
    @ [
        ("est_rows", Printf.sprintf "%.0f" est_rows);
        ("actual_rows", string_of_int actual_rows);
        ("replanned", (if replanned then "yes" else "no"));
        ("remaining", string_of_int remaining);
      ]
  in
  Qs_util.Span.add ctx.spans Qs_util.Span.Reopt_step ~args name ~start
    ~dur:(Timer.elapsed ~since:start)

let catalog ctx = Stats_registry.catalog ctx.registry

let register_pseudo ctx (tbl : Table.t) =
  Hashtbl.replace ctx.pseudo tbl.Table.name (tbl, Analyze.of_table tbl)

let pseudo_input ctx ~alias ~table filters =
  let tbl, stats = Hashtbl.find ctx.pseudo table in
  {
    Fragment.id = alias;
    table = Table.rename tbl alias;
    provides = [ alias ];
    filters;
    stats = Fragment.requalify_stats alias stats;
    is_temp = true;
    base_table = None;
    provenance =
      Printf.sprintf "pseudo:%s=%s[%s]" alias table
        (String.concat " & " (List.sort compare (List.map Expr.to_string filters)));
    stats_epoch = 0;
    memo = Hashtbl.create 4;
    scratch = Qs_util.Scratch.create ();
  }

let fragment_of_query ctx (q : Query.t) =
  let cat = catalog ctx in
  let inputs =
    List.map
      (fun (r : Query.rel) ->
        let filters = Query.filters q r.Query.alias in
        if Catalog.mem_table cat r.Query.table then
          Fragment.base_input ctx.registry ~alias:r.Query.alias ~table:r.Query.table
            filters
        else if Hashtbl.mem ctx.pseudo r.Query.table then
          pseudo_input ctx ~alias:r.Query.alias ~table:r.Query.table filters
        else invalid_arg ("Strategy.fragment_of_query: unknown relation " ^ r.Query.table))
      q.Query.rels
  in
  let preds =
    List.filter (fun p -> List.length (Expr.rels_of_pred p) >= 2) q.Query.preds
  in
  { Fragment.inputs; preds; output = q.Query.output }

let empty_result (q : Query.t) =
  let schema =
    Array.of_list
      (List.map
         (fun (c : Expr.colref) ->
           { Schema.rel = c.Expr.rel; name = c.Expr.name; ty = Qs_storage.Value.TInt })
         q.Query.output)
  in
  Table.create ~inputs:[] ~name:(q.Query.name ^ "_timeout") ~schema [||]

let guard _ctx thunk =
  let start = Timer.now () in
  try thunk ()
  with Executor.Timeout ->
    {
      result = Table.create ~inputs:[] ~name:"timeout" ~schema:[||] [||];
      elapsed = Timer.now () -. start;
      iterations = [];
      timed_out = true;
    }

let finished ~start ~result ~iterations =
  { result; elapsed = Timer.now () -. start; iterations; timed_out = false }
