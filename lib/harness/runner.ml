module Catalog = Qs_storage.Catalog
module Query = Qs_query.Query
module Logical = Qs_plan.Logical
module Estimator = Qs_stats.Estimator
module Stats_registry = Qs_stats.Stats_registry
module Strategy = Qs_core.Strategy
module Driver = Qs_core.Driver
module Naive = Qs_exec.Naive
module Timer = Qs_util.Timer
module Pool = Qs_util.Pool
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Value = Qs_storage.Value
module Metrics = Qs_obs.Metrics
module Qerror = Qs_obs.Qerror
module Span = Qs_util.Span

type env = {
  catalog : Catalog.t;
  registry : Stats_registry.t;
  oracle_exec : Estimator.exec_fn;
  seed : int;
}

let make_env ?(seed = 1234) catalog =
  (* one memo per environment: every oracle-backed estimator built from
     this env shares the true cardinalities already computed. The memo
     (and the weighted-table cache behind it) is also shared by parallel
     harness cells, so lookups and fills are serialized by a lock — the
     warm pass amortizes the counting, so contention on the timed pass is
     all hits *)
  let mutex = Mutex.create () in
  let memo : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  let wcache = Naive.make_cache () in
  let oracle_exec frag =
    let k = Qs_stats.Fragment.key frag in
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () ->
        match Hashtbl.find_opt memo k with
        | Some c -> c
        | None ->
            let c = Naive.count ~cache:wcache frag in
            Hashtbl.replace memo k c;
            c)
  in
  { catalog; registry = Stats_registry.create catalog; oracle_exec; seed }

type algo = {
  label : string;
  strategy : Strategy.t;
  estimator : env -> Estimator.t;
  warm : bool;
}

type qresult = {
  query : string;
  time : float;
  timed_out : bool;
  mats : int;
  mat_bytes : int;
  iterations : Strategy.iteration list;
  digest : string;
  dp_memo_hits : int;
  dp_memo_misses : int;
}

(* Canonical multiset digest of a result table; the implementation lives
   in [Table.digest] so the serving layer (which cannot depend on the
   harness) shares the exact same bytes. *)
let result_digest = Table.digest

(* Wrap an estimator so the time spent estimating is accounted separately
   from engine time; the deadline is pushed forward by the same amount so
   oracle-backed estimators cannot eat the query's execution budget. *)
let instrumented (est : Estimator.t) ~deadline =
  let spent = ref 0.0 in
  let wrapped =
    {
      Estimator.name = est.Estimator.name;
      card =
        (fun frag ->
          let t0 = Timer.now () in
          let r = est.Estimator.card frag in
          let dt = Timer.now () -. t0 in
          spent := !spent +. dt;
          (match !deadline with Some d -> deadline := Some (d +. dt) | None -> ());
          r);
    }
  in
  (wrapped, spent)

let run_one ~collect_stats ~timeout ?tracer env algo runner name =
  if algo.warm then begin
    (* populate the oracle memo so the timed pass measures engine work;
       the warm pass is untimed and deliberately untraced. Its DP memo is
       separate from the timed pass's so every timed optimize call does
       real work on its first step. *)
    let wctx =
      Strategy.make_ctx ~collect_stats
        ~deadline:(Some (Timer.now () +. (4.0 *. timeout)))
        ~seed:env.seed ~dp_memo:(Qs_plan.Dp_memo.create ()) env.registry
        (algo.estimator env)
    in
    (try ignore (runner wctx) with _ -> ());
    Gc.major ()
  end;
  let deadline = Some (Timer.now () +. timeout) in
  (* one cross-step DP memo per query: re-optimization steps inside the
     query share it, distinct queries never do *)
  let dp_memo = Qs_plan.Dp_memo.create () in
  let ctx0 =
    Strategy.make_ctx ~collect_stats ~deadline ~seed:env.seed ?spans:tracer ~dp_memo
      env.registry Estimator.default
  in
  let est, est_time = instrumented (algo.estimator env) ~deadline:ctx0.Strategy.deadline in
  let ctx = { ctx0 with Strategy.estimator = est } in
  let qstart = match tracer with Some _ -> Timer.now () | None -> 0.0 in
  let outcome =
    Span.span tracer Span.Execute
      ~args:[ ("algo", algo.label) ]
      ("query:" ^ name)
      (fun () -> runner ctx)
  in
  (* estimation time accrues call-by-call inside the optimizer; one
     aggregate span per query keeps the trace readable *)
  if tracer <> None && !est_time > 0.0 then
    Span.add tracer Span.Estimate ("estimate:" ^ name) ~start:qstart
      ~dur:!est_time;
  let mats =
    List.length (List.filter (fun i -> i.Strategy.materialized) outcome.Strategy.iterations)
  in
  let mat_bytes =
    List.fold_left (fun a i -> a + i.Strategy.mat_bytes) 0 outcome.Strategy.iterations
  in
  let time =
    if outcome.Strategy.timed_out then timeout
    else Float.max 0.0 (outcome.Strategy.elapsed -. !est_time)
  in
  {
    query = name;
    time;
    timed_out = outcome.Strategy.timed_out;
    mats;
    mat_bytes;
    iterations = outcome.Strategy.iterations;
    digest = result_digest outcome.Strategy.result;
    dp_memo_hits = Qs_plan.Dp_memo.hits dp_memo;
    dp_memo_misses = Qs_plan.Dp_memo.misses dp_memo;
  }

(* Fan the per-query cells across a fresh pool. Each cell builds its own
   ctx (and thus its own fragments, scratch caches and temp-table
   namespace) exactly as in the sequential path and runs on the domain
   that picked it up; the only state shared across domains is the
   registry and the oracle memo, both lock-guarded. Pool.map keeps
   results in query order, so the output is indistinguishable from the
   sequential List.map. *)
let run_cells ?tracer ~domains cells =
  if domains <= 1 then List.map (fun cell -> cell ()) cells
  else
    Pool.with_pool ?tracer ~domains (fun pool ->
        Pool.map pool (fun cell -> cell ()) cells)

let run_spj ?(collect_stats = true) ?(timeout = 30.0) ?(domains = 1) ?tracer env algo
    queries =
  run_cells ?tracer ~domains
    (List.map
       (fun (q : Query.t) () ->
         run_one ~collect_stats ~timeout ?tracer env algo
           (fun ctx -> algo.strategy.Strategy.run ctx q)
           q.Query.name)
       queries)

let run_logical ?(collect_stats = true) ?(timeout = 30.0) ?(domains = 1) ?tracer env
    algo trees =
  run_cells ?tracer ~domains
    (List.map
       (fun tree () ->
         run_one ~collect_stats ~timeout ?tracer env algo
           (fun ctx -> Driver.run algo.strategy ctx tree)
           (Logical.name tree))
       trees)

let total_time results = List.fold_left (fun a r -> a +. r.time) 0.0 results

let metrics_of_results results =
  let m = Metrics.create () in
  List.iter
    (fun r ->
      Metrics.incr m "queries";
      Metrics.incr m ~by:(if r.timed_out then 1 else 0) "timeouts";
      Metrics.incr m ~by:r.mats "materializations";
      Metrics.incr m ~by:(List.length r.iterations) "iterations";
      Metrics.incr m
        ~by:(List.length (List.filter (fun i -> i.Strategy.replanned) r.iterations))
        "replans";
      Metrics.incr m ~by:r.dp_memo_hits "dp_memo_hits";
      Metrics.incr m ~by:r.dp_memo_misses "dp_memo_misses";
      Metrics.observe m "query_time_s" r.time;
      if r.mat_bytes > 0 then
        Metrics.observe m "mat_bytes" (float_of_int r.mat_bytes);
      List.iter
        (fun (i : Strategy.iteration) ->
          Metrics.observe m "qerror"
            (Qerror.value ~est:i.Strategy.est_rows ~actual:i.Strategy.actual_rows))
        r.iterations)
    results;
  m

let metrics_report labelled =
  Metrics.json_of_many
    (List.map (fun (label, rs) -> (label, metrics_of_results rs)) labelled)

let qresult_row r =
  [
    r.query;
    Report.seconds r.time;
    (if r.timed_out then "TO" else "");
    string_of_int r.mats;
    Report.bytes_mb r.mat_bytes;
  ]
