module Catalog = Qs_storage.Catalog
module Query = Qs_query.Query
module Estimator = Qs_stats.Estimator
module Optimizer = Qs_plan.Optimizer
module Similarity = Qs_plan.Similarity
module Strategy = Qs_core.Strategy
module Querysplit = Qs_core.Querysplit
module Qsa = Qs_core.Qsa
module Ssa = Qs_core.Ssa
module Plan_driven = Qs_core.Plan_driven
module Cinema = Qs_workload.Cinema
module Starbench = Qs_workload.Starbench
module Dsb = Qs_workload.Dsb

type setup = {
  scale : float;
  seed : int;
  n_queries : int;
  timeout : float;
  tracer : Qs_util.Span.t option;
}

let default_setup =
  {
    scale = 0.5;
    seed = 2023;
    n_queries = 91;
    timeout = 5.0;
    tracer = None;
  }

(* --- workload environments -------------------------------------------- *)

(* Environments are expensive (data generation, query curation, and the
   oracle's true-cardinality memo); share them across experiments. *)
let env_cache : (float * int * int, Runner.env * Query.t list) Hashtbl.t =
  Hashtbl.create 4

let cinema_env ?(index = Catalog.Pk_fk) s =
  let key = (s.scale, s.seed, s.n_queries) in
  let env, queries =
    match Hashtbl.find_opt env_cache key with
    | Some v -> v
    | None ->
        let cat = Cinema.build ~scale:s.scale ~seed:s.seed () in
        let env = Runner.make_env ~seed:s.seed cat in
        let queries = Cinema.queries cat ~seed:(s.seed + 1) ~n:s.n_queries in
        Hashtbl.replace env_cache key (env, queries);
        (env, queries)
  in
  (* the index configuration is the only per-experiment difference; data,
     statistics and the oracle memo are index-independent *)
  Catalog.build_indexes env.Runner.catalog index;
  (env, queries)

let pct n d = Printf.sprintf "%.0f%%" (100.0 *. float_of_int n /. float_of_int d)

(* ---------------------------------------------------------------------- *)
(* Table 1: initial-vs-optimal plan similarity                             *)
(* ---------------------------------------------------------------------- *)

let table1 s =
  Report.section "Table 1: plan divergence of the default optimizer";
  let env, queries = cinema_env s in
  let oracle = Estimator.oracle ~exec:env.Runner.oracle_exec in
  let ctx = Strategy.make_ctx env.Runner.registry Estimator.default in
  let buckets = Hashtbl.create 4 in
  List.iter
    (fun q ->
      let frag = Strategy.fragment_of_query ctx q in
      let p_def = (Optimizer.optimize env.Runner.catalog Estimator.default frag).Optimizer.plan in
      let p_opt = (Optimizer.optimize env.Runner.catalog oracle frag).Optimizer.plan in
      let b = Similarity.bucket (Similarity.score p_def p_opt) in
      Hashtbl.replace buckets b (1 + Option.value (Hashtbl.find_opt buckets b) ~default:0))
    queries;
  let n = List.length queries in
  let get b = Option.value (Hashtbl.find_opt buckets b) ~default:0 in
  Report.table ~title:"similarity of initial vs. optimal plan"
    ~headers:[ "Similarity"; "0"; "1"; "2"; ">2" ]
    [ [ "Ratio"; pct (get "0") n; pct (get "1") n; pct (get "2") n; pct (get ">2") n ] ]

(* ---------------------------------------------------------------------- *)
(* Table 3: QSA x SSA policy grid                                          *)
(* ---------------------------------------------------------------------- *)

let ssa_grid = Ssa.all_phi @ [ Ssa.Global_deep ]

let table3 s =
  Report.section "Table 3: JOB-like total time per QSA x SSA policy";
  let env, queries = cinema_env s in
  let rows =
    List.map
      (fun ssa ->
        Ssa.policy_name ssa
        :: List.map
             (fun qsa ->
               let algo = Algos.querysplit_with { Querysplit.qsa; ssa } in
               let rs = Runner.run_spj ?tracer:s.tracer ~timeout:s.timeout env algo queries in
               Report.seconds (Runner.total_time rs))
             Qsa.all_policies)
      ssa_grid
  in
  Report.table ~title:"total execution time"
    ~headers:("SSA \\ QSA" :: List.map Qsa.policy_name Qsa.all_policies)
    rows

(* ---------------------------------------------------------------------- *)
(* Figure 10: robustness to injected CE noise                              *)
(* ---------------------------------------------------------------------- *)

let noisy_algo s config ~mu ~sigma =
  let base = Algos.querysplit_with config in
  {
    base with
    Runner.label = Printf.sprintf "%s sigma=%g" base.Runner.label sigma;
    warm = (sigma <> 0.0 || mu <> 0.0);
    estimator =
      (fun env ->
        if sigma = 0.0 && mu = 0.0 then Estimator.default
        else Estimator.noisy ~seed:s.seed ~mu ~sigma ~exec:env.Runner.oracle_exec);
  }

let fig10 s =
  Report.section "Figure 10: QuerySplit under erroneous cardinality estimation";
  let env, queries = cinema_env s in
  (* the noise sweep runs 40+ configurations; every second query keeps the
     grid affordable without changing the curves' shape *)
  let queries = List.filteri (fun i _ -> i mod 2 = 0) queries in
  Printf.printf "(noise sweep over %d of the queries)\n" (List.length queries);
  let run config ~mu ~sigma =
    Runner.total_time
      (Runner.run_spj ?tracer:s.tracer ~timeout:s.timeout env (noisy_algo s config ~mu ~sigma) queries)
  in
  let sigmas = [ 0.0; 0.5; 1.0; 2.0; 4.0 ] in
  let qsa_series =
    List.map
      (fun qsa ->
        ( Qsa.policy_name qsa ^ " + phi4",
          List.map
            (fun sigma ->
              (Printf.sprintf "%g" sigma, run { Querysplit.qsa; ssa = Ssa.Phi4 } ~mu:0.0 ~sigma))
            sigmas ))
      Qsa.all_policies
  in
  Report.series ~title:"total time vs sigma (mu = 0)" ~x_label:"sigma" qsa_series;
  let phi_series =
    List.map
      (fun ssa ->
        ( "RCenter + " ^ Ssa.policy_name ssa,
          List.map
            (fun sigma ->
              ( Printf.sprintf "%g" sigma,
                run { Querysplit.qsa = Qsa.RCenter; ssa } ~mu:0.0 ~sigma ))
            sigmas ))
      Ssa.all_phi
  in
  Report.series ~title:"total time vs sigma per cost function (mu = 0)" ~x_label:"sigma"
    phi_series;
  let mus = [ -1.0; 0.0; 1.0 ] in
  let mu_series =
    [
      ( "RCenter + phi4 (sigma = 1)",
        List.map
          (fun mu ->
            ( Printf.sprintf "%g" mu,
              run Querysplit.default_config ~mu ~sigma:1.0 ))
          mus );
    ]
  in
  Report.series ~title:"total time vs mu (sigma = 1)" ~x_label:"mu" mu_series

(* ---------------------------------------------------------------------- *)
(* Figure 11 + Table 4                                                     *)
(* ---------------------------------------------------------------------- *)

let fig11 s =
  Report.section "Figure 11: JOB-like end-to-end comparison";
  List.iter
    (fun (cfg, cfg_name) ->
      let env, queries = cinema_env ~index:cfg s in
      let rows =
        List.map
          (fun algo ->
            let rs = Runner.run_spj ?tracer:s.tracer ~timeout:s.timeout env algo queries in
            let tos = List.length (List.filter (fun r -> r.Runner.timed_out) rs) in
            [
              algo.Runner.label;
              Report.seconds (Runner.total_time rs);
              (if tos > 0 then Printf.sprintf "%d TO" tos else "");
            ])
          Algos.fig11_roster
      in
      Report.table
        ~title:(Printf.sprintf "total time, %s indexes" cfg_name)
        ~headers:[ "algorithm"; "total time"; "timeouts" ]
        rows)
    [ (Catalog.Pk_only, "Pk-only"); (Catalog.Pk_fk, "Pk+Fk") ]

let table4 s =
  Report.section "Table 4: materialization frequency and memory";
  let env, queries = cinema_env s in
  let rows =
    List.map
      (fun algo ->
        let rs = Runner.run_spj ?tracer:s.tracer ~timeout:s.timeout env algo queries in
        let n_q = List.length rs in
        let total_mats = List.fold_left (fun a r -> a + r.Runner.mats) 0 rs in
        let total_bytes = List.fold_left (fun a r -> a + r.Runner.mat_bytes) 0 rs in
        let per_sub =
          if total_mats = 0 then 0.0
          else float_of_int total_bytes /. float_of_int total_mats /. 1048576.0
        in
        [
          algo.Runner.label;
          Printf.sprintf "%.2f" per_sub;
          Printf.sprintf "%.2f" (float_of_int total_mats /. float_of_int n_q);
          Printf.sprintf "%.2f" (float_of_int total_bytes /. float_of_int n_q /. 1048576.0);
        ])
      (Algos.reopt_roster @ [ Algos.optimal ])
  in
  Report.table ~title:"per-query materialization"
    ~headers:
      [ "algorithm"; "avg MB per subquery"; "avg mat. freq per query"; "total MB per query" ]
    rows

(* ---------------------------------------------------------------------- *)
(* Figures 12-14: Starbench (TPC-H-like) and DSB                           *)
(* ---------------------------------------------------------------------- *)

let logical_comparison ?tracer ~title ~timeout env trees roster =
  let rows =
    List.map
      (fun algo ->
        let rs = Runner.run_logical ?tracer ~timeout env algo trees in
        let tos = List.length (List.filter (fun r -> r.Runner.timed_out) rs) in
        [
          algo.Runner.label;
          Report.seconds (Runner.total_time rs);
          (if tos > 0 then Printf.sprintf "%d TO" tos else "");
        ])
      roster
  in
  Report.table ~title ~headers:[ "algorithm"; "total time"; "timeouts" ] rows

let fig12 s =
  Report.section "Figure 12: TPC-H-like (Starbench) execution time";
  let cat = Starbench.build ~scale:s.scale ~seed:s.seed () in
  List.iter
    (fun (cfg, cfg_name) ->
      Catalog.build_indexes cat cfg;
      let env = Runner.make_env ~seed:s.seed cat in
      let trees = Starbench.queries cat ~seed:(s.seed + 1) in
      logical_comparison ?tracer:s.tracer
        ~title:(Printf.sprintf "Starbench, %s indexes" cfg_name)
        ~timeout:s.timeout env trees Algos.nonspj_roster)
    [ (Catalog.Pk_only, "Pk-only"); (Catalog.Pk_fk, "Pk+Fk") ]

let fig13 s =
  Report.section "Figure 13: DSB SPJ queries";
  let cat = Dsb.build ~scale:s.scale ~seed:s.seed () in
  List.iter
    (fun (cfg, cfg_name) ->
      Catalog.build_indexes cat cfg;
      let env = Runner.make_env ~seed:s.seed cat in
      let queries = Dsb.spj_queries cat ~seed:(s.seed + 1) in
      let rows =
        List.map
          (fun algo ->
            let rs = Runner.run_spj ?tracer:s.tracer ~timeout:s.timeout env algo queries in
            [ algo.Runner.label; Report.seconds (Runner.total_time rs) ])
          Algos.fig11_roster
      in
      Report.table
        ~title:(Printf.sprintf "DSB SPJ, %s indexes" cfg_name)
        ~headers:[ "algorithm"; "total time" ] rows)
    [ (Catalog.Pk_only, "Pk-only"); (Catalog.Pk_fk, "Pk+Fk") ]

let fig14 s =
  Report.section "Figure 14: DSB non-SPJ queries";
  let cat = Dsb.build ~scale:s.scale ~seed:s.seed () in
  Catalog.build_indexes cat Catalog.Pk_fk;
  let env = Runner.make_env ~seed:s.seed cat in
  let trees = Dsb.nonspj_queries cat ~seed:(s.seed + 1) in
  logical_comparison ?tracer:s.tracer ~title:"DSB non-SPJ, Pk+Fk indexes"
    ~timeout:s.timeout env trees Algos.nonspj_roster

(* ---------------------------------------------------------------------- *)
(* Figure 15: statistics collection on/off                                 *)
(* ---------------------------------------------------------------------- *)

let fig15 s =
  Report.section "Figure 15: runtime statistics collection on temps";
  let env, queries = cinema_env s in
  let rows =
    List.map
      (fun algo ->
        let on =
          Runner.total_time
            (Runner.run_spj ?tracer:s.tracer ~collect_stats:true ~timeout:s.timeout env algo queries)
        in
        let off =
          Runner.total_time
            (Runner.run_spj ?tracer:s.tracer ~collect_stats:false ~timeout:s.timeout env algo queries)
        in
        [ algo.Runner.label; Report.seconds on; Report.seconds off ])
      Algos.reopt_roster
  in
  Report.table ~title:"total time with and without ANALYZE on temps"
    ~headers:[ "algorithm"; "stats on"; "stats off (row count only)" ]
    rows

(* ---------------------------------------------------------------------- *)
(* Table 5: existing re-optimizers with the phi cost functions             *)
(* ---------------------------------------------------------------------- *)

let table5 s =
  Report.section "Table 5: plan-driven re-optimizers driven by phi rankings";
  let env, queries = cinema_env s in
  let base_policies =
    [
      ("Reopt", Plan_driven.reopt);
      ("Pop", Plan_driven.pop);
      ("IEF", Plan_driven.ief);
      ("Perron19", Plan_driven.perron);
    ]
  in
  let run_with label policy selector =
    let strategy =
      match selector with
      | None -> Plan_driven.strategy policy
      | Some sel -> Plan_driven.strategy ~selector:sel policy
    in
    let algo =
      { Runner.label; strategy; estimator = (fun _ -> Estimator.default); warm = false }
    in
    Runner.total_time (Runner.run_spj ?tracer:s.tracer ~timeout:s.timeout env algo queries)
  in
  let rows =
    List.map
      (fun ssa ->
        Ssa.policy_name ssa
        :: List.map
             (fun (label, policy) ->
               Report.seconds (run_with label policy (Some (Plan_driven.Phi ssa))))
             base_policies)
      Ssa.all_phi
    @ [
        "original"
        :: List.map
             (fun (label, policy) -> Report.seconds (run_with label policy None))
             base_policies;
      ]
  in
  Report.table ~title:"total JOB-like time"
    ~headers:("selector \\ algo" :: List.map fst base_policies)
    rows

(* ---------------------------------------------------------------------- *)
(* Table 6 + Figures 16-19: categorisation and timelines                   *)
(* ---------------------------------------------------------------------- *)

type categorized = {
  cat_name : string;
  query : string;
  qs_time : float;
  best_other : float;
  effect : float;
}

let max_intermediate (r : Runner.qresult) =
  List.fold_left (fun a i -> max a i.Strategy.actual_rows) 0 r.Runner.iterations

let categorize s =
  let env, queries = cinema_env s in
  let others = [ Algos.pop; Algos.ief; Algos.perron ] in
  let qs_rs = Runner.run_spj ?tracer:s.tracer ~timeout:s.timeout env Algos.querysplit queries in
  let other_rs =
    List.map (fun a -> Runner.run_spj ?tracer:s.tracer ~timeout:s.timeout env a queries) others
  in
  let results =
    List.mapi
      (fun i (qs : Runner.qresult) ->
        let alt = List.map (fun rs -> List.nth rs i) other_rs in
        let best_other =
          List.fold_left (fun a (r : Runner.qresult) -> Float.min a r.Runner.time)
            Float.infinity alt
        in
        let min_other_peak =
          List.fold_left (fun a r -> min a (max_intermediate r)) max_int alt
        in
        let qs_peak = max_intermediate qs in
        let effect = (best_other -. qs.Runner.time) /. Float.max 1e-9 best_other in
        let cat_name =
          if Float.abs effect < 0.15 then "No difference"
          else if effect < 0.0 then "Worse"
          else if float_of_int qs_peak < 0.3 *. float_of_int min_other_peak then
            "Avoided Large Join"
          else "Delayed Large Join"
        in
        { cat_name; query = qs.Runner.query; qs_time = qs.Runner.time; best_other; effect })
      qs_rs
  in
  (env, queries, results, qs_rs, other_rs, others)

let table6 s =
  Report.section "Table 6: query categories vs the best alternative re-optimizer";
  let _, queries, results, _, _, _ = categorize s in
  let n = List.length queries in
  let rows =
    List.map
      (fun cat ->
        let in_cat = List.filter (fun r -> r.cat_name = cat) results in
        let freq = List.length in_cat in
        let avg_effect =
          if freq = 0 then 0.0
          else
            List.fold_left (fun a r -> a +. r.effect) 0.0 in_cat /. float_of_int freq
        in
        [ cat; Printf.sprintf "%d / %d" freq n; Printf.sprintf "%.1f%%" (100.0 *. avg_effect) ])
      [ "Avoided Large Join"; "Delayed Large Join"; "No difference"; "Worse" ]
  in
  Report.table ~title:"category frequency and average performance effect"
    ~headers:[ "Category"; "Frequency"; "Average Perf. Effect" ]
    rows

let fig16_19 s =
  Report.section "Figures 16-19: re-optimization timelines per category";
  let _, queries, results, qs_rs, other_rs, others = categorize s in
  ignore queries;
  List.iter
    (fun cat ->
      match List.find_opt (fun r -> r.cat_name = cat) results with
      | None -> Printf.printf "\n[%s] no query in this category\n" cat
      | Some rep ->
          Printf.printf "\n[%s] representative query: %s\n" cat rep.query;
          let idx =
            let rec find i = function
              | [] -> 0
              | r :: _ when r.query = rep.query -> i
              | _ :: rest -> find (i + 1) rest
            in
            find 0 results
          in
          let print_timeline label (r : Runner.qresult) =
            Printf.printf "  %-12s sizes:" label;
            List.iter (fun it -> Printf.printf " %d" it.Strategy.actual_rows) r.Runner.iterations;
            Printf.printf "\n  %-12s times:" label;
            List.iter
              (fun (it : Strategy.iteration) -> Printf.printf " %.4f" it.Strategy.elapsed)
              r.Runner.iterations;
            print_newline ()
          in
          print_timeline "QuerySplit" (List.nth qs_rs idx);
          List.iteri
            (fun ai rs -> print_timeline (List.nth others ai).Runner.label (List.nth rs idx))
            other_rs)
    [ "Avoided Large Join"; "Delayed Large Join"; "No difference"; "Worse" ]

(* ---------------------------------------------------------------------- *)
(* The metrics golden: deterministic counters of every strategy and entry  *)
(* ---------------------------------------------------------------------- *)

(* One registry per fig11-roster strategy over the JOB-like workload —
   the strategy half of the [--metrics-out] dump. *)
let metrics_results s =
  let env, queries = cinema_env s in
  List.map
    (fun algo ->
      ( algo.Runner.label,
        Runner.run_spj ?tracer:s.tracer ~timeout:s.timeout env algo queries ))
    Algos.fig11_roster

(* ---------------------------------------------------------------------- *)
(* Out-of-core: buffer-pool execution under memory pressure                *)
(* ---------------------------------------------------------------------- *)

module Buffer_pool = Qs_storage.Buffer_pool

(* The deterministic out-of-core entry of the metrics dump: a fixed
   synthetic table is scanned twice and randomly probed, sequentially,
   through a 4-frame pool — the fault sequence, and with it every
   counter and the hit rate, is exact for a fixed corpus. *)
let io_metrics_entry _s =
  let module Table = Qs_storage.Table in
  let module Schema = Qs_storage.Schema in
  let module Value = Qs_storage.Value in
  Table.with_scratch_home ~capacity:4 (fun ~dir ~pool:bp ->
      let schema = Schema.make "io" [ ("id", Value.TInt); ("pay", Value.TStr) ] in
      let tbl =
        Table.spill ~dir ~pool:bp
          (Table.create ~chunk_rows:1024 ~inputs:[] ~name:"io" ~schema
             (Array.init 16_384 (fun i ->
                  [| Value.Int i; Value.Str (string_of_int (i * 31)) |])))
      in
      let sink = ref 0 in
      for _ = 1 to 2 do
        Table.iter (fun r -> sink := !sink + Array.length r) tbl
      done;
      for i = 0 to 255 do
        sink := !sink + Array.length (Table.row tbl (i * 64))
      done;
      ignore !sink;
      let st = Buffer_pool.stats bp in
      let m = Qs_obs.Metrics.create () in
      let c name v = Qs_obs.Metrics.incr ~by:v m name in
      c "buffer_hits" st.Buffer_pool.hits;
      c "buffer_misses" st.Buffer_pool.misses;
      c "buffer_coalesced" st.Buffer_pool.coalesced;
      c "buffer_bypasses" st.Buffer_pool.bypasses;
      c "buffer_evictions" st.Buffer_pool.evictions;
      c "spilled_chunks" (Table.n_chunks tbl);
      Qs_obs.Metrics.observe m "hit_rate"
        (float_of_int st.Buffer_pool.hits
        /. float_of_int (max 1 (st.Buffer_pool.hits + st.Buffer_pool.misses)));
      m)

(* ---------------------------------------------------------------------- *)
(* Pipelined execution: counters of the morsel-driven executor            *)
(* ---------------------------------------------------------------------- *)

(* A PK-FK chain of [n_rels] relations: r0 <- r1 <- ... — the worst case
   for the DP (one connected component, every level populated) with a
   data size small enough that optimize time dominates. *)
let chain_catalog s n_rels =
  let module Value = Qs_storage.Value in
  let module Schema = Qs_storage.Schema in
  let module Table = Qs_storage.Table in
  let cat = Catalog.create () in
  let rows = max 100 (int_of_float (400.0 *. s.scale)) in
  for i = 0 to n_rels - 1 do
    let name = Printf.sprintf "r%d" i in
    let tbl =
      Table.create ~inputs:[] ~name
        ~schema:(Schema.make name [ ("id", Value.TInt); ("fk", Value.TInt) ])
        (Array.init rows (fun j ->
             [| Value.Int (j + 1); Value.Int (1 + (j * 7 mod rows)) |]))
    in
    Catalog.add_table cat ~pk:"id" tbl;
    if i > 0 then
      Catalog.add_fk cat ~from_table:name ~from_column:"fk"
        ~to_table:(Printf.sprintf "r%d" (i - 1))
        ~to_column:"id"
  done;
  Catalog.build_indexes cat Catalog.Pk_fk;
  cat

let chain_query n_rels =
  let module Expr = Qs_query.Expr in
  let alias i = Printf.sprintf "r%d" i in
  Query.make
    ~name:(Printf.sprintf "chain%d" n_rels)
    (List.init n_rels (fun i -> { Query.alias = alias i; table = alias i }))
    (List.init (n_rels - 1) (fun i ->
         Expr.Cmp
           (Expr.Eq, Expr.col (alias (i + 1)) "fk", Expr.col (alias i) "id")))

(* A hub join: every relation joins the same hub key (r0.id), so every
   step of a multi-step run re-joins on one column. *)
let hub_catalog s n_rels =
  let module Value = Qs_storage.Value in
  let module Schema = Qs_storage.Schema in
  let module Table = Qs_storage.Table in
  let cat = Catalog.create () in
  let rows = max 100 (int_of_float (400.0 *. s.scale)) in
  for i = 0 to n_rels - 1 do
    let name = Printf.sprintf "r%d" i in
    let tbl =
      Table.create ~inputs:[] ~name
        ~schema:(Schema.make name [ ("id", Value.TInt); ("fk", Value.TInt) ])
        (Array.init rows (fun j ->
             [| Value.Int (j + 1); Value.Int (1 + (j * 7 mod rows)) |]))
    in
    Catalog.add_table cat ~pk:"id" tbl;
    if i > 0 then
      Catalog.add_fk cat ~from_table:name ~from_column:"fk" ~to_table:"r0"
        ~to_column:"id"
  done;
  Catalog.build_indexes cat Catalog.Pk_fk;
  cat

let hub_query n_rels =
  let module Expr = Qs_query.Expr in
  let alias i = Printf.sprintf "r%d" i in
  Query.make
    ~name:(Printf.sprintf "hub%d" n_rels)
    (List.init n_rels (fun i -> { Query.alias = alias i; table = alias i }))
    (List.init (n_rels - 1) (fun i ->
         Expr.Cmp (Expr.Eq, Expr.col (alias (i + 1)) "fk", Expr.col "r0" "id")))

(* One strategy run of [q]. Returns the result digest and the executor's
   intermediate-table counter delta for exactly this run. *)
let strategy_run ?strat registry q =
  let module Executor = Qs_exec.Executor in
  let strat =
    match strat with
    | Some st -> st
    | None -> Querysplit.strategy Querysplit.default_config
  in
  Executor.reset_counters ();
  let ctx = Strategy.make_ctx registry Estimator.default in
  let o = strat.Strategy.run ctx q in
  (Qs_storage.Table.digest o.Strategy.result, Executor.intermediate_tables ())

(* The reference digest of [q]: naive execution, independent of plans,
   engine and strategy. *)
let naive_digest registry (q : Query.t) =
  let frag = Qs_stats.Fragment.of_query registry q in
  Qs_storage.Table.digest
    (Qs_exec.Executor.project (Qs_exec.Naive.rows frag) q.Query.output)

(* The deterministic pipelined-execution entry of the metrics dump:
   one-shot and QuerySplit runs of fixed PK-FK shapes. Counters only —
   plans, operator shapes and therefore every intermediate-table count
   are exact for a fixed corpus; no wall-clock leaks into the entry. *)
let pipeline_metrics_entry s =
  let module Metrics = Qs_obs.Metrics in
  let n_rels = 8 in
  let cat = chain_catalog s n_rels in
  let registry = Qs_stats.Stats_registry.create cat in
  let q = chain_query n_rels in
  let frag = Qs_stats.Fragment.of_query registry q in
  let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
  (* full-plan execution: one sink instead of one table per join *)
  let d_pipe, i_pipe = strategy_run ~strat:Qs_core.Static.default registry q in
  (* multi-step QuerySplit over a hub: every step re-joins the hub key *)
  let hub = hub_catalog s n_rels in
  let hub_registry = Qs_stats.Stats_registry.create hub in
  let d_qs, i_qs = strategy_run hub_registry (hub_query n_rels) in
  let m = Metrics.create () in
  Metrics.incr ~by:i_pipe m "intermediates_pipelined";
  Metrics.incr ~by:i_qs m "querysplit_intermediates_pipelined";
  Metrics.incr ~by:(Qs_plan.Physical.n_pipelines plan) m "plan_pipelines";
  Metrics.incr
    ~by:
      (if
         d_pipe = naive_digest registry q
         && d_qs = naive_digest hub_registry (hub_query n_rels)
       then 1
       else 0)
    m "digests_identical";
  m

(* ---------------------------------------------------------------------- *)
(* Serving front end: plan cache, scheduler and flight recorder counters   *)
(* ---------------------------------------------------------------------- *)

module Server = Qs_serve.Server
module Scheduler = Qs_serve.Scheduler

(* Cost-ranked JOB-like corpus (cheapest first): the serving entries'
   submission order. *)
let costed_corpus env queries =
  let ctx = Strategy.make_ctx env.Runner.registry Estimator.default in
  List.map
    (fun q ->
      let frag = Strategy.fragment_of_query ctx q in
      let r = Optimizer.optimize env.Runner.catalog Estimator.default frag in
      (q, r.Optimizer.est_cost))
    queries
  |> List.sort (fun (_, a) (_, b) -> Float.compare a b)

(* The deterministic serving entry of the metrics dump: every statement
   of the corpus twice across two sessions on a width-2 pool, so the
   second round is all plan-cache hits. Counters (submitted, completed,
   cache hits/misses, per-session query counts) are exact for a fixed
   corpus; only the [*_s] histograms carry wall-clock. *)
let serve_metrics_entry s =
  let env, queries = cinema_env s in
  let costed = costed_corpus env queries in
  Qs_util.Pool.with_pool ~domains:2 (fun pool ->
      let config =
        {
          Server.default_config with
          Server.concurrency = 2;
          policy = Scheduler.Cost_aware;
          aging_rounds = 32;
        }
      in
      let server =
        Server.create ~config ~pool env.Runner.registry Estimator.default
      in
      List.iteri
        (fun i (q, _) ->
          ignore
            (Server.submit server ~session:("s" ^ string_of_int (i mod 2)) q))
        (costed @ costed);
      Server.drain server;
      Server.metrics server)

module Telemetry = Qs_obs.Telemetry

(* The deterministic telemetry entry of the metrics dump: a fixed
   QuerySplit-served workload through a telemetry-enabled server on a
   width-2 pool. Success tail-sampling is pinned off ([min_samples]
   above the workload) so every counter — admitted, flights by status,
   journal steps, executor counters, sampled (= errors = 0) — is exact
   for a fixed corpus; only the turnaround histograms carry
   wall-clock. *)
let telemetry_metrics_entry s =
  let env, queries = cinema_env s in
  let costed = costed_corpus env queries in
  let subset = List.filteri (fun i _ -> i < 12) costed in
  Qs_util.Pool.with_pool ~domains:2 (fun pool ->
      let config =
        {
          Server.default_config with
          Server.concurrency = 2;
          aging_rounds = 32;
          telemetry =
            { Telemetry.default_config with Telemetry.min_samples = max_int };
        }
      in
      let strategy =
        Qs_core.Querysplit.strategy Qs_core.Querysplit.default_config
      in
      let server =
        Server.create ~config ~strategy ~pool env.Runner.registry
          Estimator.default
      in
      List.iteri
        (fun i (q, _) ->
          ignore
            (Server.submit server ~session:("s" ^ string_of_int (i mod 2)) q))
        (subset @ subset);
      Server.drain server;
      Telemetry.metrics (Server.telemetry server))

(* The deterministic columnar entry of the metrics dump: a fixed
   synthetic table (ints with NULLs, floats, dictionary-friendly
   strings) is built, filtered and aggregated sequentially resident
   (boxed columns) and spilled (typed column-major frames, through a
   pool large enough to hold every frame). Chunk counts, vectorized-kernel
   invocations, survivor counts, exact serialized frame sizes
   (Chunk_file.ser_chunk_size) and digest equality are integer-exact
   for a fixed corpus; no wall-clock leaks into the entry. *)
let columnar_metrics_entry _s =
  let module Table = Qs_storage.Table in
  let module Schema = Qs_storage.Schema in
  let module Value = Qs_storage.Value in
  let module Chunk_file = Qs_storage.Chunk_file in
  let module Expr = Qs_query.Expr in
  let module Executor = Qs_exec.Executor in
  let module Relop = Qs_exec.Relop in
  let module Logical = Qs_plan.Logical in
  let schema =
    Schema.make "c"
      [
        ("id", Value.TInt); ("grp", Value.TInt); ("amount", Value.TInt);
        ("price", Value.TFloat); ("note", Value.TStr);
      ]
  in
  let rows =
    Array.init 16_384 (fun i ->
        let h = (i * 2654435761) land 0x3fffffff in
        [|
          Value.Int i; Value.Int (h mod 31);
          (if h mod 11 = 0 then Value.Null else Value.Int (h mod 1000));
          Value.Float (float_of_int (h mod 256) /. 4.0);
          Value.Str ("n" ^ string_of_int (h mod 7));
        |])
  in
  let filters = [ Expr.Cmp (Expr.Lt, Expr.col "c" "amount", Expr.vint 500) ] in
  let group_by = [ { Expr.rel = "c"; name = "grp" } ] in
  let aggs =
    [
      { Logical.fn = Logical.Sum; arg = Some (Expr.col "c" "amount"); label = "total" };
      { Logical.fn = Logical.Count_star; arg = None; label = "n" };
    ]
  in
  let run store =
    let tbl = store (Table.create ~chunk_rows:1024 ~inputs:[] ~name:"c" ~schema rows) in
    let v0 = Executor.vectorized_chunks () in
    let filtered = Executor.filter_table tbl filters in
    let agged = Relop.aggregate ~name:"g" ~group_by ~aggs tbl in
    let vec = Executor.vectorized_chunks () - v0 in
    let ser = ref 0 in
    Table.iter_chunk_data
      (fun _ c -> ser := !ser + Chunk_file.ser_chunk_size c)
      tbl;
    ( Table.digest filtered ^ Table.digest agged,
      Table.n_rows filtered,
      vec,
      !ser,
      Table.n_chunks tbl )
  in
  let d_res, kept_res, _, _, chunks = run Fun.id in
  let d_spill, kept_spill, vec, ser, _ =
    Table.with_scratch_home ~capacity:64 (fun ~dir ~pool -> run (Table.spill ~dir ~pool))
  in
  let m = Qs_obs.Metrics.create () in
  let c name v = Qs_obs.Metrics.incr ~by:v m name in
  c "columnar_chunks" chunks;
  c "vectorized_chunks" vec;
  c "filter_survivors" kept_spill;
  c "ser_bytes_columnar" ser;
  c "digests_identical"
    (if d_res = d_spill && kept_res = kept_spill then 1 else 0);
  m

(* Wall-clock histograms are named [*_s], per status [*_s:<status>]. *)
let is_wall_clock name =
  let base =
    match String.index_opt name ':' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  String.ends_with ~suffix:"_s" base

(* The golden keeps what a fixed corpus determines — every counter and
   the non-time histograms (Q-error, materialized bytes, hit rate,
   rounds waited, queue depth) — and drops the wall-clock ones. *)
let metrics_json s =
  let module Metrics = Qs_obs.Metrics in
  let deterministic m =
    let d = Metrics.create () in
    List.iter
      (fun n -> Metrics.incr ~by:(Metrics.counter m n) d n)
      (Metrics.counter_names m);
    List.iter
      (fun n ->
        if not (is_wall_clock n) then
          Metrics.add_histogram d n (Option.get (Metrics.histogram m n)))
      (Metrics.histogram_names m);
    d
  in
  let strategies =
    List.map
      (fun (label, rs) -> (label, Runner.metrics_of_results rs))
      (metrics_results s)
  in
  let serve = serve_metrics_entry s in
  let io = io_metrics_entry s in
  let pipeline = pipeline_metrics_entry s in
  let telemetry = telemetry_metrics_entry s in
  let columnar = columnar_metrics_entry s in
  Metrics.json_of_many
    (List.map
       (fun (label, m) -> (label, deterministic m))
       (strategies
       @ [
           ("serve", serve);
           ("io", io);
           ("pipeline", pipeline);
           ("telemetry", telemetry);
           ("columnar", columnar);
         ]))

let all s =
  table1 s;
  table3 s;
  fig10 s;
  fig11 s;
  table4 s;
  fig12 s;
  fig13 s;
  fig14 s;
  fig15 s;
  table5 s;
  table6 s;
  fig16_19 s
