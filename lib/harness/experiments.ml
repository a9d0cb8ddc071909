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
  domains : int;
  tracer : Qs_util.Span.t option;
}

let default_setup =
  {
    scale = 0.5;
    seed = 2023;
    n_queries = 91;
    timeout = 5.0;
    domains = 1;
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
               let algo = Algos.querysplit_with { Querysplit.default_config with Querysplit.qsa; ssa } in
               let rs = Runner.run_spj ?tracer:s.tracer ~domains:s.domains ~timeout:s.timeout env algo queries in
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
      (Runner.run_spj ?tracer:s.tracer ~domains:s.domains ~timeout:s.timeout env (noisy_algo s config ~mu ~sigma) queries)
  in
  let sigmas = [ 0.0; 0.5; 1.0; 2.0; 4.0 ] in
  let qsa_series =
    List.map
      (fun qsa ->
        ( Qsa.policy_name qsa ^ " + phi4",
          List.map
            (fun sigma ->
              (Printf.sprintf "%g" sigma, run { Querysplit.default_config with Querysplit.qsa; ssa = Ssa.Phi4 } ~mu:0.0 ~sigma))
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
                run { Querysplit.default_config with Querysplit.qsa = Qsa.RCenter; ssa } ~mu:0.0 ~sigma ))
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
            let rs = Runner.run_spj ?tracer:s.tracer ~domains:s.domains ~timeout:s.timeout env algo queries in
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
        let rs = Runner.run_spj ?tracer:s.tracer ~domains:s.domains ~timeout:s.timeout env algo queries in
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

let logical_comparison ?tracer ~title ~timeout ~domains env trees roster =
  let rows =
    List.map
      (fun algo ->
        let rs = Runner.run_logical ?tracer ~domains ~timeout env algo trees in
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
        ~timeout:s.timeout ~domains:s.domains env trees Algos.nonspj_roster)
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
            let rs = Runner.run_spj ?tracer:s.tracer ~domains:s.domains ~timeout:s.timeout env algo queries in
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
    ~timeout:s.timeout ~domains:s.domains env trees Algos.nonspj_roster

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
            (Runner.run_spj ?tracer:s.tracer ~collect_stats:true ~domains:s.domains ~timeout:s.timeout env algo queries)
        in
        let off =
          Runner.total_time
            (Runner.run_spj ?tracer:s.tracer ~collect_stats:false ~domains:s.domains ~timeout:s.timeout env algo queries)
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
    Runner.total_time (Runner.run_spj ?tracer:s.tracer ~domains:s.domains ~timeout:s.timeout env algo queries)
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
  let qs_rs = Runner.run_spj ?tracer:s.tracer ~domains:s.domains ~timeout:s.timeout env Algos.querysplit queries in
  let other_rs =
    List.map (fun a -> Runner.run_spj ?tracer:s.tracer ~domains:s.domains ~timeout:s.timeout env a queries) others
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
(* Ablation (beyond the paper): QuerySplit implementation choices          *)
(* ---------------------------------------------------------------------- *)

let ablation s =
  Report.section "Ablation: QuerySplit implementation choices";
  let env, queries = cinema_env s in
  let variants =
    [
      ("full", Querysplit.default_config);
      ("no plan cache", { Querysplit.default_config with Querysplit.plan_cache = false });
      ("no column pruning",
       { Querysplit.default_config with Querysplit.prune_columns = false });
      ("neither",
       {
         Querysplit.default_config with
         Querysplit.plan_cache = false;
         prune_columns = false;
       });
    ]
  in
  let rows =
    List.map
      (fun (label, config) ->
        let algo = Algos.querysplit_with config in
        let rs = Runner.run_spj ?tracer:s.tracer ~domains:s.domains ~timeout:s.timeout env algo queries in
        let bytes = List.fold_left (fun a r -> a + r.Runner.mat_bytes) 0 rs in
        [
          label;
          Report.seconds (Runner.total_time rs);
          Printf.sprintf "%.1f" (float_of_int bytes /. 1048576.0);
        ])
      variants
  in
  Report.table ~title:"QuerySplit variants"
    ~headers:[ "variant"; "total time"; "materialized MB (all queries)" ]
    rows

(* ---------------------------------------------------------------------- *)
(* Observability: per-strategy metrics report                              *)
(* ---------------------------------------------------------------------- *)

(* One registry per fig11-roster strategy over the JOB-like workload —
   the shared substrate of the [metrics] experiment and of the bench
   tool's [--metrics-out] dump (which bench_diff then compares). *)
let metrics_results s =
  let env, queries = cinema_env s in
  List.map
    (fun algo ->
      ( algo.Runner.label,
        Runner.run_spj ?tracer:s.tracer ~domains:s.domains ~timeout:s.timeout
          env algo queries ))
    Algos.fig11_roster

let json_of_labelled ?(extra = []) s labelled =
  let regs =
    List.map (fun (l, rs) -> (l, Runner.metrics_of_results rs)) labelled
  in
  let regs = regs @ extra in
  (* with a tracer attached, per-phase span times ride along as one more
     pseudo-strategy entry so they land in the same machine-readable dump *)
  let regs =
    match s.tracer with
    | None -> regs
    | Some tr ->
        let m = Qs_obs.Metrics.create () in
        Runner.fold_span_times tr m;
        regs @ [ ("phases", m) ]
  in
  Qs_obs.Metrics.json_of_many regs

let metrics s =
  Report.section "Metrics: per-strategy execution metrics over the JOB-like workload";
  let labelled = metrics_results s in
  (* the JSON blob is the machine-readable artifact; the table is the
     human summary of the same registries *)
  let rows =
    List.map
      (fun (label, rs) ->
        let m = Runner.metrics_of_results rs in
        let q p =
          match Qs_obs.Metrics.histogram m "qerror" with
          | Some h -> Printf.sprintf "%.2f" (Qs_obs.Histogram.percentile h p)
          | None -> "-"
        in
        [
          label;
          string_of_int (Qs_obs.Metrics.counter m "queries");
          string_of_int (Qs_obs.Metrics.counter m "timeouts");
          string_of_int (Qs_obs.Metrics.counter m "replans");
          string_of_int (Qs_obs.Metrics.counter m "materializations");
          q 0.5;
          q 0.95;
        ])
      labelled
  in
  Report.table ~title:"execution metrics"
    ~headers:
      [ "algorithm"; "queries"; "TO"; "replans"; "mats"; "qerror p50"; "qerror p95" ]
    rows;
  print_endline "metrics report (JSON):";
  print_endline (json_of_labelled s labelled)

(* ---------------------------------------------------------------------- *)
(* Parallel harness: wall-clock sweep over domain counts                   *)
(* ---------------------------------------------------------------------- *)

let counters_equal a b =
  Qs_obs.Metrics.counter_names a = Qs_obs.Metrics.counter_names b
  && List.for_all
       (fun n -> Qs_obs.Metrics.counter a n = Qs_obs.Metrics.counter b n)
       (Qs_obs.Metrics.counter_names a)

let par_sweep s =
  Report.section "Parallel harness: strategy sweep wall-clock vs domains";
  let env, queries = cinema_env s in
  let roster = Algos.reopt_roster in
  let sweep domains =
    let t0 = Qs_util.Timer.now () in
    let rs =
      List.map
        (fun algo ->
          ( algo.Runner.label,
            Runner.run_spj ?tracer:s.tracer ~domains ~timeout:s.timeout env algo
              queries ))
        roster
    in
    (Qs_util.Timer.elapsed ~since:t0, rs)
  in
  (* warm once so environment caches (oracle memo, base-table stats) do
     not favour whichever sweep runs second *)
  ignore (sweep 1);
  let seq_wall, seq = sweep 1 in
  let par_domains = max 2 s.domains in
  let par_wall, par = sweep par_domains in
  let digests rs = List.concat_map (fun (_, l) -> List.map (fun r -> r.Runner.digest) l) rs in
  let identical = digests seq = digests par in
  let metrics_ok =
    List.for_all2
      (fun (_, a) (_, b) ->
        counters_equal (Runner.metrics_of_results a) (Runner.metrics_of_results b))
      seq par
  in
  Report.table
    ~title:
      (Printf.sprintf "wall-clock for %d strategies x %d queries"
         (List.length roster) (List.length queries))
    ~headers:[ "domains"; "wall-clock"; "speedup" ]
    [
      [ "1"; Report.seconds seq_wall; "1.00x" ];
      [
        string_of_int par_domains;
        Report.seconds par_wall;
        Printf.sprintf "%.2fx" (seq_wall /. Float.max 1e-9 par_wall);
      ];
    ];
  Printf.printf "result digests byte-identical: %s\n"
    (if identical then "yes" else "NO (per-query timeouts differ under load?)");
  Printf.printf "merged metric counters equal:  %s\n"
    (if metrics_ok then "yes" else "NO")

(* ---------------------------------------------------------------------- *)
(* Sharded storage: chunked scan/filter/aggregate wall-clock vs domains    *)
(* ---------------------------------------------------------------------- *)

let scan_sweep s =
  Report.section "Sharded storage: chunked scan throughput";
  let module Table = Qs_storage.Table in
  let module Schema = Qs_storage.Schema in
  let module Value = Qs_storage.Value in
  let module Expr = Qs_query.Expr in
  let module Executor = Qs_exec.Executor in
  let module Relop = Qs_exec.Relop in
  let module Logical = Qs_plan.Logical in
  let n = int_of_float (2_000_000.0 *. s.scale) in
  (* wide resident fact table: the selective filter touches one column
     out of thirteen and hauls whole boxed rows through the scan *)
  let n_pad = 8 in
  let cats = [| "alpha"; "beta"; "gamma"; "delta" |] in
  let schema =
    Schema.make "f"
      ([
         ("id", Value.TInt); ("grp", Value.TInt); ("amount", Value.TInt);
         ("price", Value.TFloat); ("cat", Value.TStr);
       ]
      @ List.init n_pad (fun k -> (Printf.sprintf "pad%d" k, Value.TInt)))
  in
  (* deterministic synthetic fact table: LCG-ish values, no Rng needed *)
  let rows =
    Array.init n (fun i ->
        let h = (i * 2654435761) land 0x3fffffff in
        Array.append
          [|
            Value.Int i; Value.Int (h mod 97); Value.Int (h mod 1000);
            Value.Float (float_of_int (h mod 500) /. 8.0);
            Value.Str cats.(h mod 4);
          |]
          (Array.init n_pad (fun k -> Value.Int (h lxor k))))
  in
  (* ~2% selectivity *)
  let filters = [ Expr.Cmp (Expr.Lt, Expr.col "f" "amount", Expr.vint 20) ] in
  let group_by = [ { Expr.rel = "f"; name = "grp" } ] in
  let aggs =
    [
      { Logical.fn = Logical.Sum; arg = Some (Expr.col "f" "amount"); label = "total" };
      { Logical.fn = Logical.Count_star; arg = None; label = "n" };
    ]
  in
  let best_of_3 f =
    let best = ref Float.infinity and out = ref None in
    for _ = 1 to 3 do
      let t0 = Qs_util.Timer.now () in
      let r = f () in
      let dt = Qs_util.Timer.elapsed ~since:t0 in
      if dt < !best then best := dt;
      out := Some r
    done;
    (!best, Option.get !out)
  in
  let par_domains = max 2 s.domains in
  let mrows wall = float_of_int n /. Float.max 1e-9 wall /. 1e6 in
  let tbl = Table.create ~chunk_rows:65_536 ~name:"f" ~schema rows in
  let seq_wall, filtered =
    best_of_3 (fun () -> Executor.filter_table tbl filters)
  in
  let par_wall, par_filtered =
    Qs_util.Pool.with_pool ~domains:par_domains (fun p ->
        best_of_3 (fun () -> Executor.filter_table ~pool:p tbl filters))
  in
  let agg_wall, _ =
    best_of_3 (fun () -> Relop.aggregate ~name:"g" ~group_by ~aggs tbl)
  in
  Report.table
    ~title:
      (Printf.sprintf
         "selective filter over %d resident rows x %d cols in %d chunks \
          (seq and %d domains), group-by aggregate"
         n (5 + n_pad) (Table.n_chunks tbl) par_domains)
    ~headers:
      [ "filter seq"; "Mrows/s"; Printf.sprintf "par(%d)" par_domains;
        "Mrows/s"; "speedup"; "aggregate" ]
    [
      [
        Report.seconds seq_wall;
        Printf.sprintf "%.1f" (mrows seq_wall);
        Report.seconds par_wall;
        Printf.sprintf "%.1f" (mrows par_wall);
        Printf.sprintf "%.2fx" (seq_wall /. Float.max 1e-9 par_wall);
        Report.seconds agg_wall;
      ];
    ];
  Printf.printf "filter digests byte-identical across pool widths: %s\n"
    (if Runner.result_digest par_filtered = Runner.result_digest filtered then
       "yes"
     else "NO")

(* ---------------------------------------------------------------------- *)
(* Out-of-core: buffer-pool execution under memory pressure                *)
(* ---------------------------------------------------------------------- *)

module Buffer_pool = Qs_storage.Buffer_pool

(* Scoped spill mode: a scratch directory and a fresh buffer pool around
   [f]; the previous global spill config is restored (and the directory
   removed) on the way out, even on exception. *)
let with_spill ?io_pool ?tracer ?(prefetch = 2) ~capacity f =
  let dir = Filename.temp_file "qs_bench_spill" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let bp = Buffer_pool.create ~prefetch ~capacity () in
  Buffer_pool.set_io_pool bp io_pool;
  Buffer_pool.set_tracer bp tracer;
  let saved = Qs_storage.Table.spill_config () in
  Qs_storage.Table.set_spill (Some (dir, bp));
  Fun.protect
    ~finally:(fun () ->
      Qs_storage.Table.set_spill saved;
      (try
         Array.iter
           (fun f ->
             try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f bp)

(* The deterministic out-of-core entry of the metrics dump: a fixed
   synthetic table is scanned twice and randomly probed, sequentially,
   through a 4-frame pool with no I/O workers attached — the fault
   sequence, and with it every counter and the hit rate, is exact for a
   fixed corpus. The prefetch counters are pinned at 0 by construction
   (no pool, so reads never race a background worker). *)
let io_metrics_entry _s =
  let module Table = Qs_storage.Table in
  let module Schema = Qs_storage.Schema in
  let module Value = Qs_storage.Value in
  with_spill ~capacity:4 (fun bp ->
      let schema = Schema.make "io" [ ("id", Value.TInt); ("pay", Value.TStr) ] in
      let tbl =
        Table.create ~chunk_rows:1024 ~name:"io" ~schema
          (Array.init 16_384 (fun i ->
               [| Value.Int i; Value.Str (string_of_int (i * 31)) |]))
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
      c "prefetch_issued" st.Buffer_pool.prefetch_issued;
      c "prefetch_used" st.Buffer_pool.prefetch_used;
      c "prefetch_wasted" st.Buffer_pool.prefetch_wasted;
      c "spilled_chunks" (Table.n_chunks tbl);
      Qs_obs.Metrics.observe m "hit_rate"
        (float_of_int st.Buffer_pool.hits
        /. float_of_int (max 1 (st.Buffer_pool.hits + st.Buffer_pool.misses)));
      m)

let io_sweep s =
  Report.section "Out-of-core: buffer pool under memory pressure, prefetch overlap";
  let module Table = Qs_storage.Table in
  let module Schema = Qs_storage.Schema in
  let module Value = Qs_storage.Value in
  let module Expr = Qs_query.Expr in
  let module Executor = Qs_exec.Executor in
  let module Relop = Qs_exec.Relop in
  let module Logical = Qs_plan.Logical in
  let n = max 100_000 (int_of_float (1_000_000.0 *. s.scale)) in
  let schema =
    Schema.make "f"
      [ ("id", Value.TInt); ("grp", Value.TInt); ("amount", Value.TInt) ]
  in
  let rows =
    Array.init n (fun i ->
        let h = (i * 2654435761) land 0x3fffffff in
        [| Value.Int i; Value.Int (h mod 97); Value.Int (h mod 1000) |])
  in
  let filters = [ Expr.Cmp (Expr.Lt, Expr.col "f" "amount", Expr.vint 500) ] in
  let group_by = [ { Expr.rel = "f"; name = "grp" } ] in
  let aggs =
    [
      { Logical.fn = Logical.Sum; arg = Some (Expr.col "f" "amount"); label = "total" };
      { Logical.fn = Logical.Count_star; arg = None; label = "n" };
    ]
  in
  (* sequential consumer: the only asynchrony is the pool's prefetch,
     so any io-span time on other tracks inside the Execute interval is
     disk I/O genuinely overlapped with the scan's CPU work *)
  let run_once tbl =
    let t0 = Qs_util.Timer.now () in
    let filtered = Executor.filter_table tbl filters in
    let agged = Relop.aggregate ~name:"g" ~group_by ~aggs tbl in
    let wall = Qs_util.Timer.elapsed ~since:t0 in
    (wall, Runner.result_digest filtered ^ Runner.result_digest agged)
  in
  let chunk_rows = 16_384 in
  let resident_tbl = Table.create ~chunk_rows ~name:"f" ~schema rows in
  let n_chunks = Table.n_chunks resident_tbl in
  ignore (run_once resident_tbl) (* warm *);
  let res_wall, res_digest = run_once resident_tbl in
  let tr = match s.tracer with Some t -> t | None -> Qs_util.Span.create () in
  let all_identical = ref true in
  let max_overlap = ref 0.0 in
  let caps =
    List.sort_uniq compare [ 1; 4; max 2 (n_chunks / 4); n_chunks + 2 ]
    |> List.rev
  in
  let rows_out =
    List.map
      (fun capacity ->
        Qs_util.Pool.with_pool ~domains:2 (fun io ->
            with_spill ~io_pool:io ~tracer:tr ~prefetch:3 ~capacity (fun bp ->
                let tbl = Table.create ~chunk_rows ~name:"f" ~schema rows in
                let label = Printf.sprintf "io_sweep cap=%d" capacity in
                let wall, digest =
                  Qs_util.Span.span (Some tr) Qs_util.Span.Execute label
                    (fun () -> run_once tbl)
                in
                if digest <> res_digest then all_identical := false;
                let st = Buffer_pool.stats bp in
                (* overlap: io spans on *other* domains' tracks
                   intersected with this run's Execute interval *)
                let spans = Qs_util.Span.spans tr in
                let exec =
                  List.find
                    (fun (sp : Qs_util.Span.span) -> sp.name = label)
                    spans
                in
                let ends (sp : Qs_util.Span.span) = sp.start +. sp.dur in
                let overlap =
                  List.fold_left
                    (fun acc (sp : Qs_util.Span.span) ->
                      if sp.cat = Qs_util.Span.Io && sp.track <> exec.track
                      then
                        acc
                        +. Float.max 0.0
                             (Float.min (ends sp) (ends exec)
                             -. Float.max sp.start exec.start)
                      else acc)
                    0.0 spans
                in
                max_overlap := Float.max !max_overlap overlap;
                [
                  string_of_int capacity;
                  Printf.sprintf "%d/%d" (min capacity n_chunks) n_chunks;
                  Report.seconds wall;
                  Printf.sprintf "%.2fx" (wall /. Float.max 1e-9 res_wall);
                  string_of_int st.Buffer_pool.hits;
                  string_of_int st.Buffer_pool.misses;
                  string_of_int st.Buffer_pool.evictions;
                  Printf.sprintf "%d/%d" st.Buffer_pool.prefetch_used
                    st.Buffer_pool.prefetch_issued;
                  Printf.sprintf "%.1fms" (1000.0 *. overlap);
                  (if digest = res_digest then "ok" else "MISMATCH");
                ])))
      caps
  in
  Report.table
    ~title:
      (Printf.sprintf
         "filter + group-by over %d rows out-of-core (resident: %s)" n
         (Report.seconds res_wall))
    ~headers:
      [
        "frames"; "of chunks"; "wall"; "vs resident"; "hits"; "misses";
        "evicted"; "pf used/issued"; "async io overlap"; "digest";
      ]
    rows_out;
  Printf.printf "out-of-core digests byte-identical to in-memory: %s\n"
    (if !all_identical then "yes" else "NO");
  Printf.printf "prefetch I/O overlapped with execution: %s\n"
    (if !max_overlap > 0.0 then "yes" else "NO")

(* ---------------------------------------------------------------------- *)
(* Parallel optimizer: DP wall-clock vs join count vs domains, plus memo   *)
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
      Table.create ~name
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
   step of a multi-step run re-joins on one column — the shape where a
   materialized temp's partition layout is reusable step after step. *)
let hub_catalog s n_rels =
  let module Value = Qs_storage.Value in
  let module Schema = Qs_storage.Schema in
  let module Table = Qs_storage.Table in
  let cat = Catalog.create () in
  let rows = max 100 (int_of_float (400.0 *. s.scale)) in
  for i = 0 to n_rels - 1 do
    let name = Printf.sprintf "r%d" i in
    let tbl =
      Table.create ~name
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

let dp_sweep s =
  Report.section
    "Parallel optimizer: DP wall-clock vs join count vs domains, plus memo";
  let par_domains = max 2 s.domains in
  let identical = ref true in
  let time_best ?pool ?memo cat frag =
    (* best of 3 absorbs first-call warmup (estimator scratch fills) *)
    let best = ref Float.infinity and plan = ref "" in
    for _ = 1 to 3 do
      let t0 = Qs_util.Timer.now () in
      let r = Optimizer.optimize ?pool ?memo cat Estimator.default frag in
      let dt = Qs_util.Timer.elapsed ~since:t0 in
      if dt < !best then best := dt;
      plan := Qs_plan.Physical.to_string r.Optimizer.plan
    done;
    (!best, !plan)
  in
  let rows =
    List.map
      (fun n_rels ->
        let cat = chain_catalog s n_rels in
        let registry = Qs_stats.Stats_registry.create cat in
        let frag = Qs_stats.Fragment.of_query registry (chain_query n_rels) in
        let seq_t, seq_p = time_best cat frag in
        let par_t, par_p =
          Qs_util.Pool.with_pool ~domains:par_domains (fun p ->
              time_best ~pool:p cat frag)
        in
        (* memo replay: populate once, then time the all-hits call *)
        let memo = Qs_plan.Dp_memo.create () in
        ignore (Optimizer.optimize ~memo cat Estimator.default frag);
        let memo_t, memo_p = time_best ~memo cat frag in
        if seq_p <> par_p || seq_p <> memo_p then identical := false;
        [
          string_of_int n_rels;
          Report.seconds seq_t;
          Report.seconds par_t;
          Printf.sprintf "%.2fx" (seq_t /. Float.max 1e-9 par_t);
          Report.seconds memo_t;
          string_of_int (Qs_plan.Dp_memo.hits memo);
        ])
      [ 6; 9; 12 ]
  in
  Report.table
    ~title:
      (Printf.sprintf "chain-join optimize time, %d domains" par_domains)
    ~headers:
      [ "joins"; "seq"; Printf.sprintf "par(%d)" par_domains; "speedup";
        "memo replay"; "memo hits" ]
    rows;
  Printf.printf "plans byte-identical across domains and memo: %s\n"
    (if !identical then "yes" else "NO");
  (* memo hit-rates of the re-optimizing strategies over the JOB-like
     workload: every query gets a fresh memo, so hits come purely from
     re-optimization steps inside a query *)
  let env, queries = cinema_env s in
  let queries = List.filteri (fun i _ -> i mod 3 = 0) queries in
  let rate_rows =
    List.map
      (fun algo ->
        let rs =
          Runner.run_spj ?tracer:s.tracer ~domains:s.domains ~timeout:s.timeout
            env algo queries
        in
        let hits = List.fold_left (fun a r -> a + r.Runner.dp_memo_hits) 0 rs in
        let misses =
          List.fold_left (fun a r -> a + r.Runner.dp_memo_misses) 0 rs
        in
        [
          algo.Runner.label;
          string_of_int hits;
          string_of_int misses;
          (if hits + misses = 0 then "-"
           else pct hits (hits + misses));
        ])
      Algos.reopt_roster
  in
  Report.table
    ~title:
      (Printf.sprintf "cross-step DP-memo hit rate over %d JOB-like queries"
         (List.length queries))
    ~headers:[ "algorithm"; "hits"; "misses"; "hit rate" ]
    rate_rows

(* ---------------------------------------------------------------------- *)
(* Pipelined execution: the morsel-driven executor on chains and hubs      *)
(* ---------------------------------------------------------------------- *)

(* One strategy run of [q]. Returns the result digest, wall-clock, and
   the executor's intermediate-table / partition-reuse counter deltas
   for exactly this run. *)
let strategy_run ?pool ?spans ?strat registry q =
  let module Executor = Qs_exec.Executor in
  let strat =
    match strat with
    | Some st -> st
    | None -> Querysplit.strategy Querysplit.default_config
  in
  Executor.reset_counters ();
  let ctx = Strategy.make_ctx ?pool ?spans registry Estimator.default in
  let t0 = Qs_util.Timer.now () in
  let o = strat.Strategy.run ctx q in
  let wall = Qs_util.Timer.elapsed ~since:t0 in
  ( Qs_storage.Table.digest o.Strategy.result,
    wall,
    Executor.intermediate_tables (),
    Executor.partition_reuses () )

(* The reference digest of [q]: naive execution, independent of plans,
   engine and strategy. *)
let naive_digest registry (q : Query.t) =
  let frag = Qs_stats.Fragment.of_query registry q in
  Qs_storage.Table.digest
    (Qs_exec.Executor.project (Qs_exec.Naive.rows frag) q.Query.output)

let span_category_time spans cat =
  List.fold_left
    (fun a (sp : Qs_util.Span.span) ->
      if sp.Qs_util.Span.cat = cat then a +. sp.Qs_util.Span.dur else a)
    0.0
    (Qs_util.Span.spans spans)

let pipeline_sweep s =
  Report.section "Pipelined execution: morsel-driven executor on chains and hubs";
  let module Span = Qs_util.Span in
  let par_domains = max 2 s.domains in
  let identical = ref true in
  let shapes =
    [ ("chain", chain_catalog, chain_query); ("hub", hub_catalog, hub_query) ]
  in
  let strategies =
    [
      ("querysplit", Querysplit.strategy Querysplit.default_config);
      ("one-shot", Qs_core.Static.default);
    ]
  in
  (* one naive reference per query, from an in-memory catalog *)
  let references = Hashtbl.create 8 in
  let reference shape catalog_of query_of n_rels =
    match Hashtbl.find_opt references (shape, n_rels) with
    | Some d -> d
    | None ->
        let registry = Qs_stats.Stats_registry.create (catalog_of s n_rels) in
        let d = naive_digest registry (query_of n_rels) in
        Hashtbl.replace references (shape, n_rels) d;
        d
  in
  let rows_out =
    List.concat_map
      (fun n_rels ->
        List.concat_map
          (fun (shape, catalog_of, query_of) ->
            let q = query_of n_rels in
            let expected = reference shape catalog_of query_of n_rels in
            (* (storage, strategy) grid; the spilled cases rebuild the
               catalog inside the spill scope so base tables and temps
               alike live behind the buffer pool — and fault back in
               column-major, so the storage axis is also the layout
               axis *)
            let case ~spilled ~strat =
              let body () =
                let cat = catalog_of s n_rels in
                let registry = Qs_stats.Stats_registry.create cat in
                Qs_util.Pool.with_pool ~domains:par_domains (fun pool ->
                    let spans = Span.create () in
                    let digest, wall, inter, reuses =
                      strategy_run ~pool ~spans ~strat registry q
                    in
                    ( digest,
                      wall,
                      inter,
                      reuses,
                      span_category_time spans Span.Pipeline,
                      span_category_time spans Span.Breaker ))
              in
              if spilled then with_spill ~capacity:64 (fun _bp -> body ())
              else body ()
            in
            List.concat_map
              (fun spilled ->
                List.map
                  (fun (sname, strat) ->
                    let digest, wall, inter, reuses, pipe_t, brk_t =
                      case ~spilled ~strat
                    in
                    if digest <> expected then identical := false;
                    [
                      Printf.sprintf "%d %s" n_rels shape;
                      (if spilled then "spilled (columnar)" else "memory (rows)");
                      sname;
                      Report.seconds wall;
                      string_of_int inter;
                      string_of_int reuses;
                      Report.seconds pipe_t;
                      Report.seconds brk_t;
                    ])
                  strategies)
              [ false; true ])
          shapes)
      [ 10; 12 ]
  in
  Report.table
    ~title:(Printf.sprintf "PK-FK chains and hubs, %d domains" par_domains)
    ~headers:
      [ "query"; "storage"; "strategy"; "time"; "intermediates"; "part reuse";
        "pipe t"; "brk t" ]
    rows_out;
  Printf.printf
    "digests equal to naive execution (resident and spilled): %s\n"
    (if !identical then "yes" else "NO")

(* The deterministic pipelined-execution entry of the metrics dump:
   one-shot and QuerySplit runs of fixed PK-FK shapes. Counters only —
   plans, operator shapes and therefore every intermediate-table and
   partition-reuse count are exact for a fixed corpus; no wall-clock
   leaks into the entry. *)
let pipeline_metrics_entry s =
  let module Metrics = Qs_obs.Metrics in
  let n_rels = 8 in
  let cat = chain_catalog s n_rels in
  let registry = Qs_stats.Stats_registry.create cat in
  let q = chain_query n_rels in
  let frag = Qs_stats.Fragment.of_query registry q in
  let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
  (* full-plan execution: one sink instead of one table per join *)
  let d_pipe, _, i_pipe, _ =
    strategy_run ~strat:Qs_core.Static.default registry q
  in
  (* multi-step QuerySplit over a hub, on a width-2 pool: every step
     re-joins the hub key, so materialized temps keep a reusable
     partition layout *)
  let hub = hub_catalog s n_rels in
  let hub_registry = Qs_stats.Stats_registry.create hub in
  let d_qs, _, i_qs, reuses =
    Qs_util.Pool.with_pool ~domains:2 (fun pool ->
        strategy_run ~pool hub_registry (hub_query n_rels))
  in
  let m = Metrics.create () in
  Metrics.incr ~by:i_pipe m "intermediates_pipelined";
  Metrics.incr ~by:i_qs m "querysplit_intermediates_pipelined";
  Metrics.incr ~by:reuses m "partition_reuses";
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
(* Serving front end: throughput and tail latency under concurrent load    *)
(* ---------------------------------------------------------------------- *)

module Server = Qs_serve.Server
module Scheduler = Qs_serve.Scheduler

(* Cost-ranked JOB-like corpus (cheapest first). The bottom 60% is the
   "light" interactive class of the mixed-cost serving workload, the top
   decile the "heavy" analytical class. *)
let costed_corpus env queries =
  let ctx = Strategy.make_ctx env.Runner.registry Estimator.default in
  List.map
    (fun q ->
      let frag = Strategy.fragment_of_query ctx q in
      let r = Optimizer.optimize env.Runner.catalog Estimator.default frag in
      (q, r.Optimizer.est_cost))
    queries
  |> List.sort (fun (_, a) (_, b) -> Float.compare a b)

(* The two serving classes. Lights: the bottom 60% of the corpus by
   estimated cost — the short interactive tail. Heavies: the top-decile
   statements widened by dropping the selections on their first
   relation (joins and the other relations' filters kept), so the
   analytical class is 1-2 orders of magnitude more expensive in actual
   execution time — not just in the estimate — while remaining plain
   digest-checkable SPJ statements. The straggler threshold sits at the
   cheapest heavy: exactly the heavy class gets the pooled join/DP
   paths. *)
type serve_classes = {
  lights : Query.t array;
  heavies : (Query.t * float) array;  (** statement, estimated cost *)
  straggler : float;
}

let serve_classes env costed =
  let ctx = Strategy.make_ctx env.Runner.registry Estimator.default in
  let arr = Array.of_list costed in
  let n = Array.length arr in
  let heavy0 = n - max 1 (n / 10) in
  let heavies =
    Array.init (n - heavy0) (fun i ->
        let q = fst arr.(heavy0 + i) in
        let kept_filters =
          match Query.aliases q with
          | [] | [ _ ] -> []
          | _ :: rest -> List.concat_map (Query.filters q) rest
        in
        let full =
          Query.make
            ~name:(q.Query.name ^ "_full")
            ~output:q.Query.output q.Query.rels
            (Query.join_preds q @ kept_filters)
        in
        let frag = Strategy.fragment_of_query ctx full in
        let r = Optimizer.optimize env.Runner.catalog Estimator.default frag in
        (full, r.Optimizer.est_cost))
  in
  {
    lights = Array.init (max 1 (n * 3 / 5)) (fun i -> fst arr.(i));
    heavies;
    straggler = Array.fold_left (fun acc (_, c) -> min acc c) infinity heavies;
  }

(* Arrival order adversarial for FIFO: a burst of heavy queries is
   admitted first (one per ~125 submissions of load), the short
   interactive tail behind it. Cost-aware scheduling lets the tail
   bypass the burst; FIFO makes the tail queue behind it, so every
   percentile carries the burst's makespan. The burst is capped at 16
   so the soak load measures sustained light throughput rather than
   hours of heavies. *)
let serve_workload ~load classes =
  let n_heavy = max 1 (min (load / 125) 16) in
  List.init load (fun i ->
      if i < n_heavy then fst classes.heavies.(i mod Array.length classes.heavies)
      else classes.lights.(i mod Array.length classes.lights))

(* Reference digests from plain single-session execution of each
   distinct statement: serving-mode results must be byte-identical. *)
let expected_digests env costed =
  let module Executor = Qs_exec.Executor in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun ((q : Query.t), _) ->
      if not (Hashtbl.mem tbl q.Query.name) then begin
        let ctx = Strategy.make_ctx env.Runner.registry Estimator.default in
        let frag = Strategy.fragment_of_query ctx q in
        let r = Optimizer.optimize env.Runner.catalog Estimator.default frag in
        let t, _ = Executor.run r.Optimizer.plan in
        let t = Executor.project ~name:q.Query.name t q.Query.output in
        Hashtbl.replace tbl q.Query.name (Qs_storage.Table.digest t)
      end)
    costed;
  tbl

let serve_run s ?(telemetry = Qs_obs.Telemetry.default_config) ~domains
    ~policy ~load env classes =
  let stream = serve_workload ~load classes in
  let straggler_cost = classes.straggler in
  Qs_util.Pool.with_pool ?tracer:s.tracer ~domains (fun pool ->
      (* The queue holds the whole stream when feasible so measured
         latency reflects the scheduling policy, not admission
         backpressure (which delays both policies identically); the
         soak load still saturates the 2048 bound and exercises
         backpressure. Aging is set past the run length: the sweep
         contrasts pure shortest-first against FIFO, while the small
         aging windows (and their starvation bound) are covered by
         [serve_metrics_entry] and the scheduler tests. *)
      let config =
        {
          Server.default_config with
          Server.concurrency = max 1 domains;
          queue_limit = min load 2048;
          policy;
          aging_rounds = 2 * load;
          straggler_cost;
          telemetry;
        }
      in
      let server =
        Server.create ~config ?spans:s.tracer ~pool env.Runner.registry
          Estimator.default
      in
      let t0 = Qs_util.Timer.now () in
      List.iteri
        (fun i q ->
          ignore
            (Server.submit server ~session:("s" ^ string_of_int (i mod 4)) q))
        stream;
      Server.drain server;
      let wall = Qs_util.Timer.elapsed ~since:t0 in
      (Server.results server, wall))

let latency_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let serve_digests_ok expect results =
  List.for_all
    (fun (r : Server.result) ->
      match (r.Server.status, r.Server.digest) with
      | Server.Completed, Some d -> (
          match Hashtbl.find_opt expect r.Server.query with
          | Some d' -> d = d'
          | None -> false)
      | _ -> false)
    results

let serve_sweep s =
  Report.section
    "Serving: concurrent front end, throughput and tail latency per policy";
  let env, queries = cinema_env s in
  let costed = costed_corpus env queries in
  let classes = serve_classes env costed in
  let expect =
    expected_digests env (costed @ Array.to_list classes.heavies)
  in
  let ms v = Printf.sprintf "%.2f" (1000.0 *. v) in
  let p99s = Hashtbl.create 8 in
  let row ~load ~domains ~policy =
    let results, wall = serve_run s ~domains ~policy ~load env classes in
    let lats =
      List.map (fun (r : Server.result) -> r.Server.queue_wait +. r.Server.exec_time) results
      |> Array.of_list
    in
    Array.sort Float.compare lats;
    (if Sys.getenv_opt "QS_SERVE_DEBUG" <> None then
       let worst =
         List.sort
           (fun (a : Server.result) b ->
             Float.compare
               (b.Server.queue_wait +. b.Server.exec_time)
               (a.Server.queue_wait +. a.Server.exec_time))
           results
       in
       List.iteri
         (fun i (r : Server.result) ->
           if i < 15 then
             Printf.printf "    worst#%d %s cost=%.0f wait=%.3f exec=%.4f\n" i
               r.Server.query r.Server.est_cost r.Server.queue_wait
               r.Server.exec_time)
         worst);
    let p99 = latency_percentile lats 0.99 in
    Hashtbl.replace p99s (load, domains, Scheduler.policy_name policy) p99;
    [
      string_of_int load;
      string_of_int domains;
      Scheduler.policy_name policy;
      Report.seconds wall;
      Printf.sprintf "%.0f" (float_of_int load /. wall);
      ms (latency_percentile lats 0.5);
      ms (latency_percentile lats 0.95);
      ms p99;
      (if List.length results = load && serve_digests_ok expect results then
         "ok"
       else "MISMATCH");
    ]
  in
  let widths = [ 1; max 2 s.domains ] in
  let rows =
    List.concat_map
      (fun load ->
        List.concat_map
          (fun domains ->
            List.map
              (fun policy -> row ~load ~domains ~policy)
              [ Scheduler.Fifo; Scheduler.Cost_aware ])
          widths)
      [ 100; 1000 ]
  in
  (* a deeper soak at the widest point, cost-aware only *)
  let soak = row ~load:10_000 ~domains:(max 2 s.domains) ~policy:Scheduler.Cost_aware in
  Report.table
    ~title:
      "mixed-cost serving (heavy burst first; digests vs single-session runs)"
    ~headers:
      [ "load"; "width"; "policy"; "wall"; "qps"; "p50 ms"; "p95 ms"; "p99 ms"; "digests" ]
    (rows @ [ soak ]);
  let w = max 2 s.domains in
  match
    ( Hashtbl.find_opt p99s (1000, w, "fifo"),
      Hashtbl.find_opt p99s (1000, w, "cost-aware") )
  with
  | Some f, Some c ->
      Printf.printf
        "p99 at load 1000, width %d: fifo %sms vs cost-aware %sms — %s\n" w
        (ms f) (ms c)
        (if c < f then "cost-aware wins" else "FIFO wins (unexpected)")
  | _ -> ()

(* The deterministic serving entry of the metrics dump: every statement
   of the corpus twice across two sessions on a width-2 pool, so the
   second round is all plan-cache hits. Counters (submitted, completed,
   cache hits/misses, per-session query counts) are exact for a fixed
   corpus; only the histograms carry wall-clock. *)
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

(* ---------------------------------------------------------------------- *)
(* Telemetry: always-on flight recorder overhead and tail sampling         *)
(* ---------------------------------------------------------------------- *)

module Telemetry = Qs_obs.Telemetry
module Flight = Qs_obs.Flight

let telemetry_sweep s =
  Report.section
    "Telemetry: always-on flight recorder — overhead and tail sampling";
  let env, queries = cinema_env s in
  let costed = costed_corpus env queries in
  let classes = serve_classes env costed in
  let expect =
    expected_digests env (costed @ Array.to_list classes.heavies)
  in
  let domains = max 2 s.domains in
  let load = 1000 in
  (* overhead: identical mixed-cost serving runs with the recorder off
     and on; best of 3 per mode so scheduler noise doesn't masquerade
     as recorder cost *)
  let best telemetry =
    let rec go n (best_wall, best_results) =
      if n = 0 then (best_wall, best_results)
      else
        let results, wall =
          serve_run s ~telemetry ~domains ~policy:Scheduler.Cost_aware ~load
            env classes
        in
        go (n - 1)
          (if wall < best_wall then (wall, results)
           else (best_wall, best_results))
    in
    go 3 (infinity, [])
  in
  let wall_off, res_off = best Telemetry.disabled in
  let wall_on, res_on = best Telemetry.default_config in
  let row label wall results =
    [
      label;
      string_of_int load;
      string_of_int domains;
      Report.seconds wall;
      Printf.sprintf "%.0f" (float_of_int load /. wall);
      (if List.length results = load && serve_digests_ok expect results then
         "ok"
       else "MISMATCH");
    ]
  in
  Report.table
    ~title:"serving wall-clock, flight recorder off vs on (best of 3)"
    ~headers:[ "telemetry"; "load"; "width"; "wall"; "qps"; "digests" ]
    [ row "off" wall_off res_off; row "on" wall_on res_on ];
  Printf.printf "recorder overhead: %+.2f%% (acceptance: < 2%%)\n"
    (100.0 *. (wall_on -. wall_off) /. wall_off);
  (* tail sampling: a light stream with a sprinkling of dead-on-arrival
     deadlines; every error flight must keep its full span tree, while
     successes keep theirs only above the slow quantile *)
  Qs_util.Pool.with_pool ~domains (fun pool ->
      let config =
        {
          Server.default_config with
          Server.concurrency = domains;
          queue_limit = 512;
          telemetry =
            {
              Telemetry.default_config with
              Telemetry.capacity = 512;
              min_samples = 16;
            };
        }
      in
      let server =
        Server.create ~config ~pool env.Runner.registry Estimator.default
      in
      List.iteri
        (fun i q ->
          let deadline = if i mod 25 = 0 then Some 0.0 else None in
          ignore
            (Server.submit server
               ~session:("s" ^ string_of_int (i mod 4))
               ?deadline q))
        (List.init 400 (fun i ->
             classes.lights.(i mod Array.length classes.lights)));
      Server.drain server;
      let snap = Server.telemetry_snapshot server in
      let recent = snap.Telemetry.s_recent in
      let part p = List.partition p recent in
      let errors, successes =
        part (fun (r : Flight.record) -> r.Flight.r_status <> Flight.Completed)
      in
      let sampled = List.filter (fun (r : Flight.record) -> r.Flight.r_sampled) in
      Printf.printf
        "tail sampling over %d retained flights: %d/%d error flights kept \
         full span trees (must be all), %d/%d successes (slow quantile %.2f)\n"
        (List.length recent)
        (List.length (sampled errors))
        (List.length errors)
        (List.length (sampled successes))
        (List.length successes)
        config.Server.telemetry.Telemetry.slow_quantile;
      let counter name =
        Option.value (List.assoc_opt name snap.Telemetry.s_counters) ~default:0
      in
      Printf.printf
        "flight counters: journal steps=%d intermediates=%d \
         partition-reuses=%d bufpool faults=%d bypasses=%d\n"
        (counter "journal_steps")
        (counter "intermediate_tables")
        (counter "partition_reuses") (counter "faults") (counter "bypasses"))

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
   (row chunks) and spilled (column-major frames, through a pool large
   enough to hold every frame). Chunk counts, vectorized-kernel
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
  let run () =
    let tbl = Table.create ~chunk_rows:1024 ~name:"c" ~schema rows in
    let v0 = Executor.vectorized_chunks () in
    let filtered = Executor.filter_table tbl filters in
    let agged = Relop.aggregate ~name:"g" ~group_by ~aggs tbl in
    let vec = Executor.vectorized_chunks () - v0 in
    let ser = ref 0 in
    Table.iter_chunk_data
      (fun _ c -> ser := !ser + Chunk_file.ser_chunk_size c)
      tbl;
    ( Runner.result_digest filtered ^ Runner.result_digest agged,
      Table.n_rows filtered,
      vec,
      !ser,
      Table.n_chunks tbl )
  in
  let d_res, kept_res, _, _, chunks = run () in
  let d_spill, kept_spill, vec, ser, _ =
    with_spill ~capacity:64 (fun _bp -> run ())
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

let metrics_json s =
  json_of_labelled
    ~extra:
      [
        ("serve", serve_metrics_entry s);
        ("io", io_metrics_entry s);
        ("pipeline", pipeline_metrics_entry s);
        ("telemetry", telemetry_metrics_entry s);
        ("columnar", columnar_metrics_entry s);
      ]
    s (metrics_results s)

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
  fig16_19 s;
  ablation s;
  metrics s;
  par_sweep s;
  scan_sweep s;
  io_sweep s;
  dp_sweep s;
  pipeline_sweep s;
  serve_sweep s;
  telemetry_sweep s
