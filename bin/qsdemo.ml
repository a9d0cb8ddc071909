(* qsdemo: run any workload under any re-optimization strategy, or inspect
   how a query is planned and split.

     dune exec bin/qsdemo.exe -- run --workload cinema --algo querysplit
     dune exec bin/qsdemo.exe -- run --workload dsb --algo pop --index pk
     dune exec bin/qsdemo.exe -- run --explain -n 3        # EXPLAIN ANALYZE
     dune exec bin/qsdemo.exe -- run --profile -n 4        # span profile + journal
     dune exec bin/qsdemo.exe -- run --serve -n 20 --domains 2  # serving front end
     dune exec bin/qsdemo.exe -- run --serve --policy fifo -n 20
     dune exec bin/qsdemo.exe -- run --serve --stats-out /tmp/qs.stats -n 50
     dune exec bin/qsdemo.exe -- top --file /tmp/qs.stats       # live dashboard
     dune exec bin/qsdemo.exe -- run --spill-dir /tmp/qs --buffer-chunks 8  # columnar frames
     dune exec bin/qsdemo.exe -- plan --workload cinema --query 3 *)

module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Buffer_pool = Qs_storage.Buffer_pool
module Query = Qs_query.Query
module Join_graph = Qs_query.Join_graph
module Estimator = Qs_stats.Estimator
module Optimizer = Qs_plan.Optimizer
module Physical = Qs_plan.Physical
module Strategy = Qs_core.Strategy
module Querysplit = Qs_core.Querysplit
module Runner = Qs_harness.Runner
module Algos = Qs_harness.Algos
module Executor = Qs_exec.Executor
module Explain = Qs_obs.Explain
module Profile = Qs_obs.Profile
module Span = Qs_util.Span
module Server = Qs_serve.Server
module Scheduler = Qs_serve.Scheduler
module Telemetry = Qs_obs.Telemetry

open Cmdliner

let algos =
  [
    ("querysplit", Algos.querysplit); ("default", Algos.default);
    ("optimal", Algos.optimal); ("reopt", Algos.reopt); ("pop", Algos.pop);
    ("ief", Algos.ief); ("perron19", Algos.perron); ("use", Algos.use);
    ("pessimistic", Algos.pessimistic); ("fs", Algos.fs);
    ("optrange", Algos.optrange); ("neurocard", Algos.neurocard);
    ("deepdb", Algos.deepdb); ("mscn", Algos.mscn);
  ]

let workload_arg =
  let doc = "Workload: cinema (JOB-like), starbench (TPC-H-like) or dsb." in
  Arg.(value & opt (enum [ ("cinema", `Cinema); ("starbench", `Star); ("dsb", `Dsb) ]) `Cinema
       & info [ "workload"; "w" ] ~doc)

let scale_arg =
  Arg.(value & opt float 0.3 & info [ "scale" ] ~doc:"Data scale factor.")

let seed_arg = Arg.(value & opt int 2023 & info [ "seed" ] ~doc:"Generator seed.")

let queries_arg =
  Arg.(value & opt int 20 & info [ "queries"; "n" ] ~doc:"Number of JOB-like queries.")

let timeout_arg =
  Arg.(value & opt float 30.0 & info [ "timeout" ] ~doc:"Per-query timeout (s).")

let index_arg =
  let doc = "Index configuration: pk or pkfk." in
  Arg.(value & opt (enum [ ("pk", Catalog.Pk_only); ("pkfk", Catalog.Pk_fk) ]) Catalog.Pk_fk
       & info [ "index" ] ~doc)

let algo_arg =
  let doc = "Algorithm: " ^ String.concat ", " (List.map fst algos) ^ "." in
  Arg.(value & opt (enum algos) Algos.querysplit & info [ "algo"; "a" ] ~doc)

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains" ]
           ~doc:
             "Fan queries across this many domains (1 = sequential); each \
              query runs on one domain.")

let spill_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "spill-dir" ]
           ~doc:
             "Run fully out-of-core: each base table spills its chunks to \
              files under this directory as the catalog is built and is \
              read back through one buffer pool (see --buffer-chunks); \
              every intermediate and temp built from them inherits that \
              directory and pool. Spilled chunks \
              fault back in column-major, which the vectorized filter \
              kernels exploit; resident tables keep row arrays. Results \
              are identical to in-memory execution.")

let buffer_chunks_arg =
  Arg.(value & opt int 64
       & info [ "buffer-chunks" ]
           ~doc:
             "Buffer-pool capacity in chunk frames (with --spill-dir). \
              Pools smaller than the working set evict under CLOCK \
              second-chance; a pool of 1 still executes every query, \
              just with more I/O.")

(* the home the workload builder writes each base table to as it makes
   it; every table built from them inherits the dir and pool *)
let spill_home tracer spill_dir buffer_chunks =
  Option.map
    (fun dir ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let pool = Buffer_pool.create ~capacity:buffer_chunks () in
      Buffer_pool.set_tracer pool tracer;
      (dir, pool))
    spill_dir

let stats_arg =
  Arg.(value & opt bool true
       & info [ "collect-stats" ] ~doc:"ANALYZE materialized temps (the §6.4 switch).")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:
             "Record spans during the run and print the text profile: \
              per-phase time breakdown, per-domain utilization, pool \
              queue-wait percentiles and the re-optimization journal \
              (one line per reopt step: selected subquery, score, \
              estimated vs. observed cardinality, replan decision).")

let serve_arg =
  Arg.(value & flag
       & info [ "serve" ]
           ~doc:
             "Route the queries through the concurrent serving front end \
              (bounded admission queue, cost-aware scheduling with aging, \
              shared epoch-stamped plan cache) instead of the plain runner. \
              Pool width and concurrency follow --domains. Cinema workload \
              only.")

let policy_arg =
  let policy_conv =
    let parse s =
      match Scheduler.policy_of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg ("unknown policy " ^ s ^ " (fifo | cost-aware)"))
    in
    let print ppf p = Format.pp_print_string ppf (Scheduler.policy_name p) in
    Arg.conv (parse, print)
  in
  Arg.(value & opt policy_conv Scheduler.Cost_aware
       & info [ "policy" ]
           ~doc:"Serving scheduler policy (--serve only): fifo or cost-aware.")

let stats_out_arg =
  Arg.(value & opt (some string) None
       & info [ "stats-out" ]
           ~doc:
             "With --serve: publish the flight recorder's live text \
              dashboard to this file as queries complete (atomic \
              write-then-rename, throttled to ~2 Hz, plus a final frame), \
              so `qsdemo top --file ...` in another terminal renders the \
              run while it is in flight.")

let prom_out_arg =
  Arg.(value & opt (some string) None
       & info [ "prom-out" ]
           ~doc:
             "With --serve: write the telemetry counters and latency \
              quantiles in Prometheus text exposition format to this file \
              when the run finishes.")

let explain_arg =
  Arg.(value & flag
       & info [ "explain" ]
           ~doc:
             "EXPLAIN ANALYZE: execute the optimizer's plan on the pipelined \
              engine and print the tree annotated with per-node estimated \
              vs. actual cardinality, Q-error and input volume, plus the \
              pipeline and breaker times.")

(* EXPLAIN ANALYZE one SPJ query: optimize it whole (the strategies execute
   many plans; the annotated tree belongs to a single one), run it with a
   span tracer, render from the run's stats and spans. *)
let explain_query cat registry (q : Query.t) =
  let ctx = Strategy.make_ctx registry Estimator.default in
  let frag = Strategy.fragment_of_query ctx q in
  let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
  let spans = Span.create () in
  let table, stats = Executor.run ~spans plan in
  Printf.printf "%s\n%s-- %s; %d result rows\n" (Query.to_sql q)
    (Explain.render ~stats ~spans plan)
    (Explain.summary ~stats plan) (Table.n_rows table)

let build_cinema ?spill ~scale ~seed ~index () =
  let cat = Qs_workload.Cinema.build ~scale ?spill ~seed () in
  Catalog.build_indexes cat index;
  cat

(* Atomically publish a dashboard frame: write beside the target and
   rename over it, so a concurrent `qsdemo top` never reads a torn
   frame. *)
let publish_file path text =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc -> output_string oc text);
  Sys.rename tmp path

(* Serve the cinema queries through the concurrent front end: two
   interleaved sessions over one shared pool, per-query turnaround
   reported alongside the server's own counters. With --stats-out the
   flight recorder's dashboard is republished as results arrive. *)
let serve_demo ?spill ~scale ~seed ~n ~index ~domains ~policy ~stats_out
    ~prom_out tracer =
  let cat = build_cinema ?spill ~scale ~seed ~index () in
  let env = Runner.make_env ~seed cat in
  let queries = Qs_workload.Cinema.queries cat ~seed:(seed + 1) ~n in
  Qs_util.Pool.with_pool ?tracer ~domains:(max 1 domains) (fun pool ->
      let config =
        { Server.default_config with
          Server.policy;
          concurrency = max 1 domains;
        }
      in
      let server =
        Server.create ~config ?spans:tracer ~pool env.Runner.registry
          Estimator.default
      in
      Printf.printf
        "serving %d cinema queries over 2 sessions (%s scheduling, pool width \
         %d)\n"
        (List.length queries)
        (Scheduler.policy_name policy)
        (Qs_util.Pool.size pool);
      let last_frame = ref neg_infinity in
      let publish_stats ~force () =
        match stats_out with
        | None -> ()
        | Some path ->
            let now = Qs_util.Timer.now () in
            if force || now -. !last_frame >= 0.5 then (
              last_frame := now;
              publish_file path
                (Telemetry.render (Server.telemetry_snapshot server)))
      in
      let tickets =
        List.mapi
          (fun i q ->
            Server.submit server ~session:(Printf.sprintf "s%d" (i mod 2)) q)
          queries
      in
      publish_stats ~force:false ();
      let rs =
        List.map
          (fun tk ->
            let r = Server.await server tk in
            publish_stats ~force:false ();
            r)
          tickets
      in
      Server.drain server;
      publish_stats ~force:true ();
      (match prom_out with
      | None -> ()
      | Some path ->
          publish_file path (Telemetry.to_prometheus (Server.telemetry server)));
      List.iter
        (fun (r : Server.result) ->
          let status =
            match r.Server.status with
            | Server.Completed -> ""
            | Server.Deadline_exceeded -> " DEADLINE"
            | Server.Cancelled -> " CANCELLED"
            | Server.Failed msg -> " FAILED: " ^ msg
          in
          Printf.printf
            "  %-14s %s  wait %8.4fs  exec %8.4fs  rows=%-6d%s%s\n"
            r.Server.query r.Server.session r.Server.queue_wait
            r.Server.exec_time r.Server.row_count
            (if r.Server.cache_hit then "  cached-plan" else "")
            status)
        rs;
      let m = Server.metrics server in
      Printf.printf
        "completed %d/%d; plan cache %d hits / %d misses; %d scheduling \
         rounds; peak queue %d\n"
        (Qs_obs.Metrics.counter m "completed")
        (Qs_obs.Metrics.counter m "submitted")
        (Qs_obs.Metrics.counter m "plan_cache_hits")
        (Qs_obs.Metrics.counter m "plan_cache_misses")
        (Qs_obs.Metrics.counter m "rounds")
        (Server.peak_queue server))

let run_cmd workload scale seed n timeout index algo collect_stats domains
    explain profile serve policy stats_out prom_out spill_dir buffer_chunks =
  let tracer = if profile then Some (Span.create ()) else None in
  let spill = spill_home tracer spill_dir buffer_chunks in
  let print_profile () =
    match tracer with
    | None -> ()
    | Some tr ->
        print_newline ();
        print_string (Profile.summary tr)
  in
  match workload with
  | `Cinema when serve ->
      serve_demo ?spill ~scale ~seed ~n ~index ~domains ~policy ~stats_out
        ~prom_out tracer;
      print_profile ()
  | (`Star | `Dsb) when serve ->
      prerr_endline "--serve is only supported for the cinema (SPJ) workload";
      exit 1
  | `Cinema when explain ->
      let cat = build_cinema ?spill ~scale ~seed ~index () in
      let env = Runner.make_env ~seed cat in
      let queries = Qs_workload.Cinema.queries cat ~seed:(seed + 1) ~n in
      List.iteri
        (fun i q ->
          if i > 0 then print_newline ();
          explain_query cat env.Runner.registry q)
        queries
  | `Cinema ->
      let cat = build_cinema ?spill ~scale ~seed ~index () in
      let env = Runner.make_env ~seed cat in
      let queries = Qs_workload.Cinema.queries cat ~seed:(seed + 1) ~n in
      Printf.printf "%s on %d cinema queries (scale %.2f)\n" algo.Runner.label
        (List.length queries) scale;
      let rs =
        Runner.run_spj ~collect_stats ~timeout ~domains ?tracer env algo queries
      in
      List.iter
        (fun (r : Runner.qresult) ->
          Printf.printf "  %-14s %8.4fs%s  mats=%d (%s)\n" r.Runner.query r.Runner.time
            (if r.Runner.timed_out then " TIMEOUT" else "")
            r.Runner.mats
            (Qs_harness.Report.bytes_mb r.Runner.mat_bytes))
        rs;
      Printf.printf "total: %s\n" (Qs_harness.Report.seconds (Runner.total_time rs));
      print_profile ()
  | (`Star | `Dsb) when explain ->
      prerr_endline "--explain is only supported for the cinema (SPJ) workload";
      exit 1
  | `Star | `Dsb ->
      let cat, trees =
        match workload with
        | `Star ->
            let cat = Qs_workload.Starbench.build ~scale ?spill ~seed () in
            (cat, Qs_workload.Starbench.queries cat ~seed:(seed + 1))
        | _ ->
            let cat = Qs_workload.Dsb.build ~scale ?spill ~seed () in
            (cat, Qs_workload.Dsb.nonspj_queries cat ~seed:(seed + 1))
      in
      Catalog.build_indexes cat index;
      let env = Runner.make_env ~seed cat in
      Printf.printf "%s on %d non-SPJ queries\n" algo.Runner.label (List.length trees);
      let rs =
        Runner.run_logical ~collect_stats ~timeout ~domains ?tracer env algo trees
      in
      List.iter
        (fun (r : Runner.qresult) ->
          Printf.printf "  %-14s %8.4fs%s\n" r.Runner.query r.Runner.time
            (if r.Runner.timed_out then " TIMEOUT" else ""))
        rs;
      Printf.printf "total: %s\n" (Qs_harness.Report.seconds (Runner.total_time rs));
      print_profile ()

let plan_cmd scale seed qidx =
  let cat = build_cinema ~scale ~seed ~index:Catalog.Pk_fk () in
  let env = Runner.make_env ~seed cat in
  let queries = Qs_workload.Cinema.queries cat ~seed:(seed + 1) ~n:(qidx + 1) in
  let q = List.nth queries qidx in
  print_endline (Query.to_sql q);
  Format.printf "@.%a@." Join_graph.pp (Join_graph.build cat q);
  let ctx = Strategy.make_ctx env.Runner.registry Estimator.default in
  let frag = Strategy.fragment_of_query ctx q in
  Printf.printf "--- default plan ---\n";
  print_string (Physical.to_string (Optimizer.optimize cat Estimator.default frag).Optimizer.plan);
  Printf.printf "\n--- optimal plan (true cardinalities) ---\n";
  let oracle = Estimator.oracle ~exec:env.Runner.oracle_exec in
  print_string (Physical.to_string (Optimizer.optimize cat oracle frag).Optimizer.plan);
  Printf.printf "\n--- QuerySplit subqueries (RCenter) ---\n";
  List.iter
    (fun (sq, cost, rows) ->
      Printf.printf "%s (est cost %.1f, est rows %.0f)\n%s\n\n" sq.Query.name cost rows
        (Query.to_sql sq))
    (Querysplit.subquery_plans ctx q Querysplit.default_config)

let sql_cmd workload scale seed index explain sql_text =
  let cat =
    match workload with
    | `Cinema -> build_cinema ~scale ~seed ~index ()
    | `Star ->
        let c = Qs_workload.Starbench.build ~scale ~seed () in
        Catalog.build_indexes c index;
        c
    | `Dsb ->
        let c = Qs_workload.Dsb.build ~scale ~seed () in
        Catalog.build_indexes c index;
        c
  in
  match Qs_query.Sql.parse_result sql_text with
  | Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 1
  | Ok q -> (
      match Query.validate cat q with
      | Error msg ->
          Printf.eprintf "invalid query: %s\n" msg;
          exit 1
      | Ok () when explain ->
          let env = Runner.make_env ~seed cat in
          explain_query cat env.Runner.registry q
      | Ok () ->
          let env = Runner.make_env ~seed cat in
          let ctx = Strategy.make_ctx env.Runner.registry Estimator.default in
          let outcome =
            (Querysplit.strategy Querysplit.default_config).Strategy.run ctx q
          in
          List.iter
            (fun (it : Strategy.iteration) ->
              Printf.printf "iter %d: %-24s est=%-10.0f actual=%-8d %.4fs\n"
                it.Strategy.index it.Strategy.description it.Strategy.est_rows
                it.Strategy.actual_rows it.Strategy.elapsed)
            outcome.Strategy.iterations;
          Printf.printf "\n%d rows in %.4fs\n"
            (Table.n_rows outcome.Strategy.result)
            outcome.Strategy.elapsed;
          Format.printf "%a" (Table.pp_sample ~limit:20) outcome.Strategy.result)

(* `qsdemo top`: live dashboard over a stats file published by
   `run --serve --stats-out`. Rereads the file every --interval seconds
   and reprints it, clearing the screen between frames when stdout is a
   terminal; the publisher's write-then-rename keeps every frame whole. *)
let top_cmd file interval iterations =
  let clear = Unix.isatty Unix.stdout in
  let frame i =
    let text =
      try Some (In_channel.with_open_text file In_channel.input_all)
      with Sys_error _ -> None
    in
    if clear then print_string "\027[H\027[2J";
    (match text with
    | Some s ->
        if (not clear) && i > 0 then print_endline "---";
        print_string s
    | None -> Printf.printf "qsdemo top: waiting for %s ...\n" file);
    flush stdout
  in
  let rec loop i =
    if iterations = 0 || i < iterations then (
      frame i;
      if iterations = 0 || i + 1 < iterations then Unix.sleepf interval;
      loop (i + 1))
  in
  loop 0

let run_term =
  Term.(
    const run_cmd $ workload_arg $ scale_arg $ seed_arg $ queries_arg $ timeout_arg
    $ index_arg $ algo_arg $ stats_arg $ domains_arg $ explain_arg
    $ profile_arg $ serve_arg $ policy_arg $ stats_out_arg $ prom_out_arg
    $ spill_dir_arg
    $ buffer_chunks_arg)

let query_arg =
  Arg.(value & opt int 0 & info [ "query"; "q" ] ~doc:"Query index to inspect.")

let plan_term =
  Term.(
    const plan_cmd $ scale_arg $ seed_arg $ query_arg)

let sql_text_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The SQL text.")

let sql_term =
  Term.(
    const sql_cmd $ workload_arg $ scale_arg $ seed_arg $ index_arg $ explain_arg
    $ sql_text_arg)

let top_file_arg =
  Arg.(required & opt (some string) None
       & info [ "file"; "f" ] ~docv:"FILE"
           ~doc:"Stats file published by `run --serve --stats-out`.")

let top_interval_arg =
  Arg.(value & opt float 1.0
       & info [ "interval"; "i" ] ~doc:"Seconds between dashboard refreshes.")

let top_iterations_arg =
  Arg.(value & opt int 0
       & info [ "iterations" ]
           ~doc:"Stop after this many frames (0 = refresh until interrupted).")

let top_term =
  Term.(const top_cmd $ top_file_arg $ top_interval_arg $ top_iterations_arg)

let () =
  let run =
    Cmd.v (Cmd.info "run" ~doc:"Run a workload under an algorithm") run_term
  in
  let plan =
    Cmd.v (Cmd.info "plan" ~doc:"Inspect planning and query splitting") plan_term
  in
  let sql =
    Cmd.v
      (Cmd.info "sql" ~doc:"Run an SPJ SQL query through QuerySplit")
      sql_term
  in
  let top =
    Cmd.v
      (Cmd.info "top"
         ~doc:"Render a --stats-out file as a live serving dashboard")
      top_term
  in
  let group =
    Cmd.group
      (Cmd.info "qsdemo" ~doc:"QuerySplit demonstration CLI" ~version:"1.0")
      [ run; plan; sql; top ]
  in
  exit (Cmd.eval group)
