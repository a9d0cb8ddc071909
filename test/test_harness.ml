(* The benchmark harness: runner metrics, estimator-time exclusion,
   timeout accounting, report rendering. *)

module Catalog = Qs_storage.Catalog
module Estimator = Qs_stats.Estimator
module Runner = Qs_harness.Runner
module Algos = Qs_harness.Algos
module Report = Qs_harness.Report
module Strategy = Qs_core.Strategy

let small_env () =
  let cat = Lazy.force Fixtures.cinema in
  Catalog.build_indexes cat Catalog.Pk_fk;
  Runner.make_env ~seed:11 cat

let queries () =
  let all = Lazy.force Fixtures.cinema_queries in
  List.filteri (fun i _ -> i < 4) all

let test_run_spj_metrics () =
  let env = small_env () in
  let rs = Runner.run_spj ~timeout:20.0 env Algos.querysplit (queries ()) in
  Alcotest.(check int) "one result per query" 4 (List.length rs);
  List.iter
    (fun (r : Runner.qresult) ->
      Alcotest.(check bool) "time >= 0" true (r.Runner.time >= 0.0);
      Alcotest.(check bool) "not timed out" false r.Runner.timed_out;
      Alcotest.(check bool) "bytes consistent" true
        (r.Runner.mat_bytes >= 0 && (r.Runner.mats = 0 || r.Runner.mat_bytes > 0)))
    rs

let test_total_time () =
  let env = small_env () in
  let rs = Runner.run_spj ~timeout:20.0 env Algos.default (queries ()) in
  let total = Runner.total_time rs in
  let manual = List.fold_left (fun a (r : Runner.qresult) -> a +. r.Runner.time) 0.0 rs in
  Alcotest.(check (float 1e-9)) "sum" manual total

let test_estimation_time_excluded () =
  (* the oracle's first pass executes fragments; reported engine time must
     stay within the same magnitude as the default's *)
  let env = small_env () in
  let d = Runner.total_time (Runner.run_spj ~timeout:20.0 env Algos.default (queries ())) in
  let o = Runner.total_time (Runner.run_spj ~timeout:20.0 env Algos.optimal (queries ())) in
  Alcotest.(check bool)
    (Printf.sprintf "optimal %.4f not absurdly above default %.4f" o d)
    true
    (o < Float.max (10.0 *. d) 1.0)

let test_timeout_counts_full () =
  let env = small_env () in
  let rs = Runner.run_spj ~timeout:0.000001 env Algos.default (queries ()) in
  List.iter
    (fun (r : Runner.qresult) ->
      Alcotest.(check bool) "timed out" true r.Runner.timed_out;
      Alcotest.(check (float 1e-9)) "full timeout charged" 0.000001 r.Runner.time)
    rs

let test_run_logical () =
  let cat = Qs_workload.Starbench.build ~scale:0.05 ~seed:1 () in
  Catalog.build_indexes cat Catalog.Pk_fk;
  let env = Runner.make_env cat in
  let trees =
    List.filteri (fun i _ -> i < 3) (Qs_workload.Starbench.queries cat ~seed:2)
  in
  let rs = Runner.run_logical ~timeout:20.0 env Algos.querysplit trees in
  Alcotest.(check int) "3 results" 3 (List.length rs);
  List.iter
    (fun (r : Runner.qresult) -> Alcotest.(check bool) "ok" false r.Runner.timed_out)
    rs

let test_report_rendering () =
  (* must not raise on ragged content *)
  Report.table ~title:"t" ~headers:[ "a"; "b" ] [ [ "1"; "2" ]; [ "longer"; "x" ] ];
  Report.series ~title:"s" ~x_label:"x" [ ("line", [ ("0", 1.0); ("1", 2.0) ]) ];
  Alcotest.(check string) "seconds" "1.500s" (Report.seconds 1.5);
  Alcotest.(check string) "mb" "1.00MB" (Report.bytes_mb (1024 * 1024))

let test_fig11_roster_complete () =
  let labels = List.map (fun a -> a.Runner.label) Algos.fig11_roster in
  List.iter
    (fun l -> Alcotest.(check bool) (l ^ " present") true (List.mem l labels))
    [
      "Default"; "Optimal"; "Reopt"; "Pop"; "IEF"; "Perron19"; "USE"; "Pessi."; "FS";
      "OptRange"; "NeuroCard"; "DeepDB"; "MSCN"; "QuerySplit";
    ];
  Alcotest.(check int) "14 algorithms" 14 (List.length labels)

let test_warm_flags () =
  List.iter
    (fun (a : Runner.algo) ->
      let expected =
        List.mem a.Runner.label [ "Optimal"; "NeuroCard"; "DeepDB"; "MSCN" ]
      in
      Alcotest.(check bool) (a.Runner.label ^ " warm flag") expected a.Runner.warm)
    Algos.fig11_roster

let test_parallel_run_matches_sequential () =
  (* same env, same queries: fanning cells across domains must not change
     results (digests) or merged metric counters — only wall-clock — for
     any of the re-optimizers *)
  let qs = queries () in
  List.iter
    (fun algo ->
      let seq = Runner.run_spj ~timeout:20.0 (small_env ()) algo qs in
      let par = Runner.run_spj ~timeout:20.0 ~domains:2 (small_env ()) algo qs in
      let label = algo.Runner.label in
      Alcotest.(check int) "same cardinality" (List.length seq) (List.length par);
      List.iter2
        (fun (a : Runner.qresult) (b : Runner.qresult) ->
          Alcotest.(check string) "query order preserved" a.Runner.query b.Runner.query;
          Alcotest.(check string)
            (label ^ ": digest of " ^ a.Runner.query)
            a.Runner.digest b.Runner.digest;
          Alcotest.(check int) (label ^ ": materializations") a.Runner.mats b.Runner.mats)
        seq par;
      let ms = Runner.metrics_of_results seq and mp = Runner.metrics_of_results par in
      let module Metrics = Qs_obs.Metrics in
      Alcotest.(check (list string)) (label ^ ": counter names") (Metrics.counter_names ms)
        (Metrics.counter_names mp);
      List.iter
        (fun name ->
          Alcotest.(check int) (label ^ ": counter " ^ name) (Metrics.counter ms name)
            (Metrics.counter mp name))
        (Metrics.counter_names ms))
    Algos.reopt_roster

let suite =
  [
    Alcotest.test_case "run_spj metrics" `Quick test_run_spj_metrics;
    Alcotest.test_case "total time" `Quick test_total_time;
    Alcotest.test_case "estimation excluded" `Slow test_estimation_time_excluded;
    Alcotest.test_case "timeout accounting" `Quick test_timeout_counts_full;
    Alcotest.test_case "run_logical" `Quick test_run_logical;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "fig11 roster" `Quick test_fig11_roster_complete;
    Alcotest.test_case "warm flags" `Quick test_warm_flags;
    Alcotest.test_case "parallel run matches sequential" `Quick
      test_parallel_run_matches_sequential;
  ]
