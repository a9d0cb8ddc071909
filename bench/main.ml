(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the per-experiment index), plus Bechamel
   micro-benchmarks of the engine substrate.

   Usage:
     dune exec bench/main.exe                 # every experiment
     dune exec bench/main.exe -- table3 fig11 # selected experiments
     dune exec bench/main.exe -- micro        # substrate micro-benchmarks
     dune exec bench/main.exe -- --scale 0.2 --queries 40 --timeout 5 all
     dune exec bench/main.exe -- --trace-out trace.json fig11  # Chrome trace
     # the metrics golden: `dune runtest` runs this dump and diffs it
     # against the committed BENCH.json; `dune promote` accepts a change
     dune exec bench/main.exe -- --queries 12 --metrics-out BENCH.json *)

module Experiments = Qs_harness.Experiments

let experiments : (string * (Experiments.setup -> unit)) list =
  [
    ("table1", Experiments.table1);
    ("table3", Experiments.table3);
    ("fig10", Experiments.fig10);
    ("fig11", Experiments.fig11);
    ("table4", Experiments.table4);
    ("fig12", Experiments.fig12);
    ("fig13", Experiments.fig13);
    ("fig14", Experiments.fig14);
    ("fig15", Experiments.fig15);
    ("table5", Experiments.table5);
    ("table6", Experiments.table6);
    ("fig16_19", Experiments.fig16_19);
  ]

(* ---------------------------------------------------------------------- *)
(* Bechamel micro-benchmarks of the substrate                              *)
(* ---------------------------------------------------------------------- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let module Value = Qs_storage.Value in
  let module Btree = Qs_storage.Btree in
  let module Catalog = Qs_storage.Catalog in
  let module Estimator = Qs_stats.Estimator in
  let module Optimizer = Qs_plan.Optimizer in
  let module Executor = Qs_exec.Executor in
  let module Strategy = Qs_core.Strategy in
  let rng = Qs_util.Rng.create 99 in
  let keys = Array.init 50_000 (fun _ -> Value.Int (Qs_util.Rng.int rng 1_000_000)) in
  let tree =
    let t = Btree.create () in
    Array.iteri (fun i k -> Btree.insert t k i) keys;
    t
  in
  let cat = Qs_workload.Cinema.build ~scale:0.1 ~seed:3 () in
  Catalog.build_indexes cat Catalog.Pk_fk;
  let env = Qs_harness.Runner.make_env cat in
  let queries = Qs_workload.Cinema.queries cat ~seed:4 ~n:5 in
  let ctx = Strategy.make_ctx env.Qs_harness.Runner.registry Estimator.default in
  let frags = List.map (Strategy.fragment_of_query ctx) queries in
  let tests =
    [
      Test.make ~name:"btree_insert_50k"
        (Staged.stage (fun () ->
             let t = Btree.create () in
             Array.iteri (fun i k -> Btree.insert t k i) keys));
      Test.make ~name:"btree_lookup"
        (Staged.stage (fun () -> ignore (Btree.find tree keys.(17))));
      Test.make ~name:"analyze_title"
        (Staged.stage (fun () ->
             ignore (Qs_stats.Analyze.of_table (Catalog.table cat "title"))));
      Test.make ~name:"optimizer_dp_5_queries"
        (Staged.stage (fun () ->
             List.iter
               (fun f -> ignore (Optimizer.optimize cat Estimator.default f))
               frags));
      Test.make ~name:"executor_5_queries"
        (Staged.stage (fun () ->
             List.iter
               (fun f ->
                 let plan = (Optimizer.optimize cat Estimator.default f).Optimizer.plan in
                 ignore (Executor.run plan))
               frags));
    ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:(Some 10) () in
  let instance = Instance.monotonic_clock in
  Printf.printf "\nSubstrate micro-benchmarks (Bechamel, monotonic clock)\n";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Bechamel.Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-40s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-40s (no estimate)\n" name)
        stats)
    tests

(* ---------------------------------------------------------------------- *)

let () =
  let setup = ref Experiments.default_setup in
  let chosen = ref [] in
  let want_micro = ref false in
  let trace_out = ref None in
  let metrics_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        setup := { !setup with Experiments.scale = float_of_string v };
        parse rest
    | "--queries" :: v :: rest ->
        setup := { !setup with Experiments.n_queries = int_of_string v };
        parse rest
    | "--timeout" :: v :: rest ->
        setup := { !setup with Experiments.timeout = float_of_string v };
        parse rest
    | "--seed" :: v :: rest ->
        setup := { !setup with Experiments.seed = int_of_string v };
        parse rest
    | "--trace-out" :: v :: rest ->
        trace_out := Some v;
        parse rest
    | "--metrics-out" :: v :: rest ->
        metrics_out := Some v;
        parse rest
    | "micro" :: rest ->
        want_micro := true;
        parse rest
    | "all" :: rest ->
        chosen := List.map fst experiments;
        parse rest
    | name :: rest when List.mem_assoc name experiments ->
        chosen := !chosen @ [ name ];
        parse rest
    | name :: _ ->
        Printf.eprintf "unknown experiment %s; available: %s micro all\n" name
          (String.concat " " (List.map fst experiments));
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !trace_out <> None then
    setup := { !setup with Experiments.tracer = Some (Qs_util.Span.create ()) };
  (* no arguments: run everything, micro-benchmarks included — unless the
     invocation is a pure --metrics-out dump *)
  let default_run = !chosen = [] && (not !want_micro) && !metrics_out = None in
  if default_run then want_micro := true;
  let names = if default_run then List.map fst experiments else !chosen in
  let s = !setup in
  Printf.printf
    "QuerySplit benchmark harness — scale=%.2f, %d JOB-like queries, timeout=%.1fs, \
     seed=%d\n"
    s.Experiments.scale s.Experiments.n_queries s.Experiments.timeout
    s.Experiments.seed;
  List.iter
    (fun name ->
      let f = List.assoc name experiments in
      let t0 = Qs_util.Timer.now () in
      f s;
      Printf.printf "\n[%s finished in %.1fs]\n%!" name
        (Qs_util.Timer.elapsed ~since:t0))
    names;
  if !want_micro then micro ();
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Experiments.metrics_json s);
          output_char oc '\n');
      Printf.printf "wrote metrics JSON to %s\n%!" path)
    !metrics_out;
  match (!trace_out, s.Experiments.tracer) with
  | Some path, Some tr ->
      Qs_obs.Chrome_trace.write path tr;
      Printf.printf "wrote Chrome trace (%d spans) to %s\n%!"
        (Qs_util.Span.count tr) path
  | _ -> ()
