(* The robustness experiment of the paper's Figure 10, in miniature: inject
   controlled noise into the cardinality estimates QuerySplit's SSA ranking
   sees — err_card = 2^N(mu, sigma^2) * true_card — and watch how execution
   time degrades as sigma grows.

   Run with: dune exec examples/robust_reopt.exe *)

module Catalog = Qs_storage.Catalog
module Estimator = Qs_stats.Estimator
module Runner = Qs_harness.Runner
module Algos = Qs_harness.Algos
module Querysplit = Qs_core.Querysplit
module Qsa = Qs_core.Qsa
module Ssa = Qs_core.Ssa

let () =
  let cat = Qs_workload.Cinema.build ~scale:0.3 ~seed:21 () in
  Catalog.build_indexes cat Catalog.Pk_fk;
  let env = Runner.make_env ~seed:21 cat in
  let queries = Qs_workload.Cinema.queries cat ~seed:22 ~n:20 in
  Printf.printf "20 JOB-like queries, err_card = 2^N(0, sigma^2) * true_card\n\n";
  Printf.printf "%-12s" "sigma";
  List.iter (fun qsa -> Printf.printf " %14s" (Qsa.policy_name qsa)) Qsa.all_policies;
  print_newline ();
  List.iter
    (fun sigma ->
      Printf.printf "%-12g" sigma;
      List.iter
        (fun qsa ->
          let algo =
            {
              (Algos.querysplit_with { Querysplit.qsa; ssa = Ssa.Phi4 }) with
              Runner.warm = sigma > 0.0;
              estimator =
                (fun env ->
                  if sigma = 0.0 then Estimator.default
                  else
                    Estimator.noisy ~seed:21 ~mu:0.0 ~sigma
                      ~exec:env.Runner.oracle_exec);
            }
          in
          let rs = Runner.run_spj ~timeout:20.0 env algo queries in
          Printf.printf " %13.4fs" (Runner.total_time rs))
        Qsa.all_policies;
      print_newline ())
    [ 0.0; 0.5; 1.0; 2.0; 4.0 ]
