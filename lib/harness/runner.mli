(** Running workloads under algorithms and collecting the paper's metrics.

    Timing discipline: estimators that consult true cardinalities (oracle,
    noisy, learned simulators) *execute* fragments internally — work a
    real deployment would not do at query time (the paper's "Optimal" is
    handed true cardinalities; the noise injection of Fig. 10 perturbs
    numbers the optimizer already has). The runner therefore wraps the
    estimator and subtracts the time spent inside cardinality estimation
    from each query's elapsed time, reporting pure engine time. *)

module Catalog = Qs_storage.Catalog
module Query = Qs_query.Query
module Logical = Qs_plan.Logical
module Estimator = Qs_stats.Estimator
module Stats_registry = Qs_stats.Stats_registry
module Strategy = Qs_core.Strategy

type env = {
  catalog : Catalog.t;
  registry : Stats_registry.t;
  oracle_exec : Estimator.exec_fn;  (** memoized true-cardinality counter *)
  seed : int;
}

val make_env : ?seed:int -> Catalog.t -> env
(** The oracle executes fragments through {!Qs_exec.Naive}. *)

type algo = {
  label : string;
  strategy : Strategy.t;
  estimator : env -> Estimator.t;
  warm : bool;
      (** run each query once, untimed, before the timed run — used for
          oracle-backed estimators whose first pass executes fragments to
          learn true cardinalities (that acquisition is free in the
          paper's setting) *)
}

type qresult = {
  query : string;
  time : float;  (** engine seconds, estimation time excluded *)
  timed_out : bool;
  mats : int;  (** materializations counted for Table 4 *)
  mat_bytes : int;
  iterations : Strategy.iteration list;
  digest : string;
      (** canonical multiset digest of the result table — row- and
          column-order independent, so sequential and parallel runs can
          be compared byte-for-byte *)
  dp_memo_hits : int;
      (** cross-step DP-memo subset hits over the timed pass (every
          query gets a fresh memo; re-optimizing strategies score hits
          from their second optimize call on) *)
  dp_memo_misses : int;
}

val result_digest : Qs_storage.Table.t -> string
(** The canonical multiset digest used for [qresult.digest] (exposed for
    the differential tests). *)

val run_spj : ?collect_stats:bool -> ?timeout:float -> ?domains:int ->
  ?tracer:Qs_util.Span.t -> env -> algo ->
  Query.t list -> qresult list
(** [timeout] (default 30 s) is the per-query monotonic-clock cap; a
    timed-out query contributes the full timeout to aggregate times, as
    in the paper.

    [domains] (default 1) fans the per-query cells across that many
    domains; each query runs on the one domain that picked it up.
    Results come back in query order with identical digests and
    counters — only per-query wall-clock (and thus time histograms)
    varies.

    [tracer] records time-ordered spans for the timed pass (never the
    warm pass): one [execute] span per query, one aggregate [estimate]
    span per query, plus whatever the strategy, optimizer, executor and
    pools emit. Results are unchanged — tracing is observation-only. *)

val run_logical : ?collect_stats:bool -> ?timeout:float -> ?domains:int ->
  ?tracer:Qs_util.Span.t -> env -> algo ->
  Logical.t list -> qresult list

val total_time : qresult list -> float

val qresult_row : qresult -> string list

val metrics_of_results : qresult list -> Qs_obs.Metrics.t
(** Aggregate one strategy's results into a metrics registry: counters
    [queries], [timeouts], [iterations], [replans], [materializations],
    [dp_memo_hits], [dp_memo_misses]; histograms [qerror]
    (per-iteration, est vs. actual), [query_time_s] and [mat_bytes]
    (only queries that materialized contribute). *)

val metrics_report : (string * qresult list) list -> string
(** Machine-readable per-strategy report:
    [{"<label>": {"counters": ..., "histograms": ...}, ...}]. *)
