(** One entry point per table / figure of the paper's evaluation (§6).

    Each function builds the workload it needs, runs the relevant
    algorithms and prints the table rows / data series the paper reports.
    Absolute numbers differ from the paper (different machine, synthetic
    data, an in-memory engine); the *shape* — rankings, rough factors,
    crossovers — is what reproduces. See EXPERIMENTS.md for the recorded
    comparison. *)

type setup = {
  scale : float;  (** workload scale factor *)
  seed : int;
  n_queries : int;  (** JOB-like query count (paper: 91) *)
  timeout : float;  (** per-query cap in seconds (paper: 1000 s) *)
  domains : int;
      (** harness parallelism: queries of a run fan out across this many
          domains (1 = sequential) *)
  tracer : Qs_util.Span.t option;
      (** span tracer threaded through every runner invocation; [None]
          (the default) keeps all experiments trace-free *)
}

val default_setup : setup

val table1 : setup -> unit
(** Similarity of the default optimizer's plan vs. the optimal plan. *)

val table3 : setup -> unit
(** QSA × SSA policy grid, total JOB-like time. *)

val fig10 : setup -> unit
(** Robustness under injected CE noise (σ and µ sweeps). *)

val fig11 : setup -> unit
(** End-to-end JOB-like comparison, Pk-only and Pk+Fk indexes. *)

val table4 : setup -> unit
(** Materialization frequency and memory of the re-optimizers. *)

val fig12 : setup -> unit
(** TPC-H-like (Starbench) end-to-end, non-SPJ strategies. *)

val fig13 : setup -> unit
(** DSB SPJ queries end-to-end. *)

val fig14 : setup -> unit
(** DSB non-SPJ queries end-to-end. *)

val fig15 : setup -> unit
(** Collecting statistics on materialized temps: on vs. off. *)

val table5 : setup -> unit
(** Existing re-optimizers driven by the Φ cost functions. *)

val table6 : setup -> unit
(** Query categorisation (Avoided / Delayed / NoDiff / Worse) with the
    average performance effect per category. *)

val fig16_19 : setup -> unit
(** Per-iteration re-optimization timelines for one representative query
    of each category. *)

val ablation : setup -> unit
(** Beyond the paper: ablates QuerySplit's implementation choices —
    subquery plan caching and column pruning at materialization. *)

val metrics_json : setup -> string
(** Machine-readable per-strategy metrics over the JOB-like workload
    (fig. 11 roster) plus one ["serve"] entry with the serving front
    end's deterministic counters (see {!serve_sweep}), one ["io"]
    entry with the buffer pool's deterministic fault counters and hit
    rate (see {!io_sweep}), one ["pipeline"] entry with the
    executor's deterministic intermediate-table and partition-reuse
    counters (see {!pipeline_sweep}), and one
    ["telemetry"] entry with the serving flight recorder's
    deterministic counters (see {!telemetry_sweep}), and one
    ["columnar"] entry with a fixed table's deterministic counters run
    resident (row chunks) and spilled (column-major frames):
    vectorized-kernel invocations, exact serialized frame sizes and
    digest equality between the two: the
    [Metrics.json_of_many] dump the bench tool writes with
    [--metrics-out] and [tools/bench_diff] compares. When
    [setup.tracer] is set, a synthetic ["phases"] entry carries the
    per-category span counts and time histograms. *)

val metrics : setup -> unit
(** Beyond the paper: the observability layer's per-strategy metrics
    report over the JOB-like workload — Q-error percentiles,
    re-optimization counts, materialization volume, timeout hits — as a
    human-readable table plus the machine-readable JSON blob (see
    EXPERIMENTS.md for the schema). *)

val par_sweep : setup -> unit
(** Beyond the paper: runs the re-optimizer roster sequentially and at
    [max 2 domains] domains, reporting wall-clock, speedup, and whether
    result digests and merged metric counters match the sequential
    run (they must). *)

val scan_sweep : setup -> unit
(** Beyond the paper: chunked scan throughput. A selective filter and
    a group-by aggregation run over a wide resident synthetic fact
    table, sequentially and on a domain pool, reporting rows/sec and
    the parallel speedup. Verifies the filter result is
    digest-identical across pool widths. *)

val io_sweep : setup -> unit
(** Beyond the paper: out-of-core execution through the buffer pool. A
    synthetic fact table is spilled to disk and a sequential filter +
    group-by runs at several pool capacities — from comfortably above
    the working set down to a single frame — with a 2-domain I/O pool
    prefetching ahead of the scan. Reports wall-clock vs the resident
    run, fault/eviction counters, and the async-I/O overlap (io-span
    time on I/O-worker tracks inside the run's Execute interval), and
    checks every out-of-core digest against the in-memory run. *)

val dp_sweep : setup -> unit
(** Beyond the paper: optimizer-focused sweep. A PK-FK chain join at 6,
    9 and 12 relations is optimized sequentially, with a [max 2 domains]
    pool, and replayed through a warm cross-step DP memo — reporting
    best-of-3 wall-clock, parallel speedup and memo hits, and asserting
    all three plans are byte-identical. A second table reports the
    cross-step memo hit rate of every re-optimizing strategy over a
    slice of the JOB-like workload. *)

val pipeline_sweep : setup -> unit
(** Beyond the paper: the morsel-driven pipelined executor, end to end.
    QuerySplit and one-shot execution run PK-FK chain and hub joins at
    10 and 12 relations, in memory (row chunks) and fully out-of-core
    (a 64-frame buffer pool, column-major frames), on a
    [max 2 domains] pool —
    reporting wall-clock, intermediate-table construction counts,
    partition-layout reuses across steps, and where the time went
    ([pipeline] vs [breaker] spans). Asserts every result digest equals
    naive execution's. *)

val serve_sweep : setup -> unit
(** Beyond the paper: the concurrent serving front end under load.
    Submits mixed-cost streams (a heavy analytical burst admitted ahead
    of a short interactive tail) of 10^2–10^4 queries at two pool
    widths under FIFO and cost-aware scheduling, reporting throughput
    and p50/p95/p99 turnaround latency per configuration, and checking
    every served result digest against plain single-session execution.
    Cost-aware scheduling is expected to beat FIFO on p99 for this
    workload. *)

val telemetry_sweep : setup -> unit
(** Beyond the paper: the always-on serving flight recorder. Repeats
    the mixed-cost serving run with telemetry off and on (best of 3)
    to bound the recorder's overhead — digests must stay identical and
    the acceptance target is < 2% — then drives a light stream with a
    sprinkling of dead-on-arrival deadlines through a telemetry-enabled
    server and reports the tail-sampling split: every error flight
    keeps its full span tree, successes only above the configured
    latency quantile. *)

val all : setup -> unit
