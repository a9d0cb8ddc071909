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

val metrics_json : setup -> string
(** The metrics golden: the [Metrics.json_of_many] dump the bench tool
    writes with [--metrics-out], and [dune runtest] compares byte for
    byte against the committed [BENCH.json]. One entry per fig. 11
    roster strategy over the JOB-like workload, then five fixed
    workloads:
    - ["serve"]: the serving front end (plan cache, scheduler);
    - ["io"]: buffer-pool faults and hit rate over a spilled table;
    - ["pipeline"]: executor intermediate tables over PK-FK chain and
      hub joins;
    - ["telemetry"]: the serving flight recorder;
    - ["columnar"]: a fixed table run resident and spilled —
      vectorized-kernel calls, serialized frame sizes, digest equality.

    Every counter is kept, and every histogram except the wall-clock
    ones (named [*_s]), so the dump is a pure function of the setup. *)

val all : setup -> unit
