(** Physical-plan execution.

    One morsel-driven engine runs every join plan: filters and join
    probes fuse into streams of chunk-sized morsels — a morsel over a
    spilled table is exactly one pinned buffer-pool frame — and rows are
    buffered only at pipeline breakers (hash builds and NL inners; see
    {!Qs_plan.Physical.breaker_children}). A run stays on the calling
    domain. The fully materialized model re-optimization converts
    execution into (§2.2) lives one level up, in [Temp], where a strategy materializes a
    subquery's result; the engine itself materializes only a plan's
    sink. Per-node actual cardinalities are reported so the
    re-optimization strategies can compare them with the optimizer's
    estimates; {!Naive} is the independent reference for both results
    and cardinalities.

    Execution checks an optional deadline and cancellation token and
    raises {!Timeout} / [Cancel.Cancelled]; the paper's 1000-second
    per-query timeout is modelled this way. The engine polls at every
    morsel boundary (so a cancellation unwinds before the next frame is
    pinned) and additionally every {i batch} rows inside wide fan-outs,
    where one morsel can produce many output rows. *)

module Physical = Qs_plan.Physical
module Table = Qs_storage.Table
module Fragment = Qs_stats.Fragment
module Expr = Qs_query.Expr

exception Timeout

val default_row_limit : int
(** Per-operator output cap for plan execution (default 2 M rows): a plan
    materializing more than this is hopeless in this in-memory engine and
    is treated like a timeout — the analogue of the paper's 1000-second
    query cap, which the PostgreSQL "Default" configuration also hits on
    several JOB queries. *)

type stats = (int, int) Hashtbl.t
(** Physical node id → actual output rows. *)

val intermediate_tables : unit -> int
(** Cumulative count of intermediate tables the executor materialized
    (the sink of each run, plus every filtered scan and {!hash_join}
    output). For experiment accounting — reset with
    {!reset_counters} around a measured region. *)

val partition_reuses : unit -> int
(** Always 0. The partitioned parallel hash join, whose reuse of a
    preserved partition layout this counted, is gone: every query runs
    on its caller's domain. Kept only because the repository benchmark
    still reports it as a per-layer metric. *)

val vectorized_chunks : unit -> int
(** Cumulative count of columnar chunks whose filter conjunction ran (at
    least partially) through the vectorized selection-vector kernels
    ({!Qs_storage.Columnar.eval_cmp}) instead of row-at-a-time
    [Expr.eval]. Always 0 over resident tables built from rows; spilled
    tables fault back columnar. *)

val reset_counters : unit -> unit

val span_label : Physical.t -> string
(** The name of the [operator] span bridged for a plan node ([scan:<id>],
    [hash-join], [index-nl-join], [nl-join]). One arm per [Physical]
    operator constructor — tools/check.sh lints for completeness. *)

val run : ?deadline:float -> ?cancel:Qs_util.Cancel.t -> ?row_limit:int ->
  ?spans:Qs_util.Span.t -> Physical.t -> Table.t * stats
(** Evaluate the plan. The output schema is the concatenation of the
    leaf schemas (alias-qualified); apply {!project} for the query's
    final projection.

    Join plans run on the pipelined engine. A bare scan is the leaf on
    its own and runs through {!filter_input}, keeping the scratch filter
    cache.

    Every node id of the plan — including the inner scan of an index
    nested-loop join, which is consumed through the index rather than
    scanned — is present in the returned stats. The index-NL inner's
    entry counts the rows surviving the lookups plus the input's own
    filters, i.e. matched (outer, inner) pairs.

    With [spans], the run records one [pipeline] span (the whole run,
    on the root) and one [breaker] span per hash build or NL inner;
    both carry the plan node id in a [node] argument. Each plan node additionally gets a zero-duration
    [operator] marker with its est/actual rows, since fused operators
    have no exclusive time of their own. {!Qs_obs.Explain} renders
    EXPLAIN ANALYZE from the stats and these spans. Without [spans] no
    clock is read. *)

val project : ?name:string -> Table.t -> Expr.colref list -> Table.t
(** Keep only the named columns (in the given order, duplicates removed);
    an empty list keeps everything. *)

val filter_table : ?deadline:float -> ?cancel:Qs_util.Cancel.t ->
  Table.t -> Expr.pred list -> Table.t
(** Chunked scan+filter of one table, chunk by chunk in order; each
    output chunk keeps its input chunk's layout. *)

val filter_input : ?deadline:float -> ?cancel:Qs_util.Cancel.t ->
  Fragment.input -> Table.t
(** Scan one input applying its filters (the executor's leaf operator,
    exposed for the naive counter and tests). The result is cached on the
    input's scratch, keyed by the filter predicates. *)

val hash_join : ?deadline:float -> build:Table.t -> probe:Table.t ->
  Expr.pred list -> Table.t
(** One sequential hash join over materialized inputs: equality
    conjuncts become the hash key, the rest are residual filters. The
    reference kernel {!Naive} joins with; exposed for it and for tests. *)

val cartesian : name:string -> Table.t list -> Table.t
(** Cross product of independent result tables — the final merge step of
    QuerySplit when isolated subquery results remain (§3.1). *)
