(** EXPLAIN ANALYZE-style rendering: a physical plan tree annotated per
    node with the optimizer's estimate, the executed actual cardinality
    and the resulting Q-error.

    [stats] is the node id → actual rows table [Qs_exec.Executor.run]
    returns; without it this degrades to plain EXPLAIN (estimates only).
    [spans] is the tracer the same run recorded into. With both, each
    executed node also shows its input volumes (rows [scanned] by a
    leaf, [built] / [probed] by a hash join, [outer] rows of a
    nested-loop join, all derived from leaf table sizes and the
    children's actuals) and the timings the engine measures at pipeline
    granularity: [pipeline=] on the root (the whole run) and [breaker=]
    on joins that buffer an input. Fused operators have no time of their
    own. Without [spans] the output is deterministic, for golden tests. *)

val render :
  ?stats:(int, int) Hashtbl.t -> ?spans:Qs_util.Span.t -> Qs_plan.Physical.t -> string

val summary : stats:(int, int) Hashtbl.t -> Qs_plan.Physical.t -> string
(** One line: node count, max and mean Q-error over the plan's executed
    nodes, and the fraction of nodes whose cardinality was
    {e under}estimated (the dangerous direction, per
    {!Qerror.underestimated}) — the headline a workload report
    aggregates. *)
