(** QuerySplit (§3): proactive re-optimization driven by subqueries
    extracted from the logical plan.

    The loop: split the query (QSA) → optimize every remaining subquery
    with current statistics → execute the one minimizing the SSA ranking →
    materialize its output as a temp table → substitute the temp for the
    shared relations of the overlapping subqueries → repeat; isolated
    results are combined by Cartesian product at the end (§3.1,
    correctness by Theorem 1). *)

type config = { qsa : Qsa.policy; ssa : Ssa.policy }
(** The subquery set (QSA) and the ranking (SSA). Two choices are fixed:
    a subquery whose inputs did not change since the previous iteration
    keeps its plan, and materialized temps are projected down to the
    columns the rest of the query still needs (§4.1 argues small
    materializations are central). *)

val default_config : config
(** RCenter + Φ4 — the combination §6.2 selects. *)

val strategy : config -> Strategy.t
(** Strategy name: ["querysplit(<qsa>,<ssa>)"]. *)

val subquery_plans : Strategy.ctx -> Qs_query.Query.t -> config ->
  (Qs_query.Query.t * float * float) list
(** The initial subquery set with its (cost, cardinality) estimates — the
    observability hook used by examples and tests. *)
