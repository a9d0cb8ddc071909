(** Cost-based plan enumeration: dynamic programming over connected input
    subsets (DPsize/DPsub style), PostgreSQL-flavoured access-path and
    join-method selection.

    The estimator is a parameter — feeding {!Qs_stats.Estimator.default}
    gives the "Default" optimizer of the paper, the oracle gives "Optimal",
    and the noisy / learned / pessimistic variants give the corresponding
    baselines. Index nested-loop joins are only considered when the inner
    side is a single *base* input whose join column has a B+Tree in the
    catalog's current index configuration — materialized temporaries have
    no indexes, which is exactly the unrecoverable-hash-join effect of the
    paper's Figure 2. *)

module Catalog = Qs_storage.Catalog
module Fragment = Qs_stats.Fragment
module Estimator = Qs_stats.Estimator

type result = {
  plan : Physical.t;
  est_rows : float;
  est_cost : float;
}

val optimize : ?allowed:Physical.join_method list -> ?spans:Qs_util.Span.t ->
  ?memo:Dp_memo.t ->
  Catalog.t -> Estimator.t -> Fragment.t -> result
(** Raises [Invalid_argument] on an empty fragment. [allowed] restricts
    the join methods considered (default: all three) — the USE baseline
    plans with hash joins only. Fragments with more
    than 13 inputs are planned greedily (cheapest-pair
    agglomeration) instead of by exact DP. Disconnected fragments get
    Cartesian (nested-loop) joins between their components, planned last.

    [memo] is a cross-step DP memo ({!Dp_memo}): subsets whose key —
    input provenances, stats / alias epochs, internal predicates,
    estimator, permitted methods — already has an entry replay the
    memoized winner instead of re-enumerating; every freshly solved
    subset is stored. Because a key change forces a miss, plans with a
    memo are identical to plans without one.

    [spans] records one [optimize] span per call and, for the DP path,
    one nested [dp-level] span per popcount level of the subset
    enumeration carrying per-level candidate counts ([subsets],
    [emitted], [pruned], [memo-hits]), plus a [dp-memo]
    instant marker with the call's memo hit / miss counts when [memo]
    is given. *)


val cost_plan : Catalog.t -> Estimator.t -> Fragment.t -> Physical.t -> float
(** Re-derive the cumulative cost of a *fixed* plan shape under a
    different estimator (used by the FS robust-plan baseline: candidate
    plans are costed under perturbed cardinalities). *)

val estimate_subset : Estimator.t -> Fragment.t -> Fragment.input list -> float
(** The estimator's row count for a sub-join of the fragment. *)

val usable_index :
  Catalog.t -> Fragment.input -> Qs_query.Expr.pred list ->
  (Qs_storage.Index.t * Qs_query.Expr.colref * Qs_query.Expr.colref
  * Qs_query.Expr.pred)
  option
(** The first equality predicate with one side on [inner] whose inner
    column is indexed: [(index, outer_key, inner_key, pred)]. [None] for
    temp inputs, non-base inputs, predicates that are not equalities, or
    equalities where neither side belongs to [inner] (exposed for
    tests). *)
