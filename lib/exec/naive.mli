(** Reference execution of fragments, independent of the optimizer.

    [count] backs the oracle estimator (true cardinalities); [rows] is the
    ground truth the correctness property tests compare QuerySplit
    against. Joins are executed as hash joins in a greedy
    smallest-intermediate-first order with aggressive column pruning, so
    no plan choice is involved.

    The reference deliberately keeps the slow, simple paths the engine
    no longer takes: predicates go through the [Expr.eval] interpreter,
    not [Expr.compile], and joins through {!hash_join}, whose build
    table is the polymorphic [Hashtbl] on list keys rather than the
    engine's one-column [Value.t] table. A bug in the compiler or in
    the key table therefore cannot hide by appearing on both sides of a
    differential test. *)

module Table = Qs_storage.Table
module Fragment = Qs_stats.Fragment

type cache
(** Memo for intermediate weighted relations, shared across the many
    overlapping sub-fragments a DP optimizer asks to count. One cache must
    only ever see one database instance (fragment keys do not encode data
    identity). *)

val make_cache : unit -> cache

val count : ?deadline:float -> ?cache:cache -> Fragment.t -> int
(** True output cardinality, computed on *weighted* (group-count)
    relations so explosive joins cost distinct-keys, not output-rows.
    Disconnected fragments multiply component counts without
    materializing the cross product. *)

val rows : ?deadline:float -> Fragment.t -> Table.t
(** Full materialized result (projected to [fragment.output] when that is
    non-empty). Cross products between components *are* materialized
    here. *)

val hash_join : ?deadline:float -> build:Table.t -> probe:Table.t ->
  Qs_query.Expr.pred list -> Table.t
(** The reference join: one sequential hash join over materialized
    inputs, output columns probe side first. Equality conjuncts between
    the two sides become the hash key, the rest are residual filters;
    NULL keys never join. Raises [Executor.Timeout] past [deadline]. *)
