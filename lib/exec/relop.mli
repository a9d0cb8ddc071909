(** Non-SPJ relational operators (§3.3): aggregation, UNION ALL,
    semi/anti join. These execute over fully materialized inputs; their
    outputs get flat column names (["rel_col"]) qualified by the operator's
    node name so a parent query can treat them as base relations. *)

module Table = Qs_storage.Table
module Expr = Qs_query.Expr
module Logical = Qs_plan.Logical

val aggregate : name:string -> group_by:Expr.colref list ->
  aggs:Logical.agg list -> Table.t -> Table.t
(** Hash aggregation, chunk by chunk in order; groups come out in order
    of first appearance. With an empty [group_by] a single row is
    produced even for empty input (COUNT = 0, other aggregates NULL). *)

val union_all : name:string -> Table.t list -> Table.t
(** Inputs must have equal arity; the first input's column names (flattened)
    define the output schema. *)

val semi_join : name:string -> anti:bool -> left:Table.t -> right:Table.t ->
  on:Expr.pred list -> Table.t
(** EXISTS / NOT EXISTS over the equality predicates in [on] (hash-based),
    with any non-equality predicates checked per candidate pair. *)

val flatten : name:string -> Table.t -> Table.t
(** Requalify every column to [name], renaming to ["origrel_origcol"] to
    keep names unique (exposed for the driver's non-SPJ registration). *)
