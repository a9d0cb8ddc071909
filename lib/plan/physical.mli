(** Physical query plans.

    Every node carries the optimizer's row/cost estimates; the baselines'
    re-optimization triggers compare these against the actual counts the
    executor reports. Nodes have unique ids so a partially-executed plan
    can be rewritten in place (a materialized subtree replaced by a temp
    scan) without re-planning — the "continue with the current plan" path
    of Reopt/Pop. *)

module Expr = Qs_query.Expr
module Fragment = Qs_stats.Fragment
module Index = Qs_storage.Index

type join_method = Hash | Index_nl | Nl

type t = private {
  id : int;
  node : node;
  est_rows : float;
  est_cost : float;  (** cumulative, children included *)
  rels : string list;  (** aliases covered by this subtree *)
}

and node =
  | Scan of Fragment.input
  | Join of join

and join = {
  method_ : join_method;
  left : t;  (** Hash: build side; Index_nl / Nl: outer side *)
  right : t;  (** Hash: probe side; Index_nl: must be a base-input Scan *)
  preds : Expr.pred list;  (** all predicates applied at this join *)
  index : (Index.t * Expr.colref * Expr.colref) option;
      (** Index_nl only: (inner index, outer key column, inner key column) *)
}

val scan : Fragment.input -> est_rows:float -> est_cost:float -> t

val join : method_:join_method -> ?index:(Index.t * Expr.colref * Expr.colref) ->
  unit -> left:t -> right:t -> preds:Expr.pred list -> est_rows:float ->
  est_cost:float -> t

val leaves : t -> Fragment.input list

val joins_post_order : t -> t list
(** Join nodes in execution order (children before parents). *)

val deepest_join : t -> t option
(** The first join in execution order whose children are both leaves. *)

val find : t -> int -> t option

val replace : t -> id:int -> by:t -> t
(** Structural replacement of the node with the given id; estimate
    annotations above the replaced node are kept (they become stale, which
    is precisely what re-optimization triggers test against). *)

val n_joins : t -> int

val breaker_children : t -> t list
(** The pipeline breakers directly under this node: child subtrees whose
    whole result must be consumed (hash build, NL inner) before the
    node's own pipeline can start streaming morsels. Empty for scans and
    for index-NL joins, whose probes stream through the index. *)

val breaker_edges : t -> (int * int) list
(** Every (parent id, breaker-child id) edge of the plan — the cuts that
    partition the operator tree into pipelines. *)

val n_pipelines : t -> int
(** Number of pipeline segments the morsel-driven executor runs this
    plan as: one per breaker edge, plus the sink pipeline. *)

val join_leaf_sets : t -> string list list
(** For every join node: the sorted alias set it covers — the canonical
    form used for the plan-similarity score of Table 1. *)

val nodes : t -> t list
(** Every node of the tree (pre-order), scans included — the id universe
    the executor's per-node stats must cover. *)

val method_name : join_method -> string

val to_string : t -> string
(** Multi-line tree rendering. *)

val pp : Format.formatter -> t -> unit
