(** Executing full logical trees under a strategy (§3.3).

    The tree is segmented at non-SPJ operators and evaluated bottom-up:
    each SPJ segment runs through the given strategy; each non-SPJ
    operator consumes the materialized outputs of its children; [Let]
    bindings are registered as pseudo base relations so parent segments
    can scan them. The final outcome concatenates the iteration traces of
    all segments. *)

val prune : Qs_plan.Logical.t -> Qs_plan.Logical.t
(** Push what each non-SPJ operator reads into the SPJ segments under
    it. An [Agg] over a [SELECT *] SPJ gets that SPJ's output narrowed
    to its group-by columns and the columns of its aggregate arguments;
    the right input of a [Semi]/[Anti], when a [SELECT *] SPJ, to the
    columns of [on] it provides. An aggregate that reads no column
    ([COUNT( * )] alone) keeps one column the SPJ's predicates already
    read (a join column first), or [SELECT *] when it has none. The
    tree's result, [Let] bindings, [Union_all] inputs and semi/anti
    left inputs keep their columns, so the result is unchanged. [run]
    applies it. *)

val run : Strategy.t -> Strategy.ctx -> Qs_plan.Logical.t -> Strategy.outcome
(** A fresh pseudo-relation scope is used per call (the context's
    [pseudo] table is cleared). A timeout in any segment times out the
    whole query. *)
