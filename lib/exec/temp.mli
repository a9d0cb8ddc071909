(** Materialized temporary tables (§5): intermediate results become
    PostgreSQL-style temp tables, optionally ANALYZEd before the next
    re-optimization step (§6.4 studies exactly this choice). *)

module Table = Qs_storage.Table
module Fragment = Qs_stats.Fragment
module Table_stats = Qs_stats.Table_stats
module Expr = Qs_query.Expr

val namer : unit -> unit -> string
(** [namer ()] returns a generator of fresh temp names: "T1", "T2", … —
    one generator per query execution. *)

val materialize : name:string -> keep:Expr.colref list -> Table.t -> Table.t
(** Copy (and project to [keep]; empty keeps everything) the result into a
    temp table. The schema keeps its original alias qualifiers so pending
    predicates still resolve. *)

val stats_of : collect:bool -> Table.t -> Table_stats.t
(** ANALYZE when [collect], row count only otherwise. *)

val to_input : ?stats_epoch:int -> name:string -> provenance:string ->
  provides:string list -> collect_stats:bool -> Table.t -> Fragment.input
(** Wrap a materialized table as a fragment input (no indexes — temp
    tables have none, the Figure 2 effect). [stats_epoch] (default 0)
    distinguishes re-materializations sharing a provenance in DP-memo
    keys. *)
