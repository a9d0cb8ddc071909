(** The common interface of all (re-)optimization strategies, and the
    execution context they share.

    A strategy consumes an SPJ query and produces its result plus a trace
    of re-optimization iterations: what was executed, the optimizer's
    estimate vs. the actual cardinality, the time spent and the bytes
    materialized. The traces feed the paper's Table 4 (materialization
    frequency/memory), Figures 16–19 (timelines) and Table 6
    (categorization). *)

module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Fragment = Qs_stats.Fragment
module Estimator = Qs_stats.Estimator
module Stats_registry = Qs_stats.Stats_registry

type iteration = {
  index : int;
  description : string;  (** the subquery / subplan executed *)
  est_rows : float;  (** optimizer's estimate for its output *)
  actual_rows : int;
  elapsed : float;  (** seconds spent in this iteration *)
  mat_bytes : int;  (** bytes written to a temp table (0 = pipelined) *)
  materialized : bool;  (** counted in the Table 4 frequency *)
  replanned : bool;  (** did this iteration trigger re-optimization *)
}

type outcome = {
  result : Table.t;
  elapsed : float;
  iterations : iteration list;
  timed_out : bool;
}

type ctx = {
  registry : Stats_registry.t;
  estimator : Estimator.t;
  collect_stats : bool;  (** ANALYZE materialized temps (§6.4)? *)
  deadline : float option ref;
      (** absolute wall-clock limit; mutable so callers that account
          estimation time separately (the benchmark runner) can push it
          forward as estimation time accrues *)
  seed : int;  (** for any tie-breaking randomness *)
  pseudo : (string, Table.t * Qs_stats.Table_stats.t) Hashtbl.t;
      (** outputs of already-executed non-SPJ operators, visible to SPJ
          segments as base relations (§3.3) *)
  spans : Qs_util.Span.t option;
      (** when set, optimizer calls, executed operators and each
          re-optimization iteration (the [reopt-step] journal: selected
          subquery, score, est vs. actual rows, replanned or not) are
          recorded as time-ordered spans *)
  pool : Qs_util.Pool.t option;
      (** when set (size > 1), executor hash joins run partitioned across
          the pool's domains, and the optimizer's DP levels fan out over
          the same pool; plans and results are unchanged *)
  dp_memo : Qs_plan.Dp_memo.t option;
      (** when set, every optimizer call threads this cross-step DP memo:
          after a re-optimization step, only subsets whose cardinality
          inputs changed are re-enumerated. Plans are unchanged. Intended
          lifetime is one query (the harness creates one per query). *)
  cancel : Qs_util.Cancel.t option;
      (** when set, executor batch boundaries and re-optimization
          iteration boundaries poll this token and unwind with
          [Qs_util.Cancel.Cancelled] when it fires — cooperative
          cancellation for the serving front end. Unlike a deadline, a
          cancellation is {e not} converted into a [timed_out] outcome
          by {!guard}: it propagates to the caller. *)
  flight : Qs_obs.Flight.t option;
      (** the serving telemetry collector for this query, when admitted
          through a telemetry-enabled server: {!journal} appends each
          re-optimization step to it, with or without a tracer *)
}

type t = {
  name : string;
  run : ctx -> Query.t -> outcome;
}

val make_ctx : ?collect_stats:bool -> ?deadline:float option -> ?seed:int ->
  ?spans:Qs_util.Span.t -> ?pool:Qs_util.Pool.t ->
  ?dp_memo:Qs_plan.Dp_memo.t -> ?cancel:Qs_util.Cancel.t ->
  ?flight:Qs_obs.Flight.t -> Stats_registry.t -> Estimator.t -> ctx

val journal : ctx -> ?score:float -> subquery:string -> est_rows:float ->
  actual_rows:int -> replanned:bool -> remaining:int -> name:string ->
  start:float -> unit -> unit
(** Record one re-optimization step in both observability sinks: append
    a {!Qs_obs.Flight.step} to the ambient flight record (always-on
    serving telemetry; free when no flight is attached) and emit the
    [reopt-step] span (with [subquery] / [score] / [est_rows] /
    [actual_rows] / [replanned] / [remaining] args) when a tracer is.
    [name] labels the span; [dur] is stamped as [now - start]. *)

val catalog : ctx -> Catalog.t

val fragment_of_query : ctx -> Query.t -> Fragment.t
(** Like {!Fragment.of_query} but resolving relations against the pseudo
    registry first: a relation whose table names an executed non-SPJ
    node scans that node's materialized output (as a temp — no indexes). *)

val register_pseudo : ctx -> Table.t -> unit
(** Make a (flattened) non-SPJ output visible under its table name.
    Pseudo relations always get full statistics (they act as base
    relations). *)

val guard : ctx -> (unit -> outcome) -> outcome
(** Runs the thunk, converting an executor {!Qs_exec.Executor.Timeout}
    into a [timed_out] outcome with an empty result. *)

val empty_result : Query.t -> Table.t

val finished : start:float -> result:Table.t -> iterations:iteration list -> outcome
(** Assemble a normal outcome, stamping [elapsed] from [start]. *)
