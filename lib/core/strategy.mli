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

type iteration = Qs_obs.Flight.step = {
  index : int;
  description : string;  (** the subquery / subplan executed *)
  est_rows : float;  (** optimizer's estimate for its output *)
  actual_rows : int;
  elapsed : float;  (** seconds spent in this iteration *)
  mat_bytes : int;  (** bytes written to a temp table (0 = pipelined) *)
  materialized : bool;  (** counted in the Table 4 frequency *)
  replanned : bool;  (** did this iteration trigger re-optimization *)
  score : float option;  (** selection score, when the strategy ranks *)
  remaining : int;  (** subqueries / joins left after this step *)
}
(** One re-optimization step: the one record of it, written once by
    {!step}, which also puts it in the flight journal and in the
    [reopt-step] span. *)

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
      (** when set, optimizer calls and executed operators are recorded
          as time-ordered spans, and {!step} adds one [reopt-step] span
          per iteration whose args are that iteration's record *)
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
          through a telemetry-enabled server: {!step} appends each
          iteration's record to its journal, with or without a tracer *)
}

type t = {
  name : string;
  run : ctx -> Query.t -> outcome;
}

val make_ctx : ?collect_stats:bool -> ?deadline:float option -> ?seed:int ->
  ?spans:Qs_util.Span.t ->
  ?dp_memo:Qs_plan.Dp_memo.t -> ?cancel:Qs_util.Cancel.t ->
  ?flight:Qs_obs.Flight.t -> Stats_registry.t -> Estimator.t -> ctx

val step : ctx -> start:float -> Query.t -> iteration -> iteration
(** The one writer of a re-optimization step. Stamps the record's
    [elapsed] as [now - start] (one clock read), appends the stamped
    record to the flight journal when a flight is attached, and emits
    the [reopt-step] span named [<query>/<description>], with the
    record's fields as args, when a tracer is. Returns the stamped
    record, the strategy's entry for [outcome.iterations]; the
    [elapsed] it is given is ignored. *)

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
