(** Concurrent query-serving front end.

    A server admits a stream of queries from named sessions onto one
    shared {!Qs_util.Pool}:

    - {b bounded admission queue with backpressure}: {!submit} blocks —
      helping the pool drain, so a size-1 pool still makes progress —
      while [queue_limit] queries are already waiting;
    - {b cost-aware scheduling}: up to [concurrency] queries run at
      once; the next one is chosen by {!Scheduler.pick} using the
      optimizer's estimated cost from the shared plan cache, with aging
      so long queries are never starved;
    - {b deadlines and cooperative cancellation}: a per-query deadline
      (seconds of wall-clock from admission) and a {!Qs_util.Cancel}
      token are threaded through the executor and strategy loops; both
      are polled at every morsel boundary of the pipelined executor (a
      cancellation unwinds before the next buffer-pool frame is pinned,
      so no pinned frames leak) and surface as a clean
      [Deadline_exceeded] / [Cancelled] status — never a poisoned pool.
      An already-expired deadline (or pre-cancelled token) completes
      without executing at all;
    - {b shared plan cache}: one {!Qs_plan.Plan_cache} per server (or
      shared wider via [?plan_cache]) resolves each statement once;
      keys are stamped with [Stats_registry] epochs, so
      [Stats_registry.invalidate] forces a re-plan, mirroring
      [Dp_memo]'s epoch discipline;
    - {b observability}: queue-wait, dispatch decisions and deadline
      margins are recorded as [serve] spans, and {!metrics} exports
      counters + latency histograms in the [Qs_obs.Metrics] format;
    - {b always-on telemetry}: every admitted query gets a
      {!Qs_obs.Flight} record — statement, strategy, plan-cache hit,
      re-optimization journal, phase rollups, executor / buffer-pool
      counters, final status — pushed into the server's bounded
      {!Qs_obs.Telemetry} ring at completion, with tail-sampled full
      span trees for errors and latency outliers. Read it live with
      {!telemetry_snapshot} / [Telemetry.render], or scrape
      [Telemetry.to_prometheus]. When the server has no explicit
      [?spans] tracer, each flight carries its own, so phase rollups
      exist by default; an explicit tracer takes precedence and rollups
      come from the shared recording instead.

    Execution mode: with [?strategy] every query runs that
    re-optimization strategy (fresh per-query ctx and [Dp_memo], shared
    registry); without it the cached physical plan is executed directly
    — the statement-cache fast path. Each query runs on the one domain
    that picked it up; completed digests are byte-identical to
    single-session execution. The {!Qs_storage.Table.digest} of a
    completed query is computed inside its execution window, so it is
    part of [exec_time] and of the traced [server] layer. *)

module Query = Qs_query.Query
module Estimator = Qs_stats.Estimator
module Stats_registry = Qs_stats.Stats_registry
module Optimizer = Qs_plan.Optimizer
module Plan_cache = Qs_plan.Plan_cache
module Strategy = Qs_core.Strategy

type config = {
  concurrency : int;  (** max queries executing at once, >= 1 *)
  queue_limit : int;  (** admission-queue bound; {!submit} blocks at it *)
  policy : Scheduler.policy;
  aging_rounds : int;  (** bypasses before promotion to the aged class *)
  autostart : bool;
      (** dispatch on submit (default). [false] queues everything until
          {!start} — used by the scheduler tests to fix the decision
          order. *)
  telemetry : Qs_obs.Telemetry.config;
      (** sizing and tail sampling of the always-on flight recorder *)
}

val default_config : config
(** concurrency 2, queue limit 64, cost-aware, aging 4,
    autostart, default telemetry. *)

type status =
  | Completed
  | Deadline_exceeded  (** deadline hit before or during execution *)
  | Cancelled  (** the query's {!Qs_util.Cancel} token fired *)
  | Failed of string  (** unexpected exception (never poisons the pool) *)

type result = {
  id : int;  (** admission order *)
  session : string;
  query : string;  (** query display name *)
  status : status;
  digest : string option;  (** canonical result digest iff [Completed] *)
  row_count : int;
  est_cost : float;  (** scheduling cost signal used for this query *)
  queue_wait : float;  (** seconds from admission to dispatch *)
  exec_time : float;  (** seconds from dispatch to completion *)
  rounds_waited : int;  (** scheduling rounds this query was bypassed *)
  cache_hit : bool;  (** plan served from the shared statement cache *)
}

type ticket
(** Handle for one submitted query. *)

type t

val create :
  ?config:config ->
  ?spans:Qs_util.Span.t ->
  ?plan_cache:Optimizer.result Plan_cache.t ->
  ?strategy:Strategy.t ->
  pool:Qs_util.Pool.t ->
  Stats_registry.t ->
  Estimator.t ->
  t

val submit :
  t ->
  session:string ->
  ?deadline:float ->
  ?cancel:Qs_util.Cancel.t ->
  Query.t ->
  ticket
(** Admit one query: blocks (helping the pool) while the queue is full,
    resolves the plan through the shared cache, then queues the query
    for dispatch. [deadline] is seconds from admission. *)

val start : t -> unit
(** Begin dispatching (no-op when [autostart], the default). *)

val await : t -> ticket -> result
(** Block (helping the pool) until the query completes. The server must
    be started. *)

val drain : t -> unit
(** Block (helping the pool) until no query is queued or in flight. *)

val results : t -> result list
(** Completed results, in completion order. *)

val dispatch_order : t -> int list
(** Query ids in the order the scheduler released them. *)

val peak_queue : t -> int
(** High-water mark of the admission queue. *)

val plan_cache : t -> Optimizer.result Plan_cache.t

val telemetry : t -> Qs_obs.Telemetry.t
(** The server's flight recorder — for [Telemetry.render],
    [Telemetry.to_prometheus], [Telemetry.metrics]. *)

val telemetry_snapshot : t -> Qs_obs.Telemetry.snapshot
(** Live structured view of the recorder: in-flight queries, the ring
    of recent flight records, latency quantiles by status. After
    {!drain} on a fixed single-threaded workload the snapshot is
    deterministic (and [Telemetry.render ~timings:false] byte-stable). *)

val metrics : t -> Qs_obs.Metrics.t
(** Counters: [submitted], [completed], [cancelled],
    [deadline_exceeded], [failed], [plan_cache_hits],
    [plan_cache_misses], [rounds], and per-session [queries:<session>] —
    all deterministic for a deterministic workload without deadlines.
    Histograms: [queue_wait_s], [exec_time_s], [rounds_waited],
    [queue_depth_peak]. *)
