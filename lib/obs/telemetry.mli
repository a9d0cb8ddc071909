(** Always-on serving telemetry: a bounded, domain-safe flight recorder
    for the query-serving path.

    Every admitted query gets a {!Flight.t} collector ({!admit});
    completion ({!complete}) freezes it into a {!Flight.record} and
    pushes it onto a lock-striped ring buffer — fixed memory,
    overwrite-oldest, safe to write from many worker domains while a
    reader snapshots. Latency histograms (per final status) and a small
    set of cumulative counters accumulate alongside.

    {b Tail sampling}: full span trees are retained only for flights
    that end in error / deadline / cancellation, or for successes whose
    {e execution} time lands at or above [slow_quantile] of the
    streaming success-exec-time histogram (once [min_samples]
    observations exist). The bar is execution time rather than
    turnaround on purpose: queue wait grows with backlog, so under load
    every flight's turnaround would beat its predecessors' and the
    sampler would keep everything. Every other record keeps just the
    per-phase rollup, so memory stays bounded regardless of traffic.
    The sampling decision is made against the histogram {e before} the
    flight's own observation is added, so a flight never qualifies
    merely by raising the bar for itself.

    Three read surfaces: {!snapshot} (structured, in-process),
    {!render} (text dashboard; byte-stable with [~timings:false]), and
    {!to_prometheus} (scrapable text exposition). {!metrics} bridges
    into the existing {!Metrics} JSON report for CI gating. *)

type config = {
  capacity : int;  (** total retained flight records across all stripes *)
  stripes : int;  (** ring lock stripes; clamped into [1, capacity] *)
  slow_quantile : float;
      (** successes at or above this execution-time quantile keep full
          span trees (e.g. 0.95) *)
  min_samples : int;
      (** successes are never tail-sampled until this many success
          observations exist — the quantile is meaningless before *)
}

val default_config : config
(** 256 records over 8 stripes; slow quantile 0.95 after 32 samples. *)

type t

val create : ?config:config -> unit -> t

val capacity : t -> int
(** Actual retained-record capacity after stripe rounding. *)

(** {1 Flight lifecycle — called by the server} *)

val admit :
  t ->
  ?external_tracer:bool ->
  id:int ->
  session:string ->
  statement:string ->
  strategy:string ->
  cache_hit:bool ->
  est_cost:float ->
  unit ->
  Flight.t
(** Register an admitted query. The flight carries its own span tracer unless [external_tracer] is set
    (the server already attached an explicit {!Qs_util.Span} recorder —
    that one wins, and phase rollups come from it being threaded
    through execution instead). *)

val dispatch : t -> Flight.t -> unit
(** Mark the flight as leaving the admission queue for a worker. *)

val complete :
  t ->
  Flight.t ->
  status:Flight.status ->
  row_count:int ->
  queue_wait:float ->
  exec_time:float ->
  faults:int ->
  bypasses:int ->
  Flight.record
(** Finalize: decide tail sampling, observe [queue_wait + exec_time]
    into the status's latency histogram, bump cumulative counters,
    assign the completion sequence number, and push the frozen record
    onto the ring (overwriting the oldest once full). *)

(** {1 Read surfaces} *)

type latency_summary = {
  l_count : int;
  l_p50 : float;
  l_p95 : float;
  l_p99 : float;
  l_max : float;
}

type active_flight = {
  a_id : int;
  a_session : string;
  a_statement : string;
  a_strategy : string;
  a_running : bool;  (** dispatched to a worker vs. still queued *)
  a_age : float;  (** seconds since admission *)
  a_steps : int;  (** re-optimization journal entries so far *)
}

type snapshot = {
  s_admitted : int;
  s_completed : int;
  s_counters : (string * int) list;  (** sorted by name *)
  s_active : active_flight list;  (** sorted by admission id *)
  s_recent : Flight.record list;
      (** ring contents by completion seq, oldest first — the globally
          most recent [capacity] flights *)
  s_latency : (string * latency_summary) list;  (** by status name *)
}

val snapshot : t -> snapshot
(** Consistent-enough live view: each ring stripe is locked briefly in
    turn (never all at once), active flights are read through their
    atomics, so serving is never paused. After the server drains, the
    view is exact. *)

val render : ?timings:bool -> ?slowest:int -> snapshot -> string
(** Text dashboard: admission/completion counters, in-flight queries,
    latency quantiles by status, and the slowest [slowest] (default 8)
    recent flights with their re-optimization journals. With
    [~timings:false] every wall-clock-dependent line (latencies, ages,
    phases, sampling flags) is omitted and recent flights print in
    completion order — byte-stable for a deterministic workload. *)

val to_prometheus : t -> string
(** Prometheus text exposition: [qs_flights_total{status=...}],
    [qs_latency_seconds{status,quantile}] summaries, in-flight / queue
    gauges, and the cumulative executor / buffer-pool counters. *)

val metrics : t -> Metrics.t
(** The telemetry state as a fresh metrics registry (counters plus
    per-status turnaround histograms) for the harness's JSON report. *)
