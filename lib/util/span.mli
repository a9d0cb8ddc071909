(** Time-ordered span recording for profiling and Chrome-trace export.

    A tracer collects closed spans: named intervals tagged with a
    category, a per-domain track id, and free-form string arguments.
    Spans nest — each records the id of the span that was open on the
    same domain when it started — so exporters can rebuild the tree.

    Every emitting function takes a [t option]; passing [None] costs a
    single pattern match and nothing else, so instrumented code paths
    stay free when tracing is disabled. The recorder itself is
    mutex-guarded and safe to share across domains; spans emitted from
    pool workers land on that worker's track.

    This module lives in [Qs_util] so that [Pool] and the optimizer can
    emit spans; the exporters ([Qs_obs.Chrome_trace], [Qs_obs.Profile])
    read it from here. *)

type category =
  | Optimize  (** one whole optimizer call (DP or greedy) *)
  | Dp_level  (** one popcount level of the DP subset enumeration *)
  | Estimate  (** time spent inside cardinality estimation *)
  | Reopt_step
      (** one iteration of a re-optimizing strategy: the journal entry
          carries the selected subquery, its score, estimated
          vs. observed cardinality and whether the remaining plan
          changed *)
  | Execute  (** one query (or SPJ block) execution *)
  | Operator
      (** a zero-duration marker per executed plan node, carrying its
          node id and est/actual rows; operator time lives in the
          {!Pipeline} and {!Breaker} spans, since fused operators have
          no time of their own *)
  | Pool_task  (** a pool job running on a worker domain *)
  | Pool_wait  (** time a pool job spent queued before running *)
  | Analyze  (** statistics collection on materialized temps *)
  | Dp_memo
      (** one cross-step DP-memo consultation: the marker's args carry
          the subset hit / miss counts of one optimizer call *)
  | Serve
      (** serving-front-end events: queue wait, scheduling decisions,
          deadline margin — emitted by [Qs_serve] *)
  | Io
      (** disk I/O of the out-of-core storage layer: one [fault] span
          per chunk-frame read by {!Buffer_pool}, on the faulting
          domain *)
  | Pipeline
      (** one pipeline segment of the morsel-driven executor: the time
          rows stream from a source through fused operators into the
          segment's sink *)
  | Breaker
      (** a pipeline breaker: hash-build or inner
          materialization that must consume its whole input before the
          parent pipeline can start *)

val category_name : category -> string
(** Stable kebab-case name ([optimize], [dp-level], [reopt-step], ...). *)

val all_categories : category list
(** Every category, in the fixed order used by reports. *)

type span = {
  id : int;  (** creation order, unique per tracer *)
  parent : int;  (** enclosing span id on the same domain, [-1] if none *)
  name : string;
  cat : category;
  track : int;  (** domain id of the emitting (or attributed) domain *)
  start : float;  (** seconds since the tracer was created, [>= 0] *)
  dur : float;  (** seconds, [>= 0] *)
  args : (string * string) list;
}

type t

val create : unit -> t
(** A fresh tracer; [start] values are relative to this moment. *)

val origin : t -> float
(** The {!Timer.now} value at creation (for converting absolute times). *)

val span :
  ?args:(string * string) list ->
  t option ->
  category ->
  string ->
  (unit -> 'a) ->
  'a
(** [span tracer cat name f] runs [f ()] inside a new span. The span is
    recorded even if [f] raises (the exception is re-raised). With
    [None] this is exactly [f ()]. *)

val add :
  ?args:(string * string) list ->
  ?track:int ->
  t option ->
  category ->
  string ->
  start:float ->
  dur:float ->
  unit
(** Record an externally timed interval. [start] is an absolute
    {!Timer.now} value (clamped into the tracer's lifetime); [track]
    defaults to the calling domain. The parent is whatever span is open
    on the calling domain. *)

val instant : ?args:(string * string) list -> t option -> category -> string -> unit
(** A zero-duration marker at the current time. *)

val count : t -> int
(** Number of closed spans recorded so far. *)

val spans : t -> span list
(** Closed spans sorted by [(start, id)]. Spans still open (inside
    {!span}) are not included. *)
