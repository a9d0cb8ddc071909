(** Per-query flight records for the always-on serving telemetry.

    A {e flight} is one admitted query's life: statement, chosen
    strategy, plan-cache hit flag, the re-optimization journal (one
    {!step} per strategy iteration — selected subquery, est vs. actual
    rows, replan decision), per-phase span rollups, and executor /
    buffer-pool counters. The live collector ({!t}) is written by the
    one domain executing the query and read concurrently by telemetry
    snapshots — journal and counters are atomics, so a reader always
    sees a consistent prefix and never a torn record. On completion
    {!finish} freezes it into an immutable {!record} for the
    {!Telemetry} ring buffer.

    Unlike {!Qs_util.Span} tracing, flights are recorded {e without} an
    explicitly attached tracer: the journal flows through
    [Qs_core.Strategy.journal], and the executor's counters through the
    domain-local ambient slot ({!with_current} /
    {!on_intermediate_table}), so the serving path is observable by
    default. *)

type status = Completed | Deadline_exceeded | Cancelled | Failed of string

val status_name : status -> string
(** ["completed"] / ["deadline"] / ["cancelled"] / ["failed"]. *)

type step = {
  subquery : string;  (** the subquery / subplan the iteration executed *)
  score : float option;  (** selection score, when the strategy ranks *)
  est_rows : float;
  actual_rows : int;
  replanned : bool;
  remaining : int;  (** subqueries / joins left after this step *)
}

type counters = {
  intermediate_tables : int;  (** temps the executor materialized *)
  faults : int;  (** buffer-pool misses attributed to this flight *)
  bypasses : int;  (** uncached buffer-pool reads *)
}

type t
(** Live collector for one in-flight query. *)

type record = {
  r_id : int;
  r_session : string;
  r_statement : string;
  r_strategy : string;
  r_cache_hit : bool;
  r_status : status;
  r_row_count : int;
  r_est_cost : float;
  r_queue_wait : float;  (** seconds from admission to dispatch *)
  r_exec_time : float;  (** seconds from dispatch to completion *)
  r_journal : step list;  (** oldest first *)
  r_phases : (string * int * float) list;
      (** per-category span rollup ([category, spans, seconds]) from the
          flight's own tracer, in {!Qs_util.Span.all_categories} order;
          kept even when the full tree is dropped *)
  r_counters : counters;
  r_sampled : bool;  (** tail-sampled: the full span tree was retained *)
  r_spans : Qs_util.Span.span list;  (** non-empty iff [r_sampled] *)
  r_seq : int;  (** completion order, assigned by the telemetry ring *)
}

val create :
  ?tracer:bool ->
  id:int ->
  session:string ->
  statement:string ->
  strategy:string ->
  cache_hit:bool ->
  est_cost:float ->
  submitted:float ->
  unit ->
  t
(** A fresh collector. With [tracer] (default false) the flight carries
    its own {!Qs_util.Span} recorder — the always-on source of phase
    rollups and tail-sampled span trees when no explicit tracer is
    attached to the server. *)

val spans : t -> Qs_util.Span.t option
(** The flight's own tracer, to thread into executor / strategy calls. *)

val id : t -> int

val session : t -> string

val statement : t -> string

val strategy_name : t -> string

val submitted : t -> float
(** Absolute {!Qs_util.Timer.now} admission time. *)

val mark_dispatched : t -> unit

val dispatched : t -> bool
(** False while the flight is still waiting in the admission queue. *)

val journal : t -> step list
(** The journal so far, oldest first. Safe to call concurrently with
    the writer — the reader sees a consistent prefix. *)

val n_steps : t -> int

val step :
  t option ->
  ?score:float ->
  subquery:string ->
  est_rows:float ->
  actual_rows:int ->
  replanned:bool ->
  remaining:int ->
  unit ->
  unit
(** Append one journal entry. [None] is free — strategy loops call this
    unconditionally. Must only be called from the domain executing the
    flight (single writer). *)

val with_current : t -> (unit -> 'a) -> 'a
(** Run a thunk with the flight installed as the calling domain's
    ambient collector, so {!on_intermediate_table} from anywhere below
    attributes to it. Restores the previous ambient flight on return
    and on exception. *)

val on_intermediate_table : unit -> unit
(** Called by the executor whenever an intermediate table is built; a
    no-op (one domain-local read) when no flight is ambient. *)

val finish :
  t ->
  status:status ->
  row_count:int ->
  queue_wait:float ->
  exec_time:float ->
  faults:int ->
  bypasses:int ->
  sampled:bool ->
  seq:int ->
  record
(** Freeze the collector into an immutable record: reverses the
    journal, rolls spans up per category, and retains the full span
    tree iff [sampled]. *)
