(* One flight record per admitted query. The live collector is written
   by exactly one domain at a time (the worker executing the query), so
   the journal is a single-writer atomic list and the counters are
   plain atomics — a concurrent snapshot reader always sees a
   consistent prefix, never a torn record. Executor- and storage-level
   instrumentation reaches the collector through a domain-local
   ambient slot ([with_current]): the hooks cost one DLS read when no
   flight is active, so non-serving paths stay free. *)

module Span = Qs_util.Span
module Timer = Qs_util.Timer

type status = Completed | Deadline_exceeded | Cancelled | Failed of string

let status_name = function
  | Completed -> "completed"
  | Deadline_exceeded -> "deadline"
  | Cancelled -> "cancelled"
  | Failed _ -> "failed"

type step = {
  index : int;
  description : string;
  est_rows : float;
  actual_rows : int;
  elapsed : float;
  mat_bytes : int;
  materialized : bool;
  replanned : bool;
  score : float option;
  remaining : int;
}

type counters = {
  intermediate_tables : int;
  faults : int;
  bypasses : int;
}

type t = {
  id : int;
  session : string;
  statement : string;
  strategy : string;
  cache_hit : bool;
  est_cost : float;
  submitted : float;
  mutable dispatched : float; (* 0.0 until dispatch *)
  steps_rev : step list Atomic.t; (* newest first; single writer *)
  intermediates : int Atomic.t;
  tracer : Span.t option;
}

type record = {
  r_id : int;
  r_session : string;
  r_statement : string;
  r_strategy : string;
  r_cache_hit : bool;
  r_status : status;
  r_row_count : int;
  r_est_cost : float;
  r_queue_wait : float;
  r_exec_time : float;
  r_journal : step list; (* oldest first *)
  r_phases : (string * int * float) list; (* category, spans, seconds *)
  r_counters : counters;
  r_sampled : bool;
  r_spans : Span.span list; (* full span tree iff [r_sampled] *)
  r_seq : int; (* completion order, assigned by the telemetry ring *)
}

let create ?(tracer = false) ~id ~session ~statement ~strategy ~cache_hit
    ~est_cost ~submitted () =
  {
    id; session; statement; strategy; cache_hit; est_cost; submitted;
    dispatched = 0.0;
    steps_rev = Atomic.make [];
    intermediates = Atomic.make 0;
    tracer = (if tracer then Some (Span.create ()) else None);
  }

let spans t = t.tracer
let id t = t.id
let session t = t.session
let statement t = t.statement
let strategy_name t = t.strategy
let submitted t = t.submitted
let mark_dispatched t = t.dispatched <- Timer.now ()
let dispatched t = t.dispatched > 0.0
let journal t = List.rev (Atomic.get t.steps_rev)
let n_steps t = List.length (Atomic.get t.steps_rev)

(* single writer: a plain read-modify-write set is never lost *)
let append t s = Atomic.set t.steps_rev (s :: Atomic.get t.steps_rev)

(* --- ambient collector ------------------------------------------------- *)

(* The flight the current domain is executing for, if any. Set around
   one query's execution; instrumented code (the executor's
   intermediate-table accounting) bumps the active flight without any
   parameter threading. A query runs on one domain, so the attribution
   is exact. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_current fl f =
  let old = Domain.DLS.get current in
  Domain.DLS.set current (Some fl);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current old) f

let on_intermediate_table () =
  match Domain.DLS.get current with
  | Some fl -> Atomic.incr fl.intermediates
  | None -> ()

(* --- completion -------------------------------------------------------- *)

let finish t ~status ~row_count ~queue_wait ~exec_time ~faults ~bypasses
    ~sampled ~seq =
  let spans = match t.tracer with Some tr -> Span.spans tr | None -> [] in
  {
    r_id = t.id;
    r_session = t.session;
    r_statement = t.statement;
    r_strategy = t.strategy;
    r_cache_hit = t.cache_hit;
    r_status = status;
    r_row_count = row_count;
    r_est_cost = t.est_cost;
    r_queue_wait = queue_wait;
    r_exec_time = exec_time;
    r_journal = journal t;
    r_phases = Profile.rollup spans;
    r_counters =
      {
        intermediate_tables = Atomic.get t.intermediates;
        faults;
        bypasses;
      };
    r_sampled = sampled;
    r_spans = (if sampled then spans else []);
    r_seq = seq;
  }
