module Pool = Qs_util.Pool
module Cancel = Qs_util.Cancel
module Span = Qs_util.Span
module Timer = Qs_util.Timer
module Table = Qs_storage.Table
module Query = Qs_query.Query
module Estimator = Qs_stats.Estimator
module Stats_registry = Qs_stats.Stats_registry
module Optimizer = Qs_plan.Optimizer
module Plan_cache = Qs_plan.Plan_cache
module Dp_memo = Qs_plan.Dp_memo
module Executor = Qs_exec.Executor
module Strategy = Qs_core.Strategy
module Metrics = Qs_obs.Metrics
module Telemetry = Qs_obs.Telemetry
module Flight = Qs_obs.Flight
module Buffer_pool = Qs_storage.Buffer_pool

type config = {
  concurrency : int;
  queue_limit : int;
  policy : Scheduler.policy;
  aging_rounds : int;
  autostart : bool;
  telemetry : Telemetry.config;
}

let default_config =
  {
    concurrency = 2;
    queue_limit = 64;
    policy = Scheduler.Cost_aware;
    aging_rounds = 4;
    autostart = true;
    telemetry = Telemetry.default_config;
  }

type status =
  | Completed
  | Deadline_exceeded
  | Cancelled
  | Failed of string

type result = {
  id : int;
  session : string;
  query : string;
  status : status;
  digest : string option;
  row_count : int;
  est_cost : float;
  queue_wait : float;
  exec_time : float;
  rounds_waited : int;
  cache_hit : bool;
}

(* One admitted-but-unfinished query. The plan is resolved at admission
   (through the shared cache) so the scheduler has its cost signal and
   the fast path its executable plan; [cell] is the rendezvous with
   [await] — written exactly once, before the pool broadcast that wakes
   the waiter. *)
type pending = {
  p_id : int;
  p_session : string;
  p_query : Query.t;
  p_plan : Optimizer.result;
  p_cache_hit : bool;
  p_deadline : float option; (* absolute Timer.now value *)
  p_cancel : Cancel.t option;
  p_submitted : float;
  p_cell : result option Atomic.t;
  p_flight : Flight.t; (* telemetry collector *)
}

type ticket = result option Atomic.t

type t = {
  pool : Pool.t;
  registry : Stats_registry.t;
  estimator : Estimator.t;
  strategy : Strategy.t option;
  cache : Optimizer.result Plan_cache.t;
  config : config;
  spans : Span.t option;
  telem : Telemetry.t;
  mutex : Mutex.t; (* guards queue/started/round/orders/results/peak *)
  mutable queue : pending Scheduler.entry list;
  mutable started : bool;
  mutable round : int;
  mutable dispatch_rev : int list;
  mutable results_rev : result list;
  mutable peak : int;
  mutable next_id : int;
  (* atomics, not plain fields: read by [Pool.help_until] predicates,
     which may not take [mutex] (they run under the pool's own lock) *)
  queued : int Atomic.t;
  in_flight : int Atomic.t;
  outstanding : int Atomic.t;
}

let create ?(config = default_config) ?spans ?plan_cache ?strategy ~pool
    registry estimator =
  if config.concurrency < 1 then invalid_arg "Server.create: concurrency < 1";
  if config.queue_limit < 1 then invalid_arg "Server.create: queue_limit < 1";
  {
    pool;
    registry;
    estimator;
    strategy;
    cache = (match plan_cache with Some c -> c | None -> Plan_cache.create ());
    config;
    spans;
    telem = Telemetry.create ~config:config.telemetry ();
    mutex = Mutex.create ();
    queue = [];
    started = config.autostart;
    round = 0;
    dispatch_rev = [];
    results_rev = [];
    peak = 0;
    next_id = 0;
    queued = Atomic.make 0;
    in_flight = Atomic.make 0;
    outstanding = Atomic.make 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let expired deadline = match deadline with Some d -> Timer.now () > d | None -> false

(* An explicitly attached server tracer wins; otherwise the flight's
   own always-on tracer records phase spans for rollups/tail samples. *)
let spans_for t (p : pending) =
  match t.spans with
  | Some _ -> t.spans
  | None -> Flight.spans p.p_flight

(* Execute one query on the current domain (a pool worker, or a caller
   helping via [help_until]). Either the cached physical plan directly,
   or a full re-optimization strategy with a fresh per-query ctx — the
   only cross-query state is the registry and the plan cache, both
   lock-guarded. The flight rides along as this domain's ambient
   collector so executor counters attribute to it. *)
let execute t (p : pending) =
  let q = p.p_query in
  Flight.with_current p.p_flight (fun () ->
      match t.strategy with
      | None ->
          let tbl, _ =
            Executor.run ?deadline:p.p_deadline ?cancel:p.p_cancel ?spans:(spans_for t p)
              ~project:q.Query.output p.p_plan.Optimizer.plan
          in
          `Done (Executor.project ~name:q.Query.name tbl q.Query.output)
      | Some strat ->
          let dp_memo = Dp_memo.create () in
          let ctx =
            Strategy.make_ctx ~deadline:p.p_deadline ?cancel:p.p_cancel
              ?spans:(spans_for t p) ~dp_memo
              ~flight:p.p_flight t.registry t.estimator
          in
          let outcome = strat.Strategy.run ctx q in
          if outcome.Strategy.timed_out then `Timed_out
          else `Done outcome.Strategy.result)

let flight_status = function
  | Completed -> Flight.Completed
  | Deadline_exceeded -> Flight.Deadline_exceeded
  | Cancelled -> Flight.Cancelled
  | Failed msg -> Flight.Failed msg

(* Buffer-pool activity attributed to one flight: the stats delta over
   its execution window. Exact when the query ran alone; with
   concurrent out-of-core queries the deltas interleave (acceptable for
   telemetry — the cumulative totals stay exact). *)
let bufpool_stats () =
  match Qs_storage.Table.spill_config () with
  | Some (_, pool) -> Buffer_pool.stats pool
  | None ->
      { Buffer_pool.hits = 0; misses = 0; coalesced = 0; bypasses = 0; evictions = 0 }

let finish t (p : pending) (entry : pending Scheduler.entry) ~started
    ~bp_before ~status ~digest ~row_count =
  let now = Timer.now () in
  (match p.p_deadline with
  | Some d ->
      Span.instant t.spans Span.Serve "deadline-margin"
        ~args:
          [
            ("query", string_of_int p.p_id);
            ("session", p.p_session);
            ("margin_s", Printf.sprintf "%.6f" (d -. now));
          ]
  | None -> ());
  let result =
    {
      id = p.p_id;
      session = p.p_session;
      query = p.p_query.Query.name;
      status;
      digest;
      row_count;
      est_cost = p.p_plan.Optimizer.est_cost;
      queue_wait = Float.max 0.0 (started -. p.p_submitted);
      exec_time = Float.max 0.0 (now -. started);
      rounds_waited = entry.Scheduler.bypassed;
      cache_hit = p.p_cache_hit;
    }
  in
  let bp_after = bufpool_stats () in
  ignore
    (Telemetry.complete t.telem p.p_flight ~status:(flight_status status)
       ~row_count ~queue_wait:result.queue_wait ~exec_time:result.exec_time
       ~faults:
         (max 0 (bp_after.Buffer_pool.misses - bp_before.Buffer_pool.misses))
       ~bypasses:
         (max 0
            (bp_after.Buffer_pool.bypasses - bp_before.Buffer_pool.bypasses)));
  with_lock t (fun () -> t.results_rev <- result :: t.results_rev);
  Atomic.set p.p_cell (Some result);
  ignore (Atomic.fetch_and_add t.in_flight (-1));
  ignore (Atomic.fetch_and_add t.outstanding (-1))

(* Dispatch loop: while a slot is free and the queue is non-empty, let
   the scheduler pick, then hand the query to the pool. Called after
   every admission and every completion; recursion fills all free
   slots. The pick itself happens under [t.mutex]; the pool is only
   touched after it is released (no lock ordering between the two). *)
let rec dispatch t =
  let next =
    with_lock t (fun () ->
        if (not t.started) || Atomic.get t.in_flight >= t.config.concurrency
        then None
        else
          match
            Scheduler.pick t.config.policy ~aging_rounds:t.config.aging_rounds
              t.queue
          with
          | None -> None
          | Some entry ->
              t.queue <-
                List.filter
                  (fun (e : pending Scheduler.entry) ->
                    e.Scheduler.id <> entry.Scheduler.id)
                  t.queue;
              t.round <- t.round + 1;
              t.dispatch_rev <- entry.Scheduler.id :: t.dispatch_rev;
              ignore (Atomic.fetch_and_add t.queued (-1));
              ignore (Atomic.fetch_and_add t.in_flight 1);
              Some entry)
  in
  match next with
  | None -> ()
  | Some entry ->
      let p = entry.Scheduler.payload in
      Span.instant t.spans Span.Serve "dispatch"
        ~args:
          [
            ("query", string_of_int p.p_id);
            ("session", p.p_session);
            ("policy", Scheduler.policy_name t.config.policy);
            ("est_cost", Printf.sprintf "%.1f" entry.Scheduler.cost);
            ("bypassed", string_of_int entry.Scheduler.bypassed);
          ];
      Pool.submit t.pool (fun () -> run_entry t entry);
      dispatch t

and run_entry t (entry : pending Scheduler.entry) =
  let p = entry.Scheduler.payload in
  let started = Timer.now () in
  Telemetry.dispatch t.telem p.p_flight;
  let bp_before = bufpool_stats () in
  Span.add t.spans Span.Serve "queue-wait" ~start:p.p_submitted
    ~dur:(started -. p.p_submitted)
    ~args:[ ("query", string_of_int p.p_id); ("session", p.p_session) ];
  (* a dead-on-arrival query (expired deadline, pre-cancelled token)
     completes without executing anything *)
  (if expired p.p_deadline then
     finish t p entry ~started ~bp_before ~status:Deadline_exceeded
       ~digest:None ~row_count:0
   else if
     match p.p_cancel with Some c -> Cancel.cancelled c | None -> false
   then
     finish t p entry ~started ~bp_before ~status:Cancelled ~digest:None
       ~row_count:0
   else
     match execute t p with
     | `Done tbl ->
         finish t p entry ~started ~bp_before ~status:Completed
           ~digest:(Some (Table.digest tbl))
           ~row_count:(Table.n_rows tbl)
     | `Timed_out ->
         finish t p entry ~started ~bp_before ~status:Deadline_exceeded
           ~digest:None ~row_count:0
     | exception Cancel.Cancelled ->
         finish t p entry ~started ~bp_before ~status:Cancelled ~digest:None
           ~row_count:0
     | exception Executor.Timeout ->
         finish t p entry ~started ~bp_before ~status:Deadline_exceeded
           ~digest:None ~row_count:0
     | exception e ->
         finish t p entry ~started ~bp_before
           ~status:(Failed (Printexc.to_string e))
           ~digest:None ~row_count:0);
  (* the freed slot may unblock the next queued query *)
  dispatch t

let submit t ~session ?deadline ?cancel q =
  (* backpressure: help the pool until the bounded queue has room *)
  Pool.help_until t.pool (fun () ->
      Atomic.get t.queued < t.config.queue_limit);
  let submitted = Timer.now () in
  (* admission-time plan resolution through the shared statement cache;
     the key carries the statement, the estimator and every referenced
     table's stats epoch, so an ANALYZE/invalidate bump simply makes
     the next lookup miss *)
  let key =
    Plan_cache.stamp ~registry:t.registry
      ~tables:
        (List.map (fun (r : Query.rel) -> r.Query.table) q.Query.rels)
      (t.estimator.Estimator.name ^ ":" ^ Query.to_sql q)
  in
  let plan, cache_hit =
    Plan_cache.find_or_compute t.cache ~key (fun () ->
        let ctx = Strategy.make_ctx t.registry t.estimator in
        let frag = Strategy.fragment_of_query ctx q in
        Optimizer.optimize ?spans:t.spans
          (Stats_registry.catalog t.registry)
          t.estimator frag)
  in
  let cell = Atomic.make None in
  let strategy_name =
    match t.strategy with
    | Some s -> s.Strategy.name
    | None -> "direct-plan"
  in
  let p_id =
    with_lock t (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        let flight =
          Telemetry.admit t.telem
            ~external_tracer:(Option.is_some t.spans)
            ~id ~session ~statement:q.Query.name ~strategy:strategy_name
            ~cache_hit ~est_cost:plan.Optimizer.est_cost ()
        in
        let p =
          {
            p_id = id;
            p_session = session;
            p_query = q;
            p_plan = plan;
            p_cache_hit = cache_hit;
            p_deadline = Option.map (fun s -> submitted +. s) deadline;
            p_cancel = cancel;
            p_submitted = submitted;
            p_cell = cell;
            p_flight = flight;
          }
        in
        t.queue <-
          Scheduler.entry ~id ~cost:plan.Optimizer.est_cost p :: t.queue;
        ignore (Atomic.fetch_and_add t.queued 1);
        ignore (Atomic.fetch_and_add t.outstanding 1);
        t.peak <- max t.peak (Atomic.get t.queued);
        id)
  in
  Span.instant t.spans Span.Serve "admit"
    ~args:
      [
        ("query", string_of_int p_id);
        ("session", session);
        ("cache", (if cache_hit then "hit" else "miss"));
      ];
  dispatch t;
  cell

let start t =
  with_lock t (fun () -> t.started <- true);
  dispatch t

let await t ticket =
  Pool.help_until t.pool (fun () -> Option.is_some (Atomic.get ticket));
  Option.get (Atomic.get ticket)

let drain t = Pool.help_until t.pool (fun () -> Atomic.get t.outstanding = 0)

let results t = with_lock t (fun () -> List.rev t.results_rev)
let dispatch_order t = with_lock t (fun () -> List.rev t.dispatch_rev)
let peak_queue t = with_lock t (fun () -> t.peak)
let plan_cache t = t.cache
let telemetry t = t.telem
let telemetry_snapshot t = Telemetry.snapshot t.telem

let metrics t =
  let m = Metrics.create () in
  let rs = results t in
  Metrics.incr ~by:(with_lock t (fun () -> t.next_id)) m "submitted";
  Metrics.incr ~by:(with_lock t (fun () -> t.round)) m "rounds";
  Metrics.incr ~by:(Plan_cache.hits t.cache) m "plan_cache_hits";
  Metrics.incr ~by:(Plan_cache.misses t.cache) m "plan_cache_misses";
  List.iter
    (fun r ->
      (match r.status with
      | Completed -> Metrics.incr m "completed"
      | Deadline_exceeded -> Metrics.incr m "deadline_exceeded"
      | Cancelled -> Metrics.incr m "cancelled"
      | Failed _ -> Metrics.incr m "failed");
      Metrics.incr m ("queries:" ^ r.session);
      Metrics.observe m "queue_wait_s" r.queue_wait;
      Metrics.observe m "exec_time_s" r.exec_time;
      Metrics.observe m "rounds_waited" (float_of_int r.rounds_waited))
    rs;
  Metrics.observe m "queue_depth_peak" (float_of_int (peak_queue t));
  m
