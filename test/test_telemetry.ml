(* The always-on serving flight recorder: lock-striped ring behaviour
   under concurrent writers, overwrite-oldest retention, tail-sampling
   policy, journal capture without an attached tracer, byte-stable
   snapshot rendering, and the Prometheus exposition. *)

module Telemetry = Qs_obs.Telemetry
module Flight = Qs_obs.Flight
module Metrics = Qs_obs.Metrics
module Span = Qs_util.Span
module Pool = Qs_util.Pool
module Estimator = Qs_stats.Estimator
module Stats_registry = Qs_stats.Stats_registry
module Strategy = Qs_core.Strategy
module Querysplit = Qs_core.Querysplit
module Server = Qs_serve.Server
module Fuzz = Qs_workload.Fuzz

(* admit a flight on a telemetry instance and immediately complete it;
   ids encode the writer so torn records are detectable *)
let fly t ~id ~session ?(status = Flight.Completed) ?(queue_wait = 0.0)
    ?(exec_time = 0.0) () =
  let fl =
    Telemetry.admit t ~id ~session
      ~statement:("q" ^ string_of_int id)
      ~strategy:"s" ~cache_hit:false ~est_cost:1.0 ()
  in
  Telemetry.dispatch t fl;
  Telemetry.complete t fl ~status ~row_count:id ~queue_wait ~exec_time
    ~faults:0 ~bypasses:0

(* --- concurrent writers vs. a snapshotting reader --------------------- *)

let check_snapshot_consistent (s : Telemetry.snapshot) ~capacity =
  if List.length s.Telemetry.s_recent > capacity then
    Alcotest.failf "ring holds %d records over capacity %d"
      (List.length s.Telemetry.s_recent)
      capacity;
  let last_seq = ref (-1) in
  List.iter
    (fun (r : Flight.record) ->
      if r.Flight.r_seq <= !last_seq then
        Alcotest.failf "ring out of order: seq %d after %d" r.Flight.r_seq
          !last_seq;
      last_seq := r.Flight.r_seq;
      (* a torn record would mix one flight's id with another's fields *)
      Alcotest.(check string)
        "statement matches id"
        ("q" ^ string_of_int r.Flight.r_id)
        r.Flight.r_statement;
      Alcotest.(check string)
        "session matches id"
        ("w" ^ string_of_int (r.Flight.r_id / 10_000))
        r.Flight.r_session;
      Alcotest.(check int) "row_count matches id" r.Flight.r_id
        r.Flight.r_row_count)
    s.Telemetry.s_recent

let test_ring_concurrent_writers () =
  let writers = 4 and per_writer = 200 in
  let config =
    { Telemetry.default_config with Telemetry.capacity = 64; stripes = 8 }
  in
  let t = Telemetry.create ~config () in
  let capacity = Telemetry.capacity t in
  let domains =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to per_writer - 1 do
              ignore (fly t ~id:((w * 10_000) + i) ~session:("w" ^ string_of_int w) ())
            done))
  in
  (* read while they write: every snapshot must be internally consistent *)
  for _ = 1 to 50 do
    check_snapshot_consistent (Telemetry.snapshot t) ~capacity
  done;
  List.iter Domain.join domains;
  let s = Telemetry.snapshot t in
  check_snapshot_consistent s ~capacity;
  let total = writers * per_writer in
  Alcotest.(check int) "all completions counted" total s.Telemetry.s_completed;
  Alcotest.(check int) "flights counter" total
    (List.assoc "flights" s.Telemetry.s_counters);
  (* overwrite-oldest: exactly the globally most recent [capacity] seqs *)
  Alcotest.(check int) "ring full" capacity
    (List.length s.Telemetry.s_recent);
  let seqs =
    List.map (fun (r : Flight.record) -> r.Flight.r_seq) s.Telemetry.s_recent
  in
  Alcotest.(check (list int))
    "ring holds the most recent completions"
    (List.init capacity (fun i -> total - capacity + i))
    seqs

let test_overwrite_oldest_single_writer () =
  let config =
    { Telemetry.default_config with Telemetry.capacity = 8; stripes = 2 }
  in
  let t = Telemetry.create ~config () in
  for i = 0 to 19 do
    ignore (fly t ~id:i ~session:"w0" ())
  done;
  let s = Telemetry.snapshot t in
  Alcotest.(check int) "completed" 20 s.Telemetry.s_completed;
  Alcotest.(check (list int))
    "last 8 in completion order"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun (r : Flight.record) -> r.Flight.r_seq) s.Telemetry.s_recent)

(* --- tail sampling ----------------------------------------------------- *)

let test_tail_sampling () =
  (* errors are always sampled, whatever the histogram state *)
  let config =
    { Telemetry.default_config with Telemetry.min_samples = 1_000_000 }
  in
  let t = Telemetry.create ~config () in
  let r1 = fly t ~id:0 ~session:"w0" ~status:Flight.Deadline_exceeded () in
  let r2 = fly t ~id:1 ~session:"w0" ~status:(Flight.Failed "boom") () in
  let r3 = fly t ~id:2 ~session:"w0" ~exec_time:100.0 () in
  Alcotest.(check bool) "deadline sampled" true r1.Flight.r_sampled;
  Alcotest.(check bool) "failure sampled" true r2.Flight.r_sampled;
  Alcotest.(check bool)
    "success below min_samples never sampled" false r3.Flight.r_sampled;
  (* with the histogram primed, only slow successes keep their trees *)
  let config =
    {
      Telemetry.default_config with
      Telemetry.min_samples = 1;
      slow_quantile = 0.5;
    }
  in
  let t = Telemetry.create ~config () in
  let first = fly t ~id:0 ~session:"w0" ~exec_time:0.010 () in
  Alcotest.(check bool)
    "first success: empty histogram, not sampled" false first.Flight.r_sampled;
  let slow = fly t ~id:1 ~session:"w0" ~exec_time:5.0 () in
  Alcotest.(check bool) "slow success sampled" true slow.Flight.r_sampled;
  let fast = fly t ~id:2 ~session:"w0" ~exec_time:0.0001 () in
  Alcotest.(check bool) "fast success dropped" false fast.Flight.r_sampled;
  let s = Telemetry.snapshot t in
  Alcotest.(check int) "sampled counter" 1
    (List.assoc "sampled" s.Telemetry.s_counters);
  (* through a server: dead-on-arrival deadlines among a served stream
     end as error flights, and every one of them is sampled *)
  let cat = Fixtures.shop_catalog ~n_orders:400 () in
  let registry = Stats_registry.create cat in
  let queries = Array.of_list (Fuzz.queries cat ~seed:424 ~n:8 ()) in
  let snap =
    Pool.with_pool ~domains:2 (fun pool ->
        let config =
          {
            Server.default_config with
            Server.telemetry =
              { Telemetry.default_config with Telemetry.min_samples = 4 };
          }
        in
        let server = Server.create ~config ~pool registry Estimator.default in
        for i = 0 to 39 do
          let deadline = if i mod 5 = 0 then Some 0.0 else None in
          ignore
            (Server.submit server
               ~session:("s" ^ string_of_int (i mod 4))
               ?deadline
               queries.(i mod Array.length queries))
        done;
        Server.drain server;
        Server.telemetry_snapshot server)
  in
  let errors =
    List.filter
      (fun (r : Flight.record) -> r.Flight.r_status <> Flight.Completed)
      snap.Telemetry.s_recent
  in
  Alcotest.(check int) "served error flights" 8 (List.length errors);
  List.iter
    (fun (r : Flight.record) ->
      Alcotest.(check bool) "served error flight sampled" true r.Flight.r_sampled)
    errors

(* a sampled flight retains the spans its own tracer recorded; an
   unsampled one keeps only the rollup *)
let test_sampled_flights_keep_span_trees () =
  let t = Telemetry.create () in
  let run ~status =
    let fl =
      Telemetry.admit t ~id:0 ~session:"s" ~statement:"q" ~strategy:"s"
        ~cache_hit:false ~est_cost:1.0 ()
    in
    Telemetry.dispatch t fl;
    let t0 = Qs_util.Timer.now () in
    Span.add (Flight.spans fl) Span.Execute "probe" ~start:t0 ~dur:0.001;
    Telemetry.complete t fl ~status ~row_count:0 ~queue_wait:0.0
      ~exec_time:0.0 ~faults:0 ~bypasses:0
  in
  let err = run ~status:(Flight.Failed "x") in
  Alcotest.(check int) "error keeps full tree" 1
    (List.length err.Flight.r_spans);
  Alcotest.(check bool)
    "rollup survives either way" true
    (List.exists
       (fun (cat, n, _) -> cat = "execute" && n = 1)
       err.Flight.r_phases);
  let ok = run ~status:Flight.Completed in
  Alcotest.(check bool) "fresh-histogram success drops tree" true
    (ok.Flight.r_spans = [] && not ok.Flight.r_sampled);
  Alcotest.(check bool)
    "dropped tree still has the rollup" true
    (List.exists (fun (cat, n, _) -> cat = "execute" && n = 1) ok.Flight.r_phases)

(* --- journal capture without an attached tracer ------------------------ *)

let test_journal_without_tracer () =
  let cat = Fixtures.shop_catalog () in
  let registry = Stats_registry.create cat in
  let fl =
    Flight.create ~tracer:true ~id:7 ~session:"s" ~statement:"shopq"
      ~strategy:"querysplit" ~cache_hit:false ~est_cost:1.0
      ~submitted:(Qs_util.Timer.now ()) ()
  in
  let ctx =
    Strategy.make_ctx ?spans:(Flight.spans fl) ~flight:fl registry
      Estimator.default
  in
  let q = Fixtures.shop_query () in
  let outcome = (Querysplit.strategy Querysplit.default_config).Strategy.run ctx q in
  let steps = Flight.journal fl in
  Alcotest.(check int) "one journal entry per strategy iteration"
    (List.length outcome.Strategy.iterations)
    (List.length steps);
  Alcotest.(check bool) "querysplit iterates" true (steps <> []);
  List.iter
    (fun (s : Flight.step) ->
      Alcotest.(check bool) "journal entries carry a score" true
        (Option.is_some s.Flight.score);
      Alcotest.(check bool) "actual rows are observed" true
        (s.Flight.actual_rows >= 0))
    steps;
  (* the remaining-subquery count is non-increasing along the journal *)
  ignore
    (List.fold_left
       (fun prev (s : Flight.step) ->
         if s.Flight.remaining > prev then
           Alcotest.failf "remaining grew from %d to %d" prev
             s.Flight.remaining;
         s.Flight.remaining)
       max_int steps);
  (* the flight's own tracer saw the same steps as Reopt_step spans *)
  let reopt =
    List.filter
      (fun (sp : Span.span) -> sp.Span.cat = Span.Reopt_step)
      (Span.spans (Option.get (Flight.spans fl)))
  in
  Alcotest.(check int) "journal and span trace agree"
    (List.length steps) (List.length reopt)

(* --- deterministic rendering over the serving path --------------------- *)

let serve_batch () =
  let cat = Fixtures.shop_catalog ~n_orders:600 () in
  let registry = Stats_registry.create cat in
  let queries = Fuzz.queries cat ~seed:424 ~n:6 () in
  Pool.with_pool ~domains:1 (fun pool ->
      let config =
        { Server.default_config with Server.concurrency = 1 }
      in
      let server =
        Server.create ~config
          ~strategy:(Querysplit.strategy Querysplit.default_config)
          ~pool registry Estimator.default
      in
      let tickets =
        List.map (fun q -> Server.submit server ~session:"s" q) queries
      in
      List.iter (fun tk -> ignore (Server.await server tk)) tickets;
      Server.drain server;
      Server.telemetry_snapshot server)

let test_snapshot_render_deterministic () =
  let a = serve_batch () and b = serve_batch () in
  let ra = Telemetry.render ~timings:false a
  and rb = Telemetry.render ~timings:false b in
  Alcotest.(check string) "timing-free dashboards are byte-identical" ra rb;
  (* the deterministic view still carries the interesting payload *)
  Alcotest.(check int) "all six flights retained" 6
    (List.length a.Telemetry.s_recent);
  Alcotest.(check bool) "some flight journaled a re-opt step" true
    (List.exists
       (fun (r : Flight.record) -> r.Flight.r_journal <> [])
       a.Telemetry.s_recent);
  Alcotest.(check bool) "journal lines render" true
    (Str_helpers.contains ra "est=")

(* --- prometheus exposition --------------------------------------------- *)

let test_prometheus_exposition () =
  let t = Telemetry.create () in
  ignore (fly t ~id:0 ~session:"w0" ());
  ignore (fly t ~id:1 ~session:"w0" ~status:(Flight.Failed "x") ());
  let text = Telemetry.to_prometheus t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition contains " ^ needle) true
        (Str_helpers.contains text needle))
    [
      "qs_flights_admitted_total 2";
      "qs_flights_total{status=\"completed\"} 1";
      "qs_flights_total{status=\"failed\"} 1";
      "qs_latency_seconds_count{status=\"completed\"} 1";
      "qs_in_flight 0";
    ]

let test_metrics_bridge () =
  let t = Telemetry.create () in
  for i = 0 to 4 do
    ignore (fly t ~id:i ~session:"w0" ())
  done;
  let m = Telemetry.metrics t in
  Alcotest.(check int) "admitted" 5 (Metrics.counter m "admitted");
  Alcotest.(check int) "completed" 5 (Metrics.counter m "completed")

let suite =
  [
    Alcotest.test_case "ring survives 4 concurrent writer domains" `Quick
      test_ring_concurrent_writers;
    Alcotest.test_case "ring overwrites oldest in completion order" `Quick
      test_overwrite_oldest_single_writer;
    Alcotest.test_case "tail sampling: errors always, successes by quantile"
      `Quick test_tail_sampling;
    Alcotest.test_case "sampled flights keep span trees" `Quick
      test_sampled_flights_keep_span_trees;
    Alcotest.test_case "journal captured without a tracer" `Quick
      test_journal_without_tracer;
    Alcotest.test_case "snapshot render is deterministic" `Quick
      test_snapshot_render_deterministic;
    Alcotest.test_case "prometheus exposition" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "metrics bridge" `Quick test_metrics_bridge;
  ]
