(* The serving front end: stress under concurrent mixed-cost load,
   scheduler starvation/ordering properties, deadline and cancellation
   paths, and the shared epoch-stamped plan cache. The recurring
   assertion is the differential one: whatever the admission order,
   policy, pool width or cache state, every Completed digest must be
   byte-identical to plain single-session execution. *)

module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Value = Qs_storage.Value
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Estimator = Qs_stats.Estimator
module Stats_registry = Qs_stats.Stats_registry
module Optimizer = Qs_plan.Optimizer
module Plan_cache = Qs_plan.Plan_cache
module Executor = Qs_exec.Executor
module Strategy = Qs_core.Strategy
module Scheduler = Qs_serve.Scheduler
module Server = Qs_serve.Server
module Metrics = Qs_obs.Metrics
module Fuzz = Qs_workload.Fuzz
module Pool = Qs_util.Pool
module Cancel = Qs_util.Cancel
module Rng = Qs_util.Rng

let shop_env ?n_orders () =
  let cat = Fixtures.shop_catalog ?n_orders () in
  Catalog.build_indexes cat Catalog.Pk_fk;
  (cat, Stats_registry.create cat)

(* single-session reference: the exact path the server's fast path takes,
   minus every serving concern *)
let expected_digest registry q =
  let ctx = Strategy.make_ctx registry Estimator.default in
  let frag = Strategy.fragment_of_query ctx q in
  let r =
    Optimizer.optimize (Stats_registry.catalog registry) Estimator.default frag
  in
  let tbl, _ = Executor.run r.Optimizer.plan in
  Table.digest (Executor.project ~name:q.Query.name tbl q.Query.output)

let check_status ?(msg = "status") expected (r : Server.result) =
  let show = function
    | Server.Completed -> "completed"
    | Server.Deadline_exceeded -> "deadline_exceeded"
    | Server.Cancelled -> "cancelled"
    | Server.Failed e -> "failed: " ^ e
  in
  Alcotest.(check string) msg (show expected) (show r.Server.status)

(* --- stress: 500+ concurrent mixed-cost queries ----------------------- *)

let test_stress_concurrent () =
  let cat, registry = shop_env () in
  let distinct = Fuzz.queries cat ~seed:20230807 ~n:60 () in
  let expect =
    List.map (fun (q : Query.t) -> (q.Query.name, expected_digest registry q))
      distinct
  in
  let arr = Array.of_list distinct in
  let stream = List.init 520 (fun i -> arr.(i mod Array.length arr)) in
  Pool.with_pool ~domains:2 (fun pool ->
      let server = Server.create ~pool registry Estimator.default in
      let tickets =
        List.mapi
          (fun i q ->
            Server.submit server
              ~session:("s" ^ string_of_int (i mod 4))
              q)
          stream
      in
      let rs = List.map (Server.await server) tickets in
      Server.drain server;
      Alcotest.(check int) "all queries completed" 520 (List.length rs);
      List.iter
        (fun (r : Server.result) ->
          check_status Server.Completed r;
          match r.Server.digest with
          | None -> Alcotest.fail "completed without digest"
          | Some d ->
              Alcotest.(check string)
                ("digest of " ^ r.Server.query)
                (List.assoc r.Server.query expect)
                d)
        rs;
      (* the pool drained back to idle *)
      Alcotest.(check int) "no queued pool jobs" 0 (Pool.pending pool);
      let m = Server.metrics server in
      Alcotest.(check int) "metrics completed" 520 (Metrics.counter m "completed");
      Alcotest.(check int) "metrics submitted" 520 (Metrics.counter m "submitted");
      (* 4 sessions, round-robin admission *)
      Alcotest.(check int) "session s0 share" 130 (Metrics.counter m "queries:s0"))

(* --- scheduler properties (pure, fixed seed) -------------------------- *)

(* Adversarial arrival pattern: one expensive entry, then a steady stream
   of cheaper arrivals every round. Aging must still dispatch the
   expensive entry within [aging_rounds + 2] rounds — the provable bound
   when it is the only aged entry. *)
let test_starvation_freedom () =
  let rng = Rng.create 42 in
  let aging_rounds = 6 in
  for _trial = 0 to 49 do
    let next_id = ref 0 in
    let fresh cost =
      let e = Scheduler.entry ~id:!next_id ~cost () in
      incr next_id;
      e
    in
    let heavy_cost = 1000.0 +. float_of_int (Rng.int rng 1000) in
    let queue = ref [ fresh heavy_cost ] in
    let heavy_id = 0 in
    let dispatched_at = ref None in
    let round = ref 0 in
    while Option.is_none !dispatched_at && !round < 100 do
      (* two cheap arrivals per round: the queue only ever grows *)
      queue :=
        !queue
        @ [
            fresh (float_of_int (Rng.int rng 900));
            fresh (float_of_int (Rng.int rng 900));
          ];
      incr round;
      match Scheduler.pick Scheduler.Cost_aware ~aging_rounds !queue with
      | None -> Alcotest.fail "pick returned None on non-empty queue"
      | Some e ->
          queue :=
            List.filter
              (fun (x : unit Scheduler.entry) -> x.Scheduler.id <> e.Scheduler.id)
              !queue;
          if e.Scheduler.id = heavy_id then dispatched_at := Some !round
    done;
    match !dispatched_at with
    | None -> Alcotest.fail "heavy entry starved"
    | Some r ->
        if r > aging_rounds + 2 then
          Alcotest.failf "heavy dispatched only at round %d (aging %d)" r
            aging_rounds
  done

(* Within one aging window, cost-aware picks exactly by (cost, id). *)
let test_pick_order_deterministic () =
  let rng = Rng.create 7 in
  for _trial = 0 to 19 do
    let entries =
      List.init 12 (fun id ->
          Scheduler.entry ~id ~cost:(float_of_int (Rng.int rng 5)) ())
    in
    let by_cost =
      List.sort
        (fun (a : unit Scheduler.entry) b ->
          compare (a.Scheduler.cost, a.Scheduler.id)
            (b.Scheduler.cost, b.Scheduler.id))
        entries
      |> List.map (fun (e : unit Scheduler.entry) -> e.Scheduler.id)
    in
    let queue = ref entries in
    let picked = ref [] in
    while !queue <> [] do
      match
        Scheduler.pick Scheduler.Cost_aware ~aging_rounds:1000 !queue
      with
      | None -> Alcotest.fail "pick returned None"
      | Some e ->
          picked := e.Scheduler.id :: !picked;
          queue :=
            List.filter
              (fun (x : unit Scheduler.entry) ->
                x.Scheduler.id <> e.Scheduler.id)
              !queue
    done;
    Alcotest.(check (list int)) "picked by (cost,id)" by_cost (List.rev !picked)
  done

(* FIFO and cost-aware must produce identical result digests, at one
   and two concurrent queries, while releasing the queue in different
   orders. Admission is done on a paused server so both policies see the
   same fully-built queue. *)
let test_policy_digest_equivalence () =
  let cat, registry = shop_env ~n_orders:600 () in
  let queries = Fuzz.queries cat ~seed:11 ~n:10 () in
  let run ?(width = 1) policy =
    Pool.with_pool ~domains:width (fun pool ->
        let config =
          {
            Server.default_config with
            Server.concurrency = width;
            policy;
            aging_rounds = 1000;
            autostart = false;
          }
        in
        let server = Server.create ~config ~pool registry Estimator.default in
        let tickets =
          List.map (fun q -> Server.submit server ~session:"s" q) queries
        in
        Server.start server;
        let rs = List.map (Server.await server) tickets in
        Server.drain server;
        List.iter (check_status Server.Completed) rs;
        ( List.map
            (fun (r : Server.result) -> (r.Server.query, r.Server.digest))
            rs,
          Server.dispatch_order server ))
  in
  let fifo_digests, fifo_order = run Scheduler.Fifo in
  let ca_digests, ca_order = run Scheduler.Cost_aware in
  Alcotest.(check (list (pair string (option string))))
    "identical digests under both policies" fifo_digests ca_digests;
  List.iter
    (fun policy ->
      Alcotest.(check (list (pair string (option string))))
        "identical digests at width 2" fifo_digests
        (fst (run ~width:2 policy)))
    [ Scheduler.Fifo; Scheduler.Cost_aware ];
  Alcotest.(check (list int))
    "fifo releases in admission order"
    (List.init (List.length queries) Fun.id)
    fifo_order;
  if fifo_order = ca_order then
    Alcotest.fail
      "cost-aware released the queue in FIFO order — corpus has no cost \
       spread to schedule on"

(* --- deadlines and cancellation --------------------------------------- *)

let test_deadline_zero () =
  let _cat, registry = shop_env ~n_orders:400 () in
  let q = Fixtures.shop_query () in
  Pool.with_pool ~domains:1 (fun pool ->
      let server = Server.create ~pool registry Estimator.default in
      let t = Server.submit server ~session:"s" ~deadline:0.0 q in
      let r = Server.await server t in
      check_status Server.Deadline_exceeded r;
      Alcotest.(check (option string)) "no digest" None r.Server.digest;
      Alcotest.(check int) "no rows" 0 r.Server.row_count;
      (* dead-on-arrival: never executed *)
      if r.Server.exec_time > 0.05 then
        Alcotest.failf "expired query still ran for %.3fs" r.Server.exec_time;
      (* the server is not poisoned: the same statement completes next *)
      let r2 = Server.await server (Server.submit server ~session:"s" q) in
      check_status Server.Completed r2;
      Alcotest.(check (option string))
        "digest after expiry" (Some (expected_digest registry q))
        r2.Server.digest;
      Server.drain server)

let test_generous_deadline_completes () =
  let _cat, registry = shop_env ~n_orders:400 () in
  let q = Fixtures.shop_query () in
  Pool.with_pool ~domains:1 (fun pool ->
      let server = Server.create ~pool registry Estimator.default in
      let r =
        Server.await server (Server.submit server ~session:"s" ~deadline:60.0 q)
      in
      check_status Server.Completed r;
      Server.drain server)

let test_cancel_before_start () =
  let _cat, registry = shop_env ~n_orders:400 () in
  let q = Fixtures.shop_query () in
  Pool.with_pool ~domains:1 (fun pool ->
      let config = { Server.default_config with Server.autostart = false } in
      let server = Server.create ~config ~pool registry Estimator.default in
      let token = Cancel.create () in
      let t = Server.submit server ~session:"s" ~cancel:token q in
      Cancel.cancel token;
      Server.start server;
      let r = Server.await server t in
      check_status Server.Cancelled r;
      Alcotest.(check (option string)) "no digest" None r.Server.digest;
      (* registry / plan cache / pool all stay consistent for the next query *)
      let r2 = Server.await server (Server.submit server ~session:"s" q) in
      check_status Server.Completed r2;
      Alcotest.(check (option string))
        "digest after cancellation" (Some (expected_digest registry q))
        r2.Server.digest;
      Alcotest.(check bool) "plan served from cache" true r2.Server.cache_hit;
      Server.drain server;
      Alcotest.(check int) "pool idle" 0 (Pool.pending pool))

(* Mid-join cancellation at the executor level: two 20k-row relations so
   the scan crosses the 16384-row batch boundary where the token is
   polled. The cancelled run must unwind with [Cancel.Cancelled], and an
   immediate re-run of the same plan must produce the pre-cancellation
   digest — no scratch/stats state leaks out of the unwound join. *)
let test_cancel_mid_join () =
  let n = 20_000 in
  let cat = Catalog.create () in
  let mk name =
    Table.create ~inputs:[] ~name
      ~schema:(Schema.make name [ ("id", Value.TInt); ("fk", Value.TInt) ])
      (Array.init n (fun j ->
           [| Value.Int (j + 1); Value.Int (1 + (j * 13 mod n)) |]))
  in
  Catalog.add_table cat ~pk:"id" (mk "big_a");
  Catalog.add_table cat ~pk:"id" (mk "big_b");
  Catalog.add_fk cat ~from_table:"big_b" ~from_column:"fk" ~to_table:"big_a"
    ~to_column:"id";
  Catalog.build_indexes cat Catalog.Pk_fk;
  let registry = Stats_registry.create cat in
  let q =
    Query.make ~name:"big_join"
      [
        { Query.alias = "a"; table = "big_a" };
        { Query.alias = "b"; table = "big_b" };
      ]
      [ Expr.eq (Expr.col "b" "fk") (Expr.col "a" "id") ]
  in
  let ctx = Strategy.make_ctx registry Estimator.default in
  let frag = Strategy.fragment_of_query ctx q in
  let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
  let clean () = Table.digest (fst (Executor.run plan)) in
  let before = clean () in
  let token = Cancel.create () in
  Cancel.cancel token;
  (match Executor.run ~cancel:token plan with
  | _ -> Alcotest.fail "cancelled run returned a result"
  | exception Cancel.Cancelled -> ());
  Alcotest.(check string) "digest unchanged after unwound join" before (clean ())

(* --- the shared plan cache -------------------------------------------- *)

let test_cache_cross_session_and_invalidate () =
  let _cat, registry = shop_env ~n_orders:400 () in
  let q = Fixtures.shop_query () in
  Pool.with_pool ~domains:1 (fun pool ->
      let server = Server.create ~pool registry Estimator.default in
      let r1 = Server.await server (Server.submit server ~session:"a" q) in
      let r2 = Server.await server (Server.submit server ~session:"b" q) in
      Alcotest.(check bool) "first resolve misses" false r1.Server.cache_hit;
      Alcotest.(check bool) "cross-session hit" true r2.Server.cache_hit;
      Alcotest.(check (option string))
        "served digests agree" r1.Server.digest r2.Server.digest;
      let cache = Server.plan_cache server in
      Alcotest.(check int) "one miss" 1 (Plan_cache.misses cache);
      Alcotest.(check int) "one hit" 1 (Plan_cache.hits cache);
      (* an epoch bump re-keys the statement: forced miss, fresh plan *)
      Stats_registry.invalidate registry "orders";
      let r3 = Server.await server (Server.submit server ~session:"a" q) in
      Alcotest.(check bool) "miss after invalidate" false r3.Server.cache_hit;
      Alcotest.(check int) "second miss" 2 (Plan_cache.misses cache);
      Alcotest.(check (option string))
        "digest stable across re-plan" r1.Server.digest r3.Server.digest;
      Server.drain server)

(* Cached-vs-cold differential over a 200-query corpus: every statement
   is served twice — the second submission must hit the cache and both
   must match cold single-session execution. *)
let test_cache_differential_corpus () =
  let cat, registry = shop_env ~n_orders:400 () in
  let queries = Fuzz.queries cat ~seed:20230617 ~n:200 () in
  Pool.with_pool ~domains:2 (fun pool ->
      let server = Server.create ~pool registry Estimator.default in
      List.iter
        (fun (q : Query.t) ->
          let cold = expected_digest registry q in
          let r1 = Server.await server (Server.submit server ~session:"x" q) in
          let r2 = Server.await server (Server.submit server ~session:"y" q) in
          check_status ~msg:("cold-serve " ^ q.Query.name) Server.Completed r1;
          check_status ~msg:("cached-serve " ^ q.Query.name) Server.Completed r2;
          Alcotest.(check bool)
            ("second serve of " ^ q.Query.name ^ " hits cache")
            true r2.Server.cache_hit;
          Alcotest.(check (option string))
            ("cold digest of " ^ q.Query.name)
            (Some cold) r1.Server.digest;
          Alcotest.(check (option string))
            ("cached digest of " ^ q.Query.name)
            (Some cold) r2.Server.digest)
        queries;
      Server.drain server;
      let cache = Server.plan_cache server in
      (* the cache keys on SQL text: queries with identical rendered
         statements share one entry even under different display names *)
      let distinct_sql =
        List.length (List.sort_uniq compare (List.map Query.to_sql queries))
      in
      Alcotest.(check int)
        "misses = distinct statements" distinct_sql
        (Plan_cache.misses cache))

(* --- pool substrate additions ----------------------------------------- *)

let test_pool_submit_help_until () =
  Pool.with_pool ~domains:2 (fun pool ->
      let done_ = Atomic.make 0 in
      for _ = 1 to 50 do
        Pool.submit pool (fun () -> ignore (Atomic.fetch_and_add done_ 1))
      done;
      Pool.help_until pool (fun () -> Atomic.get done_ = 50);
      Alcotest.(check int) "all jobs ran" 50 (Atomic.get done_);
      Alcotest.(check int) "queue drained" 0 (Pool.pending pool))

let test_pool_submit_contains_exceptions () =
  Pool.with_pool ~domains:1 (fun pool ->
      let after = Atomic.make false in
      Pool.submit pool (fun () -> failwith "contained");
      Pool.submit pool (fun () -> Atomic.set after true);
      Pool.help_until pool (fun () -> Atomic.get after);
      Alcotest.(check bool) "pool survives a raising job" true
        (Atomic.get after))

let suite =
  [
    Alcotest.test_case "stress 520 concurrent mixed queries" `Slow
      test_stress_concurrent;
    Alcotest.test_case "scheduler starvation freedom" `Quick
      test_starvation_freedom;
    Alcotest.test_case "scheduler picks by (cost,id)" `Quick
      test_pick_order_deterministic;
    Alcotest.test_case "fifo vs cost-aware digest equivalence" `Quick
      test_policy_digest_equivalence;
    Alcotest.test_case "zero deadline exceeds without executing" `Quick
      test_deadline_zero;
    Alcotest.test_case "generous deadline completes" `Quick
      test_generous_deadline_completes;
    Alcotest.test_case "cancel before start" `Quick test_cancel_before_start;
    Alcotest.test_case "cancel mid-join leaves state consistent" `Quick
      test_cancel_mid_join;
    Alcotest.test_case "plan cache cross-session + invalidate" `Quick
      test_cache_cross_session_and_invalidate;
    Alcotest.test_case "plan cache differential 200q corpus" `Slow
      test_cache_differential_corpus;
    Alcotest.test_case "pool submit/help_until" `Quick
      test_pool_submit_help_until;
    Alcotest.test_case "pool submit contains exceptions" `Quick
      test_pool_submit_contains_exceptions;
  ]
