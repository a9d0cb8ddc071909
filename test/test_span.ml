(* The span-tracing subsystem: recorder semantics (nesting, disabled
   passthrough, per-domain tracks), the Chrome trace_event exporter
   (validated with the Json_parse reference parser), the deterministic
   profile summary, and span emission from the optimizer / pool /
   executor. *)

module Span = Qs_util.Span
module Pool = Qs_util.Pool
module Timer = Qs_util.Timer
module Chrome_trace = Qs_obs.Chrome_trace
module Profile = Qs_obs.Profile
module Estimator = Qs_stats.Estimator
module Optimizer = Qs_plan.Optimizer
module Physical = Qs_plan.Physical
module Executor = Qs_exec.Executor
module Strategy = Qs_core.Strategy
module Querysplit = Qs_core.Querysplit

let find_all cat spans = List.filter (fun (s : Span.span) -> s.Span.cat = cat) spans

(* --- recorder semantics ------------------------------------------------ *)

let test_span_nesting () =
  let t = Span.create () in
  let tr = Some t in
  let r =
    Span.span tr Span.Optimize "outer" (fun () ->
        Span.span tr Span.Estimate ~args:[ ("k", "v") ] "inner" (fun () -> 41)
        + 1)
  in
  Alcotest.(check int) "body result" 42 r;
  Alcotest.(check int) "two spans" 2 (Span.count t);
  match Span.spans t with
  | [ outer; inner ] ->
      Alcotest.(check string) "outer name" "outer" outer.Span.name;
      Alcotest.(check string) "inner name" "inner" inner.Span.name;
      Alcotest.(check int) "outer has no parent" (-1) outer.Span.parent;
      Alcotest.(check int) "inner's parent is outer" outer.Span.id
        inner.Span.parent;
      Alcotest.(check int) "same track" outer.Span.track inner.Span.track;
      Alcotest.(check (list (pair string string))) "args" [ ("k", "v") ]
        inner.Span.args;
      Alcotest.(check bool) "starts ordered" true
        (outer.Span.start <= inner.Span.start);
      Alcotest.(check bool) "inner within outer" true
        (inner.Span.start +. inner.Span.dur
        <= outer.Span.start +. outer.Span.dur +. 1e-9);
      Alcotest.(check bool) "non-negative" true
        (outer.Span.start >= 0.0 && outer.Span.dur >= 0.0)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_disabled_passthrough () =
  (* with [None] every emitter is inert and [span] is exactly [f ()] *)
  Alcotest.(check int) "span None runs f" 7
    (Span.span None Span.Execute "x" (fun () -> 7));
  Span.add None Span.Operator "x" ~start:(Timer.now ()) ~dur:1.0;
  Span.instant None Span.Analyze "x";
  (match Span.span None Span.Execute "x" (fun () -> raise Exit) with
  | exception Exit -> ()
  | _ -> Alcotest.fail "exception must propagate")

let test_span_records_on_exception () =
  let t = Span.create () in
  (try Span.span (Some t) Span.Execute "boom" (fun () -> raise Exit)
   with Exit -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (Span.count t);
  let s = List.hd (Span.spans t) in
  Alcotest.(check string) "name" "boom" s.Span.name

let test_span_add_clamps () =
  let t = Span.create () in
  (* an absolute start long before the tracer existed clamps to 0 *)
  Span.add (Some t) Span.Estimate "early" ~start:0.0 ~dur:0.5;
  Span.add (Some t) Span.Estimate "now" ~start:(Timer.now ()) ~dur:0.25;
  (match Span.spans t with
  | [ early; now_ ] ->
      Alcotest.(check (float 0.0)) "clamped start" 0.0 early.Span.start;
      Alcotest.(check (float 0.0)) "dur kept" 0.5 early.Span.dur;
      Alcotest.(check bool) "recent start >= 0" true (now_.Span.start >= 0.0)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  (* spans come back sorted by (start, id) even when added out of order *)
  Span.add (Some t) Span.Estimate "also-early" ~start:0.0 ~dur:0.1;
  let names = List.map (fun (s : Span.span) -> s.Span.name) (Span.spans t) in
  Alcotest.(check (list string)) "sorted by start then id"
    [ "early"; "also-early"; "now" ] names

(* --- pool spans -------------------------------------------------------- *)

let test_pool_spans () =
  let t = Span.create () in
  let items = [ 1; 2; 3; 4; 5; 6 ] in
  let out =
    Pool.with_pool ~tracer:t ~domains:2 (fun p ->
        Pool.map p (fun x -> x * x) items)
  in
  Alcotest.(check (list int)) "results" [ 1; 4; 9; 16; 25; 36 ] out;
  let spans = Span.spans t in
  Alcotest.(check int) "one pool-task per item" (List.length items)
    (List.length (find_all Span.Pool_task spans));
  Alcotest.(check int) "one queue-wait per item" (List.length items)
    (List.length (find_all Span.Pool_wait spans));
  let tracks =
    List.sort_uniq Int.compare
      (List.map (fun (s : Span.span) -> s.Span.track) (find_all Span.Pool_task spans))
  in
  Alcotest.(check bool) "tasks attributed to >= 1 track" true
    (List.length tracks >= 1)

let test_pool_inline_paths_record_nothing () =
  let t = Span.create () in
  let a =
    Pool.with_pool ~tracer:t ~domains:1 (fun p -> Pool.map p succ [ 1; 2; 3 ])
  in
  let b = Pool.with_pool ~tracer:t ~domains:4 (fun p -> Pool.map p succ [ 9 ]) in
  Alcotest.(check (list int)) "inline pool maps" [ 2; 3; 4 ] a;
  Alcotest.(check (list int)) "single item maps" [ 10 ] b;
  Alcotest.(check int) "no spans on the fast paths" 0 (Span.count t)

(* --- optimizer spans --------------------------------------------------- *)

let test_optimizer_dp_level_spans () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:200 () in
  let q = Fixtures.shop_query () in
  let frag = Strategy.fragment_of_query ctx q in
  let n = List.length frag.Qs_stats.Fragment.inputs in
  Alcotest.(check int) "4-way join" 4 n;
  let t = Span.create () in
  let traced = Optimizer.optimize ~spans:t cat Estimator.default frag in
  let plain = Optimizer.optimize cat Estimator.default frag in
  Alcotest.(check string) "tracing does not change the plan"
    (Physical.to_string plain.Optimizer.plan)
    (Physical.to_string traced.Optimizer.plan);
  let spans = Span.spans t in
  (match find_all Span.Optimize spans with
  | [ o ] ->
      Alcotest.(check string) "optimize span names the DP size"
        (Printf.sprintf "dp n=%d" n) o.Span.name
  | l -> Alcotest.failf "expected 1 optimize span, got %d" (List.length l));
  let levels = find_all Span.Dp_level spans in
  (* levels 2..n of the subset enumeration, one span each *)
  Alcotest.(check int) "one span per DP level" (n - 1) (List.length levels);
  Alcotest.(check (list string)) "level names in order"
    (List.init (n - 1) (fun i -> Printf.sprintf "dp-level-%d" (i + 2)))
    (List.map (fun (s : Span.span) -> s.Span.name) levels);
  List.iter
    (fun (s : Span.span) ->
      match List.assoc_opt "subsets" s.Span.args with
      | Some v -> Alcotest.(check bool) "subsets arg positive" true (int_of_string v > 0)
      | None -> Alcotest.failf "%s missing subsets arg" s.Span.name)
    levels

(* --- executor operator spans ------------------------------------------- *)

let test_executor_operator_spans () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:400 () in
  let q = Fixtures.shop_query () in
  let frag = Strategy.fragment_of_query ctx q in
  let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
  let t = Span.create () in
  let _, stats = Executor.run ~spans:t plan in
  let ops = find_all Span.Operator (Span.spans t) in
  Alcotest.(check int) "one operator span per plan node"
    (List.length (Physical.nodes plan))
    (List.length ops);
  let span_of_node (p : Physical.t) =
    List.find_opt
      (fun (s : Span.span) ->
        List.assoc_opt "node" s.Span.args = Some (string_of_int p.Physical.id))
      ops
  in
  List.iter
    (fun (p : Physical.t) ->
      match span_of_node p with
      | None -> Alcotest.failf "node %d has no operator span" p.Physical.id
      | Some s ->
          Alcotest.(check string)
            (Printf.sprintf "label of node %d" p.Physical.id)
            (Executor.span_label p) s.Span.name;
          Alcotest.(check (option string))
            (Printf.sprintf "actual_rows of node %d" p.Physical.id)
            (Some (string_of_int (Hashtbl.find stats p.Physical.id)))
            (List.assoc_opt "actual_rows" s.Span.args))
    (Physical.nodes plan)

(* --- chrome trace export ----------------------------------------------- *)

let test_chrome_trace_valid () =
  let t = Span.create () in
  Span.span (Some t) Span.Execute "q" (fun () ->
      Span.span (Some t) Span.Optimize ~args:[ ("inputs", "3") ] "dp n=3"
        (fun () -> ()));
  ignore (Pool.with_pool ~tracer:t ~domains:2 (fun p -> Pool.map p succ [ 1; 2; 3 ]));
  let json = Chrome_trace.to_json t in
  let parsed =
    match Json_parse.parse json with
    | Ok j -> j
    | Error m -> Alcotest.failf "trace is not valid JSON: %s" m
  in
  let events =
    match parsed with
    | Json_parse.List l -> l
    | _ -> Alcotest.fail "trace must be a JSON array"
  in
  let field name = function
    | Json_parse.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let xs =
    List.filter (fun e -> field "ph" e = Some (Json_parse.Str "X")) events
  in
  let metas =
    List.filter (fun e -> field "ph" e = Some (Json_parse.Str "M")) events
  in
  Alcotest.(check int) "one complete event per span" (Span.count t)
    (List.length xs);
  Alcotest.(check int) "nothing besides X and M events" (List.length events)
    (List.length xs + List.length metas);
  (* every track referenced by an event has a thread_name metadata event *)
  let num name e =
    match field name e with
    | Some (Json_parse.Num v) -> v
    | _ -> Alcotest.failf "event missing numeric %s" name
  in
  let meta_tids = List.map (num "tid") metas in
  List.iter
    (fun e ->
      if not (List.mem (num "tid" e) meta_tids) then
        Alcotest.fail "event tid without thread_name metadata")
    xs;
  (* microsecond timestamps: non-negative, monotone in file order *)
  let last = ref neg_infinity in
  List.iter
    (fun e ->
      let ts = num "ts" e and dur = num "dur" e in
      Alcotest.(check bool) "ts >= 0" true (ts >= 0.0);
      Alcotest.(check bool) "dur >= 0" true (dur >= 0.0);
      Alcotest.(check bool) "ts monotone" true (ts >= !last);
      last := ts)
    xs;
  (* span ids survive the round-trip and stay unique *)
  let ids =
    List.map
      (fun e ->
        match field "args" e with
        | Some (Json_parse.Obj args) -> (
            match List.assoc_opt "id" args with
            | Some (Json_parse.Str s) -> s
            | _ -> Alcotest.fail "args.id missing")
        | _ -> Alcotest.fail "args missing")
      xs
  in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* --- profile summary --------------------------------------------------- *)

(* golden: with [timings:false] the summary is a pure function of the
   recorded spans, so its exact text is locked *)
let test_profile_golden () =
  let t = Span.create () in
  let tr = Some t in
  Span.span tr Span.Optimize "dp n=3" (fun () ->
      Span.span tr Span.Dp_level "dp-level-2" (fun () -> ()));
  Span.add tr Span.Pool_wait "queue-wait" ~start:0.0 ~dur:0.001;
  Span.add tr Span.Pool_wait "queue-wait" ~start:0.0 ~dur:0.002;
  Span.add tr Span.Reopt_step "q1/q1_s1@x"
    ~args:
      [
        ("subquery", "q1_s1@x"); ("score", "12.5"); ("est_rows", "100");
        ("actual_rows", "80"); ("replanned", "yes"); ("remaining", "2");
      ]
    ~start:0.0 ~dur:0.01;
  (* one span from each serving/IO-era category, so a category dropped
     from the summary table breaks this golden *)
  Span.add tr Span.Serve "queue-wait" ~start:0.0 ~dur:0.001;
  Span.add tr Span.Io "fault" ~start:0.0 ~dur:0.0005;
  Span.add tr Span.Io "prefetch" ~start:0.0 ~dur:0.0005;
  Span.add tr Span.Pipeline "pipeline-0" ~start:0.0 ~dur:0.002;
  Span.add tr Span.Breaker "build@t1" ~start:0.0 ~dur:0.001;
  let golden =
    "spans by category:\n\
    \  optimize         1\n\
    \  dp-level         1\n\
    \  reopt-step       1\n\
    \  pool-wait        2\n\
    \  serve            1\n\
    \  io               2\n\
    \  pipeline         1\n\
    \  breaker          1\n\
     pool queue-wait: 2 tasks\n\
     reopt journal:\n\
    \   1. q1/q1_s1@x                   est=100 actual=80 score=12.5 \
     replanned=yes remaining=2\n"
  in
  Alcotest.(check string) "profile golden" golden
    (Profile.summary ~timings:false t);
  let empty = Span.create () in
  Alcotest.(check string) "empty tracer"
    "spans by category:\n  (none)\n"
    (Profile.summary ~timings:false empty)

(* end to end: QuerySplit on the shop query emits a journal with one line
   per re-optimization step, carrying est vs. actual cardinalities *)
let test_profile_querysplit_journal () =
  let t = Span.create () in
  let _, ctx = Fixtures.shop_ctx ~n_orders:400 ~spans:t () in
  let q = Fixtures.shop_query () in
  let outcome = (Querysplit.strategy Querysplit.default_config).Strategy.run ctx q in
  Alcotest.(check bool) "query produced rows" true
    (Qs_storage.Table.n_rows outcome.Strategy.result > 0);
  let steps = find_all Span.Reopt_step (Span.spans t) in
  Alcotest.(check bool) "at least one reopt step" true (List.length steps >= 1);
  List.iter
    (fun (s : Span.span) ->
      List.iter
        (fun k ->
          if List.assoc_opt k s.Span.args = None then
            Alcotest.failf "journal span %s missing %s" s.Span.name k)
        [ "subquery"; "score"; "est_rows"; "actual_rows"; "replanned"; "remaining" ])
    steps;
  let summary = Profile.summary ~timings:false t in
  Alcotest.(check bool) "journal rendered" true
    (Str_helpers.contains summary "reopt journal:");
  Alcotest.(check bool) "est vs actual rendered" true
    (Str_helpers.contains summary " est=" && Str_helpers.contains summary " actual=")

let suite =
  [
    Alcotest.test_case "span nesting + parents" `Quick test_span_nesting;
    Alcotest.test_case "disabled tracer is passthrough" `Quick
      test_span_disabled_passthrough;
    Alcotest.test_case "span recorded on exception" `Quick
      test_span_records_on_exception;
    Alcotest.test_case "add clamps + sorts" `Quick test_span_add_clamps;
    Alcotest.test_case "pool task + queue-wait spans" `Quick test_pool_spans;
    Alcotest.test_case "pool inline paths record nothing" `Quick
      test_pool_inline_paths_record_nothing;
    Alcotest.test_case "optimizer dp-level spans" `Quick
      test_optimizer_dp_level_spans;
    Alcotest.test_case "executor operator spans" `Quick
      test_executor_operator_spans;
    Alcotest.test_case "chrome trace is valid + monotone" `Quick
      test_chrome_trace_valid;
    Alcotest.test_case "profile summary golden" `Quick test_profile_golden;
    Alcotest.test_case "querysplit reopt journal" `Quick
      test_profile_querysplit_journal;
    Alcotest.test_case "json parser" `Quick Json_parse.test_parser;
  ]
