(* The observability layer: Q-error conventions, histogram quantiles
   against a sorted-array reference, metrics JSON, and EXPLAIN ANALYZE
   rendered from an executed run's stats and spans (golden included). *)

module Qerror = Qs_obs.Qerror
module Histogram = Qs_obs.Histogram
module Metrics = Qs_obs.Metrics
module Span = Qs_util.Span
module Explain = Qs_obs.Explain
module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Estimator = Qs_stats.Estimator
module Optimizer = Qs_plan.Optimizer
module Physical = Qs_plan.Physical
module Executor = Qs_exec.Executor
module Strategy = Qs_core.Strategy
module Rng = Qs_util.Rng

let feq ?(eps = 1e-9) what a b =
  if Float.abs (a -. b) > eps then Alcotest.failf "%s: %f <> %f" what a b

(* --- Q-error conventions ---------------------------------------------- *)

let test_qerror_basics () =
  feq "perfect" 1.0 (Qerror.value ~est:50.0 ~actual:50);
  feq "over 4x" 4.0 (Qerror.value ~est:200.0 ~actual:50);
  feq "under 4x" 4.0 (Qerror.value ~est:50.0 ~actual:200);
  (* the zero conventions *)
  feq "0 vs 0" 1.0 (Qerror.value ~est:0.0 ~actual:0);
  feq "0 vs n" 10.0 (Qerror.value ~est:0.0 ~actual:10);
  feq "n vs 0" 10.0 (Qerror.value ~est:10.0 ~actual:0);
  feq "fraction vs 0" 1.0 (Qerror.value ~est:0.3 ~actual:0);
  feq "floats" 2.0 (Qerror.of_floats ~est:1.0 ~actual:2.0)

let test_qerror_direction () =
  Alcotest.(check bool) "under" true (Qerror.underestimated ~est:10.0 ~actual:100);
  Alcotest.(check bool) "over" false (Qerror.underestimated ~est:100.0 ~actual:10);
  Alcotest.(check bool) "tie" false (Qerror.underestimated ~est:10.0 ~actual:10);
  Alcotest.(check bool) "zero tie" false (Qerror.underestimated ~est:0.0 ~actual:0)

(* --- histogram vs sorted-array reference ------------------------------ *)

(* nearest-rank on the raw sorted sample: the same rank formula the
   histogram uses, so only bucket quantization separates the two *)
let exact_percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.round (p *. float_of_int (n - 1))) in
  sorted.(max 0 (min (n - 1) rank))

let check_against_reference ~what values =
  let h = Histogram.create () in
  Array.iter (Histogram.observe h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  Alcotest.(check int) (what ^ " count") (Array.length values) (Histogram.count h);
  feq ~eps:1e-6 (what ^ " min") sorted.(0) (Histogram.min_value h);
  feq ~eps:1e-6 (what ^ " max")
    sorted.(Array.length sorted - 1)
    (Histogram.max_value h);
  List.iter
    (fun p ->
      let expected = exact_percentile sorted p in
      let got = Histogram.percentile h p in
      let tolerance = Histogram.max_relative_error *. Float.max expected 1e-9 in
      if Float.abs (got -. expected) > tolerance +. 1e-9 then
        Alcotest.failf "%s p%.0f: got %g, expected %g (tolerance %g)" what
          (100.0 *. p) got expected tolerance)
    [ 0.0; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ]

let test_histogram_uniform () =
  let rng = Rng.create 11 in
  check_against_reference ~what:"uniform"
    (Array.init 5000 (fun _ -> Rng.float rng 1000.0))

let test_histogram_lognormal () =
  let rng = Rng.create 12 in
  check_against_reference ~what:"lognormal"
    (Array.init 5000 (fun _ -> Float.exp (Rng.gaussian rng ~mu:2.0 ~sigma:3.0)))

let test_histogram_qerror_like () =
  (* the actual use: q-errors are >= 1, heavy-tailed, many exact ones *)
  let rng = Rng.create 13 in
  check_against_reference ~what:"qerror"
    (Array.init 2000 (fun i ->
         if i mod 3 = 0 then 1.0
         else 1.0 +. Float.exp (Rng.gaussian rng ~mu:0.0 ~sigma:2.5)))

let test_histogram_edge_cases () =
  let h = Histogram.create () in
  Alcotest.(check bool) "empty mean NaN" true (Float.is_nan (Histogram.mean h));
  (* every percentile of an empty histogram is a well-defined 0.0, never
     NaN: telemetry thresholds compare against it *)
  feq "empty p0" 0.0 (Histogram.percentile h 0.0);
  feq "empty p50" 0.0 (Histogram.percentile h 0.5);
  feq "empty p100" 0.0 (Histogram.percentile h 1.0);
  Histogram.observe h 42.0;
  feq "single p0" 42.0 (Histogram.percentile h 0.0);
  feq "single p50" 42.0 (Histogram.percentile h 0.5);
  feq "single p100" 42.0 (Histogram.percentile h 1.0);
  (* the extreme ranks answer from the exact envelope, not a bucket
     representative: p100 of {1, 1000} is 1000, not the ~970 geometric
     midpoint of 1000's bucket *)
  let h2 = Histogram.create () in
  Histogram.observe h2 1.0;
  Histogram.observe h2 1000.0;
  feq "spread p0 exact min" 1.0 (Histogram.percentile h2 0.0);
  feq "spread p100 exact max" 1000.0 (Histogram.percentile h2 1.0);
  (* negatives and NaN clamp to zero instead of corrupting the counts *)
  Histogram.observe h (-5.0);
  Histogram.observe h Float.nan;
  Alcotest.(check int) "clamped still counted" 3 (Histogram.count h);
  feq "min is 0 after clamp" 0.0 (Histogram.min_value h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.observe a) [ 1.0; 2.0; 3.0 ];
  List.iter (Histogram.observe b) [ 100.0; 200.0 ];
  Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 5 (Histogram.count a);
  feq "merged sum" 306.0 (Histogram.sum a);
  feq "merged max" 200.0 (Histogram.max_value a)

(* --- metrics registry ------------------------------------------------- *)

let test_metrics_counters_and_json () =
  let m = Metrics.create () in
  Metrics.incr m "runs";
  Metrics.incr m ~by:4 "runs";
  Metrics.incr m ~by:0 "timeouts";
  Metrics.observe m "latency" 0.25;
  Metrics.observe m "latency" 0.75;
  Alcotest.(check int) "counter" 5 (Metrics.counter m "runs");
  Alcotest.(check int) "absent counter" 0 (Metrics.counter m "nope");
  Alcotest.(check (list string)) "counter names" [ "runs"; "timeouts" ]
    (Metrics.counter_names m);
  let json = Metrics.to_json m in
  List.iter
    (fun needle ->
      if not (Str_helpers.contains json needle) then
        Alcotest.failf "JSON missing %s in %s" needle json)
    [ "\"runs\": 5"; "\"timeouts\": 0"; "\"latency\""; "\"count\": 2"; "\"p50\"" ];
  let many = Metrics.json_of_many [ ("a", m); ("b", Metrics.create ()) ] in
  Alcotest.(check bool) "labelled object" true
    (Str_helpers.contains many "\"a\": {" && Str_helpers.contains many "\"b\": {")

let test_metrics_merge () =
  (* merging per-domain registries must equal the registry a single
     domain would have accumulated *)
  let whole = Metrics.create () in
  let parts = [ Metrics.create (); Metrics.create (); Metrics.create () ] in
  List.iteri
    (fun d m ->
      Metrics.incr ~by:(d + 1) m "runs";
      Metrics.incr ~by:(d + 1) whole "runs";
      if d = 1 then (
        Metrics.incr m "timeouts";
        Metrics.incr whole "timeouts");
      List.iter
        (fun v ->
          Metrics.observe m "latency" v;
          Metrics.observe whole "latency" v)
        [ float_of_int d; float_of_int (10 * (d + 1)) ])
    parts;
  let merged = Metrics.create () in
  List.iter (Metrics.merge ~into:merged) parts;
  Alcotest.(check int) "counters add" (Metrics.counter whole "runs")
    (Metrics.counter merged "runs");
  Alcotest.(check int) "counter only in one part" (Metrics.counter whole "timeouts")
    (Metrics.counter merged "timeouts");
  Alcotest.(check (list string)) "counter names" (Metrics.counter_names whole)
    (Metrics.counter_names merged);
  (match (Metrics.histogram merged "latency", Metrics.histogram whole "latency") with
  | Some hm, Some hw ->
      Alcotest.(check int) "histogram count" (Histogram.count hw) (Histogram.count hm);
      feq "histogram sum" (Histogram.sum hw) (Histogram.sum hm);
      feq "histogram max" (Histogram.max_value hw) (Histogram.max_value hm)
  | _ -> Alcotest.fail "latency histogram missing after merge");
  (* src registries are untouched *)
  Alcotest.(check int) "src unchanged" 1 (Metrics.counter (List.hd parts) "runs")

(* --- EXPLAIN ANALYZE from stats + spans ---------------------------- *)

let explained_shop_plan ?allowed () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:600 () in
  let q = Fixtures.shop_query () in
  let frag = Strategy.fragment_of_query ctx q in
  let plan = (Optimizer.optimize ?allowed cat Estimator.default frag).Optimizer.plan in
  let spans = Span.create () in
  let table, stats = Executor.run ~spans plan in
  (frag, plan, spans, table, stats)

(* plan nodes in rendering order: node, then left, then right subtree *)
let rec preorder (p : Physical.t) =
  p
  ::
  (match p.Physical.node with
  | Physical.Scan _ -> []
  | Physical.Join j -> preorder j.Physical.left @ preorder j.Physical.right)

(* one rendered line per plan node, paired with its node *)
let rendered_lines ?spans stats plan =
  let lines =
    String.split_on_char '\n' (Explain.render ~stats ?spans plan)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per node" (List.length (Physical.nodes plan))
    (List.length lines);
  List.combine (preorder plan) lines

let test_trace_covers_all_nodes () =
  let frag, plan, _, _, stats = explained_shop_plan () in
  Fixtures.check_node_rows ~what:"shop plan" frag plan stats;
  List.iter
    (fun ((n : Physical.t), line) ->
      let expected =
        Printf.sprintf "(est=%.0f actual=%d " n.Physical.est_rows
          (Hashtbl.find stats n.Physical.id)
      in
      if not (Str_helpers.contains line expected) then
        Alcotest.failf "node %d renders %S, expected %S" n.Physical.id line expected)
    (rendered_lines stats plan)

let test_trace_volumes () =
  let _, plan, spans, table, stats = explained_shop_plan () in
  Alcotest.(check (option int)) "root actual = result rows" (Some (Table.n_rows table))
    (Hashtbl.find_opt stats plan.Physical.id);
  let actual (p : Physical.t) = Hashtbl.find stats p.Physical.id in
  let index_inners =
    List.filter_map
      (fun (p : Physical.t) ->
        match p.Physical.node with
        | Physical.Join { method_ = Physical.Index_nl; right; _ } ->
            Some right.Physical.id
        | _ -> None)
      (Physical.nodes plan)
  in
  List.iter
    (fun ((n : Physical.t), line) ->
      let volume =
        match n.Physical.node with
        | Physical.Scan i ->
            let scanned = Table.n_rows i.Qs_stats.Fragment.table in
            (* an ordinary scan outputs at most what it read; an
               index-NL inner counts matched pairs instead *)
            if not (List.mem n.Physical.id index_inners) then
              Alcotest.(check bool)
                (Printf.sprintf "scan %d: scanned >= actual" n.Physical.id)
                true (scanned >= actual n);
            Printf.sprintf " scanned=%d" scanned
        | Physical.Join { method_ = Physical.Hash; left; right; _ } ->
            Printf.sprintf " built=%d probed=%d" (actual left) (actual right)
        | Physical.Join { left; _ } -> Printf.sprintf " outer=%d" (actual left)
      in
      if not (Str_helpers.contains line volume) then
        Alcotest.failf "node %d renders %S, expected %S" n.Physical.id line volume)
    (rendered_lines ~spans stats plan)

(* The golden test pins the renderer's exact output for a hand-built plan
   executed on a hand-built table — timings suppressed, so the string is
   fully deterministic. *)
let test_explain_golden () =
  let module Value = Qs_storage.Value in
  let module Schema = Qs_storage.Schema in
  let cat = Catalog.create () in
  let t name cols rows =
    Table.of_rows ~name ~schema:(Schema.make name cols) (List.map Array.of_list rows)
  in
  let i x = Value.Int x in
  let dept =
    t "dept" [ ("id", Value.TInt) ] [ [ i 1 ]; [ i 2 ] ]
  in
  let emp =
    t "emp"
      [ ("id", Value.TInt); ("dept_id", Value.TInt) ]
      [ [ i 1; i 1 ]; [ i 2; i 1 ]; [ i 3; i 2 ]; [ i 4; i 9 ] ]
  in
  Catalog.add_table cat ~pk:"id" dept;
  Catalog.add_table cat ~pk:"id" emp;
  Catalog.add_fk cat ~from_table:"emp" ~from_column:"dept_id" ~to_table:"dept"
    ~to_column:"id";
  let registry = Qs_stats.Stats_registry.create cat in
  let module Fragment = Qs_stats.Fragment in
  let module Expr = Qs_query.Expr in
  let d = Fragment.base_input registry ~alias:"d" ~table:"dept" [] in
  let e = Fragment.base_input registry ~alias:"e" ~table:"emp" [] in
  let sd = Physical.scan d ~est_rows:2.0 ~est_cost:2.0 in
  let se = Physical.scan e ~est_rows:4.0 ~est_cost:4.0 in
  let join =
    Physical.join ~method_:Physical.Hash () ~left:sd ~right:se
      ~preds:[ Expr.eq (Expr.col "e" "dept_id") (Expr.col "d" "id") ]
      ~est_rows:8.0 ~est_cost:20.0
  in
  let _, stats = Executor.run join in
  let golden =
    Printf.sprintf
      "HashJoin on e.dept_id = d.id  (est=8 actual=3 q=2.67)\n\
      \  Scan d  (est=2 actual=2 q=1.00)\n\
      \  Scan e  (est=4 actual=4 q=1.00)\n"
  in
  Alcotest.(check string) "explain analyze golden" golden
    (Explain.render ~stats join);
  Alcotest.(check string) "summary" "3 nodes, q-error max=2.67 mean=1.56, underest=0%"
    (Explain.summary ~stats join);
  (* force the join's observation to 3x over its estimate: 1 of 3 nodes
     is now underestimated per Qerror.underestimated *)
  Hashtbl.replace stats join.Physical.id 24;
  Alcotest.(check string) "summary with underestimates"
    "3 nodes, q-error max=3.00 mean=1.67, underest=33%"
    (Explain.summary ~stats join);
  (* without stats: plain EXPLAIN, estimates only *)
  Alcotest.(check string) "explain golden"
    "HashJoin on e.dept_id = d.id  (est=8)\n\
    \  Scan d  (est=2)\n\
    \  Scan e  (est=4)\n"
    (Explain.render join)

(* timings come only from the spans tied to a node: the pipeline span
   on the root, summed breaker spans on a join, none on a fused scan —
   checked on a hand-built tracer where every figure is exact *)
let test_explain_timings_hand_built () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:200 () in
  let frag = Strategy.fragment_of_query ctx (Fixtures.shop_query ()) in
  let plan =
    (Optimizer.optimize ~allowed:[ Physical.Hash ] cat Estimator.default frag)
      .Optimizer.plan
  in
  let stats = Hashtbl.create 16 in
  List.iter (fun (n : Physical.t) -> Hashtbl.replace stats n.Physical.id 1)
    (Physical.nodes plan);
  let tr = Span.create () in
  let node (p : Physical.t) = [ ("node", string_of_int p.Physical.id) ] in
  let t0 = Qs_util.Timer.now () in
  Span.add (Some tr) Span.Pipeline "pipeline:hash-join" ~args:(node plan) ~start:t0
    ~dur:0.004;
  Span.add (Some tr) Span.Breaker "hash-build" ~args:(node plan) ~start:t0
    ~dur:0.001;
  Span.add (Some tr) Span.Breaker "hash-build" ~args:(node plan) ~start:t0
    ~dur:0.0015;
  (* a span of another category or another node is ignored *)
  Span.add (Some tr) Span.Operator "hash-join" ~args:(node plan) ~start:t0 ~dur:1.0;
  Span.add (Some tr) Span.Breaker "hash-build" ~args:[ ("node", "-1") ] ~start:t0
    ~dur:1.0;
  List.iter
    (fun ((n : Physical.t), line) ->
      let has k = Str_helpers.contains line k in
      if n == plan then begin
        Alcotest.(check bool) ("root pipeline: " ^ line) true (has " pipeline=4.00ms");
        Alcotest.(check bool) ("root breakers summed: " ^ line) true
          (has " breaker=2.50ms")
      end
      else
        Alcotest.(check bool) ("no timing below the root: " ^ line) false
          (has "pipeline=" || has "breaker="))
    (rendered_lines ~spans:tr stats plan)

(* on a real executed plan: one pipeline span on the root, every breaker
   span on a hash join of the plan and nested inside the pipeline, and
   the rendering shows exactly those *)
let test_explain_timings_executed () =
  let _, plan, spans, _, stats = explained_shop_plan ~allowed:[ Physical.Hash ] () in
  let all = Span.spans spans in
  let node_of (s : Span.span) = List.assoc_opt "node" s.Span.args in
  let pipelines = List.filter (fun (s : Span.span) -> s.Span.cat = Span.Pipeline) all in
  let pipe =
    match pipelines with
    | [ p ] -> p
    | l -> Alcotest.failf "expected one pipeline span, got %d" (List.length l)
  in
  Alcotest.(check (option string)) "pipeline span on the root"
    (Some (string_of_int plan.Physical.id))
    (node_of pipe);
  let joins =
    List.filter_map
      (fun (p : Physical.t) ->
        match p.Physical.node with
        | Physical.Join _ -> Some (string_of_int p.Physical.id)
        | Physical.Scan _ -> None)
      (Physical.nodes plan)
  in
  let breakers = List.filter (fun (s : Span.span) -> s.Span.cat = Span.Breaker) all in
  Alcotest.(check int) "one build per hash join" (List.length joins)
    (List.length breakers);
  List.iter
    (fun (b : Span.span) ->
      Alcotest.(check bool) "breaker on a join" true
        (match node_of b with Some id -> List.mem id joins | None -> false);
      Alcotest.(check bool) "breaker nested in the pipeline" true
        (b.Span.start >= pipe.Span.start -. 1e-9
        && b.Span.start +. b.Span.dur <= pipe.Span.start +. pipe.Span.dur +. 1e-9))
    breakers;
  List.iter
    (fun ((n : Physical.t), line) ->
      let has k = Str_helpers.contains line k in
      Alcotest.(check bool) ("pipeline= only on the root: " ^ line) (n == plan)
        (has " pipeline=");
      Alcotest.(check bool) ("breaker= exactly on joins: " ^ line)
        (List.mem (string_of_int n.Physical.id) joins)
        (has " breaker="))
    (rendered_lines ~spans stats plan)

(* satellite: Metrics.to_json must be byte-identical whatever order
   per-domain registries are merged in (values picked binary-exact so
   float addition is associative) *)
let test_metrics_json_merge_order () =
  let mk (c, vs) =
    let m = Metrics.create () in
    Metrics.incr m ~by:c "runs";
    List.iter (Metrics.observe m "latency") vs;
    m
  in
  let parts =
    [ mk (1, [ 1.5; 2.25 ]); mk (2, [ 7.75 ]); mk (4, [ 10.0; 3.5 ]) ]
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map
              (fun rest -> x :: rest)
              (permutations (List.filter (fun y -> y != x) l)))
          l
  in
  let json_of order =
    let m = Metrics.create () in
    List.iter (Metrics.merge ~into:m) order;
    Metrics.to_json m
  in
  let reference = json_of parts in
  List.iter
    (fun order ->
      Alcotest.(check string) "merge-order independent JSON" reference
        (json_of order))
    (permutations parts)

let test_explain_never_executed () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:200 () in
  let q = Fixtures.shop_query () in
  let frag = Strategy.fragment_of_query ctx q in
  let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
  let empty = Hashtbl.create 1 in
  let rendered = Explain.render ~stats:empty plan in
  Alcotest.(check bool) "marks unexecuted nodes" true
    (Str_helpers.contains rendered "never executed");
  Alcotest.(check string) "summary of empty stats" "0 nodes traced"
    (Explain.summary ~stats:empty plan)

let suite =
  [
    Alcotest.test_case "qerror basics + zero conventions" `Quick test_qerror_basics;
    Alcotest.test_case "qerror direction" `Quick test_qerror_direction;
    Alcotest.test_case "histogram vs reference: uniform" `Quick test_histogram_uniform;
    Alcotest.test_case "histogram vs reference: lognormal" `Quick
      test_histogram_lognormal;
    Alcotest.test_case "histogram vs reference: qerror-like" `Quick
      test_histogram_qerror_like;
    Alcotest.test_case "histogram edge cases" `Quick test_histogram_edge_cases;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "metrics counters + json" `Quick test_metrics_counters_and_json;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "trace covers all nodes" `Quick test_trace_covers_all_nodes;
    Alcotest.test_case "trace volumes" `Quick test_trace_volumes;
    Alcotest.test_case "explain analyze golden" `Quick test_explain_golden;
    Alcotest.test_case "explain timings (hand-built spans)" `Quick
      test_explain_timings_hand_built;
    Alcotest.test_case "explain timings (executed plan)" `Quick
      test_explain_timings_executed;
    Alcotest.test_case "metrics json merge-order determinism" `Quick
      test_metrics_json_merge_order;
    Alcotest.test_case "explain of unexecuted plan" `Quick test_explain_never_executed;
  ]
