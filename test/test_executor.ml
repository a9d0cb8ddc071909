(* The executor: operator semantics against the naive reference, actual-
   cardinality stats, deadline behaviour, projection, cartesian. *)

module Value = Qs_storage.Value
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Fragment = Qs_stats.Fragment
module Estimator = Qs_stats.Estimator
module Optimizer = Qs_plan.Optimizer
module Physical = Qs_plan.Physical
module Executor = Qs_exec.Executor
module Naive = Qs_exec.Naive
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Strategy = Qs_core.Strategy

let mini_tables () =
  let a =
    Table.of_rows ~name:"a"
      ~schema:(Schema.make "a" [ ("x", Value.TInt); ("tag", Value.TStr) ])
      [
        [| Value.Int 1; Value.Str "p" |];
        [| Value.Int 2; Value.Str "q" |];
        [| Value.Int 2; Value.Str "r" |];
        [| Value.Null; Value.Str "s" |];
      ]
  in
  let b =
    Table.of_rows ~name:"b"
      ~schema:(Schema.make "b" [ ("y", Value.TInt); ("v", Value.TInt) ])
      [
        [| Value.Int 2; Value.Int 10 |];
        [| Value.Int 2; Value.Int 20 |];
        [| Value.Int 3; Value.Int 30 |];
        [| Value.Null; Value.Int 40 |];
      ]
  in
  (a, b)

let test_hash_join_basics () =
  let a, b = mini_tables () in
  let p = Expr.eq (Expr.col "a" "x") (Expr.col "b" "y") in
  let out = Naive.hash_join ~build:a ~probe:b [ p ] in
  (* x=2 matches twice on each side: 2*2 = 4 rows; nulls never join *)
  Alcotest.(check int) "4 rows" 4 (Table.n_rows out)

let test_hash_join_residual () =
  let a, b = mini_tables () in
  let p = Expr.eq (Expr.col "a" "x") (Expr.col "b" "y") in
  let res = Expr.Cmp (Expr.Gt, Expr.col "b" "v", Expr.vint 10) in
  let out = Naive.hash_join ~build:a ~probe:b [ p; res ] in
  Alcotest.(check int) "residual filters" 2 (Table.n_rows out)

let test_nulls_never_join () =
  let a, b = mini_tables () in
  let p = Expr.eq (Expr.col "a" "x") (Expr.col "b" "y") in
  let out = Naive.hash_join ~build:a ~probe:b [ p ] in
  Table.iter
    (fun row -> Array.iter (fun v -> Alcotest.(check bool) "no null keys" false
      (Value.is_null v && false)) row)
    out;
  (* the null x row and null y row must not appear *)
  Alcotest.(check int) "4 rows only" 4 (Table.n_rows out)

let test_filter_input () =
  let a, _ = mini_tables () in
  let input =
    {
      Fragment.id = "a";
      table = a;
      provides = [ "a" ];
      filters = [ Expr.Cmp (Expr.Eq, Expr.col "a" "x", Expr.vint 2) ];
      stats = Qs_stats.Table_stats.rowcount_only 4;
      is_temp = false;
      base_table = Some "a";
      provenance = "a";
      stats_epoch = 0;
      memo = Hashtbl.create 1;
      scratch = Qs_util.Scratch.create ();
    }
  in
  Alcotest.(check int) "2 rows" 2 (Table.n_rows (Executor.filter_input input))

let test_project () =
  let a, _ = mini_tables () in
  let out = Executor.project a [ { Expr.rel = "a"; name = "tag" } ] in
  Alcotest.(check int) "1 col" 1 (Schema.arity out.Table.schema);
  Alcotest.(check int) "rows preserved" 4 (Table.n_rows out);
  (* duplicate columns collapse *)
  let dup =
    Executor.project a [ { Expr.rel = "a"; name = "tag" }; { Expr.rel = "a"; name = "tag" } ]
  in
  Alcotest.(check int) "dedup" 1 (Schema.arity dup.Table.schema);
  (* empty projection keeps everything *)
  Alcotest.(check int) "empty keeps all" 2 (Schema.arity (Executor.project a []).Table.schema)

let test_cartesian () =
  let a, b = mini_tables () in
  let out = Executor.cartesian ~name:"x" [ a; b ] in
  Alcotest.(check int) "16 rows" 16 (Table.n_rows out);
  Alcotest.(check int) "4 cols" 4 (Schema.arity out.Table.schema)

let test_deadline_timeout () =
  (* a deliberately huge NL join must hit the deadline *)
  let big =
    Table.create ~inputs:[] ~name:"big"
      ~schema:(Schema.make "big" [ ("x", Value.TInt) ])
      (Array.init 30000 (fun i -> [| Value.Int i |]))
  in
  let big2 = Table.rename big "big2" in
  let input t base =
    {
      Fragment.id = t.Table.name;
      table = t;
      provides = [ t.Table.name ];
      filters = [];
      stats = Qs_stats.Analyze.rowcount_of_table t;
      is_temp = false;
      base_table = Some base;
      provenance = t.Table.name;
      stats_epoch = 0;
      memo = Hashtbl.create 1;
      scratch = Qs_util.Scratch.create ();
    }
  in
  let l = Physical.scan (input big "big") ~est_rows:30000.0 ~est_cost:1.0 in
  let r = Physical.scan (input big2 "big") ~est_rows:30000.0 ~est_cost:1.0 in
  let join =
    Physical.join ~method_:Physical.Nl () ~left:l ~right:r
      ~preds:[ Expr.Cmp (Expr.Lt, Expr.col "big" "x", Expr.col "big2" "x") ]
      ~est_rows:1.0 ~est_cost:1.0
  in
  Alcotest.(check bool) "timeout raised" true
    (try
       ignore (Executor.run ~deadline:(Qs_util.Timer.now () +. 0.05) join);
       false
     with Executor.Timeout -> true)

let test_node_stats_actuals () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:300 () in
  ignore cat;
  let frag = Strategy.fragment_of_query ctx (Fixtures.shop_query ()) in
  let res = Optimizer.optimize (Strategy.catalog ctx) Estimator.default frag in
  let tbl, stats = Executor.run res.Optimizer.plan in
  (* the root's recorded actual equals the output size *)
  Alcotest.(check (option int)) "root actual" (Some (Table.n_rows tbl))
    (Hashtbl.find_opt stats res.Optimizer.plan.Physical.id);
  (* every node recorded something sane *)
  List.iter
    (fun (n : Physical.t) ->
      match Hashtbl.find_opt stats n.Physical.id with
      | Some c -> Alcotest.(check bool) "non-negative" true (c >= 0)
      | None -> Alcotest.fail "join node missing stats")
    (Physical.joins_post_order res.Optimizer.plan)

let test_index_nl_equals_hash () =
  (* force an index-NL-only plan and compare with hash-only on the same
     fragment *)
  let cat, ctx = Fixtures.shop_ctx ~n_orders:500 () in
  let frag = Strategy.fragment_of_query ctx (Fixtures.shop_query ()) in
  let hash_res = Optimizer.optimize ~allowed:[ Physical.Hash ] cat Estimator.default frag in
  let inl_res =
    Optimizer.optimize ~allowed:[ Physical.Index_nl; Physical.Hash ] cat Estimator.default
      frag
  in
  let t1, _ = Executor.run hash_res.Optimizer.plan in
  let t2, _ = Executor.run inl_res.Optimizer.plan in
  Alcotest.(check bool) "same relation" true (Fixtures.tables_equal t1 t2)

(* --- stats completeness ------------------------------------------------ *)
(* Regression: the index-NL inner scan is consumed through the index, not
   executed as an operator, and its node id used to be silently absent
   from the stats table. Every node id of the plan must always be present,
   zero-row producers included. *)

let fragment_input ?(filters = []) (t : Table.t) =
  {
    Fragment.id = t.Table.name;
    table = t;
    provides = [ t.Table.name ];
    filters;
    stats = Qs_stats.Analyze.rowcount_of_table t;
    is_temp = false;
    base_table = Some t.Table.name;
    provenance = t.Table.name;
    stats_epoch = 0;
    memo = Hashtbl.create 1;
    scratch = Qs_util.Scratch.create ();
  }

let index_nl_plan ?outer_filters ?inner_filters () =
  let a, b = mini_tables () in
  let ix = Qs_storage.Index.build b ~column:"y" ~unique:false in
  let outer = Physical.scan (fragment_input ?filters:outer_filters a) ~est_rows:4.0 ~est_cost:4.0 in
  let inner = Physical.scan (fragment_input ?filters:inner_filters b) ~est_rows:4.0 ~est_cost:4.0 in
  let okey = { Expr.rel = "a"; name = "x" } in
  let ikey = { Expr.rel = "b"; name = "y" } in
  Physical.join ~method_:Physical.Index_nl ~index:(ix, okey, ikey) () ~left:outer
    ~right:inner
    ~preds:[ Expr.eq (Expr.Col okey) (Expr.Col ikey) ]
    ~est_rows:4.0 ~est_cost:20.0

let check_stats_complete plan stats =
  List.iter
    (fun (n : Physical.t) ->
      if not (Hashtbl.mem stats n.Physical.id) then
        Alcotest.failf "node %d missing from stats" n.Physical.id)
    (Physical.nodes plan)

let test_stats_complete_index_nl () =
  let plan = index_nl_plan () in
  let out, stats = Executor.run plan in
  check_stats_complete plan stats;
  (* x=2 rows (2) each match the two y=2 inner rows *)
  Alcotest.(check int) "join output" 4 (Table.n_rows out);
  let inner =
    match plan.Physical.node with
    | Physical.Join j -> j.Physical.right
    | _ -> assert false
  in
  Alcotest.(check (option int)) "inner scan records matched rows" (Some 4)
    (Hashtbl.find_opt stats inner.Physical.id)

let test_stats_complete_zero_rows () =
  (* inner filter matches nothing: the inner scan must still be recorded,
     at zero *)
  let plan =
    index_nl_plan
      ~inner_filters:[ Expr.Cmp (Expr.Gt, Expr.col "b" "v", Expr.vint 1000) ] ()
  in
  let out, stats = Executor.run plan in
  Alcotest.(check int) "empty join" 0 (Table.n_rows out);
  check_stats_complete plan stats;
  (* and with an outer filter that kills everything before the lookups *)
  let plan2 =
    index_nl_plan
      ~outer_filters:[ Expr.Cmp (Expr.Eq, Expr.col "a" "x", Expr.vint 999) ] ()
  in
  let out2, stats2 = Executor.run plan2 in
  Alcotest.(check int) "empty join 2" 0 (Table.n_rows out2);
  check_stats_complete plan2 stats2;
  List.iter
    (fun (n : Physical.t) ->
      Alcotest.(check (option int))
        (Printf.sprintf "node %d at zero" n.Physical.id)
        (Some 0)
        (Hashtbl.find_opt stats2 n.Physical.id))
    (match plan2.Physical.node with
    | Physical.Join j -> [ plan2; j.Physical.left; j.Physical.right ]
    | _ -> assert false)

let test_stats_complete_optimized_plans () =
  (* whatever join methods the optimizer picks, the stats id set must
     cover the whole plan *)
  let cat, ctx = Fixtures.shop_ctx ~n_orders:400 () in
  let frag = Strategy.fragment_of_query ctx (Fixtures.shop_query ()) in
  List.iter
    (fun allowed ->
      let res = Optimizer.optimize ~allowed cat Estimator.default frag in
      let _, stats = Executor.run res.Optimizer.plan in
      check_stats_complete res.Optimizer.plan stats)
    [
      [ Physical.Hash ];
      [ Physical.Index_nl; Physical.Hash ];
      [ Physical.Index_nl; Physical.Hash; Physical.Nl ];
    ]

(* --- filter-cache keying ----------------------------------------------- *)
(* Regression: the filtered-rows cache used the fixed key "filtered" (via
   Obj.repr), so re-filtering the same input record under a different
   pushed-down predicate set silently returned the stale rows of the
   first filter. The cache is now typed and keyed by the predicates. *)

let test_filter_cache_keyed_by_predicates () =
  let a, _ = mini_tables () in
  let eq v = [ Expr.Cmp (Expr.Eq, Expr.col "a" "x", Expr.vint v) ] in
  let input = fragment_input ~filters:(eq 2) a in
  Alcotest.(check int) "first filter" 2 (Table.n_rows (Executor.filter_input input));
  (* same input record — and thus the same scratch cache — re-planned
     with a different predicate set *)
  let input' = { input with Fragment.filters = eq 1 } in
  Alcotest.(check int) "re-filter is not stale" 1
    (Table.n_rows (Executor.filter_input input'));
  (* the first filter's entry is still served, still correct *)
  Alcotest.(check int) "original entry intact" 2
    (Table.n_rows (Executor.filter_input input))

(* The cache key also carries the kept positions: a bare scan under one
   projection must not serve another projection's (or the unprojected
   scan's) columns, and a repeated scan under the same one is a hit. *)
let test_filter_cache_keyed_by_positions () =
  let a, _ = mini_tables () in
  let input =
    fragment_input ~filters:[ Expr.Cmp (Expr.Eq, Expr.col "a" "x", Expr.vint 2) ] a
  in
  let cells t = List.map Array.to_list (Array.to_list (Table.to_rows t)) in
  let tags = Executor.filter_input ~positions:[ 1 ] input in
  Alcotest.(check int) "tag only" 1 (Schema.arity tags.Table.schema);
  Alcotest.(check bool) "tag cells" true
    (cells tags = [ [ Value.Str "q" ]; [ Value.Str "r" ] ]);
  let xs = Executor.filter_input ~positions:[ 0 ] input in
  Alcotest.(check bool) "x cells, not the tag entry" true
    (cells xs = [ [ Value.Int 2 ]; [ Value.Int 2 ] ]);
  Alcotest.(check int) "unprojected scan keeps both columns" 2
    (Schema.arity (Executor.filter_input input).Table.schema);
  Alcotest.(check bool) "identity positions are the unprojected entry" true
    (Executor.filter_input ~positions:[ 0; 1 ] input == Executor.filter_input input);
  Alcotest.(check bool) "same positions hit the cache" true
    (Executor.filter_input ~positions:[ 1 ] input == tags)

(* --- morsel-driven engine: intermediates ------------------------------- *)

let test_pipelined_intermediates_counter () =
  (* the 4-way shop join, executed as one plan: the pipelined engine
     materializes only its sink, never an operator output *)
  let cat, ctx = Fixtures.shop_ctx ~n_orders:400 () in
  let frag = Strategy.fragment_of_query ctx (Fixtures.shop_query ()) in
  let res = Optimizer.optimize ~allowed:[ Physical.Hash ] cat Estimator.default frag in
  Executor.reset_counters ();
  let tbl, _ = Executor.run res.Optimizer.plan in
  Alcotest.(check int) "pipelined materializes only the sink" 1
    (Executor.intermediate_tables ());
  Alcotest.(check int) "sink holds the naive result" (Naive.count frag)
    (Table.n_rows tbl)

(* --- join-key semantics -------------------------------------------------- *)
(* The engine hashes a one-column key as the [Value.t] itself and a wider
   key as a list of values; both must keep the equality of the
   polymorphic table Naive joins with: [Int 1] never meets [Float 1.0],
   NULL never joins, NaN meets NaN and [-0.0] meets [0.0]. *)

let key_values =
  [|
    Value.Int 1; Value.Float 1.0; Value.Null; Value.Float Float.nan;
    Value.Float (-0.0); Value.Float 0.0; Value.Str "1";
  |]

(* (a.id, b.id) pairs the key equality must produce, by index into
   [key_values] *)
let expected_key_pairs =
  [ (0, 0); (1, 1); (3, 3); (4, 4); (4, 5); (5, 4); (5, 5); (6, 6) ]

let key_table rel =
  Table.create ~inputs:[] ~name:rel
    ~schema:(Schema.make rel [ ("k", Value.TFloat); ("k2", Value.TInt); ("id", Value.TInt) ])
    (Array.mapi (fun i v -> [| v; Value.Int 0; Value.Int i |]) key_values)

let id_pairs (t : Table.t) =
  let ia = Schema.find_exn t.Table.schema ~rel:"a" ~name:"id" in
  let ib = Schema.find_exn t.Table.schema ~rel:"b" ~name:"id" in
  Table.fold (fun acc r -> (Value.as_int r.(ia), Value.as_int r.(ib)) :: acc) [] t
  |> List.sort compare

let test_join_key_semantics () =
  let ia = fragment_input (key_table "a") and ib = fragment_input (key_table "b") in
  let on name = Expr.eq (Expr.col "a" name) (Expr.col "b" name) in
  let ids = [ { Expr.rel = "a"; name = "id" }; { Expr.rel = "b"; name = "id" } ] in
  List.iter
    (fun (what, preds) ->
      let plan =
        Physical.join ~method_:Physical.Hash () ~preds ~est_rows:1.0 ~est_cost:1.0
          ~left:(Physical.scan ia ~est_rows:7.0 ~est_cost:1.0)
          ~right:(Physical.scan ib ~est_rows:7.0 ~est_cost:1.0)
      in
      let got, _ = Executor.run plan in
      Alcotest.(check (list (pair int int))) (what ^ ": engine") expected_key_pairs
        (id_pairs got);
      let naive = Naive.rows { Fragment.inputs = [ ia; ib ]; preds; output = ids } in
      Alcotest.(check (list (pair int int))) (what ^ ": naive") expected_key_pairs
        (id_pairs naive))
    [ ("one-column key", [ on "k" ]); ("two-column key", [ on "k"; on "k2" ]) ]

let test_naive_count_matches_rows () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:400 () in
  let rng = Qs_util.Rng.create 1 in
  for _ = 1 to 10 do
    let q = Fixtures.random_shop_query rng in
    let frag = Strategy.fragment_of_query ctx q in
    let full = { frag with Fragment.output = [] } in
    Alcotest.(check int) "count = |rows|" (Table.n_rows (Naive.rows full))
      (Naive.count full)
  done

(* --- column-major join outputs -------------------------------------------- *)

let int_table ?(columnar = false) rel cols rows =
  let schema = Schema.make rel (List.map (fun c -> (c, Value.TInt)) cols) in
  if columnar then Fixtures.columnar_table ~name:rel ~schema rows
  else Table.create ~inputs:[] ~name:rel ~schema rows

let scan_of t = Physical.scan (fragment_input t) ~est_rows:1.0 ~est_cost:1.0

let join method_ ?index left right preds =
  Physical.join ~method_ ?index () ~left ~right ~preds ~est_rows:1.0 ~est_cost:1.0

let eq_cols (r1, c1) (r2, c2) = Expr.eq (Expr.col r1 c1) (Expr.col r2 c2)

(* A join appends its kept pairs' cells to one boxed column per output
   column; a kept pair builds no row and no list cell. Bound: the
   output cells themselves (4 words a row for these 4 columns, in
   32-value segments) plus 3 minor words per output row, for a
   resident hash join and an index nested-loop join of 100,000 rows
   each. The probe's hash lookup and the unique index's lookup allocate
   nothing. Building a row per pair (5 words) puts either join over the
   bound, and its list cell (3 more) further. *)
let test_join_output_allocation () =
  let n = 100_000 and keys = 1_000 in
  let a = int_table "a" [ "k"; "x" ] (Array.init n (fun i -> [| Value.Int (i mod keys); Value.Int i |])) in
  let b = int_table "b" [ "k"; "y" ] (Array.init keys (fun i -> [| Value.Int i; Value.Int (-i) |])) in
  let ix = Qs_storage.Index.build b ~column:"k" ~unique:true in
  let on = eq_cols ("a", "k") ("b", "k") in
  let plans =
    [
      ("hash join", join Physical.Hash (scan_of b) (scan_of a) [ on ]);
      ( "index-NL join",
        join Physical.Index_nl
          ~index:(ix, { Expr.rel = "a"; name = "k" }, { Expr.rel = "b"; name = "k" })
          (scan_of a) (scan_of b) [ on ] );
    ]
  in
  List.iter
    (fun (what, plan) ->
      ignore (Executor.run plan);
      let before = Gc.minor_words () in
      let out, _ = Executor.run plan in
      let per_row = (Gc.minor_words () -. before) /. float n in
      Alcotest.(check int) (what ^ ": rows") n (Table.n_rows out);
      if per_row > 7.0 then
        Alcotest.failf "%s: %.2f minor words per output row (bound 7)" what per_row)
    plans

(* A hash build keeps its rows as (morsel, ordinal) references chained
   per key and reads their cells through readers hoisted once per build
   morsel: a build row decodes no row and allocates nothing of its own.
   The build side is a 100,000-row join output (boxed columns, 4 wide)
   over 1,000 keys, probed by 10 rows that keep 1,000 pairs. Bound: 1
   minor word per build row, which covers the kept morsels' readers,
   the hash table's buckets for its 1,000 keys and the output. A build
   that decodes a row per build row (5 words for these 4 columns, plus
   its closure) or keeps a list cell per row (3 words) is over it. *)
let test_hash_build_allocation () =
  let n = 100_000 and keys = 1_000 in
  let a = int_table "a" [ "k"; "x" ] (Array.init n (fun i -> [| Value.Int (i mod keys); Value.Int i |])) in
  let c = int_table "c" [ "k"; "y" ] (Array.init keys (fun i -> [| Value.Int i; Value.Int (-i) |])) in
  let build, _ =
    Executor.run (join Physical.Hash (scan_of c) (scan_of a) [ eq_cols ("a", "k") ("c", "k") ])
  in
  let build = Table.with_name build "j" in
  let p = int_table "p" [ "k"; "z" ] (Array.init 10 (fun i -> [| Value.Int i; Value.Int i |])) in
  let plan = join Physical.Hash (scan_of build) (scan_of p) [ eq_cols ("a", "k") ("p", "k") ] in
  ignore (Executor.run plan);
  let before = Gc.minor_words () in
  let out, _ = Executor.run plan in
  let per_row = (Gc.minor_words () -. before) /. float n in
  Alcotest.(check int) "rows" (10 * (n / keys)) (Table.n_rows out);
  if per_row > 1.0 then
    Alcotest.failf "%.2f minor words per build row (bound 1)" per_row

(* Joins whose inputs are column-major join outputs: probed, built,
   nested-loop outer and inner, index-NL outer, over NULL and duplicate
   keys with a residual at both levels, equal the naive reference. The
   base tables are row-major or column-major. *)
let gen_join_case =
  let open QCheck.Gen in
  let key = frequency [ (1, return Value.Null); (5, map (fun k -> Value.Int k) (int_bound 4)) ] in
  let row = map2 (fun k x -> [| k; Value.Int x |]) key (int_bound 9) in
  let rows = array_size (int_range 0 12) row in
  quad rows rows rows bool

let print_join_case (a, b, c, columnar) =
  let rows rs =
    String.concat ";"
      (Array.to_list
         (Array.map (fun r -> String.concat "," (Array.to_list (Array.map Value.to_string r))) rs))
  in
  Printf.sprintf "a=[%s] b=[%s] c=[%s] columnar=%b" (rows a) (rows b) (rows c) columnar

let join_outputs_match_naive =
  QCheck.Test.make ~name:"column-major join outputs = naive" ~count:200
    (QCheck.make ~print:print_join_case gen_join_case)
    (fun (ra, rb, rc, columnar) ->
      let a = int_table ~columnar "a" [ "k"; "x" ] ra
      and b = int_table ~columnar "b" [ "k"; "y" ] rb
      and c = int_table ~columnar "c" [ "k"; "z" ] rc in
      let ix = Qs_storage.Index.build c ~column:"k" ~unique:false in
      let ab_preds = [ eq_cols ("a", "k") ("b", "k"); Expr.Cmp (Expr.Ne, Expr.col "a" "x", Expr.col "b" "y") ] in
      let top_preds = [ eq_cols ("b", "k") ("c", "k"); Expr.Cmp (Expr.Lt, Expr.col "a" "x", Expr.col "c" "z") ] in
      let ab () = join Physical.Hash (scan_of a) (scan_of b) ab_preds in
      let plans =
        [
          ("probed", join Physical.Hash (scan_of c) (ab ()) top_preds);
          ("built", join Physical.Hash (ab ()) (scan_of c) top_preds);
          ("NL outer", join Physical.Nl (ab ()) (scan_of c) top_preds);
          ("NL inner", join Physical.Nl (scan_of c) (ab ()) top_preds);
          ( "index-NL outer",
            join Physical.Index_nl
              ~index:(ix, { Expr.rel = "b"; name = "k" }, { Expr.rel = "c"; name = "k" })
              (ab ()) (scan_of c) top_preds );
        ]
      in
      let output =
        List.concat_map
          (fun (r, cs) -> List.map (fun n -> { Expr.rel = r; name = n }) cs)
          [ ("a", [ "k"; "x" ]); ("b", [ "k"; "y" ]); ("c", [ "k"; "z" ]) ]
      in
      let naive =
        Naive.rows
          {
            Fragment.inputs = [ fragment_input a; fragment_input b; fragment_input c ];
            preds = ab_preds @ top_preds;
            output;
          }
      in
      List.iter
        (fun (what, plan) ->
          let got, _ = Executor.run plan in
          if not (Fixtures.tables_equal naive got) then
            QCheck.Test.fail_reportf "%s: %d rows, naive %d" what (Table.n_rows got)
              (Table.n_rows naive))
        plans;
      true)

(* The row limit counts what it counted when joins built rows: a hash
   join's matched pairs, an index-NL join's pairs past the inner
   filters, a nested-loop join's kept pairs. A limit equal to the pair
   count runs; one below it raises [Timeout], also when the join is
   the input of another. *)
let test_row_limit_pair_count () =
  let a = int_table "a" [ "k"; "x" ] (Array.init 6 (fun i -> [| Value.Int (i mod 2); Value.Int i |])) in
  let b = int_table "b" [ "k"; "y" ] (Array.init 5 (fun i -> [| Value.Int (i mod 3); Value.Int i |])) in
  let c = int_table "c" [ "k"; "z" ] [| [| Value.Int 0; Value.Int 0 |] |] in
  let ix = Qs_storage.Index.build b ~column:"k" ~unique:false in
  let on = eq_cols ("a", "k") ("b", "k") in
  (* keys 0 and 1: 3 x 2 and 3 x 2 pairs *)
  let pairs = 12 in
  let plans =
    [
      ("hash", join Physical.Hash (scan_of a) (scan_of b) [ on ]);
      ( "index-NL",
        join Physical.Index_nl
          ~index:(ix, { Expr.rel = "a"; name = "k" }, { Expr.rel = "b"; name = "k" })
          (scan_of a) (scan_of b) [ on ] );
      ("NL", join Physical.Nl (scan_of a) (scan_of b) [ on ]);
    ]
  in
  List.iter
    (fun (what, plan) ->
      let top = join Physical.Hash (scan_of c) plan [ eq_cols ("c", "k") ("a", "k") ] in
      List.iter
        (fun (shape, run) ->
          let _, stats = Executor.run ~row_limit:pairs run in
          Alcotest.(check int) (what ^ shape ^ ": pairs at the limit") pairs
            (Hashtbl.find stats plan.Physical.id);
          match Executor.run ~row_limit:(pairs - 1) run with
          | _ -> Alcotest.failf "%s%s: a limit below the pair count did not raise" what shape
          | exception Executor.Timeout -> ())
        [ ("", plan); (" under a join", top) ])
    plans

let suite =
  [
    Alcotest.test_case "hash join basics" `Quick test_hash_join_basics;
    Alcotest.test_case "hash join residual" `Quick test_hash_join_residual;
    Alcotest.test_case "nulls never join" `Quick test_nulls_never_join;
    Alcotest.test_case "filter input" `Quick test_filter_input;
    Alcotest.test_case "project" `Quick test_project;
    Alcotest.test_case "cartesian" `Quick test_cartesian;
    Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout;
    Alcotest.test_case "node stats" `Quick test_node_stats_actuals;
    Alcotest.test_case "index NL = hash result" `Quick test_index_nl_equals_hash;
    Alcotest.test_case "stats cover all nodes (index NL)" `Quick
      test_stats_complete_index_nl;
    Alcotest.test_case "stats cover all nodes (zero rows)" `Quick
      test_stats_complete_zero_rows;
    Alcotest.test_case "stats cover all nodes (optimized plans)" `Quick
      test_stats_complete_optimized_plans;
    Alcotest.test_case "naive count = rows" `Quick test_naive_count_matches_rows;
    Alcotest.test_case "join keys: one and two columns = naive" `Quick
      test_join_key_semantics;
    Alcotest.test_case "filter cache keyed by predicates" `Quick
      test_filter_cache_keyed_by_predicates;
    Alcotest.test_case "filter cache keyed by positions" `Quick
      test_filter_cache_keyed_by_positions;
    Alcotest.test_case "join output allocation" `Quick test_join_output_allocation;
    Alcotest.test_case "hash build allocation" `Quick test_hash_build_allocation;
    QCheck_alcotest.to_alcotest join_outputs_match_naive;
    Alcotest.test_case "row limit at the pair count" `Quick test_row_limit_pair_count;
    Alcotest.test_case "pipelined intermediates counter" `Quick
      test_pipelined_intermediates_counter;
  ]
